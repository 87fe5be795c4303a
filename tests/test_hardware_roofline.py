"""Tests for the GPU catalog and roofline latency model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareModelError
from repro.hardware import (
    GPU_CATALOG,
    MODEL_CATALOG,
    RooflineModel,
    drafter_spec,
    get_gpu,
    get_model,
)


@pytest.fixture()
def roofline():
    return RooflineModel(
        model=get_model("Qwen2.5-7B"), gpu=get_gpu("H100")
    )


class TestCatalogs:
    def test_all_gpus_valid(self):
        for spec in GPU_CATALOG.values():
            assert spec.effective_tflops > 0
            assert spec.effective_gbps > 0

    def test_unknown_gpu_raises(self):
        with pytest.raises(HardwareModelError):
            get_gpu("TPU")

    def test_unknown_model_raises(self):
        with pytest.raises(HardwareModelError):
            get_model("GPT-5")

    def test_model_sizes_ordered(self):
        assert (
            get_model("Qwen2.5-7B").params
            < get_model("Qwen2.5-32B").params
            < get_model("Llama-3.3-70B").params
        )

    def test_drafter_much_smaller(self):
        target = get_model("Qwen2.5-32B")
        drafter = drafter_spec(target)
        assert drafter.params < 0.1 * target.params
        assert drafter.num_layers == 1


class TestRoofline:
    def test_decode_memory_bound_small_batch(self, roofline):
        cost = roofline.forward_cost(1, 1, context_tokens=1000)
        assert cost.bound == "memory"

    def test_verify_more_compute_than_decode(self, roofline):
        decode = roofline.forward_cost(1, 1)
        verify = roofline.forward_cost(1, 49)
        assert verify.compute_s > decode.compute_s
        assert verify.memory_s == pytest.approx(decode.memory_s)

    def test_large_batch_compute_bound(self, roofline):
        cost = roofline.forward_cost(256, 8)
        assert cost.bound == "compute"

    def test_decode_step_monotone_in_batch(self, roofline):
        times = [
            roofline.decode_step_s(b, context_tokens=2000)
            for b in [1, 8, 64, 512]
        ]
        assert times == sorted(times)

    def test_sd_speedup_decreases_with_batch(self, roofline):
        """Table 4's primary trend."""
        drafter = drafter_spec(roofline.model)
        speedups = [
            roofline.sd_speedup(
                drafter, accept_length=5.0, batch_size=b,
                draft_depth=8, topk=8, tokens_to_verify=48,
            )
            for b in [1, 8, 32, 128]
        ]
        assert speedups[0] > speedups[-1]

    def test_sd_speedup_higher_on_older_gpus(self):
        """Table 2's trend: slower GPUs see larger SD speedups."""
        model = get_model("Qwen2.5-7B")
        drafter = drafter_spec(model)

        def speedup(gpu_name):
            rl = RooflineModel(model=model, gpu=get_gpu(gpu_name))
            return rl.sd_speedup(
                drafter, accept_length=5.2, batch_size=1,
                draft_depth=6, topk=8, tokens_to_verify=48,
            )

        assert speedup("RTX3090") > speedup("H100") > speedup("B200")

    def test_vanilla_throughput_scale(self):
        """H100 7B decode lands in the paper's ~165 tok/s regime."""
        rl = RooflineModel(
            model=get_model("Qwen2.5-7B"), gpu=get_gpu("H100")
        )
        tps = rl.vanilla_tokens_per_s(1)
        assert 120 < tps < 220

    def test_tp_reduces_latency(self):
        model = get_model("Qwen2.5-32B")
        t1 = RooflineModel(model=model, gpu=get_gpu("H100"),
                           tensor_parallel=1).decode_step_s(1)
        t4 = RooflineModel(model=model, gpu=get_gpu("H100"),
                           tensor_parallel=4).decode_step_s(1)
        assert t4 < t1

    def test_achieved_tflops_saturates(self, roofline):
        """Figure 5c: achieved TFLOPS rises with batch then saturates."""
        achieved = [
            roofline.achieved_tflops(roofline.forward_cost(b, 1))
            for b in [1, 16, 128, 512]
        ]
        assert achieved == sorted(achieved)
        assert achieved[-1] <= roofline.gpu.effective_tflops * 1.01

    def test_sd_reaches_peak_at_smaller_batch(self, roofline):
        """Figure 5c's gray arrow: SD is compute-bound much earlier."""
        ridge_vanilla = None
        ridge_sd = None
        for b in range(1, 513):
            if ridge_vanilla is None and (
                roofline.forward_cost(b, 1).bound == "compute"
            ):
                ridge_vanilla = b
            if ridge_sd is None and (
                roofline.forward_cost(b, 49).bound == "compute"
            ):
                ridge_sd = b
            if ridge_vanilla and ridge_sd:
                break
        assert ridge_sd is not None
        assert ridge_vanilla is None or ridge_sd < ridge_vanilla

    def test_validation(self, roofline):
        with pytest.raises(HardwareModelError):
            roofline.forward_cost(0, 1)
        with pytest.raises(HardwareModelError):
            roofline.forward_cost(1, 1, context_tokens=-1)
        with pytest.raises(HardwareModelError):
            roofline.sd_tokens_per_s(
                drafter_spec(roofline.model), 0.5, 1, 4, 4, 8
            )
        with pytest.raises(HardwareModelError):
            roofline.train_step_s(0)

    @given(st.integers(1, 256), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_property_total_positive(self, batch, tokens):
        rl = RooflineModel(
            model=get_model("Qwen2.5-7B"), gpu=get_gpu("A100")
        )
        assert rl.forward_cost(batch, tokens).total_s > 0
