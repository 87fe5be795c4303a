"""Tests for the RL-step cluster simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, RlStepSimulator, StepWorkload
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware import get_gpu, get_model
from repro.rollout import AdaptiveSdConfig


@pytest.fixture()
def cluster():
    return ClusterSpec(
        num_workers=8, gpus_per_worker=4, gpu=get_gpu("H100")
    )


@pytest.fixture()
def workload():
    rng = np.random.default_rng(0)
    from repro.workload import LognormalLengths

    lengths = LognormalLengths(
        median=1500, sigma=1.1, cap=16000
    ).sample(rng, 128)
    return StepWorkload(lengths=lengths.tolist())


class TestSpecs:
    def test_total_gpus(self, cluster):
        assert cluster.total_gpus == 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_workers=0, gpus_per_worker=1,
                        gpu=get_gpu("H100"))
        with pytest.raises(ConfigError):
            StepWorkload(lengths=[])


class TestVanillaStep:
    def test_phase_structure(self, cluster, workload):
        simulator = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        )
        result = simulator.simulate_step(workload)
        assert result.rollout_s > 0
        assert result.inference_s > 0
        assert result.training_s > 0
        assert result.step_time_s == pytest.approx(
            result.rollout_s + result.inference_s
            + result.training_s + result.transition_s
        )

    def test_rollout_dominates(self, cluster, workload):
        """Figure 1(a): rollout is ~85% of the step."""
        simulator = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        )
        result = simulator.simulate_step(workload)
        assert result.rollout_fraction > 0.6

    def test_idle_gpu_time_from_long_tail(self, cluster, workload):
        simulator = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        )
        result = simulator.simulate_step(workload)
        assert result.idle_gpu_s > 0
        assert result.drafter_updates == 0

    def test_rollout_time_is_slowest_worker(self, cluster, workload):
        simulator = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        )
        result = simulator.simulate_step(workload)
        assert result.rollout_s == pytest.approx(
            max(result.worker_rollout_s)
        )

    def test_striping_balances(self, cluster, workload):
        simulator = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        )
        result = simulator.simulate_step(workload)
        times = np.asarray(result.worker_rollout_s)
        assert times.max() < 2.5 * times.min()


class TestTltStep:
    def test_sd_reduces_rollout_time(self, cluster, workload):
        vanilla = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster
        ).simulate_step(workload)
        tlt = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster,
            sd_config=AdaptiveSdConfig(activation_threshold=32),
            spot_training=True,
        ).simulate_step(workload)
        assert tlt.rollout_s < vanilla.rollout_s

    def test_spot_training_harvests_bubbles(self, cluster, workload):
        tlt = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster,
            sd_config=AdaptiveSdConfig(activation_threshold=32),
            spot_training=True,
        ).simulate_step(workload)
        assert tlt.drafter_updates > 0
        assert tlt.drafter_train_gpu_s > 0
        kinds = {seg.kind for seg in tlt.segments}
        assert "drafter" in kinds

    def test_spot_training_free(self, cluster, workload):
        """Bubble harvesting must not lengthen the step."""
        base = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster,
            sd_config=AdaptiveSdConfig(activation_threshold=32),
            spot_training=False,
        ).simulate_step(workload)
        spot = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster,
            sd_config=AdaptiveSdConfig(activation_threshold=32),
            spot_training=True,
        ).simulate_step(workload)
        assert spot.rollout_s <= base.rollout_s * 1.001

    def test_segments_cover_rollout(self, cluster, workload):
        result = RlStepSimulator(
            get_model("Qwen2.5-7B"), cluster,
            sd_config=AdaptiveSdConfig(activation_threshold=32),
            spot_training=True,
        ).simulate_step(workload)
        for worker_id in range(cluster.num_workers):
            segs = sorted(
                (s for s in result.segments
                 if s.worker_id == worker_id),
                key=lambda s: s.start_s,
            )
            assert segs[0].start_s == 0.0
            assert segs[-1].end_s == pytest.approx(result.rollout_s)
            for a, b in zip(segs, segs[1:]):
                assert a.end_s == pytest.approx(b.start_s)


class TestMemoryGuard:
    def test_training_oom_small_cluster(self, workload):
        """Table 3: Qwen-32B OOMs on 1-2 nodes."""
        cluster = ClusterSpec(
            num_workers=1, gpus_per_worker=8, gpu=get_gpu("H100")
        )
        simulator = RlStepSimulator(get_model("Qwen2.5-32B"), cluster)
        with pytest.raises(OutOfMemoryError):
            simulator.simulate_step(workload)

    def test_fits_on_more_nodes(self, workload):
        cluster = ClusterSpec(
            num_workers=4, gpus_per_worker=8, gpu=get_gpu("H100")
        )
        simulator = RlStepSimulator(get_model("Qwen2.5-32B"), cluster)
        result = simulator.simulate_step(workload)
        assert result.step_time_s > 0

    def test_guard_can_be_disabled(self, workload):
        cluster = ClusterSpec(
            num_workers=1, gpus_per_worker=8, gpu=get_gpu("H100")
        )
        simulator = RlStepSimulator(
            get_model("Qwen2.5-32B"), cluster,
            check_training_memory=False,
        )
        assert simulator.simulate_step(workload).step_time_s > 0
