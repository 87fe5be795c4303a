"""Tests for the end-to-end system models (Figure 11 shapes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, StepWorkload
from repro.errors import ConfigError
from repro.hardware import get_gpu, get_model
from repro.systems import (
    OpenR1System,
    TltBaseSystem,
    TltSystem,
    VerlSystem,
)
from repro.systems.openr1 import ROLLOUT_EFFICIENCY
from repro.workload import LognormalLengths


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    lengths = LognormalLengths(
        median=2500, sigma=1.15, cap=32768
    ).sample(rng, 256)
    return StepWorkload(lengths=lengths.tolist())


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(
        num_workers=16, gpus_per_worker=4, gpu=get_gpu("H100")
    )


@pytest.fixture(scope="module")
def reports(workload, cluster):
    model = get_model("Qwen2.5-7B")
    out = {}
    for cls in [OpenR1System, VerlSystem, TltBaseSystem, TltSystem]:
        out[cls.name] = cls(model, cluster).simulate_step(workload)
    return out


class TestFigure11Shape:
    def test_ordering(self, reports):
        """Open-R1 << VeRL < TLT-Base < TLT."""
        assert (
            reports["Open-R1"].throughput_tps
            < reports["VeRL"].throughput_tps
            < reports["TLT-Base"].throughput_tps
            < reports["TLT"].throughput_tps
        )

    def test_tlt_speedup_in_paper_range(self, reports):
        ratio = (
            reports["TLT"].throughput_tps
            / reports["VeRL"].throughput_tps
        )
        assert 1.5 < ratio < 2.4

    def test_tlt_base_speedup_in_paper_range(self, reports):
        ratio = (
            reports["TLT-Base"].throughput_tps
            / reports["VeRL"].throughput_tps
        )
        assert 1.1 < ratio < 1.7

    def test_openr1_order_of_magnitude_behind(self, reports):
        ratio = (
            reports["Open-R1"].throughput_tps
            / reports["VeRL"].throughput_tps
        )
        assert ratio < 0.4

    def test_tlt_harvests_drafter_updates(self, reports):
        assert reports["TLT"].drafter_updates > 0
        assert reports["VeRL"].drafter_updates == 0

    def test_phase_keys(self, reports):
        for report in reports.values():
            assert set(report.phases) == {
                "rollout", "inference", "training", "transition",
            }


class TestOpenR1:
    def test_waves_slow_rollout(self, workload, cluster):
        """Each of the ROLLOUT_WAVES waves pays its own straggler, so
        the waved rollout is slower than the batch in one wave."""
        system = OpenR1System(get_model("Qwen2.5-7B"), cluster)
        waved = system.simulate_step(workload).phases["rollout"]
        one_wave = system._serving_sim.simulate_step(workload).rollout_s
        assert waved > one_wave / ROLLOUT_EFFICIENCY

    def test_validation(self, cluster):
        model = get_model("Qwen2.5-7B")
        single = ClusterSpec(
            num_workers=1, gpus_per_worker=4, gpu=get_gpu("H100")
        )
        with pytest.raises(ConfigError):
            OpenR1System(model, single)


class TestScalingBehaviour:
    def test_tlt_gain_grows_with_cluster(self, workload):
        """Table 3's trend: more nodes -> larger TLT speedup."""
        model = get_model("Qwen2.5-7B")

        def ratio(workers):
            cluster = ClusterSpec(
                num_workers=workers, gpus_per_worker=4,
                gpu=get_gpu("H100"),
            )
            verl = VerlSystem(model, cluster).simulate_step(workload)
            tlt = TltSystem(model, cluster).simulate_step(workload)
            return tlt.throughput_tps / verl.throughput_tps

        assert ratio(16) > ratio(2)

    def test_a100_also_gains(self, workload):
        """Figure 11's A100 panel: gains persist across GPU generations."""
        model = get_model("Qwen2.5-7B")
        cluster = ClusterSpec(
            num_workers=16, gpus_per_worker=4, gpu=get_gpu("A100")
        )
        verl = VerlSystem(model, cluster).simulate_step(workload)
        tlt = TltSystem(model, cluster).simulate_step(workload)
        assert tlt.throughput_tps / verl.throughput_tps > 1.4
