"""Tier-1 smoke test of the perf benchmark (``benchmarks/perf``).

Every workload runs at 1/20 scale, once untraced and once traced, on
models built once by the benchmark's own set-up (~4 s; the trained
substrate is shared by the three workloads that need one).  The test
pins what a later change could silently break: the metric registry and
``BENCHMARK.json`` agree, every declared metric is emitted and nothing
else, outputs are reproducible, span accounting is consistent, and the
tracer leaves ``repro`` exactly as it found it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import perf_harness  # noqa: E402
import perf_trace  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
SEED = 3


def _spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """name -> (untraced run, traced run)."""
    target, drafter = WORKLOADS["serve_longtail"].setup()
    substrates = {
        "serve_longtail": (target, drafter),
        "serve_prefix_short": WORKLOADS["serve_prefix_short"].setup(),
        "fleet_topk": (target, drafter),
        "rl_step": (target, None),
    }

    def measure(name: str, traced: bool) -> perf_harness.Measurement:
        return perf_harness.measure(
            name, seed=SEED, seconds=0.0, traced=traced, scale=SCALE,
            passes=1, setup=lambda: substrates[name], setup_repeats=1,
        )

    return {
        name: (measure(name, False), measure(name, True))
        for name in WORKLOADS
    }


def test_registry_matches_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    } == perf_harness.E2E_UNITS
    assert {
        m["name"]: m["unit"] for m in spec["per_layer"]
    } == perf_harness.LAYER_UNITS
    assert spec["paths"] == ["benchmarks/perf"]


def test_list_prints_every_declared_name():
    spec = _spec()
    listing = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--list"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    ).stdout
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert entry["name"] in listing


def test_every_declared_metric_is_emitted(runs):
    for name, (untraced, traced) in runs.items():
        assert set(untraced.metrics) == set(perf_harness.E2E_UNITS), name
        assert set(traced.metrics) == set(perf_harness.LAYER_UNITS), name
        for value in (*untraced.metrics.values(), *traced.metrics.values()):
            assert math.isfinite(value), name
        # The driver refuses end-to-end metrics that read zero.
        assert all(v > 0 for v in untraced.metrics.values()), name


def test_outputs_are_correct_and_reproducible(runs):
    for name, measurements in runs.items():
        for measurement in measurements:
            assert measurement.correct, (name, measurement.problems)
            assert measurement.failed == 0
            assert measurement.attempted >= 1
        assert len({m.digest for m in measurements}) == 1, name


def test_span_accounting(runs):
    for name, (_, traced) in runs.items():
        tracer = traced.tracer
        assert tracer.spans, name
        # Children run inside their parent ...
        assert tracer.child_overrun_s() <= 1e-6, name
        # ... so self times are non-negative and partition the traced
        # time: they add up to the top-level spans' durations.
        # Span rows are [name, start_s, end_s, parent_index, rows].
        top_level_s = sum(
            span[2] - span[1] for span in tracer.spans if span[3] < 0
        )
        totals = tracer.totals()
        assert all(e.self_s >= -1e-6 for e in totals.values()), name
        assert sum(e.self_s for e in totals.values()) == pytest.approx(
            top_level_s
        ), name
        assert traced.metrics["trace.spans"] == len(tracer.spans)
        assert traced.metrics["specdec.draft_build_ms"] > 0


def test_workloads_reach_their_layers(runs):
    """Each workload exercises the layers it exists to exercise."""
    traced = {name: m[1].metrics for name, m in runs.items()}
    assert traced["serve_prefix_short"]["cache.prefill_tokens_saved"] > 0
    assert traced["serve_prefix_short"]["serving.dispatch_ms"] > 0
    assert traced["fleet_topk"]["fleet.route_ms"] > 0
    assert traced["fleet_topk"]["fleet.prefix_local_share"] > 0
    assert traced["rl_step"]["llm.backward_calls"] >= 1
    assert traced["rl_step"]["drafter.train_updates"] >= 1
    assert traced["rl_step"]["spot.train_slice_ms"] > 0
    assert math.isfinite(traced["rl_step"]["rl.reward_mean_final"])
    for name in ("serve_longtail", "serve_prefix_short", "fleet_topk"):
        assert traced[name]["rl.update_ms"] == 0.0
        assert traced[name]["llm.backward_calls"] == 0.0


def test_tracer_restores_every_patched_attribute(runs):
    tracer = perf_trace.Tracer()
    perf_trace.install(tracer)
    patches = tracer.patches
    assert len(patches) > 30
    for owner, attr, original in patches:
        assert vars(owner)[attr] is not original
        # ... and the traced runs above left no wrapper behind.
        assert not hasattr(original, "__wrapped__"), (owner, attr)
    tracer.restore()
    assert not tracer.patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
