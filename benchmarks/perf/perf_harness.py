"""Measurement loop, correctness gate and metric registry.

:func:`measure` runs one workload the way the driver asks for it:

1. set-up, :data:`SETUP_REPEATS` times: build the models, generate the
   inputs from the seed, drain a small warm-up slice (``setup_s`` is the
   median);
2. whole passes, each on fresh engines with ``gc.collect()`` before it,
   until the time budget is spent.  With tracing on, every untraced
   pass is followed by a traced one, so the same run yields the
   per-layer numbers and the tracing overhead;
3. every metric is the median over the passes of its kind, with the
   inter-quartile distance beside it.

Every pass replays the same inputs, so all passes of a run must produce
the same BLAKE2 digest of their responses and the same virtual-tick
metrics; that, and the per-request and per-counter invariants in
:func:`check_pass`, are the correctness gate.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import perf_trace
from perf_workloads import WORKLOADS, PassResult, Substrate
from repro.cache.blocks import effective_prefill_context
from repro.llm.vocab import BOS_ID
from repro.serving.request import RequestState
from repro.specdec.control import RequestEventKind

#: The driver's contract: "For setup_s, set up several times in a run
#: and report the median".
SETUP_REPEATS = 3
#: The warm-up slice runs the same code on a tenth of the traffic.
WARMUP_SCALE = 0.1
#: Untraced passes of an untraced run, however short ``--seconds`` is.
MIN_PASSES = 3
#: A pass whose CPU time is below this share of its wall time was
#: descheduled: its timings are flagged, not dropped.
CPU_SHARE_FLOOR = 0.9

# -- registry -----------------------------------------------------------------
#
# BENCHMARK.json declares these names and units to the driver; the smoke
# test asserts the two cannot drift.

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "latency_ticks_p99": "ticks",
    "makespan_ticks": "ticks",
    "peak_rss_mb": "MB",
}

#: Timing metric -> (span name, "total" | "self").  Each also gets a
#: ``*_share`` of traced wall.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "specdec.draft_build_ms": ("specdec.draft_build", "total"),
    "specdec.draft_build_self_ms": ("specdec.draft_build", "self"),
    "specdec.verify_ms": ("specdec.verify", "total"),
    "specdec.verify_self_ms": ("specdec.verify", "self"),
    "specdec.prefill_ms": ("specdec.prefill", "total"),
    "specdec.admit_ms": ("specdec.admit", "total"),
    "specdec.engine_step_self_ms": ("specdec.engine_step", "self"),
    "drafter.begin_ms": ("drafter.begin", "total"),
    "drafter.propose_ms": ("drafter.propose", "total"),
    "drafter.extend_ms": ("drafter.extend", "total"),
    "drafter.train_ms": ("drafter.train", "total"),
    "llm.step_ms": ("llm.step", "total"),
    "llm.forward_ms": ("llm.forward", "total"),
    "llm.backward_ms": ("llm.backward", "total"),
    "cache.plan_ms": ("cache.plan", "total"),
    "cache.insert_ms": ("cache.insert", "total"),
    "cache.pin_ms": ("cache.pin", "total"),
    "cache.probe_ms": ("cache.probe", "total"),
    "serving.dispatch_ms": ("serving.dispatch", "total"),
    "serving.steal_ms": ("serving.steal", "total"),
    "serving.submit_ms": ("serving.submit", "total"),
    "serving.tick_self_ms": ("serving.tick", "self"),
    "serving.report_ms": ("serving.report", "total"),
    "fleet.route_ms": ("fleet.route", "total"),
    "fleet.tick_self_ms": ("fleet.tick", "self"),
    "fleet.report_ms": ("fleet.report", "total"),
    "longtail.submit_ms": ("longtail.submit", "total"),
    "longtail.pump_ms": ("longtail.pump", "total"),
    "longtail.collect_self_ms": ("longtail.collect", "self"),
    "rl.rollout_ms": ("rl.rollout", "total"),
    "rl.update_ms": ("rl.update", "total"),
    "spot.ingest_ms": ("spot.ingest", "total"),
    "spot.train_slice_ms": ("spot.train_slice", "total"),
    "spot.publish_ms": ("spot.publish", "total"),
}

#: Counts and ratios, read from report objects or span counts.
COUNT_UNITS: Dict[str, str] = {
    "specdec.cycles": "count",
    "specdec.trees_built": "count",
    "specdec.draft_launches": "count",
    "specdec.draft_launches_saved": "count",
    "specdec.accept_rate": "ratio",
    "specdec.tokens_per_cycle": "tok",
    "specdec.live_batch_mean": "count",
    "specdec.queue_wait_cycles_mean": "cycles",
    "drafter.calls": "count",
    "drafter.rows_per_call": "count",
    "drafter.train_updates": "count",
    "llm.step_calls": "count",
    "llm.rows_per_step": "count",
    "llm.backward_calls": "count",
    "cache.hit_rate": "ratio",
    "cache.prefill_tokens": "tok",
    "cache.prefill_tokens_saved": "tok",
    "cache.demotions": "count",
    "cache.promotions": "count",
    "cache.evictions": "count",
    "serving.tick_ms_p50": "ms",
    "serving.tick_ms_p99": "ms",
    "serving.request_ms_p50": "ms",
    "serving.request_ms_p90": "ms",
    "serving.request_ms_p99": "ms",
    "serving.ttft_ms_p50": "ms",
    "serving.ttft_ms_p99": "ms",
    "serving.slot_utilization": "ratio",
    "serving.queue_wait_ticks_p50": "ticks",
    "serving.stolen": "count",
    "serving.preemptions": "count",
    "fleet.prefix_local_share": "ratio",
    "fleet.spills": "count",
    "longtail.predict_mae": "tok",
    "longtail.pipelined_releases": "count",
    "rl.step_ms": "ms",
    "rl.rollout_tokens": "tok",
    "rl.reward_mean_final": "ratio",
    "spot.updates": "count",
    "spot.buffer_tokens": "tok",
    "process.cpu_share": "ratio",
    "process.gc_collections": "count",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def _share_name(metric: str) -> str:
    return metric[: -len("_ms")] + "_share"


LAYER_UNITS: Dict[str, str] = {
    **{name: "ms" for name in SPAN_METRICS},
    **{_share_name(name): "ratio" for name in SPAN_METRICS},
    **COUNT_UNITS,
}

# -- statistics ---------------------------------------------------------------


def median_iqr(values: List[float]) -> Tuple[float, float]:
    """Median and inter-quartile distance (0 below two samples)."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- per-pass summaries -------------------------------------------------------


def output_digest(result: PassResult) -> str:
    """BLAKE2 digest of every response, in request-id order."""
    digest = hashlib.blake2b(digest_size=16)
    for record in result.records:
        digest.update(
            np.asarray(
                [record.request.request_id, len(record.response)]
                + list(record.response),
                dtype=np.int64,
            ).tobytes()
        )
    return digest.hexdigest()


_TERMINAL = frozenset(
    {
        RequestEventKind.FINISHED,
        RequestEventKind.CANCELLED,
        RequestEventKind.EXPIRED,
    }
)


def check_pass(result: PassResult, window: int) -> Tuple[int, List[str]]:
    """Correctness gate of one pass: (failures, what they were).

    A request that did not finish, or that has other than one terminal
    lifecycle event, is one failure; so is each violated invariant.
    """
    problems = list(result.problems)
    failures = len(problems)
    terminal: Dict[int, int] = {}
    for event in result.events:
        if event.kind in _TERMINAL:
            terminal[event.request_id] = (
                terminal.get(event.request_id, 0) + 1
            )
    unfinished = sum(
        1
        for record in result.records
        if record.state is not RequestState.FINISHED
        or terminal.get(record.request.request_id, 0) != 1
    )
    if unfinished:
        failures += unfinished
        problems.append(
            f"{unfinished} requests not FINISHED with exactly one "
            "terminal event"
        )
    if len(result.records) != result.submitted:
        failures += 1
        problems.append(
            f"{len(result.records)} records for "
            f"{result.submitted} submitted requests"
        )
    # Every admitted prompt's key tokens are computed or cache-served.
    expected = sum(
        len(
            effective_prefill_context(
                [BOS_ID] + list(record.request.prompt), window
            )
        )
        for record in result.records
    )
    accounted = (
        result.counters["cache.prefill_tokens"]
        + result.counters["cache.prefill_tokens_saved"]
    )
    if accounted != expected:
        failures += 1
        problems.append(
            f"prefill_tokens + saved = {accounted:.0f}, "
            f"key tokens = {expected}"
        )
    return failures, problems


def wall_latencies_ms(
    result: PassResult,
) -> Tuple[List[float], List[float]]:
    """Per-request wall (completion, first-token) latency.

    A request becomes due at the start of the first tick at or after
    its virtual arrival time; it completes (or commits its first
    token) at the end of the tick before the recorded virtual stamp.
    """
    starts, ends = result.tick_starts, result.tick_ends
    request_ms: List[float] = []
    ttft_ms: List[float] = []
    for record in result.records:
        if record.finish_time is None:
            continue
        due = starts[math.ceil(record.request.arrival_time)]
        request_ms.append(
            (ends[int(record.finish_time) - 1] - due) * 1e3
        )
        if record.first_token_time is not None:
            ttft_ms.append(
                (ends[int(record.first_token_time) - 1] - due) * 1e3
            )
    return request_ms, ttft_ms


def pass_metrics(result: PassResult) -> Dict[str, float]:
    """Wall and virtual-tick readings of one untraced pass."""
    ticks_ms = (
        np.asarray(result.tick_ends) - np.asarray(result.tick_starts)
    ) * 1e3
    request_ms, ttft_ms = wall_latencies_ms(result)
    tokens = sum(len(r.response) for r in result.records)
    latency_ticks = [
        r.finish_time - r.request.arrival_time
        for r in result.records
        if r.finish_time is not None
    ]
    return {
        "wall_s": result.wall_s,
        "tokens_per_s": tokens / result.wall_s,
        "latency_ticks_p99": _pct(latency_ticks, 99),
        "makespan_ticks": float(len(ticks_ms)),
        "serving.tick_ms_p50": _pct(ticks_ms, 50),
        "serving.tick_ms_p99": _pct(ticks_ms, 99),
        "serving.request_ms_p50": _pct(request_ms, 50),
        "serving.request_ms_p90": _pct(request_ms, 90),
        "serving.request_ms_p99": _pct(request_ms, 99),
        "serving.ttft_ms_p50": _pct(ttft_ms, 50),
        "serving.ttft_ms_p99": _pct(ttft_ms, 99),
        "process.cpu_share": result.cpu_s / result.wall_s,
        "rl.step_ms": (
            result.wall_s * 1e3 / result.counters["rl.steps"]
            if "rl.steps" in result.counters
            else 0.0
        ),
    }


def layer_metrics(
    result: PassResult, tracer: perf_trace.Tracer
) -> Dict[str, float]:
    """Span and count readings of one traced pass."""
    totals = tracer.totals()
    blank = perf_trace.SpanTotals()
    wall_ms = result.wall_s * 1e3
    out: Dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        entry = totals.get(span, blank)
        value = (
            entry.total_s if kind == "total" else entry.self_s
        ) * 1e3
        out[metric] = value
        out[_share_name(metric)] = value / wall_ms
    drafter = [
        totals.get(name, blank)
        for name in ("drafter.begin", "drafter.propose", "drafter.extend")
    ]
    calls = sum(entry.count for entry in drafter)
    step = totals.get("llm.step", blank)
    out.update(
        {
            "drafter.calls": float(calls),
            "drafter.rows_per_call": (
                sum(entry.rows for entry in drafter) / calls
                if calls else 0.0
            ),
            "drafter.train_updates": float(
                totals.get("drafter.train", blank).count
            ),
            "llm.step_calls": float(step.count),
            "llm.rows_per_step": (
                step.rows / step.count if step.count else 0.0
            ),
            "llm.backward_calls": float(
                totals.get("llm.backward", blank).count
            ),
            "trace.spans": float(len(tracer.spans)),
        }
    )
    for name, value in result.counters.items():
        if name in COUNT_UNITS:
            out[name] = value
    return out


# -- the measurement loop -----------------------------------------------------


@dataclass
class Measurement:
    """Outcome of one :func:`measure` call.

    ``metrics`` holds exactly the metrics the driver asked for (every
    end-to-end metric untraced, every per-layer metric traced), each the
    median over the passes that measure it; ``iqr`` is the distance
    between their quartiles.  ``passes`` counts (untraced, traced).
    """

    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    iqr: Dict[str, float]
    digest: str
    passes: Tuple[int, int]
    problems: List[str] = field(default_factory=list)
    flagged_passes: List[int] = field(default_factory=list)
    tracer: Optional[perf_trace.Tracer] = None


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float = 1.0,
    passes: Optional[int] = None,
    setup: Optional[Callable[[], Substrate]] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Measurement:
    """Run one workload and return its metrics.

    Args:
        workload_name: one of :data:`perf_workloads.WORKLOADS`.
        seed: seeds the generated traffic.
        seconds: time budget of the measured passes.  Another round is
            started only while one as long as the last still fits.
        traced: follow every untraced pass with a traced one and report
            per-layer metrics instead of end-to-end ones.
        scale: traffic size relative to the full workload.
        passes: run exactly this many rounds instead of filling
            ``seconds``.
        setup: replaces the workload's own model build (the smoke test
            builds once and hands the models to every run).
        setup_repeats: how many times set-up is run and timed.
    """
    workload = WORKLOADS[workload_name]
    setup_s: List[float] = []
    for _ in range(setup_repeats):
        started = time.perf_counter()
        substrate = (setup or workload.setup)()
        inputs = workload.inputs(substrate, seed, scale)
        workload.run_pass(
            substrate,
            workload.inputs(substrate, seed, scale * WARMUP_SCALE),
            None,
        )
        setup_s.append(time.perf_counter() - started)
    window = substrate[0].config.context_window

    tracer = perf_trace.Tracer() if traced else None
    plain: List[Dict[str, float]] = []
    layers: List[Dict[str, float]] = []
    digests = set()
    problems: List[str] = []
    flagged: List[int] = []
    attempted = failed = index = 0

    def run_pass(tracing: bool) -> None:
        nonlocal attempted, failed, index
        gc.collect()
        if tracing:
            tracer.reset()
            perf_trace.install(tracer)
            collections = _gc_collections()
        try:
            result = workload.run_pass(
                substrate, inputs, tracer if tracing else None
            )
        finally:
            if tracing:
                tracer.restore()
        bad, found = check_pass(result, window)
        attempted += result.submitted
        failed += bad
        problems.extend(f"pass {index}: {p}" for p in found)
        digests.add(output_digest(result))
        if tracing:
            values = layer_metrics(result, tracer)
            values["trace.overhead_share"] = (
                result.wall_s / plain[-1]["wall_s"] - 1.0
            )
            values["process.gc_collections"] = float(
                _gc_collections() - collections
            )
            layers.append(values)
        else:
            values = pass_metrics(result)
            if values["process.cpu_share"] < CPU_SHARE_FLOOR:
                flagged.append(index)
            plain.append(values)
        index += 1

    floor = passes or (1 if traced else MIN_PASSES)
    deadline = time.perf_counter() + seconds
    rounds = 0
    round_s = 0.0
    while rounds < floor or (
        passes is None and time.perf_counter() + round_s <= deadline
    ):
        started = time.perf_counter()
        run_pass(False)
        if traced:
            run_pass(True)
        round_s = time.perf_counter() - started
        rounds += 1

    if len(digests) != 1:
        failed += 1
        problems.append(
            f"{len(digests)} distinct output digests over {index} passes"
        )
    for name, unit in E2E_UNITS.items():
        # Virtual-tick metrics repeat exactly for a seed.
        if unit == "ticks" and len({row[name] for row in plain}) != 1:
            failed += 1
            problems.append(f"{name} differs between passes")

    metrics: Dict[str, float] = {}
    iqr: Dict[str, float] = {}
    if traced:
        for name in LAYER_UNITS:
            # Wall readings come from the untraced passes of the run; a
            # count this workload has no source for reads 0.
            rows = plain if name in plain[0] else layers
            metrics[name], iqr[name] = median_iqr(
                [row.get(name, 0.0) for row in rows]
            )
    else:
        metrics["setup_s"], iqr["setup_s"] = median_iqr(setup_s)
        for name in E2E_UNITS:
            if name in plain[0]:
                metrics[name], iqr[name] = median_iqr(
                    [row[name] for row in plain]
                )
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        iqr["peak_rss_mb"] = 0.0
    return Measurement(
        workload=workload_name,
        seed=seed,
        traced=traced,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        iqr=iqr,
        digest=sorted(digests)[0],
        passes=(len(plain), len(layers)),
        problems=problems,
        flagged_passes=flagged,
        tracer=tracer,
    )
