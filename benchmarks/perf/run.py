"""Wall-clock perf benchmark: command-line entry point.

The driver's contract (``BENCHMARK.json``)::

    python3 benchmarks/perf/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The exit code is non-zero when a
correctness check failed.

Without ``--workload`` every workload is run both ways, each in its own
child process (so ``peak_rss_mb`` and thread pinning mean the same
thing as under the driver), and every metric is printed by name with
its unit and spread.  ``--check-stability`` does that twice and asserts
the two sets agree: wall metrics within their bound, virtual-tick
metrics and the output digest exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
#: Everything a run writes goes here (ignored by git).
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Pinned to one thread before numpy loads: the box has two cores and a
#: second BLAS/OMP thread only adds scheduling noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

def load_spec() -> dict:
    """The declared names, units, directions and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def print_list(spec: dict) -> None:
    print(f"{'workload':<22}why")
    for workload in spec["workloads"]:
        print(f"{workload['name']:<22}{workload['why']}")
    print(f"\n{'end-to-end metric':<34}{'unit':<8}{'better':<8}bound")
    for metric in spec["end_to_end"]:
        print(
            f"{metric['name']:<34}{metric['unit']:<8}"
            f"{metric['better']:<8}{metric['bound']:.0%}"
        )
    print(f"\n{'per-layer metric':<34}{'unit':<8}better")
    for metric in spec["per_layer"]:
        print(
            f"{metric['name']:<34}{metric['unit']:<8}{metric['better']}"
        )


def result_path(workload: str, trace: int) -> str:
    """Where a run leaves its full result."""
    return os.path.join(OUT_DIR, f"result_{workload}_trace{trace}.json")


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` (the driver's checkout
    has none)."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[len("ref: "):])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# -- one workload, in this process --------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import numpy

    import perf_harness

    measurement = perf_harness.measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        passes=args.repeats,
    )
    units = (
        perf_harness.LAYER_UNITS if measurement.traced
        else perf_harness.E2E_UNITS
    )
    untraced, traced = measurement.passes
    print(
        f"# {measurement.workload} seed={measurement.seed} "
        f"passes={untraced} untraced + {traced} traced "
        f"output_digest={measurement.digest}"
    )
    print(f"# {'metric':<32}{'median':>14} {'unit':<6} {'iqr':>12}")
    for name, value in measurement.metrics.items():
        print(
            f"{name:<34}{value:>14.4f} {units[name]:<6} "
            f"{measurement.iqr[name]:>12.4f}"
        )
    for index in measurement.flagged_passes:
        print(f"! pass {index}: process.cpu_share < "
              f"{perf_harness.CPU_SHARE_FLOOR} (descheduled)")
    for problem in measurement.problems:
        print(f"! {problem}")

    result = {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in measurement.metrics.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(measurement.workload, args.trace), "w") as handle:
        json.dump(
            {
                **result,
                "iqr": measurement.iqr,
                "output_digest": measurement.digest,
                "passes": measurement.passes,
                "flagged_passes": measurement.flagged_passes,
                "problems": measurement.problems,
                "environment": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "commit": commit(),
                    "seed": args.seed,
                    "threads": {
                        name: os.environ[name] for name in THREAD_VARS
                    },
                },
            },
            handle,
            indent=1,
        )
    if measurement.tracer is not None:
        measurement.tracer.write_chrome_trace(
            os.path.join(OUT_DIR, f"trace_{measurement.workload}.json")
        )
    print(json.dumps(result))
    return 0 if measurement.correct else 1


# -- every workload, one child process each -----------------------------------


def run_child(
    workload: str, trace: int, args: argparse.Namespace
) -> dict:
    """Run one (workload, trace) pair as the driver would."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False
    )
    print(done.stdout.rstrip().rpartition("\n")[0])
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} --trace {trace} failed "
            f"(exit code {done.returncode})"
        )
    # The result line plus the digest, IQRs and environment.
    with open(result_path(workload, trace)) as handle:
        return json.load(handle)


def run_all(args: argparse.Namespace, spec: dict) -> Dict[str, dict]:
    """End-to-end results per workload (per-layer ones are printed)."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = run_child(workload, 0, args)
        run_child(workload, 1, args)
    return results


def check_stability(
    first: Dict[str, dict], second: Dict[str, dict], spec: dict
) -> List[str]:
    """Where two full sets disagree: wall metrics by more than their
    bound, virtual-tick metrics and the output digest at all."""
    disagreements = []
    for workload, result in first.items():
        a, b = result["output_digest"], second[workload]["output_digest"]
        print(f"{workload:<20}{'output_digest':<22}{a}  {b}")
        if a != b:
            disagreements.append(f"{workload}/output_digest")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = result["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            # Virtual-tick metrics repeat exactly for a seed.
            bound = 0.0 if metric["unit"] == "ticks" else metric["bound"]
            drift = abs(a - b) / min(abs(a), abs(b))
            verdict = "ok" if drift <= bound else "DISAGREE"
            print(
                f"{workload:<20}{name:<22}{a:>12.4f}{b:>12.4f}"
                f"  drift {drift:6.2%}  bound {bound:4.0%}  {verdict}"
            )
            if drift > bound:
                disagreements.append(f"{workload}/{name}")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced passes and per-layer metrics",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="measured passes per run, instead of filling --seconds",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print workloads, metrics, units and bounds",
    )
    parser.add_argument(
        "--check-stability", action="store_true",
        help="run the full set twice; fail if they disagree",
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args)
    first = run_all(args, spec)
    if not args.check_stability:
        return 0
    disagreements = check_stability(first, run_all(args, spec), spec)
    if disagreements:
        print("unstable: " + ", ".join(disagreements))
        return 1
    print("stable: both sets agree within every bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
