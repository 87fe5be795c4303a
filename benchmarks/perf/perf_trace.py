"""Outside-in span tracer for the perf benchmark.

The benchmark may not touch ``src/``, so layers are timed from outside:
:class:`Tracer` replaces a public callable (a class attribute, or a
module function under every name it was re-bound to by ``from ...
import``) with a timing wrapper, and :meth:`Tracer.restore` puts the
original objects back.  Each span records name, start, end, its parent
(the span open on the same thread when it started) and an optional row
count.  Spans stay in memory; :meth:`Tracer.write_chrome_trace` dumps
them when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  A metric's *total* counts only outermost spans of a name, so
a patched method that delegates to another patched method of the same
name (``PrefixAffinityDispatch.choose`` -> its fallback's ``choose``)
is not counted twice.

Named ``perf_trace`` rather than ``trace``: the benchmark directory is
on ``sys.path`` when ``run.py`` is executed, and ``trace`` would shadow
the standard-library module.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span row layout: [name, start_s, end_s, parent_index, rows].
_NAME, _START, _END, _PARENT, _ROWS = range(5)

RowsFn = Callable[[tuple], int]


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name.

    Attributes:
        total_s: summed duration of the outermost spans of this name.
        self_s: summed (duration - direct children) over ALL spans of
            this name.
        count: outermost spans of this name.
        rows: summed row counts of the outermost spans.
    """

    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    rows: int = 0


class Tracer:
    """Installs, records and removes timing wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        #: (owner, attribute, original object) per installed wrapper.
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, rows: int) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0,
             stack[-1] if stack else -1, rows]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name, 0)
        try:
            yield
        finally:
            self._close(index)

    def reset(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        self.spans = []

    # -- patching ----------------------------------------------------------

    def _wrap(
        self, func: Callable, name: str, rows: Optional[RowsFn]
    ) -> Callable:
        def wrapper(*args, **kwargs):
            index = self._open(name, rows(args) if rows else 0)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        rows: Optional[RowsFn] = None,
    ) -> None:
        """Wrap ``cls.attr`` and every subclass's own override of it.

        Abstract declarations are skipped: they are never called.
        """
        seen = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(attr)
            if original is None or getattr(
                original, "__isabstractmethod__", False
            ):
                continue
            if not callable(original):
                raise TypeError(
                    f"{klass.__name__}.{attr} is not a plain function"
                )
            setattr(klass, attr, self._wrap(original, name, rows))
            self._patches.append((klass, attr, original))

    def patch_function(
        self,
        func: Callable,
        name: str,
        rows: Optional[RowsFn] = None,
    ) -> None:
        """Wrap a module-level function under every name bound to it.

        ``from repro.specdec.tree import build_draft_trees`` copies the
        function object into the importing module, so patching only the
        defining module would miss the call site.
        """
        wrapper = self._wrap(func, name, rows)
        bound = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is func:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, func))
                    bound += 1
        if not bound:
            raise LookupError(
                f"{getattr(func, '__name__', func)!r} is bound in no "
                "imported module"
            )

    @property
    def patches(self) -> List[Tuple[object, str, object]]:
        """Installed (owner, attribute, original) triples."""
        return list(self._patches)

    def restore(self) -> None:
        """Put every patched attribute back (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def _child_seconds(self) -> List[float]:
        """Summed duration of each span's direct children."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_s[span[_PARENT]] += span[_END] - span[_START]
        return child_s

    def totals(self) -> Dict[str, SpanTotals]:
        """Per-name totals, self times, counts and row sums."""
        spans = self.spans
        child_s = self._child_seconds()
        out: Dict[str, SpanTotals] = {}
        for index, span in enumerate(spans):
            name = span[_NAME]
            entry = out.setdefault(name, SpanTotals())
            duration = span[_END] - span[_START]
            entry.self_s += duration - child_s[index]
            parent = span[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != name:
                parent = spans[parent][_PARENT]
            if parent < 0:  # outermost span of this name
                entry.total_s += duration
                entry.count += 1
                entry.rows += span[_ROWS]
        return out

    def child_overrun_s(self) -> float:
        """Largest (children - parent) duration over all parents.

        Children run inside their parent, so this is <= 0 up to clock
        resolution; the smoke test asserts it.
        """
        child_s = self._child_seconds()
        return max(
            (
                child_s[index] - (span[_END] - span[_START])
                for index, span in enumerate(self.spans)
            ),
            default=0.0,
        )

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace JSON (``chrome://tracing``)."""
        origin = self.spans[0][_START] if self.spans else 0.0
        events = [
            {
                "name": span[_NAME],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span[_START] - origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "args": {
                    "id": index,
                    "parent": span[_PARENT],
                    "rows": span[_ROWS],
                },
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def _second_arg_rows(args: tuple) -> int:
    """Row count of a batched call: ``len`` of the first real argument."""
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the public layer boundaries of ``repro`` (see README)."""
    from repro.cache.manager import KVCacheManager
    from repro.drafter.base import Drafter
    from repro.drafter.training import DrafterTrainer
    from repro.fleet.engine import FleetEngine
    from repro.fleet.report import FleetReport
    from repro.fleet.router import RoutingPolicy
    from repro.llm.model import TinyLM
    from repro.longtail.scheduler import RolloutScheduler
    from repro.rl.trainer import RlTrainer
    from repro.serving import dispatch
    from repro.serving.frontend import ServingEngine
    from repro.specdec import engine as sd_engine
    from repro.specdec import tree
    from repro.specdec.batch_engine import BatchedSpecDecodeEngine
    from repro.specdec.scheduler import ContinuousBatchScheduler
    from repro.spot.trainer import SpotTrainer

    method, function = tracer.patch_method, tracer.patch_function
    rows = _second_arg_rows

    function(tree.build_draft_trees, "specdec.draft_build")
    function(tree.verify_trees, "specdec.verify")
    function(sd_engine.initial_hiddens, "specdec.prefill")
    function(sd_engine.suffix_prefill_hiddens, "specdec.prefill")
    method(ContinuousBatchScheduler, "admit", "specdec.admit")
    method(BatchedSpecDecodeEngine, "step", "specdec.engine_step")

    method(Drafter, "begin_batch", "drafter.begin", rows)
    method(Drafter, "propose_batch", "drafter.propose", rows)
    method(Drafter, "extend_batch", "drafter.extend", rows)
    method(DrafterTrainer, "train_step", "drafter.train")

    method(TinyLM, "step", "llm.step", rows)
    method(TinyLM, "forward", "llm.forward")
    method(TinyLM, "backward", "llm.backward")

    method(KVCacheManager, "plan_admission", "cache.plan")
    method(KVCacheManager, "insert_chain", "cache.insert")
    method(KVCacheManager, "acquire", "cache.pin")
    method(KVCacheManager, "release", "cache.pin")
    method(KVCacheManager, "prompt_match", "cache.probe")
    method(KVCacheManager, "covers_prompt", "cache.probe")
    method(KVCacheManager, "longest_prefix", "cache.probe")

    method(dispatch.DispatchPolicy, "choose", "serving.dispatch")
    function(dispatch.steal_work, "serving.steal")
    method(ServingEngine, "submit", "serving.submit")
    method(ServingEngine, "tick", "serving.tick")
    method(ServingEngine, "report", "serving.report")

    method(RoutingPolicy, "choose", "fleet.route")
    method(FleetEngine, "tick", "fleet.tick")
    method(FleetEngine, "report", "fleet.report")
    method(FleetReport, "pooled", "fleet.report")

    method(RolloutScheduler, "submit_batch", "longtail.submit")
    method(RolloutScheduler, "pump", "longtail.pump")
    method(RolloutScheduler, "collect", "longtail.collect")

    method(RlTrainer, "step", "rl.update")
    method(SpotTrainer, "train_slice", "spot.train_slice")
