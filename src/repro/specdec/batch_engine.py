"""Batched continuous-batching speculative generation engine.

Every cycle the engine drafts a candidate set for **each live
sequence**, verifies all of them in **one** batched target forward
(:func:`~repro.specdec.tree.verify_trees`), commits per-sequence,
retires sequences on EOS or their length cap and admits waiting
requests into the freed slots.  The target-launch count
therefore scales with the number of *cycles of the slowest sequence*,
not with the sum of per-sequence cycles — the long-tail regime the paper
analyzes.

The engine is **incrementally drivable**: :meth:`BatchedSpecDecodeEngine.
start` opens a decoding session, :meth:`~BatchedSpecDecodeEngine.step`
runs exactly one admission + draft/verify + retirement cycle, and the
request set is mutated between cycles through
:meth:`~BatchedSpecDecodeEngine.admit` /
:meth:`~BatchedSpecDecodeEngine.cancel` /
:meth:`~BatchedSpecDecodeEngine.expire` /
:meth:`~BatchedSpecDecodeEngine.park` /
:meth:`~BatchedSpecDecodeEngine.resume` /
:meth:`~BatchedSpecDecodeEngine.swap_drafter`, with every lifecycle
transition published on :attr:`~BatchedSpecDecodeEngine.events`.
:func:`step_engines` runs one cycle of SEVERAL engines as one lock-step
batch (``step()`` is it on one engine); the serving front-end and the
fleet advance every worker of a tick that way, paying per-launch
overhead once per tick, not once per worker.  The tick's phases are
plan (admission and cache consultation, per engine), ONE prefill launch
per target over the hand-off rows every engine keeps, finish (inserts,
pins, events, SD decision, per engine), draft, verify and close; see
:func:`step_engines`.  There is one decode path:
a cycle without an SD strategy (vanilla decoding) gives each live slot
the zero-node :data:`~repro.specdec.tree.EMPTY_TREE`, whose verification
samples one token from the target at the prefix row, so vanilla and
speculative rows of every engine sharing a target and temperature ride
ONE :func:`~repro.specdec.tree.verify_trees` launch per tick.
:meth:`~BatchedSpecDecodeEngine.generate` is the closed-loop batch
wrapper (start, step until drained, collect).

Parking stashes a live slot whole (tokens, hidden hand-off, random
stream), so a resumed sequence's remaining tokens are byte-identical to
an uninterrupted run; :meth:`~BatchedSpecDecodeEngine.swap_drafter`
replaces the drafter between cycles with zero downtime — per-slot draft
state is rebuilt from the target hidden hand-off at the start of every
cycle, so no live request is dropped or stalled by a swap.

Two properties are load-bearing:

* **Losslessness** — each request owns a private random stream (see
  :mod:`repro.specdec.scheduler`), drafting/acceptance consume it in the
  same order regardless of batching, and batched target rows are
  numerically identical to per-sequence rows; under a static strategy,
  committed tokens are therefore token-for-token equal to sequential
  decoding under a fixed seed in ``sample`` child mode.  The same
  argument covers cancellation: removing one slot between cycles leaves
  every survivor's stream and rows untouched, so survivors' outputs are
  byte-identical to an uncancelled run, and :func:`step_engines` over
  N engines to stepping each alone.  (With an attached manager the
  elastic SD/vanilla decision reads the live-batch size, so the slot
  capacity legitimately shapes the output.)
* **Real batch dynamics** — when an
  :class:`~repro.rollout.adaptive.AdaptiveSdManager` is attached, each
  cycle consults it with the *actual* live-batch size: above the elastic
  threshold the cycle decodes vanilla (one token per sequence, its rows
  in the tick's verify launch), below it the manager's BEG-MAB selector
  picks the strategy and is fed the cycle's measured accept lengths
  against a deterministic work-proxy cost (verification rows + drafter
  steps), so adaptive runs stay seed-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import SpecDecodeError
from repro.llm.model import TinyLM
from repro.llm.vocab import BOS_ID, EOS_ID
from repro.specdec.control import (
    AdmissionPolicy,
    EventBus,
    RequestEventKind,
)
from repro.cache.blocks import (
    block_boundaries,
    effective_prefill_context,
)
from repro.specdec.engine import suffix_prefill_hiddens
from repro.specdec.metrics import (
    SdCycleStats,
    SdRunMetrics,
    WorkerCounters,
)
from repro.specdec.scheduler import (
    BatchCycleReport,
    ContinuousBatchScheduler,
    SequenceRequest,
    SequenceSlot,
)
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import (
    EMPTY_TREE, ChildMode, FlatDraftTree, TreeVerifyResult,
    build_draft_trees, verify_trees,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.cache.manager import KVCacheManager
    from repro.rollout.adaptive import AdaptiveSdManager


@dataclass
class BatchedGenerationResult:
    """Output of one decode run (:meth:`BatchedSpecDecodeEngine.generate`,
    :func:`~repro.specdec.engine.speculative_generate`).

    Attributes:
        slots: finished per-request decoding slots in request order
            (cancelled requests included, flagged ``cancelled``).
        metrics: aggregate draft/accept statistics across all sequences.
        target_steps: batched target forward launches (prefill waves,
            SD verifications and vanilla steps each count once).
        cycle_reports: per-cycle live-batch trail (admissions,
            retirements, strategy, SD vs vanilla).
    """

    slots: List[SequenceSlot]
    metrics: SdRunMetrics
    target_steps: int
    cycle_reports: List[BatchCycleReport]

    @property
    def prompts(self) -> List[List[int]]:
        """Prompts as decoded (BOS prepended)."""
        return [slot.request.prompt for slot in self.slots]

    @property
    def responses(self) -> List[List[int]]:
        """Committed response tokens (terminal EOS included)."""
        return [slot.response for slot in self.slots]

    @property
    def finished(self) -> List[bool]:
        """True where EOS terminated the sequence."""
        return [slot.done for slot in self.slots]

    @property
    def response_lengths(self) -> List[int]:
        """Token count of each response."""
        return [len(slot.response) for slot in self.slots]


@dataclass
class EngineStep:
    """Outcome of one incremental :meth:`BatchedSpecDecodeEngine.step`.

    Attributes:
        report: the cycle's :class:`~repro.specdec.scheduler.
            BatchCycleReport` (also appended to the session trail).
        admitted: slots admitted from the waiting queue this cycle.
        retired: slots that finished (EOS or length cap) this cycle.
        resumed: parked slots re-admitted into live slots this cycle.
    """

    report: BatchCycleReport
    admitted: List[SequenceSlot]
    retired: List[SequenceSlot]
    resumed: List[SequenceSlot] = field(default_factory=list)


@dataclass
class _Cycle:
    """One engine's cycle from its admission plan to its close.

    The plan half fills ``keys`` (each admitted slot's effective
    context), ``leaders`` (the first slot of each key this wave),
    ``hiddens`` (hand-offs served by the cache) and ``prefill`` (per
    computed key: its slot index, compute start and the hand-off
    positions to compute); the batch step answers ``prefill`` with
    ``handoffs``, a position -> stack map per computed key.  The finish
    half inserts their block-boundary rows and sets ``live`` and
    ``strategy`` — None when the cycle decodes vanilla, its trees then
    all :data:`~repro.specdec.tree.EMPTY_TREE` — and the batch step
    hands it one tree and verify result per live slot.
    """

    engine: "BatchedSpecDecodeEngine"
    admitted: List[SequenceSlot]
    resumed: List[SequenceSlot]
    keys: List[Tuple[int, ...]] = field(default_factory=list)
    leaders: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    hiddens: List[Optional[np.ndarray]] = field(default_factory=list)
    prefill: List[Tuple[int, int, List[int]]] = field(default_factory=list)
    handoffs: Sequence[Dict[int, np.ndarray]] = ()
    live: List[SequenceSlot] = field(default_factory=list)
    strategy: Optional[SdStrategy] = None
    trees: Sequence[FlatDraftTree] = ()
    results: Sequence[TreeVerifyResult] = ()


class BatchedSpecDecodeEngine:
    """Continuous-batching speculative decoding over a TinyLM target.

    Args:
        target: the target model.
        drafter: the draft model.
        strategy: static SD configuration (may be None when a manager is
            attached — the manager then selects the strategy per cycle).
        temperature: sampling temperature shared by drafter and target.
        child_mode: tree child expansion mode (``sample`` is lossless).
        max_batch_size: live-slot capacity (None = all prompts live at
            once; 1 = fully sequential decoding).
        sd_manager: optional adaptive SD manager driven by the real
            live-batch size each cycle.
        admission: pluggable admission policy on the scheduler's
            QUEUED -> RUNNING edge (FIFO when omitted).
        kv_cache: optional per-worker prefix cache.  When attached, the
            prefill stage serves exact-prompt matches from cache,
            coalesces same-wave duplicates into one prefill row per
            shared prefix, and pins each live slot's source entry so
            eviction can never touch state a live request depends on.
    """

    def __init__(
        self,
        target: TinyLM,
        drafter: Drafter,
        strategy: Optional[SdStrategy],
        temperature: float,
        child_mode: ChildMode = "sample",
        max_batch_size: Optional[int] = None,
        sd_manager: Optional["AdaptiveSdManager"] = None,
        admission: Optional[AdmissionPolicy] = None,
        kv_cache: Optional["KVCacheManager"] = None,
    ) -> None:
        if strategy is None and sd_manager is None:
            raise SpecDecodeError(
                "either a static strategy or an sd_manager is required"
            )
        self.target = target
        self.drafter = drafter
        self.strategy = strategy
        self.temperature = temperature
        self.child_mode = child_mode
        self.max_batch_size = max_batch_size
        self.sd_manager = sd_manager
        self.admission = admission
        self.kv_cache = kv_cache
        if (
            kv_cache is not None
            and getattr(kv_cache, "context_window", None) is None
        ):
            # Cache keys must match what the hand-off actually depends
            # on: the target's effective context.
            kv_cache.context_window = target.config.context_window
        #: Lifecycle event stream.
        self.events = EventBus()
        #: Optional virtual-time source stamped onto events (wired by
        #: the serving worker to its pool's VirtualClock).
        self.time_fn: Optional[Callable[[], float]] = None
        self.drafter_swaps = 0
        self._in_step = False
        self._scheduler: Optional[ContinuousBatchScheduler] = None
        self._metrics = SdRunMetrics()
        #: The open session's monotonic counts — the one place they
        #: are written (see :class:`~repro.specdec.metrics.
        #: WorkerCounters`).
        self.counters = self._fresh_counters()
        self._reports: List[BatchCycleReport] = []

    # -- incremental session API -------------------------------------------

    def start(self, requests: Sequence[SequenceRequest] = ()) -> None:
        """Open an incremental decoding session.

        Resets metrics, the launch counters, the cycle trail, and (when
        attached) the adaptive manager's per-rollout activation state.
        Cache *refs* held by the previous session are released, but the
        cache's contents survive — a warm worker-lifetime cache is the
        point, and serving cached hand-offs is byte-identical to
        recomputing them.  Further requests can be :meth:`admit`-ted
        between cycles.
        """
        self._release_all_cache_refs()
        self._scheduler = ContinuousBatchScheduler(
            list(requests),
            self.max_batch_size,
            admission=self.admission,
            cache=self.kv_cache,
        )
        if self.sd_manager is not None:
            self.sd_manager.reset()
        self._metrics = SdRunMetrics()
        self.counters = self._fresh_counters()
        self._reports = []
        self.events.clear()

    def _fresh_counters(self) -> WorkerCounters:
        """A zeroed ledger reading the attached cache's live stats."""
        if self.kv_cache is None:
            return WorkerCounters()
        return WorkerCounters(cache=self.kv_cache.stats)

    @property
    def scheduler(self) -> ContinuousBatchScheduler:
        """The open session's scheduler (raises before :meth:`start`)."""
        if self._scheduler is None:
            raise SpecDecodeError(
                "no decoding session open; call start() first"
            )
        return self._scheduler

    @property
    def has_work(self) -> bool:
        """Whether any request is live or waiting in the open session."""
        return self._scheduler is not None and self._scheduler.has_work

    @property
    def num_live(self) -> int:
        """Live sequences in the open session (0 before start)."""
        return 0 if self._scheduler is None else self._scheduler.num_live

    @property
    def num_waiting(self) -> int:
        """Waiting requests in the open session (0 before start)."""
        return 0 if self._scheduler is None else self._scheduler.num_waiting

    @property
    def num_parked(self) -> int:
        """Parked requests in the open session (0 before start)."""
        return 0 if self._scheduler is None else self._scheduler.num_parked

    @property
    def num_resuming(self) -> int:
        """Resume-queued requests in the open session (0 before start)."""
        return (
            0 if self._scheduler is None else self._scheduler.num_resuming
        )

    @property
    def metrics(self) -> SdRunMetrics:
        """The open session's running metrics."""
        return self._metrics

    @property
    def cycle_reports(self) -> List[BatchCycleReport]:
        """The open session's per-cycle trail (shared list)."""
        return self._reports

    def _emit(
        self, kind: RequestEventKind, request_id: Optional[int]
    ) -> None:
        """Publish a lifecycle event stamped with cycle + virtual time."""
        cycle = (
            self._scheduler.cycle if self._scheduler is not None else 0
        )
        time = self.time_fn() if self.time_fn is not None else None
        self.events.emit(kind, request_id, cycle, time)

    def admit(self, request: SequenceRequest) -> None:
        """Enqueue a request into the open session's waiting queue."""
        self.scheduler.push(request)

    def cancel(self, request_id: int) -> Optional[SequenceSlot]:
        """Cancel a waiting, parked, or live request at the cycle boundary.

        Survivors are unaffected token-for-token (private per-request
        random streams + row-identical batched forwards).  Returns the
        cancelled slot (partial response retained) or None when the
        request is unknown or already finished.
        """
        slot = self.scheduler.cancel(request_id)
        if slot is not None:
            self._unpin(slot)
            self._emit(RequestEventKind.CANCELLED, request_id)
        return slot

    def expire(self, request_id: int) -> Optional[SequenceSlot]:
        """Retire a request as deadline-expired (cancel's SLO sibling)."""
        slot = self.scheduler.expire(request_id)
        if slot is not None:
            self._unpin(slot)
            self._emit(RequestEventKind.EXPIRED, request_id)
        return slot

    def park(
        self, request_id: int, preempted: bool = False
    ) -> SequenceSlot:
        """Suspend a live request at the cycle boundary.

        The slot is stashed whole (committed tokens, target hidden
        hand-off, private random stream); a later :meth:`resume`
        continues its decode byte-identically to an uninterrupted run.

        Args:
            request_id: the RUNNING request to park (raises otherwise).
            preempted: emit a PREEMPTED event instead of PARKED (set by
                scheduling policies so the trail distinguishes policy
                preemption from an operator's explicit park).
        """
        slot = self.scheduler.park(request_id)
        # A parked slot no longer pins its prefix-cache entry (the
        # slot owns a private copy of its hand-off); it keeps the key
        # so resume re-acquires the ref if the entry survived.
        self._unpin(slot)
        self._emit(
            RequestEventKind.PREEMPTED
            if preempted
            else RequestEventKind.PARKED,
            request_id,
        )
        return slot

    def resume(self, request_id: int) -> None:
        """Queue a parked request for re-admission.

        The slot re-enters the live pool ahead of the waiting FIFO at
        the next :meth:`step`, capacity permitting; the RESUMED event is
        emitted when it actually goes live.
        """
        self.scheduler.resume(request_id)

    def swap_drafter(self, drafter: Drafter) -> None:
        """Replace the drafter at a cycle boundary (zero downtime).

        Legal only between :meth:`step` calls: per-slot draft state is
        rebuilt from each sequence's target hidden hand-off at the start
        of every cycle (:meth:`~repro.drafter.base.Drafter.begin`), so
        no live request carries drafter-internal state across the swap —
        every sequence simply continues under the new drafter, and no
        request is dropped or stalled.  Committed tokens remain samples
        from the target distribution (speculative decoding is lossless);
        the realized tokens after the swap may differ because acceptance
        consumes each request's stream against different proposals.
        """
        if self._in_step:
            raise SpecDecodeError(
                "swap_drafter() is only legal at cycle boundaries, "
                "not mid-step"
            )
        if not isinstance(drafter, Drafter):
            raise SpecDecodeError(
                f"swap_drafter() needs a Drafter, got {type(drafter)!r}"
            )
        self.drafter = drafter
        self.drafter_swaps += 1
        self._emit(RequestEventKind.SWAPPED, None)

    def step(self) -> EngineStep:
        """Run exactly one admission + decode + retirement cycle.

        The batch step :func:`step_engines` on a batch of this one
        engine.
        """
        return step_engines([self])[0]

    def _open_plan(self) -> _Cycle:
        """Plan half of opening a cycle: readmit, admit, plan prefill.

        Every admitted slot is keyed by its effective context (see
        :func:`~repro.cache.blocks.effective_prefill_context`); resumed
        slots carry their stashed hand-off and are NOT re-prefilled
        (that is what keeps them byte-identical).  With an attached
        :class:`~repro.cache.manager.KVCacheManager` the plan consults
        the cache **once per distinct key per wave** (same-wave
        duplicates — a co-admitted GRPO group — ride their leader
        without touching hit/miss counters): exact hits are served a
        copy of the cached hand-off, misses get an
        :class:`~repro.cache.manager.AdmissionPlan` that reuses every
        whole cached block of the shared prefix — including blocks
        another leader of this wave is already computing — and compute
        only the hand-offs past it: one per block boundary at or beyond
        the plan's compute start, the rows :meth:`_open_finish` inserts
        with the chain.  Without a cache every key computes its final
        hand-off.  Counters model a real prefill: a computed key is one
        prefill launch of ``len(key) - compute_start`` tokens, whatever
        rows the substrate evaluates.

        Emits no event and makes no target launch: the batch step runs
        every engine's plan, then ONE prefill launch per target, then
        each engine's :meth:`_open_finish`.
        """
        self._in_step = True
        scheduler, cache = self.scheduler, self.kv_cache
        counters = self.counters
        counters.busy_cycles += 1
        resumed = scheduler.readmit_parked()
        cycle = _Cycle(self, scheduler.admit(), resumed)
        window = self.target.config.context_window
        cycle.keys = [
            effective_prefill_context(slot.sequence, window)
            if cache is None else cache.prefill_key(slot.sequence)
            for slot in cycle.admitted
        ]
        cycle.hiddens = [None] * len(cycle.keys)
        pending: set = set()  # block prefixes being computed this wave
        for index, key in enumerate(cycle.keys):
            if not key:
                continue  # no hand-off exists for length-1 prefixes
            start, block_size = 0, len(key)
            if cache is not None:
                if key in cycle.leaders:
                    # Same-wave duplicate: rides the leader's row (not a
                    # cache consultation — no hit/miss recorded, even
                    # when the leader itself was a hit).
                    counters.prefill_launches_saved += 1
                    counters.prefill_tokens_saved += len(key)
                    continue
                cycle.leaders[key] = index
                plan = cache.plan_admission(
                    key, scheduler.cycle, pending=pending
                )
                if plan.hidden is not None:
                    cycle.hiddens[index] = plan.hidden
                    counters.prefill_launches_saved += 1
                    counters.prefill_tokens_saved += len(key)
                    continue
                start, block_size = plan.compute_start, cache.block_size
            ends = block_boundaries(len(key), block_size)
            cycle.prefill.append(
                (index, start, [end - 1 for end in ends if end > start])
            )
            counters.prefill_launches += 1
            counters.prefill_tokens += len(key) - start
            counters.prefill_tokens_saved += start
            if cache is not None:
                pending.update(key[:end] for end in ends)
        return cycle

    def _open_finish(self, cycle: _Cycle) -> None:
        """Finish half: cache inserts, pins, events, SD decision."""
        scheduler = self.scheduler
        cache = self.kv_cache
        hiddens = cycle.hiddens
        if cycle.prefill:
            self.counters.target_steps += 1
        for (index, _, _), rows in zip(cycle.prefill, cycle.handoffs):
            key = cycle.keys[index]
            hiddens[index] = rows[len(key) - 1]
            if cache is not None:  # the chain keeps its boundary rows
                cache.insert_chain(
                    key,
                    {t + 1: row for t, row in rows.items()},
                    scheduler.cycle,
                )
        for index, key in enumerate(cycle.keys):
            leader = cycle.leaders.get(key)
            if hiddens[index] is None and leader is not None:
                # A same-wave duplicate owns a copy of its leader's row.
                hiddens[index] = hiddens[leader].copy()
        for slot, key, hidden in zip(cycle.admitted, cycle.keys, hiddens):
            slot.hidden = hidden
            if hidden is not None and cache is not None:
                self._pin(slot, key)
        for slot in cycle.resumed:
            if slot.cache_key is not None:
                self._pin(slot, slot.cache_key)
            self._emit(
                RequestEventKind.RESUMED, slot.request.request_id
            )
        for slot in cycle.admitted:
            self._emit(
                RequestEventKind.ADMITTED, slot.request.request_id
            )
        cycle.live = list(scheduler.live)
        batch = len(cycle.live)
        cycle.strategy = self.strategy
        if self.sd_manager is not None:
            if self.sd_manager.should_use_sd(batch):
                self.sd_manager.engage(batch)
                cycle.strategy = self.sd_manager.select_strategy(batch)
            else:
                cycle.strategy = None

    def _close(self, cycle: _Cycle) -> EngineStep:
        """Second half: commit, feedback, retirement, events, report."""
        scheduler = self.scheduler
        counters = self.counters
        counters.target_steps += 1
        live, strategy, trees = cycle.live, cycle.strategy, cycle.trees
        batch = len(live)
        committed = verify_rows = launches = saved = 0
        cycle_stats: List[SdCycleStats] = []
        for slot, tree, result in zip(live, trees, cycle.results):
            count = slot.commit(result.accepted_tokens, EOS_ID)
            slot.hidden = result.next_hidden
            committed += count
            verify_rows += result.verify_batch
            if strategy is None:
                continue  # a vanilla row: one token, nothing drafted
            stats = SdCycleStats(
                accepted=result.accepted_node_count,
                committed=count,
                drafted=tree.num_nodes,
                draft_steps=tree.draft_steps,
                verify_batch=result.verify_batch,
            )
            self._metrics.profile.record(
                result.depth_attempts, result.depth_accepts
            )
            self._metrics.add_cycle(stats)
            cycle_stats.append(stats)
            # Charge a tagged request's segment its tokens.
            segment = slot.request.segment
            if segment is None:
                continue
            counters.segment_accepted[segment] = (
                counters.segment_accepted.get(segment, 0) + stats.accepted
            )
            counters.segment_drafted[segment] = (
                counters.segment_drafted.get(segment, 0) + stats.drafted
            )
        if strategy is not None:
            # Charged what its own trees cost as a batch of their own,
            # whichever batch their rows rode: a worker is one
            # accelerator.
            launches = 1 + max(tree.rounds for tree in trees) if trees else 0
            saved = max(0, sum(tree.draft_calls for tree in trees) - launches)
            counters.draft_launches += launches
            counters.draft_launches_saved += saved
            if self.sd_manager is not None:
                # Cost proxy: rows pushed through the target plus
                # drafter steps.  Deterministic (unlike wall-clock,
                # which would let a CPU spike flip the bandit's arm
                # choice and break seeded reproducibility) while
                # still charging verification-heavy strategies more.
                cost = float(
                    sum(
                        c.verify_batch + c.draft_steps
                        for c in cycle_stats
                    )
                )
                self.sd_manager.record(
                    strategy,
                    cost,
                    [float(c.accepted) for c in cycle_stats],
                    batch,
                )
        drafted = sum(c.drafted for c in cycle_stats)
        retired = scheduler.retire_finished()
        for slot in retired:
            self._unpin(slot)
            self._emit(
                RequestEventKind.FINISHED, slot.request.request_id
            )
        wait_cycles = [slot.wait_cycles for slot in cycle.admitted]
        for wait in wait_cycles:
            self._metrics.record_wait(wait)
        self._metrics.record_queue_depth(scheduler.num_waiting)
        report = BatchCycleReport(
            index=len(self._reports),
            live_batch=batch,
            admitted=len(cycle.admitted),
            retired=len(retired),
            sd_active=strategy is not None,
            strategy=strategy,
            committed_tokens=committed,
            drafted_tokens=drafted,
            verify_rows=verify_rows,
            queue_depth=scheduler.num_waiting,
            mean_wait_cycles=(
                sum(wait_cycles) / len(wait_cycles) if wait_cycles else 0.0
            ),
            resumed=len(cycle.resumed),
            draft_launches=launches,
            draft_launches_saved=saved,
        )
        self._reports.append(report)
        scheduler.tick()
        return EngineStep(
            report=report,
            admitted=cycle.admitted,
            retired=retired,
            resumed=cycle.resumed,
        )

    def result(self) -> BatchedGenerationResult:
        """Collect the drained session's output (request order preserved)."""
        return BatchedGenerationResult(
            slots=self.scheduler.results(),
            metrics=self._metrics,
            target_steps=self.counters.target_steps,
            cycle_reports=list(self._reports),
        )

    # -- closed-loop batch API ---------------------------------------------

    def generate(
        self,
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        rng: np.random.Generator,
    ) -> BatchedGenerationResult:
        """Decode ``prompts`` to completion under continuous batching.

        Args:
            prompts: token-id prompts in request order.
            max_new_tokens: per-sequence response-length cap.
            rng: master generator; one seed per request is drawn up front
                so scheduling never changes any sequence's randomness.

        Returns:
            A :class:`BatchedGenerationResult` (request order preserved).
        """
        if max_new_tokens < 1:
            raise SpecDecodeError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}"
            )
        requests = self._make_requests(prompts, max_new_tokens, rng)
        self.start(requests)
        while self.has_work:
            self.step()
        return self.result()

    # -- cycle stages ------------------------------------------------------

    def _make_requests(
        self,
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        rng: np.random.Generator,
    ) -> List[SequenceRequest]:
        """Build requests with private per-request random streams."""
        seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(prompts))
        return [
            make_serving_request(i, prompt, max_new_tokens, int(seed))
            for i, (prompt, seed) in enumerate(zip(prompts, seeds))
        ]

    # -- prefix-cache ref lifecycle ----------------------------------------

    def _pin(self, slot: SequenceSlot, key: Tuple[int, ...]) -> None:
        """Pin ``key`` for a slot going live (first time or resumed).

        The slot remembers the key only while the pin took: an entry
        the cache rejected, or one evicted while the slot was parked
        and unpinned, is not retried — the slot owns a private copy of
        its hand-off, so a lost entry costs a future cache hit, never
        correctness.
        """
        slot.cache_pinned = self.kv_cache.acquire(key)
        slot.cache_key = key if slot.cache_pinned else None

    def _unpin(self, slot: SequenceSlot) -> None:
        """Release the slot's cache pin, if it holds one."""
        if slot.cache_pinned:
            self.kv_cache.release(slot.cache_key)
            slot.cache_pinned = False

    def _release_all_cache_refs(self) -> None:
        """Release every pin held by the (previous) session.

        Only live slots hold pins: parking releases, resuming re-takes.
        """
        if self._scheduler is not None:
            for slot in self._scheduler.live:
                self._unpin(slot)


def step_engines(
    engines: Sequence[BatchedSpecDecodeEngine],
) -> List[EngineStep]:
    """Advance every engine by one cycle as ONE lock-step batch.

    The tick runs in phases:

    1. *plan*, per engine in order: readmission, admission and the
       cache's admission plan (hits, same-wave leaders, pending blocks);
       no event is emitted;
    2. *prefill*: ONE :func:`suffix_prefill_hiddens` launch per target
       over every engine's hand-off rows (cached and cache-less engines
       alike);
    3. *finish*, per engine in order: chain inserts, leader copies,
       pins, RESUMED / ADMITTED events and the SD/vanilla decision;
    4. *draft*: all live slots of SD cycles whose engines share a
       drafter, target, strategy, temperature and child mode are drafted
       by ONE :func:`build_draft_trees` call; a vanilla cycle gives each
       live slot the zero-node :data:`EMPTY_TREE`;
    5. *verify*: every tree of the engines sharing a target and
       temperature — vanilla and SD rows alike — is verified by ONE
       :func:`verify_trees` call;
    6. *close*, per engine in order: commit, retirement, events, report,
       manager feedback.

    Within one engine the order of operations is that of stepping it
    alone; across engines only the plans move ahead of the inserts, so
    engines must not share a prefix cache (raised).  Each request owns
    its random stream and every kernel is row-invariant, so outputs,
    streams and per-engine counters equal those of stepping each engine
    alone.  Commits start only once every group has verified: an error
    raised while drafting or verifying leaves no token committed, and
    no engine is left mid-step whatever raises.

    Returns one :class:`EngineStep` per engine, in order.
    """
    caches = [id(e.kv_cache) for e in engines if e.kv_cache is not None]
    if len(set(caches)) < len(caches):
        # Every plan runs before any insert: engines sharing a cache
        # would see different hits than stepping one after another.
        raise SpecDecodeError("engines in one batch share a KVCacheManager")
    for engine in engines:
        if not engine.scheduler.has_work:
            raise SpecDecodeError("step() called with no live or waiting work")
    try:
        cycles = [engine._open_plan() for engine in engines]
        _prefill(cycles)
        for cycle in cycles:
            cycle.engine._open_finish(cycle)
        drafts: Dict[tuple, List[_Cycle]] = {}
        verifies: Dict[tuple, List[_Cycle]] = {}
        for cycle in cycles:
            engine = cycle.engine
            if cycle.strategy is None:
                cycle.trees = [EMPTY_TREE] * len(cycle.live)
            else:
                key = (
                    id(engine.drafter), id(engine.target), cycle.strategy,
                    engine.temperature, engine.child_mode,
                )
                drafts.setdefault(key, []).append(cycle)
            key = (id(engine.target), engine.temperature)
            verifies.setdefault(key, []).append(cycle)
        for members in drafts.values():
            lead = members[0].engine
            slots = [slot for cycle in members for slot in cycle.live]
            trees, _ = build_draft_trees(
                lead.drafter,
                [slot.sequence for slot in slots],
                [slot.hidden for slot in slots],
                members[0].strategy,
                lead.temperature,
                [slot.rng for slot in slots],
                child_mode=lead.child_mode,
            )
            rows = iter(trees)
            for cycle in members:
                cycle.trees = list(islice(rows, len(cycle.live)))
        for members in verifies.values():
            lead = members[0].engine
            slots = [slot for cycle in members for slot in cycle.live]
            rows = iter(
                verify_trees(
                    lead.target,
                    [tree for cycle in members for tree in cycle.trees],
                    [slot.sequence for slot in slots],
                    lead.temperature,
                    [slot.rng for slot in slots],
                )
            )
            for cycle in members:
                cycle.results = list(islice(rows, len(cycle.live)))
        return [cycle.engine._close(cycle) for cycle in cycles]
    finally:
        for engine in engines:
            engine._in_step = False


def _prefill(cycles: Sequence[_Cycle]) -> None:
    """Answer every cycle's prefill plan with ONE launch per target."""
    groups: Dict[int, List[_Cycle]] = {}
    for cycle in cycles:
        if cycle.prefill:
            groups.setdefault(id(cycle.engine.target), []).append(cycle)
    for members in groups.values():
        wanted = [
            (cycle.keys[index], positions)
            for cycle in members
            for index, _, positions in cycle.prefill
        ]
        rows = iter(
            suffix_prefill_hiddens(
                members[0].engine.target,
                [key for key, _ in wanted],
                [positions for _, positions in wanted],
            )
        )
        for cycle in members:
            cycle.handoffs = list(islice(rows, len(cycle.prefill)))


def make_serving_request(
    request_id: int,
    prompt: Sequence[int],
    max_new_tokens: int,
    seed: int,
    segment: Optional[str] = None,
    predicted_length: Optional[int] = None,
) -> SequenceRequest:
    """Build a :class:`SequenceRequest` with its own seeded stream.

    The serving front-end derives one of these per online request: the
    private stream makes the committed tokens independent of which worker
    decodes it, when it is admitted, and which neighbours it batches with.
    ``predicted_length`` is the dispatcher's length estimate; it rides
    on the request so it follows the request across a steal.
    """
    if max_new_tokens < 1:
        raise SpecDecodeError(
            f"max_new_tokens must be >= 1, got {max_new_tokens}"
        )
    return SequenceRequest(
        request_id=request_id,
        prompt=[BOS_ID] + [int(t) for t in prompt],
        max_new_tokens=max_new_tokens,
        rng=np.random.default_rng(int(seed)),
        segment=segment,
        predicted_length=predicted_length,
    )
