"""Distribution-aware rollout scheduling over the shared serving pool.

:class:`RolloutScheduler` is the one way a GRPO rollout batch reaches a
:class:`~repro.serving.frontend.ServingEngine`: prompts become seeded,
group-tagged BATCH-class requests on the *same* workers that serve
online traffic, the pool is ticked until they resolve, and the batch
comes back group-complete.  It is the trainer's one backend
(``RlTrainer(backend=RolloutScheduler(pool))``), SD on or off as the
pool is built, and the same object splits into
:meth:`~RolloutScheduler.submit_batch` /
:meth:`~RolloutScheduler.collect` for callers that pipeline batches.

Submitted whole (:attr:`SchedulerMode.FIFO`), every member arrives at
once, workers admit in FIFO order, and the batch's makespan is set by
whichever straggler was admitted *last* — the worst case the paper's
long-tail analysis warns about.  The default mode closes the gap with
two moves the long-tail papers argue for (DARTS; "Beat the Long-Tail"):

* **tail-first admission** — GRPO groups are decomposed and members
  staged longest-predicted-first (the :class:`~repro.longtail.
  predictor.LengthPredictor` supplies the estimate), so stragglers
  claim slots at the *start* of the batch and short requests fill the
  remaining capacity around them instead of queueing behind them;
* **cross-batch pipelining** — staged requests of batch *k+1* are
  released into slots freed by batch *k*'s stragglers, so the tail of
  one batch overlaps the head of the next instead of draining into an
  idle pool.  Delivery stays **group-complete**: :meth:`RolloutScheduler.
  collect` hands the trainer batch *k* only when every member has
  finished, in original submission order.

The determinism contract is the subsystem's spine: per-request seeds
are drawn from the trainer's generator **in prompt order at submit
time** — before any sorting — and every request decodes from its own
private stream, so tail-first staging, release timing, and pipelining
reorder *work*, never randomness.  A FIFO run and a tail-first
pipelined run of the same batches produce byte-identical per-request
outputs; only the makespan moves.  (:class:`SchedulerMode` exists so
the FIFO baseline runs through the *same* code path — same seed draws,
same id allocation — making that comparison airtight.)  The same
streams make co-location safe: a rollout's committed tokens do not
depend on which worker it lands on, what interactive neighbours it
batches with, or how often :class:`~repro.serving.dispatch.
SloPreemption` parks it, so under a static strategy co-located rollouts
are byte-identical to a dedicated-pool run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.errors import ConfigError, SchedulingError, ServingError
from repro.llm.vocab import EOS_ID
from repro.longtail.predictor import LengthPredictor
from repro.rl.rollout_backends import RolloutResult
from repro.serving.frontend import ServingEngine
from repro.serving.request import BATCH, TERMINAL_STATES, ServingRequest
from repro.specdec.metrics import WorkerCounters

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.llm.model import TinyLM


def group_tags(
    prompts: Sequence[Sequence[int]],
    group_size: Optional[int] = None,
) -> List[int]:
    """Group indices for a GRPO-expanded prompt list.

    GRPO expands each distinct prompt ``group_size`` times in
    group-major order (:meth:`~repro.workload.prompts.PromptBatch.
    expanded`).  When ``group_size`` is given the tags are exact chunk
    ordinals; when omitted, runs of identical consecutive prompts are
    taken as the groups — correct unless two *adjacent* groups sampled
    the same prompt, in which case they merge (pass the real shape
    when you have it).
    """
    if group_size is not None:
        if group_size < 1:
            raise ConfigError(
                f"group_size must be >= 1, got {group_size}"
            )
        if len(prompts) % group_size != 0:
            raise ConfigError(
                f"{len(prompts)} prompts do not split into groups "
                f"of {group_size}"
            )
        return [index // group_size for index in range(len(prompts))]
    tags: List[int] = []
    tag = 0
    for index, prompt in enumerate(prompts):
        if index > 0 and list(prompt) != list(prompts[index - 1]):
            tag += 1
        tags.append(tag)
    return tags


class SchedulerMode(enum.Enum):
    """How staged rollout requests reach the pool.

    FIFO is the whole-group baseline (everything submitted at once in
    prompt order, no reorder, no cross-batch overlap); TAIL_FIRST
    stages members longest-predicted-first and releases batch k+1 into
    capacity batch k's stragglers free up.
    """

    FIFO = "fifo"
    TAIL_FIRST = "tail-first"


@dataclass
class SchedulerStats:
    """Monotonic counters over the scheduler's lifetime.

    Attributes:
        batches_submitted: rollout batches staged.
        batches_collected: batches delivered group-complete.
        requests_released: staged requests actually submitted to the
            pool.
        pipelined_releases: requests released while an *earlier* batch
            was still unresolved — the cross-batch overlap the
            pipelining exists to create (always 0 in FIFO mode).
        collect_ticks: pool ticks spent inside :meth:`RolloutScheduler.
            collect` calls.
    """

    batches_submitted: int = 0
    batches_collected: int = 0
    requests_released: int = 0
    pipelined_releases: int = 0
    collect_ticks: int = 0


class RolloutScheduler:
    """Tail-first, pipelined admission of GRPO rollouts to a pool.

    The one rollout path onto a shared pool: :meth:`generate` makes it
    the trainer's backend, :meth:`submit_batch` / :meth:`pump` /
    :meth:`collect` are the same path split open for pipelined callers.

    A dedicated rollout engine is a one-worker pool
    (``RolloutScheduler(ServingEngine(policy, drafter, num_workers=1,
    ...))``): in FIFO mode its outputs and ``target_steps`` equal
    :func:`~repro.specdec.engine.speculative_generate` on the same
    prompts and seed, which is that pool drained at once.  A vanilla
    rollout is the same pool with SD off
    (``ServingEngine(policy, None, temperature=...)``).

    A note on launch accounting: a result's ``target_steps`` is the
    POOL-WIDE launch delta over the collect window — decode cycles
    spent on interactive neighbours or on another batch's stragglers
    are included, because they genuinely share the batched forwards
    the rollouts ride.  It is what the pool spent while the batch was
    in flight, not a per-request attribution.  The prefill counters in
    ``stats`` have the same provenance.

    Args:
        engine: the shared serving pool (the same object online traffic
            rides; rollouts enter as BATCH-class requests — preemptible,
            deadline-free background traffic — through the standard
            submit path, so the urgent lane and preemption policy apply
            to them unchanged).  Its target model must be the *same
            object* as the policy the trainer mutates, so RL updates
            reach every worker without weight shipping, and its
            temperature must match the trainer's rollout temperature
            (both are validated per batch).
        predictor: response-length estimator staged members are ranked
            by; a fresh default-configured one is built when omitted.
            The scheduler feeds every collected batch's observed
            lengths back, closing the estimator's loop.
        mode: :class:`SchedulerMode` (TAIL_FIRST unless benchmarking
            the FIFO baseline).
        group_size: GRPO group size for exact group tagging; inferred
            from identical consecutive prompts when omitted (see
            :func:`group_tags`).
        segment_of: optional prompt -> segment labeller; tagged
            requests get per-segment acceptance counters and
            segment-affinity dispatch (the drafter-zoo hooks).

    A collect that has not drained within :attr:`max_ticks` pool ticks
    raises (a safety bound, not a tuning knob).
    """

    name = "serving-pool"
    max_ticks = 1_000_000

    def __init__(
        self,
        engine: ServingEngine,
        predictor: Optional[LengthPredictor] = None,
        mode: SchedulerMode = SchedulerMode.TAIL_FIRST,
        group_size: Optional[int] = None,
        segment_of: Optional[
            Callable[[Sequence[int]], Optional[str]]
        ] = None,
    ) -> None:
        if group_size is not None and group_size < 1:
            raise ConfigError(
                f"group_size must be >= 1, got {group_size}"
            )
        self.engine = engine
        self.predictor = predictor or LengthPredictor()
        self.mode = mode
        self.group_size = group_size
        self.segment_of = segment_of
        self.stats = SchedulerStats()
        #: (batch id, request) pairs held back, in release order.
        self._staged: Deque[Tuple[int, ServingRequest]] = deque()
        #: Uncollected batches: id -> request ids in prompt order.
        #: Ids only grow, so iteration order is submission order and an
        #: id below ``_next_batch_id`` that is absent was collected.
        self._batches: Dict[int, List[int]] = {}
        self._next_batch_id = 0

    # -- the trainer's backend ----------------------------------------------

    def generate(
        self,
        policy: "TinyLM",
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        temperature: float,
        rng: np.random.Generator,
    ) -> RolloutResult:
        """One rollout batch through the pool, start to finish."""
        return self.collect(
            self.submit_batch(
                policy, prompts, max_new_tokens, temperature, rng
            )
        )

    # -- submission --------------------------------------------------------

    def submit_batch(
        self,
        policy: "TinyLM",
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        temperature: float,
        rng: np.random.Generator,
    ) -> int:
        """Stage one GRPO rollout batch; returns its batch id.

        Seeds are drawn from ``rng`` in **prompt order** before any
        staging decision, so the scheduler's reordering cannot touch
        any request's random stream, and a caller alternating
        ``sample_prompts`` / ``submit_batch`` consumes the trainer RNG
        in the same order as the in-line loop.

        In FIFO mode the whole batch is submitted to the pool
        immediately (whole-group baseline); in TAIL_FIRST mode members
        are staged longest-predicted-first and released by
        :meth:`pump` / :meth:`collect` as capacity allows.
        """
        if max_new_tokens < 1:
            raise ConfigError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}"
            )
        served = self.engine.workers[0].engine
        if served.target is not policy:
            raise ConfigError(
                "the serving pool must serve the policy being trained "
                "(same object), so in-place RL updates reach every "
                "worker; build the pool over the trainer's policy"
            )
        if served.temperature != temperature:
            raise ConfigError(
                f"pool temperature {served.temperature} != rollout "
                f"temperature {temperature}; rollouts would be sampled "
                "off-distribution"
            )
        # THE ordering contract: seeds in prompt order, before staging.
        seeds = rng.integers(
            0, np.iinfo(np.int64).max, size=len(prompts)
        )
        ids = self.engine.allocate_request_ids(len(prompts))
        tags = group_tags(prompts, self.group_size)
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        requests: List[ServingRequest] = []
        for prompt, seed, request_id, tag in zip(
            prompts, seeds, ids, tags
        ):
            prompt = [int(t) for t in prompt]
            requests.append(
                ServingRequest(
                    request_id=request_id,
                    prompt=prompt,
                    max_new_tokens=max_new_tokens,
                    arrival_time=self.engine.clock.now,
                    slo=BATCH,
                    predicted_length=self.predictor.predict(
                        prompt, cap=max_new_tokens
                    ),
                    seed=int(seed),
                    group=ids.start + tag,
                    segment=(
                        self.segment_of(prompt)
                        if self.segment_of is not None
                        else None
                    ),
                )
            )
        self._batches[batch_id] = list(ids)
        self.stats.batches_submitted += 1
        if self.mode is SchedulerMode.FIFO:
            # Whole-group baseline: everything arrives at once, in
            # prompt order.
            for request in requests:
                self._release(batch_id, request)
        else:
            # Tail first: stragglers claim slots before short members.
            requests.sort(
                key=lambda r: (-r.predicted_length, r.request_id)
            )
            self._staged.extend((batch_id, r) for r in requests)
            self.pump()
        return batch_id

    # -- release machinery -------------------------------------------------

    def pump(self) -> int:
        """Release staged requests into current pool headroom.

        Headroom is the pool's free live slots minus what is already
        queued on workers — releasing more than that would just move
        the queue from the scheduler into the workers (and ahead of
        any later urgent traffic).  Returns the number released.
        Callers need not invoke this directly: :meth:`collect` pumps
        before every tick; it is public for callers driving the pool's
        clock themselves (a co-located serving trace).
        """
        if not self._staged:
            return 0
        headroom = sum(
            worker.free_slots - worker.num_waiting
            for worker in self.engine.workers
        )
        released = 0
        while self._staged and released < headroom:
            self._release(*self._staged.popleft())
            released += 1
        return released

    def _release(self, batch_id: int, request: ServingRequest) -> None:
        """Submit one staged request to the pool, arriving now."""
        request.arrival_time = self.engine.clock.now
        self.engine.submit(request)
        self.stats.requests_released += 1
        # The oldest uncollected batch is the dict's first key.
        if next(iter(self._batches)) < batch_id:
            self.stats.pipelined_releases += 1

    # -- delivery ----------------------------------------------------------

    def collect(self, batch_id: int) -> RolloutResult:
        """Tick the pool until ``batch_id`` is complete; deliver it.

        Group-complete delivery in original prompt order — the trainer
        sees the same responses under either :class:`SchedulerMode`
        (byte-identical; only the makespan moves), and a member that
        was cancelled or expired mid-batch fails the whole batch loudly
        instead of silently corrupting the GRPO group.  Observed
        response lengths are fed back to the predictor before
        returning, so the next batch's staging uses them, and the
        batch's book-keeping is dropped.
        """
        if batch_id not in self._batches:
            raise SchedulingError(
                f"batch {batch_id} was already collected"
                if 0 <= batch_id < self._next_batch_id
                else f"unknown batch id {batch_id}"
            )
        request_ids = self._batches[batch_id]
        engine = self.engine
        counters_before = self._pool_counters()
        ticks = 0
        while not self._resolved(batch_id):
            if ticks >= self.max_ticks:
                raise ServingError(
                    f"rollout batch {batch_id} did not drain within "
                    f"{self.max_ticks} pool ticks"
                )
            self.pump()
            engine.tick()
            ticks += 1
        self.stats.collect_ticks += ticks
        del self._batches[batch_id]
        self.stats.batches_collected += 1

        records = [engine.records[i] for i in request_ids]
        dead = [
            r.request.request_id for r in records if not r.finished
        ]
        if dead:
            raise ServingError(
                f"rollout requests {dead} were cancelled or expired "
                "mid-batch; the GRPO group is incomplete"
            )
        responses = [list(r.response) for r in records]
        self.predictor.observe_batch(
            [r.request.prompt for r in records],
            [max(1, len(r)) for r in responses],
        )
        spent = self._pool_counters() - counters_before
        return RolloutResult(
            prompts=[list(r.slot.prompt) for r in records],
            responses=responses,
            # EOS is only ever committed as the final token, so the
            # tail token is exactly the engine's slot.done flag.
            finished=[
                bool(r) and r[-1] == EOS_ID for r in responses
            ],
            target_steps=spent.target_steps,
            stats={
                "pool_ticks": float(ticks),
                "preemptions": float(
                    sum(r.preemptions for r in records)
                ),
                "stolen": float(sum(r.stolen for r in records)),
                "rollout_tokens": float(
                    sum(len(r) for r in responses)
                ),
                # Grouped rollouts share prompts by construction, so
                # with a prefix cache + prefix-aware admission most of
                # a group's prefill launches show up as saved.
                "prefill_launches": float(spent.prefill_launches),
                "prefill_launches_saved": float(
                    spent.prefill_launches_saved
                ),
                "pipelined_releases": float(
                    self.stats.pipelined_releases
                ),
            },
        )

    def _pool_counters(self) -> WorkerCounters:
        """The pool's ledger now (a fresh sum over the live ones)."""
        return sum(
            (w.engine.counters for w in self.engine.workers),
            WorkerCounters(),
        )

    def _resolved(self, batch_id: int) -> bool:
        """True once every member has left the scheduler and the pool."""
        # Staged first: an unreleased member has no pool record yet.
        if any(staged_id == batch_id for staged_id, _ in self._staged):
            return False
        records = self.engine.records
        return all(
            records[i].state in TERMINAL_STATES
            for i in self._batches[batch_id]
        )

    @property
    def pending_batches(self) -> List[int]:
        """Uncollected batch ids in submission order."""
        return list(self._batches)

