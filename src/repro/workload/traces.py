"""Synthesis of multi-step RL training traces (paper Figure 2).

The ByteDance production trace shows, across 385 RL steps over 11 days:

* response lengths growing over training (reasoning gets longer),
* the per-step maximum pinned at the configured cap for most steps,
* a persistent gap between p75 and the max (the "under-utilized zone").

:func:`synthesize_trace` reproduces that shape from a drifting lognormal
whose median grows with the policy's reasoning depth, plus per-step jitter.

:func:`mixed_serving_trace` generates the *online* counterpart: an
INTERACTIVE Poisson stream over a floor of long BATCH-class rollout
requests — the co-located RL + serving workload where background
rollouts soak whatever capacity the latency-critical traffic leaves
idle.

:func:`shared_prefix_trace` shapes the interactive side for the
prefix-cache subsystem: arrivals drawn from a small family of prompt
prefixes (system-prompt / few-shot-template reuse), each optionally
extended with a per-request suffix — the workload where
prefix-affinity dispatch and prefix-aware admission pay off outside
grouped rollouts.

:func:`segmented_grpo_trace` shapes the *rollout* side for the
long-tail subsystem (``repro.longtail``): GRPO batches whose groups
are drawn from a handful of prompt **families**, each family sampling
its tokens from a disjoint slice of the vocabulary — distinct task
populations with distinct continuation statistics, so response
lengths are family-conditioned (the signal the
:class:`~repro.longtail.predictor.LengthPredictor` learns) and
segment-specialist drafters have something to specialize *on* (the
signal the :class:`~repro.longtail.zoo.DrafterZoo` exploits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.llm.vocab import NUM_SPECIAL_TOKENS
from repro.workload.lengths import (
    LengthModel,
    LognormalLengths,
    length_statistics,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serving.request import ServingRequest, SloClass

#: Modelled wall-clock minutes per RL step, and per periodic evaluation
#: (one every ``EVAL_EVERY`` steps) — the paper's 385 steps over 11 days.
STEP_MINUTES = 40.0
EVAL_EVERY = 5
EVAL_MINUTES = 20.0

#: Median response length at a synthesized trace's first / last step:
#: training lengthens reasoning.
START_MEDIAN = 1200.0
END_MEDIAN = 4500.0


@dataclass(frozen=True)
class TraceStep:
    """Per-RL-step length statistics (the quantities Figure 2 plots)."""

    step: int
    max_length: float
    p75: float
    p50: float
    mean: float
    hit_cap: bool


@dataclass
class TrainingTrace:
    """A synthesized multi-step RL training trace.

    Attributes:
        steps: per-step statistics.
        cap: the configured maximum generation length.
    """

    steps: List[TraceStep]
    cap: int

    @property
    def num_steps(self) -> int:
        """Number of RL steps in the trace."""
        return len(self.steps)

    @property
    def cap_hit_fraction(self) -> float:
        """Fraction of steps whose longest response reached the cap."""
        if not self.steps:
            return 0.0
        return sum(s.hit_cap for s in self.steps) / len(self.steps)

    @property
    def total_days(self) -> float:
        """Modelled total wall-clock days (training + periodic evals)."""
        evals = self.num_steps // EVAL_EVERY
        minutes = self.num_steps * STEP_MINUTES + evals * EVAL_MINUTES
        return minutes / (60.0 * 24.0)

    def series(self, key: str) -> np.ndarray:
        """Column extraction for plotting/benchmark rows."""
        valid = {"max_length", "p75", "p50", "mean"}
        if key not in valid:
            raise ConfigError(f"unknown series {key!r}; choose from {valid}")
        return np.asarray([getattr(s, key) for s in self.steps])


def synthesize_trace(
    num_steps: int,
    rng: np.random.Generator,
    cap: int = 20_480,
    requests_per_step: int = 512,
    sigma: float = 1.05,
) -> TrainingTrace:
    """Synthesize a ByteDance-like RL training trace.

    Args:
        num_steps: RL steps to simulate (the paper's trace has 385).
        rng: random generator.
        cap: maximum generation length (paper: 20,480).
        requests_per_step: rollout responses sampled per step.
        sigma: lognormal spread (controls the tail thickness).

    Returns:
        A :class:`TrainingTrace` whose per-step statistics exhibit the
        paper's three signatures (growth, pinned max, p75–max gap).
    """
    if num_steps < 1:
        raise ConfigError("num_steps must be >= 1")
    if requests_per_step < 4:
        raise ConfigError("requests_per_step must be >= 4")
    steps: List[TraceStep] = []
    for step in range(num_steps):
        progress = step / max(num_steps - 1, 1)
        # Smooth growth plus mild multiplicative jitter step to step.
        median = START_MEDIAN + (END_MEDIAN - START_MEDIAN) * progress
        median *= float(np.exp(rng.normal(0.0, 0.08)))
        model = LognormalLengths(median=median, sigma=sigma, cap=cap)
        lengths = model.sample(rng, requests_per_step)
        stats = length_statistics(lengths)
        steps.append(
            TraceStep(
                step=step,
                max_length=stats["max"],
                p75=stats["p75"],
                p50=stats["p50"],
                mean=stats["mean"],
                hit_cap=bool(stats["max"] >= cap),
            )
        )
    return TrainingTrace(steps=steps, cap=cap)


def _prefix_families(
    rng: np.random.Generator,
    vocab_size: int,
    count: int,
    prefix_len: int,
) -> List[List[int]]:
    """Draw ``count`` distinct prompt-prefix families."""
    return [
        [int(t) for t in rng.integers(3, vocab_size, size=prefix_len)]
        for _ in range(count)
    ]


def _requests_from_arrivals(
    rng: np.random.Generator,
    vocab_size: int,
    arrivals: Sequence[float],
    families: Sequence[Sequence[int]],
    suffix_len: int,
    lengths: LengthModel,
    slo: "SloClass",
    start_id: int,
) -> List["ServingRequest"]:
    """Materialise requests for given arrival times over prefix families."""
    from repro.serving.request import ServingRequest

    picks = rng.integers(0, len(families), size=len(arrivals))
    caps = lengths.sample(rng, len(arrivals))
    requests: List["ServingRequest"] = []
    for i, arrival in enumerate(arrivals):
        prompt = list(families[int(picks[i])])
        if suffix_len:
            prompt.extend(
                int(t)
                for t in rng.integers(3, vocab_size, size=suffix_len)
            )
        requests.append(
            ServingRequest(
                request_id=start_id + i,
                prompt=prompt,
                max_new_tokens=int(caps[i]),
                arrival_time=float(arrival),
                slo=slo,
                predicted_length=int(caps[i]),
                seed=int(rng.integers(0, np.iinfo(np.int64).max)),
            )
        )
    return requests


def _tag_groups(
    floor: List["ServingRequest"], size: int, first_tag: int
) -> None:
    """Tag a BATCH floor into GRPO groups of ``size`` in place.

    Request *i* joins group ``first_tag + i // size`` and takes a copy
    of its group's first request's prompt, as grouped rollouts share
    their prompt by construction.
    """
    for i, request in enumerate(floor):
        request.group = first_tag + i // size
        request.prompt = list(floor[i - i % size].prompt)


def mixed_serving_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_interactive: int,
    num_batch: int,
    batch_gap: float = 1.0,
    batch_lengths: Optional[LengthModel] = None,
    prompt_len: int = 4,
    predictor_noise: float = 0.0,
    batch_group_size: Optional[int] = None,
    start_id: int = 0,
) -> List["ServingRequest"]:
    """Synthesize the co-located RL + serving workload as one trace.

    Short INTERACTIVE requests arrive as a Poisson stream over a floor
    of long BATCH-class requests (the RL-rollout traffic shape): the
    merged trace is what the closed-loop benchmarks drive through a
    shared :class:`~repro.serving.frontend.ServingEngine` — BATCH
    requests soak idle capacity, :class:`~repro.serving.dispatch.
    SloPreemption` parks them when interactive arrivals need slots.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: prompt token ids drawn from ``[3, vocab_size)``.
        num_interactive: interactive requests in the stream.
        num_batch: BATCH-class background requests in the floor.
        batch_gap: mean inter-arrival ticks of the BATCH floor (the
            interactive stream's is 2.5).
        batch_lengths: BATCH response-length model (default: a
            long-tailed lognormal — the paper's rollout distribution;
            interactive requests draw from a short lognormal).
        prompt_len: prompt length in tokens.
        predictor_noise: lognormal sigma of the multiplicative noise on
            ``predicted_length`` (0.0 = oracle predictor).
        batch_group_size: when set, consecutive BATCH requests share a
            GRPO-style group tag in chunks of this size (and the group's
            prompt, as grouped rollouts do by construction).
        start_id: first request id (batch floor first, then stream).

    Returns:
        Requests of both classes merged and sorted by arrival time.
    """
    # Imported here: repro.serving.request itself imports
    # repro.workload.lengths, so a module-level import would cycle
    # through the two packages' __init__ modules.
    from repro.serving.request import (
        BATCH,
        INTERACTIVE,
        poisson_trace,
    )

    if num_interactive < 1 or num_batch < 1:
        raise ConfigError(
            "num_interactive and num_batch must be >= 1"
        )
    if batch_group_size is not None and batch_group_size < 1:
        raise ConfigError("batch_group_size must be >= 1 when set")
    batch_lengths = batch_lengths or LognormalLengths(
        median=60.0, sigma=0.8, cap=240
    )
    floor = poisson_trace(
        rng,
        num_requests=num_batch,
        mean_interarrival=batch_gap,
        length_model=batch_lengths,
        vocab_size=vocab_size,
        prompt_len=prompt_len,
        slo_mix=((BATCH, 1.0),),
        predictor_noise=predictor_noise,
        start_id=start_id,
    )
    if batch_group_size is not None:
        _tag_groups(floor, batch_group_size, start_id)
    stream = poisson_trace(
        rng,
        num_requests=num_interactive,
        mean_interarrival=2.5,
        length_model=LognormalLengths(median=5.0, sigma=0.4, cap=12),
        vocab_size=vocab_size,
        prompt_len=prompt_len,
        slo_mix=((INTERACTIVE, 1.0),),
        predictor_noise=predictor_noise,
        start_id=start_id + num_batch,
    )
    return sorted(
        floor + stream,
        key=lambda r: (r.arrival_time, r.request_id),
    )


def shared_prefix_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_requests: int,
    num_prefixes: int,
    prefix_len: int = 4,
    suffix_len: int = 0,
    mean_interarrival: float = 2.0,
    max_new_tokens: Optional[LengthModel] = None,
    slo: Optional["SloClass"] = None,
    start_id: int = 0,
) -> List["ServingRequest"]:
    """Synthesize an interactive trace with shared prompt prefixes.

    Real interactive traffic repeats prompt prefixes constantly —
    system prompts, few-shot templates, retried questions.  This trace
    reproduces that shape: ``num_prefixes`` distinct prefix families
    are drawn once, and every arrival picks one (uniformly) and
    appends ``suffix_len`` fresh tokens.  With ``suffix_len=0`` whole
    prompts repeat — the exact-reuse case a
    :class:`~repro.cache.manager.KVCacheManager` turns into skipped
    prefill launches; with a positive suffix, prompts share only their
    head — the partial-match case
    :class:`~repro.serving.dispatch.PrefixAffinityDispatch` routes on.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_requests: arrivals in the trace.
        num_prefixes: distinct prefix families.
        prefix_len: tokens per shared prefix.
        suffix_len: fresh per-request tokens after the prefix.
        mean_interarrival: mean ticks between Poisson arrivals.
        max_new_tokens: response-length model (short lognormal when
            omitted).
        slo: SLO class of every request (INTERACTIVE when omitted).
        start_id: first request id.

    Returns:
        Requests sorted by arrival time.
    """
    from repro.serving.request import INTERACTIVE

    if num_requests < 1:
        raise ConfigError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    if num_prefixes < 1:
        raise ConfigError(
            f"num_prefixes must be >= 1, got {num_prefixes}"
        )
    if prefix_len < 1:
        raise ConfigError(f"prefix_len must be >= 1, got {prefix_len}")
    if suffix_len < 0:
        raise ConfigError(
            f"suffix_len must be >= 0, got {suffix_len}"
        )
    if mean_interarrival <= 0:
        raise ConfigError("mean_interarrival must be positive")
    lengths = max_new_tokens or LognormalLengths(
        median=5.0, sigma=0.4, cap=12
    )
    families = _prefix_families(rng, vocab_size, num_prefixes, prefix_len)
    gaps = rng.exponential(mean_interarrival, size=num_requests)
    arrivals = np.cumsum(gaps) - gaps[0]
    return _requests_from_arrivals(
        rng,
        vocab_size,
        arrivals,
        families,
        suffix_len,
        lengths,
        slo or INTERACTIVE,
        start_id,
    )


def fleet_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_tenants: int,
    requests_per_tenant: int,
    num_batch: int = 0,
    prefix_len: int = 4,
    suffix_len: int = 0,
    mean_interarrival: float = 1.0,
    batch_gap: float = 2.0,
    batch_group_size: int = 4,
    max_new_tokens: Optional[LengthModel] = None,
    batch_lengths: Optional[LengthModel] = None,
    start_id: int = 0,
) -> List["ServingRequest"]:
    """Synthesize multi-tenant fleet traffic: tenants + rollout floor.

    The fleet tier's traffic shape: ``num_tenants`` tenants each reuse
    their own prompt-prefix family (system prompts per product surface),
    interleaved as one Poisson stream, over an optional floor of
    GRPO-grouped BATCH rollouts whose groups share prompts by
    construction.  Prefix-hash routing sends each tenant — and each
    rollout group — to one replica, so the per-replica prefix caches
    amortise fleet-wide; placement-oblivious routing scatters
    every family across all replicas and pays the prefill again on each.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_tenants: distinct tenant prefix families.
        requests_per_tenant: interactive arrivals per tenant.
        num_batch: BATCH-class rollout requests in the floor (0 = none).
        prefix_len: tokens per tenant prefix.
        suffix_len: fresh per-request tokens after the prefix.
        mean_interarrival: mean ticks between interactive arrivals.
        batch_gap: mean ticks between BATCH arrivals.
        batch_group_size: GRPO group size of the rollout floor.
        max_new_tokens: interactive response-length model.
        batch_lengths: rollout response-length model (long-tailed
            lognormal when omitted).
        start_id: first request id (interactive first, then floor).

    Returns:
        Requests of both classes merged and sorted by arrival time.
    """
    from repro.serving.request import BATCH, poisson_trace

    if num_tenants < 1:
        raise ConfigError(f"num_tenants must be >= 1, got {num_tenants}")
    if requests_per_tenant < 1:
        raise ConfigError(
            f"requests_per_tenant must be >= 1, "
            f"got {requests_per_tenant}"
        )
    if num_batch < 0:
        raise ConfigError(f"num_batch must be >= 0, got {num_batch}")
    if batch_group_size < 1:
        raise ConfigError(
            f"batch_group_size must be >= 1, got {batch_group_size}"
        )
    stream = shared_prefix_trace(
        rng,
        vocab_size,
        num_requests=num_tenants * requests_per_tenant,
        num_prefixes=num_tenants,
        prefix_len=prefix_len,
        suffix_len=suffix_len,
        mean_interarrival=mean_interarrival,
        max_new_tokens=max_new_tokens,
        start_id=start_id,
    )
    floor: List["ServingRequest"] = []
    if num_batch:
        batch_lengths = batch_lengths or LognormalLengths(
            median=30.0, sigma=0.8, cap=120
        )
        floor = poisson_trace(
            rng,
            num_requests=num_batch,
            mean_interarrival=batch_gap,
            length_model=batch_lengths,
            vocab_size=vocab_size,
            prompt_len=prefix_len + suffix_len,
            slo_mix=((BATCH, 1.0),),
            start_id=start_id + len(stream),
        )
        _tag_groups(floor, batch_group_size, start_id + len(stream))
    return sorted(
        stream + floor,
        key=lambda r: (r.arrival_time, r.request_id),
    )


@dataclass(frozen=True)
class PromptFamily:
    """One task population: prompts drawn from a private token slice.

    Disjoint slices are the whole point — a prompt's very first token
    identifies its family (the :meth:`SegmentedGrpoTrace.segment_of`
    labeller rides that), and a drafter trained on one family's slice
    has genuinely different statistics from its siblings.

    Attributes:
        name: segment label requests from this family carry.
        lo / hi: token ids drawn from ``[lo, hi)``.
        prompt_len: tokens per prompt.
    """

    name: str
    lo: int
    hi: int
    prompt_len: int = 4

    def __post_init__(self) -> None:
        if not NUM_SPECIAL_TOKENS <= self.lo < self.hi:
            raise ConfigError(
                f"family {self.name!r} needs "
                f"{NUM_SPECIAL_TOKENS} <= lo < hi, "
                f"got [{self.lo}, {self.hi})"
            )
        if self.prompt_len < 1:
            raise ConfigError(
                f"family {self.name!r}: prompt_len must be >= 1"
            )

    def sample_prompt(self, rng: np.random.Generator) -> List[int]:
        """One prompt from this family's token slice."""
        return [
            int(t)
            for t in rng.integers(self.lo, self.hi, size=self.prompt_len)
        ]


def segment_families(
    vocab_size: int,
    num_families: int,
    prompt_len: int = 4,
) -> List["PromptFamily"]:
    """Partition the regular-token range into disjoint prompt families.

    The regular range ``[NUM_SPECIAL_TOKENS, vocab_size)`` is split
    into ``num_families`` contiguous, non-overlapping slices named
    ``"seg0" .. "segN"``.  Disjointness is what makes the family
    recoverable from any prompt token.
    """
    span = vocab_size - NUM_SPECIAL_TOKENS
    if num_families < 1:
        raise ConfigError(
            f"num_families must be >= 1, got {num_families}"
        )
    if span < num_families:
        raise ConfigError(
            f"vocab_size {vocab_size} has only {span} regular tokens; "
            f"cannot carve {num_families} disjoint families"
        )
    bounds = np.linspace(
        NUM_SPECIAL_TOKENS, vocab_size, num_families + 1
    ).astype(int)
    return [
        PromptFamily(
            name=f"seg{i}",
            lo=int(bounds[i]),
            hi=int(bounds[i + 1]),
            prompt_len=prompt_len,
        )
        for i in range(num_families)
    ]


@dataclass
class SegmentedGrpoTrace:
    """A straggler-heavy segmented rollout trace (the longtail input).

    Attributes:
        families: the disjoint prompt families.
        batches: per RL step, the *expanded* GRPO prompt list
            (group-major: each group's prompt repeated ``group_size``
            times) — exactly the shape :meth:`~repro.longtail.
            scheduler.RolloutScheduler.submit_batch` takes.
        group_size: members per GRPO group.
    """

    families: List[PromptFamily]
    batches: List[List[List[int]]] = field(default_factory=list)
    group_size: int = 1

    def segment_of(self, prompt: "List[int]") -> Optional[str]:
        """Family label of a prompt (``None`` when unrecognised).

        Keyed on the first token — families own disjoint slices, so
        one token suffices.  This is the callable handed to the
        scheduler's ``segment_of`` hook and the zoo's segment list.
        """
        if not prompt:
            return None
        head = int(prompt[0])
        for family in self.families:
            if family.lo <= head < family.hi:
                return family.name
        return None

    @property
    def segments(self) -> List[str]:
        """Segment labels in family order (the zoo's segment list)."""
        return [family.name for family in self.families]


def segmented_grpo_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_batches: int,
    groups_per_batch: int,
    group_size: int,
    num_families: int = 3,
    prompt_len: int = 4,
) -> SegmentedGrpoTrace:
    """Synthesize the long-tail rollout workload.

    Each batch holds ``groups_per_batch`` GRPO groups; group *g* is
    drawn from family ``g % num_families`` (round-robin, so every
    batch exercises every segment — the zoo's bandits all see traffic
    every round), and the group's prompt is repeated ``group_size``
    times, as grouped rollouts are by construction.

    Straggler-heaviness needs no extra knob: group members share a
    prompt but decode from private seeded streams, so each member's
    length is its own draw from the family's EOS-hazard process — the
    group's makespan is the *max* of ``group_size`` draws, and the
    batch's makespan the max over all members.  Families sampling
    different token slices condition that hazard differently, which is
    the per-family length signal the predictor learns.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: vocabulary size families partition.
        num_batches: RL steps' worth of prompt batches.
        groups_per_batch: GRPO groups per batch.
        group_size: members per group.
        num_families: disjoint prompt families (= workload segments).
        prompt_len: tokens per prompt.

    Returns:
        A :class:`SegmentedGrpoTrace` (batches + segment labeller).
    """
    if num_batches < 1:
        raise ConfigError(
            f"num_batches must be >= 1, got {num_batches}"
        )
    if groups_per_batch < 1:
        raise ConfigError(
            f"groups_per_batch must be >= 1, got {groups_per_batch}"
        )
    if group_size < 1:
        raise ConfigError(
            f"group_size must be >= 1, got {group_size}"
        )
    families = segment_families(
        vocab_size, num_families, prompt_len=prompt_len
    )
    batches: List[List[List[int]]] = []
    for _ in range(num_batches):
        expanded: List[List[int]] = []
        for g in range(groups_per_batch):
            prompt = families[g % len(families)].sample_prompt(rng)
            expanded.extend(list(prompt) for _ in range(group_size))
        batches.append(expanded)
    return SegmentedGrpoTrace(
        families=families, batches=batches, group_size=group_size
    )
