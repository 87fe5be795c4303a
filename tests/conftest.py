"""Shared fixtures: a small target model, a lightly trained drafter,
and the seeded decode-scenario generator the determinism/invariant
suite is driven by.

Session-scoped so the (modest) drafter training cost is paid once —
which makes the models shared state: an autouse guard fails any test
that leaves ``target`` / ``trained_drafter`` / ``untrained_drafter``
with different weights than it found (work on a ``.clone()``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import pytest

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
)
from repro.drafter.base import Drafter
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.llm import TinyLM, TinyLMConfig, generate
from repro.serving.request import ServingRequest, SloClass, STANDARD
from repro.specdec.batch_engine import (
    BatchedSpecDecodeEngine,
    make_serving_request,
)
from repro.specdec.scheduler import SequenceRequest
from repro.specdec.strategy import SdStrategy


@pytest.fixture(scope="session")
def small_config() -> TinyLMConfig:
    return TinyLMConfig(
        vocab_size=24,
        hidden_size=16,
        context_window=4,
        num_layers=3,
        init_scale=1.5,
    )


@pytest.fixture(scope="session")
def target(small_config: TinyLMConfig) -> TinyLM:
    return TinyLM(small_config, np.random.default_rng(1234))


@pytest.fixture(scope="session")
def rollout_sequences(target: TinyLM):
    rng = np.random.default_rng(99)
    prompts = [list(rng.integers(3, 24, size=4)) for _ in range(24)]
    out = generate(
        target, prompts, max_new_tokens=48, temperature=0.9, rng=rng
    )
    return out.full_sequences


@pytest.fixture(scope="session")
def trained_drafter(target: TinyLM, rollout_sequences) -> EagleDrafter:
    """An EAGLE drafter trained enough to beat chance clearly."""
    rng = np.random.default_rng(5)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    sequences = collect_training_sequences(target, rollout_sequences)
    batch = build_training_batch(sequences, unroll_steps=1)
    trainer = DrafterTrainer(
        drafter,
        DrafterTrainingConfig(
            strategy=TrainingStrategy.eagle(), learning_rate=5e-3
        ),
    )
    trainer.train_epochs(batch, epochs=120)
    return drafter


@pytest.fixture(scope="session")
def untrained_drafter(target: TinyLM) -> EagleDrafter:
    return EagleDrafter(
        target, EagleDrafterConfig(), np.random.default_rng(77)
    )


def _weights_digest(model) -> str:
    digest = hashlib.sha256()
    for name, array in model.params.items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def _shared_models_stay_frozen(request):
    """Fail, by name, a test that mutates a session-scoped model.

    Every later test in the session would otherwise decode with
    different weights, so results would depend on file order.  Covers
    whichever of the three models the test requested (directly or
    through another fixture); bytes are compared, so an in-place
    ``+= x`` / ``-= x`` that does not round-trip exactly is caught too.
    """
    watched = {
        name: request.getfixturevalue(name)
        for name in ("target", "trained_drafter", "untrained_drafter")
        if name in request.fixturenames
    }
    before = {
        name: _weights_digest(model) for name, model in watched.items()
    }
    yield
    moved = [
        name for name, model in watched.items()
        if _weights_digest(model) != before[name]
    ]
    if moved:
        pytest.fail(
            f"{request.node.nodeid} mutated the session-scoped "
            f"{', '.join(moved)} fixture; use a .clone()"
        )


# -- seeded decode scenarios (determinism/invariant suite) -----------------


@dataclass
class DecodeScenario:
    """One seeded decode workload every engine flavour must agree on.

    The determinism suite replays the SAME requests — same prompts,
    same per-request seeds, same caps — through different schedules
    (batch sizes, park/resume points, drafter swaps, dispatch and
    stealing choices) and asserts byte-identical committed tokens.
    Because the random streams are rebuilt from ``seeds`` on every
    :meth:`requests` call, each replay starts from an untouched stream;
    any engine grown later inherits the suite by accepting the same
    request objects.

    Attributes:
        target / drafter: the decode substrate.
        strategy: static SD configuration (static on purpose — elastic
            SD legitimately depends on the live batch, which is exactly
            what these tests must hold fixed).
        temperature: sampling temperature.
        prompts: per-request prompt token ids (no BOS).
        seeds: per-request private stream seeds.
        caps: per-request ``max_new_tokens``.
    """

    target: TinyLM
    drafter: Drafter
    strategy: SdStrategy
    temperature: float
    prompts: List[List[int]]
    seeds: List[int]
    caps: List[int]

    @property
    def num_requests(self) -> int:
        return len(self.prompts)

    def requests(self) -> List[SequenceRequest]:
        """Fresh engine requests (private streams rebuilt from seeds)."""
        return [
            make_serving_request(
                request_id=i,
                prompt=prompt,
                max_new_tokens=cap,
                seed=seed,
            )
            for i, (prompt, seed, cap) in enumerate(
                zip(self.prompts, self.seeds, self.caps)
            )
        ]

    def serving_requests(
        self,
        arrival_gap: float = 0.0,
        slos: Optional[Sequence[SloClass]] = None,
    ) -> List[ServingRequest]:
        """The same workload as front-end requests (same seeds)."""
        return [
            ServingRequest(
                request_id=i,
                prompt=list(prompt),
                max_new_tokens=cap,
                arrival_time=i * arrival_gap,
                slo=slos[i] if slos is not None else STANDARD,
                seed=seed,
            )
            for i, (prompt, seed, cap) in enumerate(
                zip(self.prompts, self.seeds, self.caps)
            )
        ]

    def engine(
        self,
        max_batch_size: Optional[int] = None,
        drafter: Optional[Drafter] = None,
    ) -> BatchedSpecDecodeEngine:
        """A fresh batched engine over this scenario's substrate."""
        return BatchedSpecDecodeEngine(
            self.target,
            drafter if drafter is not None else self.drafter,
            self.strategy,
            self.temperature,
            max_batch_size=max_batch_size,
        )

    def reference_responses(self) -> List[List[int]]:
        """Responses of an uninterrupted unbounded-batch run."""
        engine = self.engine()
        engine.start(self.requests())
        while engine.has_work:
            engine.step()
        return [list(s.response) for s in engine.result().slots]


@pytest.fixture(scope="session")
def scenario_factory(
    target: TinyLM, trained_drafter: EagleDrafter
) -> Callable[..., DecodeScenario]:
    """Build seeded decode scenarios over the session substrate.

    ``make(seed)`` fixes everything — prompts, seeds, caps — so two
    calls with the same arguments describe the identical workload.
    """

    def make(
        seed: int,
        num_requests: int = 3,
        max_new_tokens: int = 10,
        ragged_caps: bool = False,
        temperature: float = 0.9,
        draft_depth: int = 3,
        topk: int = 2,
        tokens_to_verify: int = 6,
    ) -> DecodeScenario:
        rng = np.random.default_rng(seed)
        vocab = target.config.vocab_size
        prompts = [
            list(map(int, rng.integers(3, vocab, size=4)))
            for _ in range(num_requests)
        ]
        seeds = [
            int(s)
            for s in rng.integers(
                0, np.iinfo(np.int64).max, size=num_requests
            )
        ]
        if ragged_caps:
            caps = [
                int(c)
                for c in rng.integers(
                    4, max_new_tokens + 1, size=num_requests
                )
            ]
        else:
            caps = [max_new_tokens] * num_requests
        return DecodeScenario(
            target=target,
            drafter=trained_drafter,
            strategy=SdStrategy(
                draft_depth=draft_depth,
                topk=topk,
                tokens_to_verify=tokens_to_verify,
            ),
            temperature=temperature,
            prompts=prompts,
            seeds=seeds,
            caps=caps,
        )

    return make
