"""Scaling policies: pressure snapshots in, typed decisions out.

A policy is a pure function of the
:class:`~repro.autoscale.signals.PressureSnapshot` stream — it never
touches the fleet.  That split is what makes policies testable: the
fuzz suite drives :class:`HysteresisPolicy` with thousands of random
pressure traces and checks its invariants (no decision inside a
cooldown, bounds always respected, never scale in under a warm-up)
without building a single replica.

The default :class:`HysteresisPolicy` is a watermark controller with
**asymmetric** cooldowns: scaling out is cheap to get wrong (an extra
replica idles, then drains) while scaling in is expensive to get wrong
(a drain forfeits cache warmth and migrates queued work), so the
scale-out cooldown is short and the scale-in cooldown long.  Between
the watermarks it holds — the hysteresis band that keeps an
oscillating load from thrashing membership.  At the replica bounds it
falls back to **intra-pool actuation**: when pinned at ``MAX_REPLICAS``
under high pressure it asks for the elastic-SD activation threshold to
be nudged down (spend drafting capacity on serving), and at
``MIN_REPLICAS`` under low pressure nudged back up (idle slots return
to speculation) — capacity borrowed inside the pool when none can be
added beside it.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.autoscale.signals import PressureSnapshot


class ScaleAction(enum.Enum):
    """What an autoscaling decision asks the controller to do."""

    #: No actuation this tick.
    HOLD = "hold"
    #: Add ``magnitude`` replicas (warm up, then join the ring).
    SCALE_OUT = "scale-out"
    #: Drain ``magnitude`` replicas (zero-drop retirement).
    SCALE_IN = "scale-in"
    #: Raise the elastic-SD activation threshold (more speculation).
    NUDGE_SD_UP = "nudge-sd-up"
    #: Lower the elastic-SD activation threshold (more serving).
    NUDGE_SD_DOWN = "nudge-sd-down"


@dataclass(frozen=True)
class ScaleDecision:
    """One policy verdict.

    Attributes:
        action: what to do (:class:`ScaleAction`).
        magnitude: how many replicas (or threshold steps) — 0 for HOLD.
        reason: human-readable trigger, kept verbatim in the audit
            trail (e.g. ``"pressure 1.84 > high watermark 1.25"``).
    """

    action: ScaleAction
    magnitude: int = 0
    reason: str = ""

    @property
    def is_hold(self) -> bool:
        """Whether this decision actuates nothing."""
        return self.action is ScaleAction.HOLD


#: The decision every policy returns when nothing should happen.
HOLD = ScaleDecision(ScaleAction.HOLD, 0, "within band")


class ScalingPolicy(abc.ABC):
    """Maps pressure snapshots to scale decisions (fleet-blind)."""

    #: Label used in audit trails and benchmark tables.
    name: str = "scaling-policy"

    @abc.abstractmethod
    def decide(self, snapshot: PressureSnapshot) -> ScaleDecision:
        """Return the decision for one observation tick.

        Called exactly once per fleet tick with that tick's snapshot;
        implementations may keep internal state (cooldown clocks) keyed
        on the call sequence.
        """


class HysteresisPolicy(ScalingPolicy):
    """Watermark scaling with asymmetric cooldowns and bound nudges.

    Args:
        high_watermark: pressure above which the fleet scales out.
        low_watermark: pressure below which the fleet scales in; must
            leave a band (``low < high``) or membership thrashes.
        out_cooldown: ticks after the last scaling decision (out OR
            in) before another scale-out (short — over-provisioning is
            cheap to undo).
        in_cooldown: ticks after the last scaling decision before a
            scale-in (long — drains forfeit cache warmth, so the low
            pressure must persist well past the last actuation).
        surge_factor: pressure beyond ``surge_factor × high_watermark``
            scales out by up to ``MAX_STEP`` at once (a flash crowd
            should not be answered one replica per cooldown).
    """

    name = "hysteresis"
    #: Ticks between SD-threshold nudges at the bounds.
    NUDGE_COOLDOWN = 8
    #: Inclusive bounds on non-retired (ACTIVE + JOINING) replicas.
    MIN_REPLICAS, MAX_REPLICAS = 1, 4
    #: Most replicas one decision may add or drain.
    MAX_STEP = 2

    def __init__(
        self,
        high_watermark: float = 1.25,
        low_watermark: float = 0.45,
        out_cooldown: int = 3,
        in_cooldown: int = 12,
        surge_factor: float = 2.0,
    ) -> None:
        if not 0.0 <= low_watermark < high_watermark:
            raise ConfigError(
                f"need 0 <= low_watermark < high_watermark, got "
                f"low={low_watermark} high={high_watermark}"
            )
        if out_cooldown < 0 or in_cooldown < 0:
            raise ConfigError("cooldowns must be >= 0")
        if surge_factor < 1.0:
            raise ConfigError(
                f"surge_factor must be >= 1.0, got {surge_factor}"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.out_cooldown = out_cooldown
        self.in_cooldown = in_cooldown
        self.surge_factor = surge_factor
        self._tick = -1
        self._last_scale: int = -(10**9)
        self._last_nudge: int = -(10**9)

    # -- decision ----------------------------------------------------------

    def decide(self, snapshot: PressureSnapshot) -> ScaleDecision:
        self._tick += 1
        pressure = snapshot.pressure
        population = (
            snapshot.active_replicas + snapshot.joining_replicas
        )
        since_scale = self._tick - self._last_scale

        if pressure > self.high_watermark:
            if population < self.MAX_REPLICAS:
                if since_scale < self.out_cooldown:
                    return HOLD
                magnitude = self._out_magnitude(pressure, population)
                self._last_scale = self._tick
                return ScaleDecision(
                    ScaleAction.SCALE_OUT,
                    magnitude,
                    f"pressure {pressure:.2f} > high watermark "
                    f"{self.high_watermark:.2f}",
                )
            return self._nudge(
                ScaleAction.NUDGE_SD_DOWN,
                f"pressure {pressure:.2f} at max_replicas "
                f"{self.MAX_REPLICAS}: borrow drafting slots",
            )

        if pressure < self.low_watermark:
            if snapshot.joining_replicas > 0:
                # Capacity just added is still warming up; judging it
                # idle would cancel the scale-out it came from.
                return HOLD
            if snapshot.backlog_slope > 0:
                # Backlog still growing: the lull is queue shadowing,
                # not spare capacity.
                return HOLD
            if population > self.MIN_REPLICAS:
                if since_scale < self.in_cooldown:
                    return HOLD
                magnitude = min(
                    self.MAX_STEP, population - self.MIN_REPLICAS
                )
                self._last_scale = self._tick
                return ScaleDecision(
                    ScaleAction.SCALE_IN,
                    magnitude,
                    f"pressure {pressure:.2f} < low watermark "
                    f"{self.low_watermark:.2f}",
                )
            return self._nudge(
                ScaleAction.NUDGE_SD_UP,
                f"pressure {pressure:.2f} at min_replicas "
                f"{self.MIN_REPLICAS}: return slots to speculation",
            )

        return HOLD

    # -- internals ---------------------------------------------------------

    def _out_magnitude(self, pressure: float, population: int) -> int:
        """One replica normally; up to ``MAX_STEP`` under a surge."""
        step = 1
        if pressure > self.surge_factor * self.high_watermark:
            step = self.MAX_STEP
        return min(step, self.MAX_REPLICAS - population)

    def _nudge(
        self, action: ScaleAction, reason: str
    ) -> ScaleDecision:
        if self._tick - self._last_nudge < self.NUDGE_COOLDOWN:
            return HOLD
        self._last_nudge = self._tick
        return ScaleDecision(action, 1, reason)
