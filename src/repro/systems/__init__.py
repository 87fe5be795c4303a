"""End-to-end RL training system models (paper §6 baselines).

Four systems share the step simulator and differ in placement and rollout
acceleration:

* :class:`OpenR1System` — disaggregated serving/training nodes with
  rollout-batch coupling (waves);
* :class:`VerlSystem` — colocated time-sharing, vanilla decoding (the
  state-of-the-art baseline, normalised to 1.0x);
* :class:`TltBaseSystem` — VeRL placement + adaptive SD with the
  model-free drafter, a simulator arm priced by ``MODEL_FREE_QUALITY``
  (there is no live model-free drafter);
* :class:`TltSystem` — full TLT: adaptive learned drafter kept fresh by
  spot training in rollout bubbles.
"""

from repro.systems.base import RlSystem, SystemStepReport
from repro.systems.openr1 import OpenR1System
from repro.systems.tlt import TltBaseSystem, TltSystem
from repro.systems.verl import VerlSystem

__all__ = [
    "RlSystem",
    "SystemStepReport",
    "OpenR1System",
    "VerlSystem",
    "TltBaseSystem",
    "TltSystem",
]
