"""Deterministic fault injection + graceful degradation (chaos layer).

The subsystem has four parts:

* :mod:`repro.faults.plan` — typed, seeded :class:`FaultPlan` (what to
  break and when).
* :mod:`repro.faults.log` — the typed :class:`FaultEventLog` every
  injected/handled fault is recorded into (replayable by tests and
  afflint).
* :mod:`repro.faults.injector` — the :func:`fault_session` preset and
  the per-machine :class:`FaultState` that applies the plan and drives
  each layer's degradation path.
* :mod:`repro.faults.chaos` — the ``python -m repro chaos`` runner that
  executes clean-vs-faulted pairs and emits the degradation report.

Everything is gated so that *no* active fault session means the simulator
executes the exact original instruction stream — clean runs stay
byte-identical to a tree without this package.
"""

from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.injector import FaultState, fault_session

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "FaultEventLog",
    "FaultState",
    "fault_session",
]
