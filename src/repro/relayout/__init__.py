"""Telemetry-driven online re-layout (``python -m repro autoplace``).

The paper's allocator places data once, at ``malloc_aff`` time.  This
subsystem closes the loop for phase-changing workloads: the executor's
stream-locality observations and the NoC/bank counters feed an
epoch-based policy that detects *drifted* arrays (whose accesses now
consistently land a fixed bank distance from their consumers) and *hot*
banks, and emits a bounded, seeded :class:`~repro.relayout.plan.MigrationPlan`
per epoch.  Migrations apply through the same IOT/LLC re-homing
machinery the fault layer uses on unhealthy machines — here on healthy
ones — and their cost (line moves, serial stalls) is charged to the run.

Everything is deterministic: same seed + same telemetry produce the same
plan, serially or across a process pool.
"""

from repro.relayout.engine import (RelayoutState, merged_plan,
                                   relayout_session)
from repro.relayout.plan import Migration, MigrationKind, MigrationPlan
from repro.relayout.policy import ArrayDrift, RelayoutConfig, Telemetry, decide

__all__ = [
    "ArrayDrift",
    "Migration",
    "MigrationKind",
    "MigrationPlan",
    "RelayoutConfig",
    "RelayoutState",
    "Telemetry",
    "decide",
    "merged_plan",
    "relayout_session",
]
