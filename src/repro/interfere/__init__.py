"""Concurrent-host interference: deterministic contention injection.

The paper evaluates NDC workloads in isolation; production near-data
execution shares the LLC banks, NoC links, and DRAM controllers with a
host that never stops issuing traffic (CHoNDA's "not-so-near" case).
This package injects that host as a seeded :class:`HostTrafficPlan` —
typed read/write/atomic/link streams charged through the run's real
:class:`~repro.arch.noc.TrafficAccountant` and bank counters, so NDC
runs slow down for physical reasons the perf model already prices.

Wiring follows the faults/relayout/trace house pattern: a process-global
session, a per-machine state behind ``machine.interference``, and
``is None`` guards on every hook so clean runs execute the exact
original instruction stream.
"""

from repro.interfere.plan import (
    HostStream,
    HostStreamKind,
    HostTrafficPlan,
    burst_multiplier,
    predict_host_injection,
)
from repro.interfere.engine import (
    InterferenceState,
    interfere_session,
)

__all__ = [
    "HostStream",
    "HostStreamKind",
    "HostTrafficPlan",
    "burst_multiplier",
    "predict_host_injection",
    "InterferenceState",
    "interfere_session",
]
