"""Workload definitions, output checks and figure-derived metrics.

Every workload is one call of the public figure function
``repro.harness.experiments.fig12_overall``: each listed kernel runs in
the In-Core, Near-L3 and Aff-Alloc modes, so one call makes
``3 * len(kernels)`` cells.  The call goes to the figure function
directly, which skips the figure-result cache of ``run_figures`` (a hit
there serves stored JSON and measures nothing) but keeps the graph
artifact cache, so warm calls leave graph build out and the cold first
call carries it.

This module imports only the standard library at import time: the
set-up probe times ``import repro`` itself.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

MODES = ("In-Core", "Near-L3", "Aff-Alloc")

#: Seed the goldens and EXPERIMENTS.md were tuned on; a gain claimed on
#: this benchmark must also hold on a seed other than this one.
TUNED_SEED = 0

#: Paper headline (ten-workload geomeans over Near-L3): speedup, energy
#: efficiency, NoC traffic cut.
PAPER_SPEEDUP = 2.26
PAPER_ENERGY_EFF = 1.76
PAPER_TRAFFIC_CUT = 0.72


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: Tuple[str, ...]
    scale: float
    #: Run under concurrent host traffic and online re-layout.
    contended: bool
    why: str
    #: Kernels whose ``RunResult.value`` legitimately differs by mode.
    value_varies_by_mode: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "affine", ("pathfinder", "hotspot", "srad", "hotspot3D"), 0.25, False,
        "fig12 affine kernels at scale 0.25: the stream engine's affine "
        "path, VM translate and IOT do the work; allocator and graphs ~0"),
    Workload(
        "irregular",
        ("pr_push", "bfs", "sssp", "link_list", "hash_join", "bin_tree"),
        0.25, False,
        "fig12 irregular kernels at scale 0.25: indirect/pointer streams, "
        "data structures and Eq. 4 allocation; set-up dominated by graph "
        "build"),
    Workload(
        "zoo_contended",
        ("hash_join_skew", "spmv_gather", "alloc_storm", "iot_pressure"),
        4.0, True,
        "adversarial zoo at scale 4 under host traffic x4 and online "
        "relayout: many small NoC/VM batches, alloc churn, interfere and "
        "relayout epochs",
        value_varies_by_mode=("alloc_storm",)),
)}


def call_figure(wl: Workload, seed: int):
    """One workload call; returns ``(SweepResult, interfere, relayout)``.

    The two sessions are ``None`` for clean workloads.  Fresh sessions
    per call keep their per-machine states to this call alone.
    """
    from repro.harness import experiments
    interfere = relayout = None
    with ExitStack() as stack:
        if wl.contended:
            from repro.interfere.engine import interfere_session
            from repro.interfere.plan import HostTrafficPlan
            from repro.relayout.engine import relayout_session
            from repro.relayout.policy import RelayoutConfig
            interfere = stack.enter_context(interfere_session(
                HostTrafficPlan.generate(seed).scaled(4.0)))
            relayout = stack.enter_context(
                relayout_session(RelayoutConfig(seed=seed)))
        # Looked up at call time so a traced run sees the wrapped function.
        res = experiments.fig12_overall(workloads=wl.kernels, scale=wl.scale,
                                        seed=seed)
    return res, interfere, relayout


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _finite_row(row: Sequence) -> bool:
    return all(math.isfinite(v) for v in row[1:] if not isinstance(v, str))


def _same_value(a, b) -> bool:
    """Kernel values are numpy arrays or floats; NaN equals NaN here."""
    import numpy as np
    return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))


def _finite_value(v) -> bool:
    import numpy as np
    return bool(np.isfinite(np.asarray(v, dtype=np.float64)).all())


def check_cells(wl: Workload, res) -> List[str]:
    """Problems found in one call's cells, one string per failed cell.

    A cell is one (kernel, mode) pair.  It fails when its figure row holds
    a non-finite number, when its flit-hops by class do not sum to its
    total, or when its functional ``value`` differs from the other modes'
    (layout must not change the answer).  Kernels listed in
    ``value_varies_by_mode`` get a finiteness check on the value instead.
    """
    failed: List[str] = []
    rows = {row[0]: row for row in res.data}
    for kernel in wl.kernels:
        runs = {m.value: r for m, r in res.raw[kernel].items()}
        row_ok = _finite_row(rows[kernel])
        for mode in MODES:
            run = runs[mode]
            why = []
            if not row_ok:
                why.append("non-finite figure row")
            total = sum(run.flit_hops_by_class.values())
            if not math.isclose(total, run.total_flit_hops, rel_tol=1e-9,
                                abs_tol=1e-9):
                why.append(f"flit-hops by class sum {total!r} != total "
                           f"{run.total_flit_hops!r}")
            if kernel in wl.value_varies_by_mode:
                if not _finite_value(run.value):
                    why.append("non-finite value")
            elif not _same_value(run.value, runs["Near-L3"].value):
                why.append("value differs from Near-L3")
            if why:
                failed.append(f"{kernel}/{mode}: " + "; ".join(why))
    if not _finite_row(rows["geomean"]):
        failed.append("non-finite geomean row")
    return failed


def cells(wl: Workload) -> int:
    return len(wl.kernels) * len(MODES)


def rows_of(res) -> List[list]:
    """The figure rows in a JSON-safe form that round-trips exactly."""
    return [[v if isinstance(v, str) else float(v) for v in row]
            for row in res.data]


# ----------------------------------------------------------------------
# Figure-derived (simulated) metrics
# ----------------------------------------------------------------------
_EVENT_COUNTERS = ("messages", "l3_accesses", "near_ops", "atomics",
                   "core_ops", "dram_accesses")


def sim_events(res) -> float:
    """Simulated events summed over every cell of one call."""
    return float(sum(run.counters[c] for runs in res.raw.values()
                     for run in runs.values() for c in _EVENT_COUNTERS))


def figure_metrics(rows: Sequence[Sequence]) -> Dict[str, float]:
    """The figure's geomean row: Aff-Alloc over Near-L3 (speedup, energy)
    and over In-Core (mean NoC traffic)."""
    geo = rows[-1]
    return {"sim_speedup_aff": float(geo[2]),
            "sim_energy_eff_aff": float(geo[4]),
            "sim_traffic_aff": float(geo[6])}


def sim_layer_metrics(res) -> Dict[str, float]:
    """Model-side per-layer numbers over the call's Aff-Alloc cells
    (``sim.events`` over every cell)."""
    aff = [runs[m] for runs in res.raw.values() for m in runs
           if m.value == "Aff-Alloc"]
    by_res = {"core": 0.0, "bank": 0.0, "link": 0.0, "serial": 0.0}
    total = 0.0
    for run in aff:
        for (_, cyc), (_, rsrc) in zip(run.phase_cycles, run.phase_resources):
            # max() keeps the first of equal maxima: insertion order
            # core, bank, link, serial is the perf model's own tie-break.
            by_res[max(rsrc, key=rsrc.get)] += cyc
            total += cyc
    out = {f"sim.bottleneck.{k}_frac": v / total for k, v in by_res.items()}
    for cls in ("data", "control", "offload"):
        out[f"sim.flit_hops.{cls}"] = float(
            sum(r.flit_hops_by_class[cls] for r in aff))
    out["sim.l3_miss_pct"] = float(sum(r.l3_miss_pct for r in aff) / len(aff))
    out["sim.noc_util"] = float(sum(r.noc_utilization for r in aff) / len(aff))
    out["sim.events"] = sim_events(res)
    return out


def accuracy_lines(rows: Sequence[Sequence]) -> List[str]:
    """Ten-workload geomeans beside the paper's headline, with errors.

    ``rows`` are the per-kernel rows of ``affine`` and ``irregular`` at
    one seed.  Traffic cut follows EXPERIMENTS.md: one minus the ratio of
    the mean Aff-Alloc and mean Near-L3 traffic (both over In-Core).
    """
    rows = [r for r in rows if r[0] != "geomean"]
    sp = math.exp(sum(math.log(r[2]) for r in rows) / len(rows))
    ee = math.exp(sum(math.log(r[4]) for r in rows) / len(rows))
    cut = 1.0 - sum(r[6] for r in rows) / sum(r[5] for r in rows)
    return [
        f"accuracy ({len(rows)} fig12 workloads = affine + irregular):",
        f"  speedup over Near-L3     {sp:7.3f}x  paper {PAPER_SPEEDUP:.2f}x  "
        f"error {(sp / PAPER_SPEEDUP - 1) * 100:+.1f}%",
        f"  energy eff over Near-L3  {ee:7.3f}x  paper {PAPER_ENERGY_EFF:.2f}x"
        f"  error {(ee / PAPER_ENERGY_EFF - 1) * 100:+.1f}%",
        f"  NoC traffic vs Near-L3   {-cut * 100:+6.1f}%   paper "
        f"{-PAPER_TRAFFIC_CUT * 100:+.0f}%   error "
        f"{(PAPER_TRAFFIC_CUT - cut) * 100:+.1f} pp",
        "  per-workload sim_* metrics (a subset, or the zoo) have no paper "
        "reference",
    ]
