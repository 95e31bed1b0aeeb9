"""``python -m repro autoplace`` — static vs. online layout comparison.

For every requested *scenario* (a phase-changing workload configuration
whose allocation-time layout stops being optimal mid-run), the runner
executes a **static** arm (the affinity allocator's one-shot placement,
relayout forced off) and an **online** arm (the same run inside a
:func:`~repro.relayout.engine.relayout_session`), then reports the
recovered speedup, the migrations applied, and the achieved stream
locality.

Determinism contract (pinned by ``tests/test_relayout_golden.py``):
the same ``(scenarios, config, scale, seed)`` produce an identical
report and merged :class:`~repro.relayout.plan.MigrationPlan`, for
``--jobs 1`` and ``--jobs N`` alike — per-task results are collected in
the workers and merged in task order, never completion order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.relayout.plan import MigrationPlan
from repro.relayout.policy import RelayoutConfig
from repro.spine import check_determinism, fan_out

if TYPE_CHECKING:
    from repro.relayout.engine import RelayoutState

__all__ = ["AutoplaceReport", "DEFAULT_SCENARIOS", "SCENARIOS",
           "run_autoplace", "cli"]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _bfs_scenario(scale: float, seed: int) -> Tuple[str, Dict]:
    """BFS push->pull switch on a sparse graph whose spatial queue was
    (deliberately) homed three banks off its vertex partitions."""
    from repro.graphs.csr import CSRGraph
    from repro.graphs.generators import kronecker
    kscale = 14 if scale == 1.0 else max(11, 14 + int(round(math.log2(scale))))
    g = kronecker(kscale, 2, seed=seed)
    g = CSRGraph.from_edge_list(g.num_vertices, g.sources(), g.edges,
                                g.weights, symmetrize=True)
    return "bfs", {"graph": g, "queue_delta": 3}


def _stream_flip_scenario(scale: float, seed: int) -> Tuple[str, Dict]:
    """Streaming add whose read offset slides by three banks mid-run."""
    return "stream_flip", {}


def _dyn_graph_scenario(scale: float, seed: int) -> Tuple[str, Dict]:
    """Mutation stream: the hot access offset moves twice mid-run."""
    return "dyn_graph", {}


#: scenario name -> builder(scale, seed) -> (workload name, overrides).
SCENARIOS: Dict[str, Callable[[float, int], Tuple[str, Dict]]] = {
    "bfs": _bfs_scenario,
    "stream_flip": _stream_flip_scenario,
    "dyn_graph": _dyn_graph_scenario,
}

DEFAULT_SCENARIOS = ("stream_flip", "bfs", "dyn_graph")


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _post_locality(state: "RelayoutState") -> Optional[float]:
    """Stream locality of the last epoch (after any migrations settled)."""
    for label, total, remote in reversed(state.epoch_locality):
        if total > 0:
            return 1.0 - remote / total
    return None


def _autoplace_task(scenario: str, scale: float, seed: int,
                    cfg: RelayoutConfig) -> Dict:
    """One scenario's static + online pair (runs in this or a worker
    process).  Returns plain data only, so results pickle and merge
    identically whatever the process layout."""
    from repro.harness.report import run_metrics
    from repro.nsc.engine import EngineMode
    from repro.relayout.engine import merged_plan, relayout_session
    from repro.workloads.base import run_workload

    workload, overrides = SCENARIOS[scenario](scale, seed)
    with relayout_session(None):  # force-static, even under an outer session
        static = run_workload(workload, EngineMode.AFF_ALLOC, scale=scale,
                              seed=seed, **overrides)
    with relayout_session(cfg, task=scenario) as session:
        online = run_workload(workload, EngineMode.AFF_ALLOC, scale=scale,
                              seed=seed, **overrides)
    plan = merged_plan(session)
    post = None
    for state in session.states:
        post = _post_locality(state) if post is None else post
    return {"scenario": scenario,
            "workload": workload,
            "static": run_metrics(static),
            "online": run_metrics(online),
            "migrations": plan.applied_count(),
            "moved_bytes": plan.moved_bytes(),
            "post_locality": post,
            "plan": json.loads(plan.to_json())}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class AutoplaceReport:
    """Aggregate of one :func:`run_autoplace` invocation."""

    config: RelayoutConfig
    scale: float
    seed: int
    rows: List[Dict] = field(default_factory=list)
    plan: MigrationPlan = field(default_factory=MigrationPlan.empty)

    @staticmethod
    def recovered(row: Dict) -> float:
        from repro.harness.report import ratio
        return ratio(row["static"]["cycles"], row["online"]["cycles"])

    @property
    def best_recovered(self) -> float:
        return max((self.recovered(r) for r in self.rows), default=1.0)

    def to_dict(self) -> Dict:
        return {"config": asdict(self.config),
                "scale": self.scale, "seed": self.seed,
                "rows": self.rows,
                "plan": self.plan.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def render(self) -> str:
        from repro.harness.report import ascii_table, section
        headers = ["scenario", "static cyc", "online cyc", "recovered",
                   "migrations", "moved KiB", "loc static", "loc online",
                   "loc final"]
        table_rows = []
        for row in self.rows:
            s, o = row["static"], row["online"]
            post = row.get("post_locality")
            table_rows.append([
                row["scenario"], f"{s['cycles']:.0f}", f"{o['cycles']:.0f}",
                f"{self.recovered(row):.3f}x", row["migrations"],
                f"{row['moved_bytes'] / 1024:.0f}",
                f"{s['locality']:.3f}", f"{o['locality']:.3f}",
                f"{post:.3f}" if post is not None else "-"])
        lines = [section("Online re-layout report",
                         ascii_table(headers, table_rows)), "",
                 str(self.plan)]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_autoplace(scenarios: Sequence[str],
                  cfg: Optional[RelayoutConfig] = None,
                  scale: float = 1.0, seed: int = 0, jobs: int = 1,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> AutoplaceReport:
    """Run static-vs-online pairs for every scenario under one config."""
    cfg = cfg if cfg is not None else RelayoutConfig()
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}; "
                       f"available: {', '.join(sorted(SCENARIOS))}")

    rows = fan_out(functools.partial(_autoplace_task, scale=scale,
                                     seed=seed, cfg=cfg),
                   scenarios, jobs, notify=progress)
    # Rows arrive in task order, so the merged plan is jobs-independent.
    plan = MigrationPlan.empty(seed=cfg.seed, max_per_epoch=cfg.max_per_epoch)
    for name, r in zip(scenarios, rows):
        plan = plan.merged_with(
            MigrationPlan.from_json(json.dumps(r["plan"])).retagged(name))
    return AutoplaceReport(config=cfg, scale=scale, seed=seed, rows=rows,
                           plan=plan)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(argv: Optional[List[str]] = None) -> int:
    from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK,
                                       add_run_arguments, non_negative_int)
    parser = argparse.ArgumentParser(
        prog="python -m repro autoplace",
        description="Telemetry-driven online re-layout: compare the "
                    "allocator's static placement against epoch-based "
                    "migration on phase-changing workloads.")
    parser.add_argument("scenarios", nargs="*", default=[],
                        help=f"scenario names (default: "
                             f"{', '.join(DEFAULT_SCENARIOS)})")
    add_run_arguments(parser, scale=1.0)
    parser.add_argument("--max-per-epoch", type=non_negative_int,
                        default=None,
                        help="migration bound per epoch")
    parser.add_argument("--min-recovery", type=float, default=0.0,
                        help="fail unless some scenario recovers at least "
                             "this speedup (e.g. 1.01)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="re-run with --jobs 2 and require a "
                             "byte-identical report")
    parser.add_argument("--save-report", type=Path, default=None,
                        help="write the report JSON here")
    parser.add_argument("--save-plan", type=Path, default=None,
                        help="write the merged migration plan JSON here")
    args = parser.parse_args(argv)

    scenarios = args.scenarios or list(DEFAULT_SCENARIOS)
    bad = [s for s in scenarios if s not in SCENARIOS]
    if bad:
        parser.error(f"unknown scenario(s): {', '.join(bad)}; "
                     f"available: {', '.join(sorted(SCENARIOS))}")
    cfg = RelayoutConfig(seed=args.seed)
    if args.max_per_epoch is not None:
        from dataclasses import replace
        cfg = replace(cfg, max_per_epoch=args.max_per_epoch)

    report = run_autoplace(scenarios, cfg, scale=args.scale, seed=args.seed,
                           jobs=args.jobs, progress=print)
    print(report.render())
    if args.save_report is not None:
        args.save_report.write_text(report.to_json(), encoding="utf-8")
        print(f"report -> {args.save_report}")
    if args.save_plan is not None:
        report.plan.save(args.save_plan)
        print(f"migration plan -> {args.save_plan}")
    if args.check_determinism and not check_determinism(
            report.to_json(),
            lambda jobs: run_autoplace(scenarios, cfg, scale=args.scale,
                                       seed=args.seed, jobs=jobs).to_json(),
            print):
        return EXIT_FAILURE
    if args.min_recovery > 0.0 and report.best_recovered < args.min_recovery:
        print(f"ERROR: best recovered speedup {report.best_recovered:.3f}x "
              f"below required {args.min_recovery:.3f}x")
        return EXIT_FAILURE
    return EXIT_OK
