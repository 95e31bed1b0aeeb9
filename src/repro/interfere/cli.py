"""``python -m repro interfere`` — concurrent-host contention sweep.

For every requested workload the runner executes a *clean* run and one
*contended* run per host-intensity factor (same mode, scale, and seed;
the contended ones inside an
:func:`~repro.interfere.engine.interfere_session` over
``plan.scaled(factor)``), then reports the slowdown, the injected host
traffic, and the INT006 injection-model verification
(:func:`~repro.analysis.interference.verify_host_injection`) for each
arm.  Under ``AFF_ALLOC`` it also runs one *recovery* arm at the highest
factor — the contended run composed with online re-layout — and reports
how much of the contention penalty migration claws back.

Determinism contract (pinned by ``tests/test_interfere_properties.py``):
the same ``(plan, workloads, mode, scale, seed, factors)`` produce an
identical report for ``--jobs 1`` and ``--jobs N`` alike — per-task
results are collected in the workers and merged in task order, never
completion order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.interfere.plan import HostTrafficPlan
from repro.spine import check_determinism, fan_out

__all__ = ["InterfereReport", "DEFAULT_WORKLOADS", "DEFAULT_FACTORS",
           "run_interfere", "cli"]

#: Fast defaults covering an affine kernel plus the two bank-hostile zoo
#: members (skewed join, gather/scatter) where contention bites hardest.
DEFAULT_WORKLOADS = ("vecadd", "hash_join_skew", "spmv_gather")

#: Host-intensity multipliers applied to the base plan, in sweep order.
DEFAULT_FACTORS = (0.5, 1.0, 2.0, 4.0)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _interfere_task(name: str, mode_name: str, scale: float, seed: int,
                    plan_json: str, factors: Tuple[float, ...]) -> Dict:
    """One workload's clean + per-factor contended arms (runs in this or
    a worker process).  Returns plain data only, so results pickle and
    merge identically whatever the process layout."""
    from repro.analysis.interference import verify_host_injection
    from repro.harness.report import ratio, run_metrics
    from repro.interfere.engine import interfere_session
    from repro.nsc.engine import EngineMode
    from repro.workloads.base import run_workload

    mode = EngineMode[mode_name]
    plan = HostTrafficPlan.from_json(plan_json)

    clean = run_workload(name, mode, scale=scale, seed=seed)
    clean_m = run_metrics(clean)

    arms: List[Dict] = []
    for factor in factors:
        with interfere_session(plan.scaled(factor), task=name) as session:
            result = run_workload(name, mode, scale=scale, seed=seed)
        findings: List[str] = []
        residuals: Dict[str, float] = {}
        host: Dict[str, float] = {}
        for state in session.states:
            report, res = verify_host_injection(state)
            findings.extend(d.render() for d in report.diagnostics)
            for key, value in res.items():
                residuals[key] = max(residuals.get(key, 0.0), value)
            host = state.summary()
        metrics = run_metrics(result)
        arms.append({"factor": factor,
                     "metrics": metrics,
                     "slowdown": ratio(metrics["cycles"], clean_m["cycles"]),
                     "host": host,
                     "int006_findings": findings,
                     "residuals": residuals})

    recovery: Optional[Dict] = None
    if mode is EngineMode.AFF_ALLOC and factors:
        # Recovery arm: the heaviest contention composed with online
        # re-layout — how much of the penalty does migration claw back?
        from repro.relayout.engine import merged_plan, relayout_session
        from repro.relayout.policy import RelayoutConfig
        fmax = max(factors)
        cfg = RelayoutConfig(seed=seed)
        with interfere_session(plan.scaled(fmax), task=name), \
                relayout_session(cfg, task=name) as relayout:
            online = run_workload(name, mode, scale=scale, seed=seed)
        online_m = run_metrics(online)
        contended = next(a["metrics"]["cycles"] for a in arms
                         if a["factor"] == fmax)
        recovery = {"factor": fmax,
                    "metrics": online_m,
                    "recovered": ratio(contended, online_m["cycles"]),
                    "migrations": merged_plan(relayout).applied_count()}

    return {"workload": name, "clean": clean_m, "arms": arms,
            "recovery": recovery}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class InterfereReport:
    """Aggregate of one :func:`run_interfere` invocation."""

    plan: HostTrafficPlan
    mode: str
    scale: float
    seed: int
    factors: Tuple[float, ...]
    rows: List[Dict] = field(default_factory=list)

    @property
    def max_slowdown(self) -> float:
        return max((arm["slowdown"] for row in self.rows
                    for arm in row["arms"]), default=1.0)

    @property
    def int006_findings(self) -> List[str]:
        return [line for row in self.rows for arm in row["arms"]
                for line in arm["int006_findings"]]

    @property
    def best_recovered(self) -> float:
        return max((row["recovery"]["recovered"] for row in self.rows
                    if row["recovery"] is not None), default=1.0)

    def to_dict(self) -> Dict:
        return {"plan": json.loads(self.plan.to_json()),
                "mode": self.mode, "scale": self.scale, "seed": self.seed,
                "factors": list(self.factors),
                "rows": self.rows}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def render(self) -> str:
        from repro.harness.report import ascii_table, section
        headers = ["workload", "factor", "clean cyc", "contended cyc",
                   "slowdown", "host msgs", "INT006"]
        table_rows = []
        for row in self.rows:
            clean = row["clean"]
            for arm in row["arms"]:
                m = arm["metrics"]
                table_rows.append([
                    row["workload"], f"{arm['factor']:g}x",
                    f"{clean['cycles']:.0f}", f"{m['cycles']:.0f}",
                    f"{arm['slowdown']:.3f}x",
                    f"{arm['host'].get('messages', 0.0):.0f}",
                    "FAIL" if arm["int006_findings"] else "ok"])
        lines = [str(self.plan), "",
                 section("Host-contention report",
                         ascii_table(headers, table_rows))]
        recovery_rows = []
        for row in self.rows:
            rec = row["recovery"]
            if rec is None:
                continue
            contended = next(a["metrics"]["cycles"] for a in row["arms"]
                             if a["factor"] == rec["factor"])
            recovery_rows.append([
                row["workload"], f"{rec['factor']:g}x",
                f"{contended:.0f}", f"{rec['metrics']['cycles']:.0f}",
                f"{rec['recovered']:.3f}x", rec["migrations"]])
        if recovery_rows:
            lines += ["", section(
                "Re-layout recovery (contended vs contended+online)",
                ascii_table(["workload", "factor", "contended cyc",
                             "online cyc", "recovered", "migrations"],
                            recovery_rows))]
        findings = self.int006_findings
        if findings:
            lines += ["", section("INT006 findings", "\n".join(findings))]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_interfere(workloads: Sequence[str], plan: HostTrafficPlan,
                  mode: str = "AFF_ALLOC", scale: float = 0.05,
                  seed: int = 0,
                  factors: Sequence[float] = DEFAULT_FACTORS,
                  jobs: int = 1,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> InterfereReport:
    """Run clean-vs-contended sweeps for every workload under one plan."""
    plan_json = plan.to_json()
    factors_t = tuple(float(f) for f in factors)
    from repro.workloads import WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workload(s): {', '.join(unknown)}; "
                       f"available: {', '.join(sorted(WORKLOADS))}")

    rows = fan_out(functools.partial(_interfere_task, mode_name=mode,
                                     scale=scale, seed=seed,
                                     plan_json=plan_json, factors=factors_t),
                   workloads, jobs, notify=progress)
    return InterfereReport(plan=plan, mode=mode, scale=scale, seed=seed,
                           factors=factors_t, rows=rows)


# ----------------------------------------------------------------------
# Empty-plan identity gate
# ----------------------------------------------------------------------
def _check_empty_identity(scale: float, seed: int,
                          notify: Callable[[str], None]) -> bool:
    """Byte-compare ``run-<hash>.json`` for ``interfere=None`` versus an
    *empty* plan — the structural no-op contract CI gates on."""
    import tempfile

    from repro.harness.runner import run_figures
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        clean = run_figures(["fig4"], scale=scale, seed=seed,
                            use_cache=False, results_dir=base / "clean",
                            preflight=False)
        empty = run_figures(["fig4"], scale=scale, seed=seed,
                            use_cache=False, results_dir=base / "empty",
                            preflight=False,
                            interfere=HostTrafficPlan.empty())
        assert clean.path is not None and empty.path is not None
        same_name = clean.path.name == empty.path.name
        same_bytes = clean.path.read_bytes() == empty.path.read_bytes()
    if same_name and same_bytes:
        notify("empty-plan identity check passed "
               f"(run-*.json byte-identical, name {clean.path.name})")
        return True
    notify("ERROR: empty-plan run differs from the clean run "
           f"(same name: {same_name}, same bytes: {same_bytes})")
    return False


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_factors(text: str) -> Tuple[float, ...]:
    factors = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not factors or any(not 0.0 <= f < math.inf for f in factors):
        raise ValueError(f"bad sweep {text!r}")
    return factors


def cli(argv: Optional[List[str]] = None) -> int:
    from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK,
                                       add_run_arguments, load_input)
    parser = argparse.ArgumentParser(
        prog="python -m repro interfere",
        description="Concurrent-host interference: run workloads against "
                    "a deterministic host-traffic plan, sweep its "
                    "intensity, and report slowdown + recovery.")
    parser.add_argument("workloads", nargs="*", default=[],
                        help=f"workload names (default: "
                             f"{', '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--plan", type=Path, default=None,
                        help="JSON host-traffic plan file (overrides "
                             "--seed/--intensity generation)")
    add_run_arguments(parser, scale=0.05, mode="name",
                      seed_help="plan generation and runs")
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="base host intensity for generated plans "
                             "(default 1.0)")
    parser.add_argument("--sweep", type=str, default=None,
                        help="comma-separated intensity factors "
                             f"(default: "
                             f"{','.join(str(f) for f in DEFAULT_FACTORS)})")
    parser.add_argument("--save-report", type=Path, default=None,
                        help="write the contention report JSON here")
    parser.add_argument("--save-plan", type=Path, default=None,
                        help="write the (generated or loaded) plan here")
    parser.add_argument("--min-slowdown", type=float, default=0.0,
                        help="fail unless some contended arm slows down at "
                             "least this much (e.g. 1.01)")
    parser.add_argument("--check-empty-identity", action="store_true",
                        help="gate: an empty plan's run-<hash>.json must "
                             "be byte-identical to a clean run's")
    parser.add_argument("--check-determinism", action="store_true",
                        help="re-run with --jobs 2 and require a "
                             "byte-identical report")
    args = parser.parse_args(argv)

    workloads = args.workloads or list(DEFAULT_WORKLOADS)
    from repro.workloads import WORKLOADS
    bad = [w for w in workloads if w not in WORKLOADS]
    if bad:
        parser.error(f"unknown workload(s): {', '.join(bad)}; "
                     f"try 'python -m repro list'")
    if args.sweep is not None:
        try:
            factors = _parse_factors(args.sweep)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        factors = DEFAULT_FACTORS
    if args.plan is not None:
        plan = load_input(parser, args.plan, "plan", HostTrafficPlan.load)
    else:
        try:
            plan = HostTrafficPlan.generate(args.seed,
                                            intensity=args.intensity)
        except ValueError as exc:
            parser.error(f"--intensity: {exc}")

    if args.check_empty_identity:
        if not _check_empty_identity(args.scale, args.seed, print):
            return EXIT_FAILURE

    report = run_interfere(workloads, plan, mode=args.mode,
                           scale=args.scale, seed=args.seed,
                           factors=factors, jobs=args.jobs, progress=print)
    print(report.render())
    if args.save_plan is not None:
        plan.save(args.save_plan)
        print(f"host-traffic plan -> {args.save_plan}")
    if args.save_report is not None:
        args.save_report.write_text(report.to_json(), encoding="utf-8")
        print(f"contention report -> {args.save_report}")

    if args.check_determinism and not check_determinism(
            report.to_json(),
            lambda jobs: run_interfere(workloads, plan, mode=args.mode,
                                       scale=args.scale, seed=args.seed,
                                       factors=factors,
                                       jobs=jobs).to_json(),
            print):
        return EXIT_FAILURE
    findings = report.int006_findings
    if findings:
        print(f"ERROR: {len(findings)} INT006 injection-model finding(s)")
        return EXIT_FAILURE
    if args.min_slowdown > 0.0 and report.max_slowdown < args.min_slowdown:
        print(f"ERROR: max slowdown {report.max_slowdown:.3f}x below "
              f"required {args.min_slowdown:.3f}x")
        return EXIT_FAILURE
    return EXIT_OK
