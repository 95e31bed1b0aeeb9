"""``python -m repro chaos`` — clean-vs-faulted runs + degradation report.

For every requested workload the runner executes a *clean* run and a
*faulted* run (same mode, scale, and seed; the faulted one inside a
:func:`~repro.faults.injector.fault_session`), then reports how
gracefully the system degraded: slowdown, extra NoC flit-hops, achieved
stream locality, and the retry/fallback counts from the fault event log.

Determinism contract (pinned by ``tests/test_chaos_golden.py``):

* the same ``(plan, workloads, mode, scale, seed)`` produces an
  identical event log and degradation report, for ``--jobs 1`` and
  ``--jobs N`` alike — per-task logs are collected in the workers and
  merged in task order, never completion order;
* WORKER_CRASH events crash the worker *before* it computes; the parent
  restarts it (capped), so crashes change the report only by their
  ``crash``/``restart`` records.
"""

from __future__ import annotations

import argparse
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.faults.injector import fault_session
from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultKind, FaultPlan
from repro.spine import fan_out

if TYPE_CHECKING:
    from repro.interfere.plan import HostTrafficPlan

__all__ = ["ChaosReport", "run_chaos", "cli"]

#: Small, fast defaults covering both paper families: one affine kernel
#: (vecadd, Fig 4) and one graph kernel (pr_push, Fig 12).
DEFAULT_WORKLOADS = ("vecadd", "pr_push")


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _chaos_task(name: str, mode_name: str, scale: float, seed: int,
                plan_json: str, interfere_json: Optional[str] = None) -> Dict:
    """One workload's clean + faulted pair (runs in this or a worker
    process).  Returns plain data only, so results pickle and merge
    identically whatever the process layout.

    ``interfere_json`` (a serialized
    :class:`~repro.interfere.plan.HostTrafficPlan`) composes host
    contention into the *faulted* arm only — the question chaos answers
    is "how gracefully does the system degrade", and the clean arm is
    the yardstick.  The row gains an ``injected_messages`` entry only
    when interference is active, so plain chaos reports (and their
    goldens) stay byte-identical."""
    from repro.harness.report import run_metrics
    from repro.interfere.engine import interfere_session
    from repro.interfere.plan import HostTrafficPlan
    from repro.nsc.engine import EngineMode
    from repro.workloads.base import run_workload

    mode = EngineMode[mode_name]
    plan = FaultPlan.from_json(plan_json)
    host = (HostTrafficPlan.empty() if interfere_json is None
            else HostTrafficPlan.from_json(interfere_json))

    clean = run_workload(name, mode, scale=scale, seed=seed)
    log = FaultEventLog()
    # An empty host plan attaches nothing (the plain chaos path).
    with fault_session(plan, log, task=name) as session, \
            interfere_session(host, task=name) as interference:
        faulted = run_workload(name, mode, scale=scale, seed=seed)
        for state in session.states:
            state.finalize()
        retries = sum(s.retries for s in session.states)
        host_fb = sum(s.host_fallbacks for s in session.states)

    row = {"workload": name,
           "clean": run_metrics(clean),
           "faulted": run_metrics(faulted),
           "retries": retries,
           "host_fallbacks": host_fb,
           "records": [r.to_dict() for r in log.records]}
    if interfere_json is not None:
        row["injected_messages"] = sum(
            s.injected_messages for s in interference.states)
    return row


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Aggregate of one :func:`run_chaos` invocation."""

    plan: FaultPlan
    mode: str
    scale: float
    seed: int
    rows: List[Dict] = field(default_factory=list)
    log: FaultEventLog = field(default_factory=FaultEventLog)
    restarts: Dict[str, int] = field(default_factory=dict)
    #: Host-traffic plan composed into the faulted arms, if any.  Joins
    #: the payload only when set, so plain chaos reports keep their
    #: pre-interference bytes.
    interfere: Optional["HostTrafficPlan"] = None

    @property
    def unhandled_count(self) -> int:
        return self.log.count("unhandled")

    def to_dict(self) -> Dict:
        payload = {"plan": json.loads(self.plan.to_json()),
                   "mode": self.mode, "scale": self.scale, "seed": self.seed,
                   "rows": self.rows,
                   "restarts": dict(sorted(self.restarts.items())),
                   "handled_faults": self.log.handled_count(),
                   "unhandled_faults": self.unhandled_count}
        if self.interfere is not None:
            payload["interfere"] = json.loads(self.interfere.to_json())
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def render(self) -> str:
        from repro.harness.report import ascii_table, ratio, section
        headers = ["workload", "slowdown", "extra hops", "locality clean",
                   "locality faulted", "retries", "host-fb", "restarts"]
        contended = self.interfere is not None
        if contended:
            headers.append("inj msgs")
        table_rows = []
        for row in self.rows:
            c, f = row["clean"], row["faulted"]
            slowdown = ratio(f["cycles"], c["cycles"])
            cells = [
                row["workload"], f"{slowdown:.2f}x",
                f"{f['flit_hops'] - c['flit_hops']:.0f}",
                f"{c['locality']:.3f}", f"{f['locality']:.3f}",
                row["retries"], row["host_fallbacks"],
                self.restarts.get(row["workload"], 0)]
            if contended:
                cells.append(f"{row.get('injected_messages', 0.0):.0f}")
            table_rows.append(cells)
        lines = [str(self.plan), "",
                 section("Degradation report",
                         ascii_table(headers, table_rows)), "",
                 section("Fault event log", self.log.render()), "",
                 f"handled: {self.log.handled_count()}  "
                 f"unhandled: {self.unhandled_count}"]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_chaos(workloads: Sequence[str], plan: FaultPlan,
              mode: str = "AFF_ALLOC", scale: float = 0.05, seed: int = 0,
              jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              interfere: Optional["HostTrafficPlan"] = None) -> ChaosReport:
    """Run clean-vs-faulted pairs for every workload under one plan.

    WORKER_CRASH events are consumed here (budget mapped over the
    workload list by ordinal); all other events ride into the workers
    via the serialized plan and apply inside each task's fault session.
    ``interfere`` additionally composes a host-traffic plan into every
    faulted arm (see :func:`_chaos_task`); ``None`` — or an *empty*
    plan, which attaches nothing — leaves the report byte-identical to
    a plain chaos run.
    """
    plan_json = plan.to_json()
    interfere_json: Optional[str] = None
    if interfere is not None and not interfere.is_empty:
        interfere_json = interfere.to_json()
    crashes = plan.crash_budget(list(workloads))
    task = functools.partial(_chaos_task, mode_name=mode, scale=scale,
                             seed=seed, plan_json=plan_json,
                             interfere_json=interfere_json)
    results = fan_out(task, workloads, jobs, crashes=crashes,
                      notify=progress)
    restarts = dict(crashes)  # fan_out restarts each task its whole budget

    # Results arrive in task order, so jobs=1 and jobs=N produce identical
    # logs and reports.
    log = FaultEventLog()
    rows: List[Dict] = []
    for name, r in zip(workloads, results):
        for _ in range(restarts.get(name, 0)):
            log.add(FaultRecord(task=name, kind=FaultKind.WORKER_CRASH.value,
                                target=name, action="crash",
                                detail="injected worker crash"))
            log.add(FaultRecord(task=name, kind=FaultKind.WORKER_CRASH.value,
                                target=name, action="restart",
                                detail="harness restarted the worker"))
        for rec in r["records"]:
            log.add(FaultRecord.from_dict(rec))
        keys = ("workload", "clean", "faulted", "retries", "host_fallbacks")
        row = {k: r[k] for k in keys}
        if "injected_messages" in r:
            row["injected_messages"] = r["injected_messages"]
        rows.append(row)
    return ChaosReport(plan=plan, mode=mode, scale=scale, seed=seed,
                       rows=rows, log=log, restarts=restarts,
                       interfere=interfere if interfere_json else None)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(argv: Optional[List[str]] = None) -> int:
    from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK,
                                       add_run_arguments, load_input)
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Deterministic fault injection: run workloads under a "
                    "fault plan and report graceful degradation.")
    parser.add_argument("workloads", nargs="*", default=[],
                        help=f"workload names (default: "
                             f"{', '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--plan", type=Path, default=None,
                        help="JSON fault plan file (overrides --seed/--rate)")
    parser.add_argument("--interfere", type=Path, default=None,
                        help="JSON host-traffic plan to compose into the "
                             "faulted arms (see 'python -m repro interfere "
                             "--save-plan')")
    add_run_arguments(parser, scale=0.05, mode="name",
                      seed_help="plan generation and runs")
    parser.add_argument("--rate", type=float, default=0.05,
                        help="per-resource fault probability for generated "
                             "plans (default 0.05)")
    parser.add_argument("--save-log", type=Path, default=None,
                        help="write the fault event log JSON here")
    parser.add_argument("--save-report", type=Path, default=None,
                        help="write the degradation report JSON here")
    args = parser.parse_args(argv)

    workloads = args.workloads or list(DEFAULT_WORKLOADS)
    from repro.workloads import WORKLOADS
    bad = [w for w in workloads if w not in WORKLOADS]
    if bad:
        parser.error(f"unknown workload(s): {', '.join(bad)}; "
                     f"try 'python -m repro list'")
    if args.plan is not None:
        plan = load_input(parser, args.plan, "fault plan", FaultPlan.load)
    else:
        try:
            plan = FaultPlan.generate(args.seed, args.rate,
                                      tasks=len(workloads))
        except ValueError as exc:
            parser.error(f"--rate: {exc}")
    interfere = None
    if args.interfere is not None:
        from repro.interfere.plan import HostTrafficPlan
        interfere = load_input(parser, args.interfere, "host-traffic plan",
                               HostTrafficPlan.load)

    report = run_chaos(workloads, plan, mode=args.mode, scale=args.scale,
                       seed=args.seed, jobs=args.jobs, progress=print,
                       interfere=interfere)
    print(report.render())
    if args.save_log is not None:
        report.log.save(args.save_log)
        print(f"fault log -> {args.save_log}")
    if args.save_report is not None:
        args.save_report.write_text(report.to_json(), encoding="utf-8")
        print(f"degradation report -> {args.save_report}")
    if report.unhandled_count:
        print(f"ERROR: {report.unhandled_count} unhandled fault event(s)")
        return EXIT_FAILURE
    return EXIT_OK
