"""Scenario-spine contracts (DESIGN.md "Scenario spine").

* ``fan_out`` returns results in task order whatever the job count and
  completion order, and applies one worker-crash restart budget;
* the session stack shadows by kind, and ``attach_all`` attaches in a
  fixed order, so nesting order never changes a run.
"""

import itertools
import time
from contextlib import ExitStack

import pytest

from repro.analysis.diagnostics import WorkerCrashError
from repro.config import DEFAULT_CONFIG
from repro.faults.chaos import run_chaos
from repro.faults.injector import fault_session
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.report import run_metrics
from repro.interfere.engine import interfere_session
from repro.interfere.plan import HostTrafficPlan
from repro.machine import Machine
from repro.nsc.engine import EngineMode
from repro.obs.tracer import TraceConfig, trace_session
from repro.relayout.engine import relayout_session
from repro.relayout.policy import RelayoutConfig
from repro.spine import (ATTACH_ORDER, MAX_RESTARTS, SLOTS, active,
                         attach_all, check_determinism, fan_out, scoped)
from repro.workloads.base import make_context, run_workload


def _slow_first(name):
    """Earlier tasks finish later, so completion order inverts task
    order whenever tasks overlap."""
    time.sleep(0.05 * (3 - int(name[1:])))
    return {"task": name, "square": int(name[1:]) ** 2}


TASKS = ["t0", "t1", "t2"]


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
class TestFanOut:
    def test_task_order_at_any_job_count(self):
        want = [_slow_first(t) for t in TASKS]
        assert fan_out(_slow_first, TASKS, jobs=1) == want
        assert fan_out(_slow_first, TASKS, jobs=2) == want

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_at_cap_recovers(self, jobs):
        lines = []
        out = fan_out(_slow_first, TASKS, jobs,
                      crashes={"t1": MAX_RESTARTS}, notify=lines.append)
        assert out == [_slow_first(t) for t in TASKS]
        restarts = [ln for ln in lines if ln.startswith("[restart]")]
        assert len(restarts) == MAX_RESTARTS == 3
        assert all("t1" in ln for ln in restarts)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_beyond_cap_raises(self, jobs):
        with pytest.raises(WorkerCrashError):
            fan_out(_slow_first, TASKS, jobs,
                    crashes={"t2": MAX_RESTARTS + 1})

    def test_restart_counts_reach_chaos_report(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.WORKER_CRASH, 0, param=MAX_RESTARTS),),
            seed=0)
        report = run_chaos(["vecadd"], plan, scale=0.03, seed=0, jobs=1)
        assert report.restarts == {"vecadd": MAX_RESTARTS}
        assert report.log.count("crash") == MAX_RESTARTS
        assert report.log.count("restart") == MAX_RESTARTS


class TestDeterminismGate:
    def test_reruns_at_two_jobs_and_compares_bytes(self):
        seen, lines = [], []

        def rerun(jobs):
            seen.append(jobs)
            return "same"

        assert check_determinism("same", rerun, lines.append)
        assert not check_determinism("other", rerun, lines.append)
        assert seen == [2, 2]
        assert lines[0].startswith("determinism check passed")
        assert lines[1].startswith("ERROR")


# ----------------------------------------------------------------------
# Session stack
# ----------------------------------------------------------------------
class _Probe:
    def __init__(self, kind, calls):
        self.kind = kind
        self.calls = calls

    def attach(self, machine):
        self.calls.append(self.kind)


class _SlotLog(Machine):
    """A machine that records which session slots get filled, in order."""

    def __setattr__(self, name, value):
        if name in SLOTS.values() and value is not None:
            self.__dict__.setdefault("filled", []).append(name)
        super().__setattr__(name, value)


def _live_presets():
    """The four presets, each with a config that attaches, by kind."""
    bank_fail = FaultPlan(events=(
        FaultEvent(FaultKind.BANK_FAIL, 5, phase="boot", rehome=True),))
    return {
        "faults": fault_session(bank_fail),
        "relayout": relayout_session(RelayoutConfig(seed=0)),
        "trace": trace_session(TraceConfig()),
        "interfere": interfere_session(
            HostTrafficPlan.generate(0).scaled(4.0)),
    }


def _run_nested(order):
    """Run one workload inside the four live presets, opened in
    ``order``; returns (result, sessions by kind)."""
    presets = _live_presets()
    with ExitStack() as stack:
        sessions = {kind: stack.enter_context(presets[kind])
                    for kind in order}
        result = run_workload("hash_join_skew", EngineMode.AFF_ALLOC,
                              scale=0.5, seed=0)
    return result, sessions


@pytest.fixture(scope="module")
def canonical_run():
    return _run_nested(ATTACH_ORDER)


class TestSessionStack:
    def test_inner_inactive_session_shadows_outer(self):
        with relayout_session(RelayoutConfig(seed=0)) as outer:
            with relayout_session(None) as inner:
                assert active("relayout") is inner
                assert make_context(EngineMode.AFF_ALLOC).machine.relayout \
                    is None
            assert active("relayout") is outer
            assert make_context(EngineMode.AFF_ALLOC).machine.relayout \
                is not None
        assert active("relayout") is None
        assert inner.states == [] and len(outer.states) == 1

    def test_attach_order_is_fixed(self):
        calls = []
        with scoped(_Probe("interfere", calls)), \
                scoped(_Probe("trace", calls)), \
                scoped(_Probe("faults", calls)), \
                scoped(_Probe("relayout", calls)):
            attach_all(object())
        assert calls == list(ATTACH_ORDER)

    # ids spell the nesting order by initials: "ftri" opens faults,
    # then trace, relayout, interfere (outermost first)
    @pytest.mark.parametrize("order",
                             list(itertools.permutations(ATTACH_ORDER)),
                             ids=lambda order: "".join(k[0] for k in order))
    def test_nesting_order_does_not_change_the_run(self, order,
                                                   canonical_run):
        presets = _live_presets()
        with ExitStack() as stack:
            sessions = {kind: stack.enter_context(presets[kind])
                        for kind in order}
            machine = _SlotLog(DEFAULT_CONFIG)
            attach_all(machine)
            # faults -> relayout -> trace -> interfere, each preset
            # filling its own slot, whatever the nesting order
            assert machine.filled == [SLOTS[k] for k in ATTACH_ORDER]
            for kind, session in sessions.items():
                assert session.kind == kind
                assert getattr(machine, SLOTS[kind]) is session.states[0]
            # cfg=None and an empty host plan attach nothing, yet shadow
            with relayout_session(None) as no_relayout, \
                    trace_session(None) as no_trace, \
                    interfere_session(HostTrafficPlan.empty()) as no_host:
                bare = _SlotLog(DEFAULT_CONFIG)
                attach_all(bare)
                assert bare.filled == [SLOTS["faults"]]
                for inner in (no_relayout, no_trace, no_host):
                    assert active(inner.kind) is inner
                    assert inner.states == []
            for kind, session in sessions.items():
                assert active(kind) is session

        a, nested = _run_nested(order)
        b, canonical = canonical_run
        epochs_a, epochs_b = ([st.epoch_index for st in s["interfere"].states]
                              for s in (nested, canonical))
        assert epochs_a == epochs_b and epochs_a[0] > 0
        moves_a, moves_b = ([st.total_applied for st in s["relayout"].states]
                            for s in (nested, canonical))
        assert moves_a == moves_b and moves_a[0] > 0
        assert nested["trace"].states[0].runs
        assert run_metrics(a) == run_metrics(b)
        assert a.counters == b.counters
