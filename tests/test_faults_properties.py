"""Property-based tests over the fault-injection invariants.

The chaos layer's load-bearing contracts, pinned across randomized
plans:

* plan generation is a pure function of ``(seed, rate)`` and survives a
  JSON round trip — plans can be shipped to worker processes and into
  golden files without drift;
* after a bank failure with re-homing, **no address resolves to the
  failed bank** — the IOT remap is total over every allocation path
  (affine, irregular, batched);
* masked bank-select policies never pick a failed bank;
* degraded runs still terminate, and the same seed produces the same
  fault event log, byte for byte;
* an *empty* plan is invisible: a run inside an empty fault session is
  bit-identical to a clean run.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import AffineArray
from repro.core.runtime import AffinityAllocator
from repro.faults.injector import fault_session
from repro.faults.log import FaultEventLog
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.machine import Machine
from repro.nsc.engine import EngineMode
from repro.workloads import run_workload

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
#: For properties that run a full (tiny) workload per example.
slow = settings(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NUM_BANKS = 64


def attach_plan(machine, plan, log=None):
    """Attach a plan to one machine outside any run."""
    with fault_session(plan, log) as session:
        return session.attach(machine), session


def bank_fail_plan(banks, rehome=True, phase="boot"):
    return FaultPlan(events=tuple(
        FaultEvent(FaultKind.BANK_FAIL, b, phase=phase, rehome=rehome)
        for b in banks))


# ----------------------------------------------------------------------
# Plan generation: deterministic, serializable
# ----------------------------------------------------------------------
class TestPlanDeterminism:
    @relaxed
    @given(seed=st.integers(0, 10_000),
           rate=st.floats(0.0, 0.5, allow_nan=False))
    def test_generate_is_pure_in_seed_and_rate(self, seed, rate):
        a = FaultPlan.generate(seed, rate, tasks=3)
        b = FaultPlan.generate(seed, rate, tasks=3)
        assert a == b
        assert a.to_json() == b.to_json()

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_json_round_trip(self, seed):
        plan = FaultPlan.generate(seed, 0.2, tasks=4)
        assert FaultPlan.from_json(plan.to_json()) == plan

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_generated_events_are_valid(self, seed):
        plan = FaultPlan.generate(seed, 0.3)
        for ev in plan.events:
            if ev.kind is FaultKind.BANK_FAIL:
                assert 0 <= ev.target < NUM_BANKS
            elif ev.kind is FaultKind.POOL_EXHAUST:
                assert ev.phase == "boot"
                assert ev.param >= 1
            elif ev.kind is FaultKind.ALLOC_FAIL:
                assert ev.phase == "boot"

    def test_empty_plan_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert not FaultPlan(events=(
            FaultEvent(FaultKind.BANK_FAIL, 0),)).is_empty

    @relaxed
    @given(seed=st.integers(0, 500), n=st.integers(1, 6))
    def test_crash_budget_covers_every_event(self, seed, n):
        plan = FaultPlan.generate(seed, 0.4, tasks=n)
        names = [f"task{i}" for i in range(n)]
        budget = plan.crash_budget(names)
        events = plan.by_kind(FaultKind.WORKER_CRASH)
        assert sum(budget.values()) == sum(max(1, e.param) for e in events)
        assert set(budget) <= set(names)


# ----------------------------------------------------------------------
# No allocation resolves to a failed bank (IOT remap totality)
# ----------------------------------------------------------------------
class TestNoAllocationOnFailedBank:
    @relaxed
    @given(bank=st.integers(0, NUM_BANKS - 1),
           elem=st.sampled_from([4, 8, 16]),
           n=st.integers(64, 4000))
    def test_affine_never_resolves_to_failed_bank(self, bank, elem, n):
        m = Machine()
        attach_plan(m, bank_fail_plan([bank]))
        h = AffinityAllocator(m).malloc_affine(AffineArray(elem, n))
        assert bank not in set(h.all_banks().tolist())

    @relaxed
    @given(banks=st.lists(st.integers(0, NUM_BANKS - 1), min_size=1,
                          max_size=8, unique=True),
           seed=st.integers(0, 100))
    def test_irregular_policy_avoids_failed_banks(self, banks, seed):
        m = Machine(seed=seed)
        state, _ = attach_plan(m, bank_fail_plan(banks))
        alloc = AffinityAllocator(m)
        vaddrs = [alloc.malloc_irregular(64) for _ in range(32)]
        got = set(m.banks_of(np.asarray(vaddrs, dtype=np.int64)).tolist())
        assert got.isdisjoint(set(banks))
        assert state.any_failed

    @relaxed
    @given(banks=st.lists(st.integers(0, NUM_BANKS - 1), min_size=1,
                          max_size=8, unique=True),
           n=st.integers(1, 200))
    def test_batched_irregular_avoids_failed_banks(self, banks, n):
        m = Machine()
        attach_plan(m, bank_fail_plan(banks))
        vaddrs = AffinityAllocator(m).malloc_irregular_batch(
            64, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), n)
        got = set(m.banks_of(vaddrs).tolist())
        assert got.isdisjoint(set(banks))

    def test_last_healthy_bank_is_never_failed(self):
        m = Machine()
        log = FaultEventLog()
        state, _ = attach_plan(m, bank_fail_plan(range(NUM_BANKS)), log)
        # 63 failures applied, the 64th refused as unhandled
        assert int(state.healthy.sum()) == 1
        assert log.count("unhandled") == 1
        assert log.count("rehomed") == NUM_BANKS - 1

    def test_no_rehome_blocks_offload_instead_of_remapping(self):
        m = Machine()
        state, _ = attach_plan(m, bank_fail_plan([7], rehome=False))
        assert state.no_rehome == {7}
        # without re-homing the raw mapping is untouched
        assert state.policy_mask() is not None
        assert not state.policy_mask()[7]


# ----------------------------------------------------------------------
# Degraded runs terminate; same seed => same event log
# ----------------------------------------------------------------------
class TestDegradedRunsTerminate:
    @slow
    @given(seed=st.integers(0, 50))
    def test_generated_plan_run_terminates(self, seed):
        plan = FaultPlan.generate(seed, 0.15)
        log = FaultEventLog()
        with fault_session(plan, log) as session:
            r = run_workload("vecadd", EngineMode.AFF_ALLOC, scale=0.02,
                             seed=0)
            for state in session.states:
                state.finalize()
        assert np.isfinite(r.cycles) and r.cycles > 0
        assert log.count("unhandled") == 0

    @slow
    @given(seed=st.integers(0, 50))
    def test_same_seed_same_event_log(self, seed):
        plan = FaultPlan.generate(seed, 0.15)
        logs = []
        for _ in range(2):
            log = FaultEventLog()
            with fault_session(plan, log) as session:
                run_workload("vecadd", EngineMode.AFF_ALLOC, scale=0.02,
                             seed=0)
                for state in session.states:
                    state.finalize()
            logs.append(log)
        assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# Empty plan is invisible: bit-identical to a clean run
# ----------------------------------------------------------------------
class TestEmptyPlanBitIdentity:
    @pytest.mark.parametrize("name", ["vecadd", "pr_push"])
    def test_empty_session_matches_clean_run(self, name):
        clean = run_workload(name, EngineMode.AFF_ALLOC, scale=0.03, seed=0)
        log = FaultEventLog()
        with fault_session(FaultPlan.empty(), log) as session:
            faulted = run_workload(name, EngineMode.AFF_ALLOC, scale=0.03,
                                   seed=0)
            for state in session.states:
                state.finalize()
        assert faulted.cycles == clean.cycles
        assert faulted.total_flit_hops == clean.total_flit_hops
        assert faulted.counters == clean.counters
        assert len(log) == 0
