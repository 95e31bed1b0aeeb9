"""Property-based tests over the online re-layout invariants.

The autoplace loop's load-bearing contracts, pinned across randomized
telemetry and real (tiny) runs:

* ``decide`` is a pure, bounded function: the same telemetry snapshot
  and config always produce the same decision tuple, never more than
  ``min(max_per_epoch, budget_left)`` of them, and every rotation
  amount is a valid bank rotation;
* cooling arrays and unhealthy banks are never chosen;
* the engine composes with fault injection: migrations applied while
  banks are failed never target a failed bank (the plan replays clean
  through afflint's RLY001 audit);
* the whole loop is jobs-deterministic: ``run_autoplace`` produces a
  byte-identical report for ``jobs=1`` and ``jobs=2``;
* zero drift is invisible: a workload whose arrays never drift applies
  zero migrations inside a relayout session and reproduces the static
  run's cycles — and ``run_figures(relayout=...)`` writes a
  byte-identical ``run-<hash>.json``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cache as cache_mod
from repro.cache import ArtifactCache
from repro.faults.injector import fault_session
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness import runner
from repro.nsc.engine import EngineMode
from repro.relayout.autoplace import run_autoplace
from repro.relayout.engine import merged_plan, relayout_session
from repro.relayout.plan import MigrationKind, MigrationPlan
from repro.relayout.policy import (ArrayDrift, RelayoutConfig, Telemetry,
                                   decide)
from repro.workloads import run_workload

relaxed = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
slow = settings(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NUM_BANKS = 64


# ----------------------------------------------------------------------
# Telemetry strategy
# ----------------------------------------------------------------------
@st.composite
def telemetries(draw):
    nb = draw(st.sampled_from([4, 8, 64]))
    n_arrays = draw(st.integers(0, 6))
    arrays = []
    for i in range(n_arrays):
        total = draw(st.floats(0.0, 1e6, allow_nan=False))
        remote = draw(st.floats(0.0, total, allow_nan=False))
        hist = [0.0] * nb
        mass = remote
        for _ in range(draw(st.integers(0, 3))):
            d = draw(st.integers(1, nb - 1))
            w = draw(st.floats(0.0, mass, allow_nan=False))
            hist[d] += w
            mass -= w
        arrays.append(ArrayDrift(
            name=f"arr{i}", vaddr=(i + 1) << 16, total=total, remote=remote,
            delta_hist=tuple(hist),
            eligible_rotate=draw(st.booleans()),
            cooling=draw(st.booleans())))
    healthy = tuple(draw(st.lists(st.booleans(), min_size=nb, max_size=nb)))
    heat = tuple(draw(st.lists(st.floats(0.0, 1e9, allow_nan=False),
                               min_size=nb, max_size=nb)))
    return Telemetry(epoch=f"e{draw(st.integers(0, 99))}", num_banks=nb,
                     bank_heat=heat, healthy=healthy, arrays=tuple(arrays),
                     budget_left=draw(st.integers(0, 20)))


configs = st.builds(
    RelayoutConfig,
    drift_threshold=st.floats(0.0, 1.0, allow_nan=False),
    dominance=st.floats(0.0, 1.0, allow_nan=False),
    min_accesses=st.floats(0.0, 4096.0, allow_nan=False),
    max_per_epoch=st.integers(0, 8),
    max_total=st.integers(0, 32),
    hot_ratio=st.floats(1.0, 64.0, allow_nan=False),
    rehome_budget=st.integers(0, 2),
    seed=st.integers(0, 1000))


# ----------------------------------------------------------------------
# Policy: pure, bounded, safe
# ----------------------------------------------------------------------
class TestPolicyProperties:
    @relaxed
    @given(t=telemetries(), cfg=configs)
    def test_decide_is_pure(self, t, cfg):
        assert decide(t, cfg) == decide(t, cfg)

    @relaxed
    @given(t=telemetries(), cfg=configs)
    def test_decide_respects_budget(self, t, cfg):
        out = decide(t, cfg)
        assert len(out) <= min(cfg.max_per_epoch, t.budget_left)

    @relaxed
    @given(t=telemetries(), cfg=configs)
    def test_rotations_are_valid_and_justified(self, t, cfg):
        by_vaddr = {a.vaddr: a for a in t.arrays}
        for dec in decide(t, cfg):
            if dec.kind is not MigrationKind.ROTATE:
                continue
            assert 1 <= dec.rot < t.num_banks
            a = by_vaddr[dec.vaddr]
            assert a.eligible_rotate and not a.cooling
            assert a.total >= cfg.min_accesses
            assert a.remote_fraction >= cfg.drift_threshold
            d, _ = a.dominant_delta()
            assert dec.rot == (t.num_banks - d) % t.num_banks

    @relaxed
    @given(t=telemetries(), cfg=configs)
    def test_swaps_pick_distinct_healthy_banks(self, t, cfg):
        for dec in decide(t, cfg):
            if dec.kind is not MigrationKind.SWAP:
                continue
            assert dec.bank_a != dec.bank_b
            assert t.healthy[dec.bank_a] and t.healthy[dec.bank_b]

    @relaxed
    @given(t=telemetries(), cfg=configs)
    def test_cooling_arrays_never_selected(self, t, cfg):
        cooling = {a.vaddr for a in t.arrays if a.cooling}
        for dec in decide(t, cfg):
            if dec.kind is MigrationKind.SWAP:
                continue
            assert dec.vaddr not in cooling

    def test_config_digest_is_stable_and_sensitive(self):
        a, b = RelayoutConfig(), RelayoutConfig()
        assert a.digest() == b.digest()
        assert a.digest() != RelayoutConfig(seed=1).digest()


# ----------------------------------------------------------------------
# Engine: same seed, same plan; composes with fault injection
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    @slow
    @given(seed=st.integers(0, 20))
    def test_same_seed_same_plan(self, seed):
        plans = []
        for _ in range(2):
            with relayout_session(RelayoutConfig(seed=seed)) as session:
                run_workload("stream_flip", EngineMode.AFF_ALLOC,
                             scale=0.1, seed=seed)
            plans.append(merged_plan(session))
        assert plans[0].to_json() == plans[1].to_json()
        assert plans[0].applied_count() > 0  # the scenario really drifts

    def test_plan_survives_json_round_trip(self):
        with relayout_session(RelayoutConfig()) as session:
            run_workload("stream_flip", EngineMode.AFF_ALLOC, scale=0.1,
                         seed=0)
        plan = merged_plan(session)
        assert MigrationPlan.from_json(plan.to_json()) == plan


class TestFaultComposition:
    @pytest.mark.parametrize("banks", [[0], [7, 11], [63]])
    def test_migrations_never_target_failed_banks(self, banks):
        plan_events = tuple(FaultEvent(FaultKind.BANK_FAIL, b, phase="boot",
                                       rehome=True) for b in banks)
        with fault_session(FaultPlan(events=plan_events)):
            with relayout_session(RelayoutConfig()) as session:
                r = run_workload("stream_flip", EngineMode.AFF_ALLOC,
                                 scale=0.1, seed=0)
        assert np.isfinite(r.cycles) and r.cycles > 0
        plan = merged_plan(session)
        failed = set(banks)
        for m in plan.migrations:
            if m.applied:
                assert failed.isdisjoint(m.dst_banks)
        # afflint's replay agrees: no RLY001 with the health mask applied
        healthy = [b not in failed for b in range(NUM_BANKS)]
        report = plan.to_diagnostics(NUM_BANKS, healthy)
        assert not report.has_errors


# ----------------------------------------------------------------------
# Jobs-independence of the autoplace runner
# ----------------------------------------------------------------------
class TestJobsDeterminism:
    def test_report_identical_across_jobs(self):
        scenarios = ("stream_flip", "dyn_graph")
        serial = run_autoplace(scenarios, RelayoutConfig(), scale=0.25,
                               seed=0, jobs=1)
        fanned = run_autoplace(scenarios, RelayoutConfig(), scale=0.25,
                               seed=0, jobs=2)
        assert serial.to_json() == fanned.to_json()
        assert serial.plan.to_json() == fanned.plan.to_json()


# ----------------------------------------------------------------------
# Zero drift is invisible
# ----------------------------------------------------------------------
class TestZeroDriftInvisible:
    def test_aligned_run_applies_no_migrations(self):
        # Default bfs allocates its queue aligned to the vertex arrays:
        # telemetry sees no drift, so the session must not perturb the run.
        static = run_workload("bfs", EngineMode.AFF_ALLOC, scale=0.05, seed=0)
        with relayout_session(RelayoutConfig()) as session:
            online = run_workload("bfs", EngineMode.AFF_ALLOC, scale=0.05,
                                  seed=0)
        assert merged_plan(session).applied_count() == 0
        assert online.cycles == static.cycles
        assert online.total_flit_hops == static.total_flit_hops
        assert online.counters == static.counters

    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cache_mod, "_CACHE",
            ArtifactCache(root=tmp_path / "cache", enabled=True))

    def test_results_file_byte_identical(self, fresh_cache, tmp_path):
        ids = ("table1", "fig17")
        plain = runner.run_figures(ids, jobs=1, scale=0.05, seed=0,
                                   use_cache=False,
                                   results_dir=tmp_path / "a",
                                   preflight=False)
        relaid = runner.run_figures(ids, jobs=1, scale=0.05, seed=0,
                                    use_cache=False,
                                    results_dir=tmp_path / "b",
                                    preflight=False,
                                    relayout=RelayoutConfig())
        assert Path(plain.path).name == Path(relaid.path).name
        assert Path(plain.path).read_bytes() == Path(relaid.path).read_bytes()

    def test_relayout_runs_get_distinct_cache_keys(self, fresh_cache,
                                                   tmp_path):
        ids = ("fig17",)
        runner.run_figures(ids, scale=0.05, seed=0, preflight=False)
        relaid = runner.run_figures(ids, scale=0.05, seed=0, preflight=False,
                                    relayout=RelayoutConfig())
        # the plain run's cache entry must not satisfy the relayout run
        assert not any(f.from_cache for f in relaid.figures)
