"""Epoch-based migration engine: telemetry in, applied migrations out.

The engine closes the allocate→observe→re-place loop.  During an epoch
the executor streams drift observations into the machine's attached
:class:`RelayoutState` (``machine.relayout``); at each epoch boundary
(:meth:`repro.workloads.base.RunContext.end_epoch`) the engine

1. folds the closed phase's bank counters into a rolling heat estimate,
2. snapshots per-array drift into a frozen :class:`~.policy.Telemetry`,
3. asks the pure policy for a bounded decision tuple,
4. applies each decision through the IOT/LLC re-homing machinery
   (:meth:`~repro.arch.llc.LlcModel.rehome_range` /
   :meth:`~repro.arch.llc.LlcModel.swap_banks`), charging migration
   traffic, bank accesses, and serial stall cycles to the run, and
5. records every decision — applied or skipped — in a
   :class:`~repro.relayout.plan.MigrationPlan`.

``relayout_session(cfg)`` pushes a session on the spine's stack
(:mod:`repro.spine`), which ``make_context`` attaches to each new
machine; ``cfg=None`` is an explicit *off* session (attach no-ops),
which nested static arms use to stay static under an outer
``run_figures(relayout=...)``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    ContextManager,
    Dict,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.arch.noc import MessageClass
from repro.core.affine import LayoutKind
from repro.relayout.plan import Migration, MigrationKind, MigrationPlan
from repro.relayout.policy import (ArrayDrift, Decision, RelayoutConfig,
                                   Telemetry, decide)
from repro.spine import Session, scoped

if TYPE_CHECKING:
    from repro.core.api import ArrayHandle
    from repro.machine import Machine
    from repro.perf.stats import PhaseStats, RunRecorder

__all__ = ["RelayoutState", "merged_plan", "relayout_session"]


class RelayoutState:
    """Per-machine online re-layout state; reachable as ``machine.relayout``.

    Created when a :func:`relayout_session` attaches.  Holds the rolling bank
    heat, the current epoch's drift accumulators, cooldown bookkeeping,
    and the growing migration record.
    """

    def __init__(self, cfg: RelayoutConfig, machine: Machine,
                 task: str = "") -> None:
        self.machine = machine
        self.cfg = cfg
        self.task = task
        nb = machine.num_banks
        self.heat = np.zeros(nb, dtype=np.float64)
        self.epoch_index = 0
        self.total_applied = 0
        self.records: List[Migration] = []
        #: (epoch label, stream accesses, remote accesses) per epoch.
        self.epoch_locality: List[Tuple[str, float, float]] = []
        self._streams: Dict[int, Dict] = {}       # vaddr -> accumulators
        self._handles: Dict[int, object] = {}     # vaddr -> ArrayHandle
        self._cooldown: Dict[int, int] = {}       # vaddr -> epochs left
        self._offsets: Dict[int, int] = {}        # vaddr -> current rotation
        self._swapped: set = set()                # unordered pairs swapped
        self._stream_mark = (0.0, 0.0)            # locality at last boundary

    # ------------------------------------------------------------------
    # Observation (hot path: cheap, vectorized, no allocation on repeat)
    # ------------------------------------------------------------------
    def observe_stream(self, handle: Optional[ArrayHandle],
                       data_banks: np.ndarray,
                       desired_banks: np.ndarray,
                       count: float = 1.0) -> None:
        """Record where a stream's data lived vs. where its consumers ran.

        ``data_banks``/``desired_banks`` are per-element bank ids; the
        delta histogram bins ``(data - desired) mod num_banks`` so a
        *consistent* forwarding distance shows up as one dominant bin.
        """
        if handle is None or getattr(handle, "vaddr", None) is None:
            return
        nb = self.machine.num_banks
        data = np.asarray(data_banks, dtype=np.int64)
        desired = np.asarray(desired_banks, dtype=np.int64)
        if data.size == 0 or data.shape != desired.shape:
            return
        acc = self._streams.get(handle.vaddr)
        if acc is None:
            acc = {"total": 0.0, "remote": 0.0,
                   "hist": np.zeros(nb, dtype=np.float64)}
            self._streams[handle.vaddr] = acc
            self._handles[handle.vaddr] = handle
        delta = (data - desired) % nb
        acc["total"] += float(data.size) * count
        acc["remote"] += float(np.count_nonzero(delta)) * count
        acc["hist"] += np.bincount(delta, minlength=nb) * count

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _healthy(self) -> np.ndarray:
        faults = getattr(self.machine, "faults", None)
        if faults is not None:
            return np.asarray(faults.healthy, dtype=bool)
        return np.ones(self.machine.num_banks, dtype=bool)

    def _rotatable(self, handle: ArrayHandle) -> bool:
        layout = getattr(handle, "layout", None)
        if layout is None or layout.kind is not LayoutKind.POOL:
            return False
        intrlv = int(layout.intrlv)
        if intrlv <= 0 or (intrlv & (intrlv - 1)):
            return False
        return self.machine.pools.pool_containing(handle.vaddr) is not None

    def _heat_delta(self, phase: PhaseStats) -> np.ndarray:
        p = self.machine.config.perf
        return (phase.bank_line_accesses * p.bank_access_cycles
                + phase.bank_atomics * p.atomic_access_cycles
                + phase.bank_remote_reqs * p.remote_req_cycles
                + phase.bank_near_ops / p.bank_ops_per_cycle)

    def build_telemetry(self, epoch: str) -> Telemetry:
        healthy = self._healthy()
        arrays = []
        for vaddr in sorted(self._streams):
            acc = self._streams[vaddr]
            handle = self._handles[vaddr]
            arrays.append(ArrayDrift(
                name=getattr(handle, "name", "") or f"0x{vaddr:x}",
                vaddr=vaddr,
                total=acc["total"],
                remote=acc["remote"],
                delta_hist=tuple(float(x) for x in acc["hist"]),
                eligible_rotate=self._rotatable(handle),
                cooling=self._cooldown.get(vaddr, 0) > 0))
        return Telemetry(
            epoch=epoch,
            num_banks=self.machine.num_banks,
            bank_heat=tuple(float(h) for h in self.heat),
            healthy=tuple(bool(h) for h in healthy),
            arrays=tuple(arrays),
            budget_left=max(0, self.cfg.max_total - self.total_applied))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _charge(self, recorder: RunRecorder,
                old_banks: np.ndarray, new_banks: np.ndarray,
                moved_lines: int) -> None:
        """Charge one migration's cost to the run's perf counters."""
        line = self.machine.config.cache.line_bytes
        moved = old_banks != new_banks
        if moved.any():
            recorder.traffic.record(old_banks[moved], new_banks[moved],
                                    line, MessageClass.DATA)
            recorder.add_bank_accesses(old_banks[moved])   # read out
            recorder.add_bank_accesses(new_banks[moved])   # write in
        # Banks drain their share of the move in parallel (DMA-style):
        # only the per-bank drain at the bottleneck serializes here; the
        # epoch-wide quiesce stall is charged once in on_epoch_boundary.
        drain = (moved_lines * self.cfg.line_move_cycles
                 / max(self.machine.num_banks, 1))
        if drain > 0:
            recorder.add_serial_cycles(
                np.arange(self.machine.num_cores, dtype=np.int64), drain)

    def _apply_rotate(self, recorder: RunRecorder, dec: Decision,
                      epoch: str) -> Migration:
        m = self.machine
        nb = m.num_banks
        handle = self._handles.get(dec.vaddr)
        if handle is None or not self._rotatable(handle):
            return Migration(kind=MigrationKind.ROTATE, target=dec.name,
                             epoch=epoch, task=self.task, applied=False,
                             detail="layout not IOT-rotatable")
        layout = handle.layout
        shift = int(layout.intrlv).bit_length() - 1
        paddr = int(m.translate(np.asarray([handle.vaddr],
                                           dtype=np.int64))[0])
        size = handle.size_bytes
        cur = self._offsets.get(dec.vaddr)
        if cur is None:
            pool = m.pools.pool_containing(handle.vaddr)
            cur = ((paddr - pool.pbase) >> shift) % nb
        new_offset = (cur + dec.rot) % nb

        # Prospective destination banks must all be healthy: migrating
        # data *onto* a failed bank would undo the fault layer's work.
        line = m.config.cache.line_bytes
        nlines = (size + line - 1) // line
        slots = ((np.arange(nlines, dtype=np.int64) * line) >> shift)
        dst = np.unique((slots + new_offset) % nb)
        healthy = self._healthy()
        if not healthy[dst].all():
            bad = [int(b) for b in dst if not healthy[b]]
            return Migration(kind=MigrationKind.ROTATE, target=dec.name,
                             epoch=epoch, task=self.task,
                             dst_banks=tuple(bad), applied=False,
                             detail=f"target banks {bad} unhealthy")

        move = m.llc.rehome_range(paddr, size, shift, new_offset)
        self._charge(recorder, move.old_banks, move.new_banks,
                     move.moved_lines)
        self._offsets[dec.vaddr] = new_offset
        self._cooldown[dec.vaddr] = self.cfg.cooldown_epochs
        return Migration(
            kind=MigrationKind.ROTATE, target=dec.name, epoch=epoch,
            task=self.task,
            src_banks=tuple(int(b) for b in np.unique(move.old_banks)),
            dst_banks=tuple(int(b) for b in np.unique(move.new_banks)),
            moved_bytes=move.moved_bytes, applied=True,
            detail=f"rot={dec.rot}: {dec.reason}")

    def _apply_swap(self, recorder: RunRecorder, dec: Decision,
                    epoch: str) -> Migration:
        healthy = self._healthy()
        a, b = dec.bank_a, dec.bank_b
        if not (healthy[a] and healthy[b]):
            return Migration(kind=MigrationKind.SWAP, target=dec.name,
                             epoch=epoch, task=self.task, applied=False,
                             detail="swap endpoint unhealthy")
        pair = frozenset((a, b))
        if pair in self._swapped:
            # A swap permutes bank identities but cannot lower max/mean
            # heat by itself; re-swapping the same pair is pure thrash.
            return Migration(kind=MigrationKind.SWAP, target=dec.name,
                             epoch=epoch, task=self.task, applied=False,
                             detail="pair already swapped this run")
        self._swapped.add(pair)
        moved_bytes = self.machine.llc.swap_banks(a, b)
        line = self.machine.config.cache.line_bytes
        half = moved_bytes / (2.0 * line)
        if half > 0:
            recorder.traffic.record(a, b, line, MessageClass.DATA, count=half)
            recorder.traffic.record(b, a, line, MessageClass.DATA, count=half)
            recorder.add_bank_accesses([a, b], count=half)
        # Unlike a rotation, a swap drains through just two banks.
        lines = moved_bytes / line
        drain = lines * self.cfg.line_move_cycles / 2.0
        if drain > 0:
            recorder.add_serial_cycles(
                np.arange(self.machine.num_cores, dtype=np.int64), drain)
        self.heat[[a, b]] = self.heat[[b, a]]
        return Migration(kind=MigrationKind.SWAP, target=dec.name,
                         epoch=epoch, task=self.task,
                         src_banks=(a, b), dst_banks=(b, a),
                         moved_bytes=moved_bytes, applied=True,
                         detail=dec.reason)

    # ------------------------------------------------------------------
    def on_epoch_boundary(self, recorder: RunRecorder,
                          phase: PhaseStats) -> Tuple[Migration, ...]:
        """Run the decide/apply loop for one closed epoch.

        Called by :meth:`RunContext.end_epoch` *after* ``end_phase``
        closed the epoch's counters into ``phase``.  Migration costs are
        charged to the (new) open phase and immediately sealed into a
        ``relayout@<epoch>`` phase — but only when something actually
        moved, so zero-migration runs keep a byte-identical phase list.
        """
        cfg = self.cfg
        self.heat *= cfg.heat_decay
        self.heat += self._heat_delta(phase)

        total = recorder.stream_elem_accesses - self._stream_mark[0]
        remote = recorder.stream_remote_accesses - self._stream_mark[1]
        self._stream_mark = (recorder.stream_elem_accesses,
                             recorder.stream_remote_accesses)
        self.epoch_locality.append((phase.label, total, remote))

        telemetry = self.build_telemetry(phase.label)
        decisions = decide(telemetry, cfg)
        applied_any = False
        migrated_now = set()
        out: List[Migration] = []
        for dec in decisions:
            if dec.kind is MigrationKind.ROTATE:
                mig = self._apply_rotate(recorder, dec, phase.label)
                if mig.applied:
                    migrated_now.add(dec.vaddr)
            elif dec.kind is MigrationKind.SWAP:
                mig = self._apply_swap(recorder, dec, phase.label)
            else:
                mig = Migration(kind=MigrationKind.REHOME, target=dec.name,
                                epoch=phase.label, task=self.task,
                                applied=False,
                                detail=f"advisory: {dec.reason}")
            self.records.append(mig)
            out.append(mig)
            tracer = getattr(self.machine, "tracer", None)
            if tracer is not None:
                tracer.instant(mig.kind.value, "migration",
                               {"target": mig.target, "epoch": mig.epoch,
                                "applied": mig.applied,
                                "moved_bytes": mig.moved_bytes,
                                "detail": mig.detail})
            if mig.applied:
                applied_any = True
                self.total_applied += 1
        if applied_any:
            # One quiesce stall per migrating epoch, shared by every
            # migration applied at this boundary.
            if cfg.stall_cycles > 0:
                recorder.add_serial_cycles(
                    np.arange(self.machine.num_cores, dtype=np.int64),
                    cfg.stall_cycles)
            recorder.end_phase(f"relayout@{phase.label}")

        # Epoch teardown: drift accumulators reset, cooldowns tick down
        # (arrays that just migrated keep their full cooldown).
        self._streams.clear()
        for vaddr in list(self._cooldown):
            left = self._cooldown[vaddr]
            if vaddr not in migrated_now:
                left -= 1
            if left <= 0:
                del self._cooldown[vaddr]
            else:
                self._cooldown[vaddr] = left
        self.epoch_index += 1
        return tuple(out)

    # ------------------------------------------------------------------
    def plan(self) -> MigrationPlan:
        return MigrationPlan(migrations=tuple(self.records),
                             seed=self.cfg.seed,
                             max_per_epoch=self.cfg.max_per_epoch)


def merged_plan(session: Session) -> MigrationPlan:
    """Every machine's migration record of one relayout session, merged."""
    cfg = session.cfg if session.cfg is not None else RelayoutConfig()
    plan = MigrationPlan.empty(seed=cfg.seed,
                               max_per_epoch=cfg.max_per_epoch)
    for state in session.states:
        plan = plan.merged_with(state.plan())
    return plan


def relayout_session(cfg: Optional[RelayoutConfig],
                     task: str = "") -> ContextManager[Session]:
    """Scope an online re-layout session on the spine's stack.

    Every machine built by ``make_context`` inside the scope gets a
    :class:`RelayoutState` attached; pass ``cfg=None`` to force-disable
    relayout inside an outer active session (the static arm's tool).
    """
    return scoped(Session("relayout", cfg, task, RelayoutState))
