"""The scenario spine (DESIGN.md §14): the plumbing that fault injection,
online re-layout, tracing, and host interference share — one session
class and stack, one config digest, one fan-out with one worker-crash
budget, one determinism gate.

Stdlib only: the subsystems import the spine, never the other way round.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, TypeVar)

from repro.analysis.diagnostics import WorkerCrashError

__all__ = ["ATTACH_ORDER", "MAX_RESTARTS", "SLOTS", "Session", "active",
           "attach_all", "check_determinism", "digest", "fan_out", "scoped"]

#: Session kind -> the machine attribute its state lands on, in the
#: order :func:`attach_all` attaches them.
SLOTS = {"faults": "faults", "relayout": "relayout", "trace": "tracer",
         "interfere": "interference"}

#: Session kinds in the order :func:`attach_all` attaches them.
ATTACH_ORDER = tuple(SLOTS)

#: Restarts granted per task before an injected worker crash propagates
#: (a crash budget beyond this is a plan bug, not a degradation scenario).
MAX_RESTARTS = 3


def digest(payload: Any) -> str:
    """Short stable digest of a JSON-able config, for cache keys."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class Session:
    """One scenario scope: a config plus every per-machine state it
    attached (a run may build several machines; each gets its own).

    ``cfg=None`` is an explicitly *inactive* session: :meth:`attach`
    no-ops, so it still shadows an outer session of the same kind.
    ``make_state(cfg, machine, task)`` builds one machine's state.
    """

    __slots__ = ("kind", "cfg", "task", "states", "make_state")

    def __init__(self, kind: str, cfg: Any, task: str,
                 make_state: Callable[[Any, Any, str], Any]) -> None:
        self.kind = kind
        self.cfg = cfg
        self.task = task
        self.states: List[Any] = []
        self.make_state = make_state

    def attach(self, machine: Any) -> Any:
        """Attach a fresh state to ``machine``'s slot (None if inactive)."""
        if self.cfg is None:
            return None
        state = self.make_state(self.cfg, machine, self.task)
        setattr(machine, SLOTS[self.kind], state)
        self.states.append(state)
        return state


R = TypeVar("R")

_STACK: List[Session] = []


@contextmanager
def scoped(session: Session) -> Iterator[Session]:
    """Make ``session`` active for the block (sessions nest)."""
    _STACK.append(session)
    try:
        yield session
    finally:
        _STACK.pop()


def active(kind: str) -> Optional[Session]:
    """The innermost active session of ``kind`` (an inactive inner
    session shadows an outer one), or None."""
    for session in reversed(_STACK):
        if session.kind == kind:
            return session
    return None


def attach_all(machine: Any) -> None:
    """Attach the active sessions to a fresh machine in
    :data:`ATTACH_ORDER`, whatever their nesting order."""
    for kind in ATTACH_ORDER:
        session = active(kind)
        if session is not None:
            session.attach(machine)


def _call(fn: Callable[[str], R], name: str, crash: bool) -> R:
    """One task attempt; ``crash`` kills it before it computes, exactly
    as if the worker had been OOM-killed."""
    if crash:
        raise WorkerCrashError(name)
    return fn(name)


def fan_out(fn: Callable[[str], R], tasks: Sequence[str], jobs: int,
            crashes: Optional[Mapping[str, int]] = None,
            notify: Optional[Callable[[str], None]] = None,
            describe: Callable[[R], str] = lambda result: "") -> List[R]:
    """``[fn(name) for name in tasks]``, serially or across processes.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) and return plain data.  ``crashes``
    maps task names to injected worker crashes: each crash kills one
    attempt before it computes and the task is restarted, up to
    :data:`MAX_RESTARTS` times, after which the crash propagates.  A
    task that finishes was therefore restarted exactly its budget.
    Results come back in task order whatever the completion order, so
    ``jobs=1`` and ``jobs=N`` merge identically.  ``notify`` receives
    one progress line per restart and per finished task, the latter
    suffixed with ``describe(result)``.
    """
    say = notify or (lambda line: None)
    left = dict(crashes or {})
    attempts: Dict[str, int] = {}
    results: Dict[int, R] = {}

    def crash(name: str) -> bool:
        return left.get(name, 0) > 0

    def restart(name: str) -> bool:
        left[name] = left.get(name, 0) - 1
        attempts[name] = attempts.get(name, 0) + 1
        if attempts[name] > MAX_RESTARTS:
            return False
        say(f"[restart] {name} worker crashed (injected); "
            f"restart {attempts[name]}/{MAX_RESTARTS}")
        return True

    def finish(i: int, result: R) -> None:
        results[i] = result
        say(f"[{len(results)}/{len(tasks)}] {tasks[i]}{describe(result)}")

    if jobs <= 1 or len(tasks) <= 1:
        for i, name in enumerate(tasks):
            while True:
                try:
                    result = _call(fn, name, crash(name))
                except WorkerCrashError:
                    if not restart(name):
                        raise
                    continue
                finish(i, result)
                break
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futs = {pool.submit(_call, fn, name, crash(name)): i
                    for i, name in enumerate(tasks)}
            while futs:
                fut = next(as_completed(futs))
                i = futs.pop(fut)
                try:
                    result = fut.result()
                except WorkerCrashError:
                    if not restart(tasks[i]):
                        raise
                    futs[pool.submit(_call, fn, tasks[i],
                                     crash(tasks[i]))] = i
                    continue
                finish(i, result)
    return [results[i] for i in range(len(tasks))]


def check_determinism(report_json: str, rerun: Callable[[int], str],
                      notify: Callable[[str], None]) -> bool:
    """Re-run at ``jobs=2`` and require the report bytes to match."""
    if rerun(2) != report_json:
        notify("ERROR: report differs between --jobs 1 and --jobs 2")
        return False
    notify("determinism check passed (jobs=1 == jobs=2)")
    return True
