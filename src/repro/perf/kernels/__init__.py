"""Pluggable compute backends for the allocator/executor hot loops.

PR 3 vectorized the simulator's batch paths but left the Eq. 4
bank-select loop sequential — every choice shifts the load the next
choice sees — and DESIGN §7 called it the Amdahl wall of fig12.  This
package puts the remaining inner loops behind a tiny backend registry
so the same call sites can run either

* ``python`` — numpy-only, always available.  Carries the algorithmic
  work: incremental Eq. 4 scoring through a per-chunk *division table*
  (exact — every table element carries the same IEEE roundings as the
  scalar chain; see :mod:`repro.perf.kernels.pybackend` and DESIGN
  §12), scatter-based first-occurrence dedup, and bulk load recording;
  or
* ``c`` — the two sequential Eq. 4 loops compiled from a shipped C
  source by the *system* compiler at first use (cached .so, loaded via
  ctypes, ``-ffp-contract=off``).  Available wherever ``cc`` is; when
  it is not, the registry falls back to ``python`` — a *backend*
  fallback, never a silent numeric drift, because every backend is
  bit-identical to :mod:`repro.perf.reference` by contract
  (tests/test_kernels_equivalence.py).

Selection: ``REPRO_KERNELS=python|c|auto`` (default ``auto`` = ``c``
when a compiler is present, else ``python``), or :func:`set_backend` /
``--kernels`` on the bench and CLI entry points.  The C compile is
lazy: a process pinned to the python backend never pays for it.

The backend surface every implementation must export:

``hybrid_select_batch(mean_hops, loads, h, penalty)``
    Sequential Eq. 4 over a batch; mutates the ``loads`` working copy.
``chained_hybrid(dist_t, prev_ids, head_banks, loads, h, penalty)``
    Eq. 4 where affinity banks come from the batch's earlier choices.
``first_unique(key)`` / ``first_unique_counts(key)``
    ``np.unique(key, return_index=True)[1]`` (+ counts) equivalents.
``consecutive_dedup(values, groups)``
    Run-boundary mask used by the executor's stream accounting.
``migration_pairs(banks, groups)``
    (src, dst) bank pairs of the executor's stream migrations.
``credit_roundtrips(counts, credit_iters)``
    Per-core credit round-trip counts (``np.ceil(counts / k)``).
"""

from __future__ import annotations

import os
import warnings
from types import ModuleType
from typing import Dict, Optional, Tuple

from repro.perf.kernels import pybackend

__all__ = [
    "available_backends",
    "backend_info",
    "get_backend",
    "set_backend",
    "BACKEND_CHOICES",
]

#: Names accepted by :func:`set_backend` and ``REPRO_KERNELS``.
BACKEND_CHOICES: Tuple[str, ...] = ("auto", "python", "c")

_active: Optional[ModuleType] = None


def _c_available() -> bool:
    """Whether the C backend compiled (imports — and builds — lazily)."""
    try:
        from repro.perf.kernels import cbackend
        return cbackend.AVAILABLE
    except Exception:
        return False


def available_backends() -> Tuple[str, ...]:
    """Backends that can actually execute in this interpreter."""
    return ("python", "c") if _c_available() else ("python",)


def set_backend(name: str = "auto") -> str:
    """Select the active kernel backend; returns the resolved name.

    ``auto`` resolves to ``c`` when a system compiler can build the
    shipped kernels, else ``python``.  Requesting ``c`` explicitly
    without a compiler warns and falls back to ``python`` — allocator
    results are bit-identical either way, only throughput differs.
    """
    global _active
    name = (name or "auto").lower()
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {BACKEND_CHOICES}")
    if name == "auto":
        name = "c" if _c_available() else "python"
    if name == "c":
        if _c_available():
            from repro.perf.kernels import cbackend
            _active = cbackend
            return _active.NAME
        warnings.warn("kernel backend 'c' requested but no working C "
                      "compiler was found; falling back to the python "
                      "backend (bit-identical results, lower throughput)",
                      RuntimeWarning, stacklevel=2)
    _active = pybackend
    return _active.NAME


def get_backend() -> ModuleType:
    """The active backend module (resolving ``REPRO_KERNELS`` lazily)."""
    global _active
    if _active is None:
        set_backend(os.environ.get("REPRO_KERNELS", "auto"))
    assert _active is not None
    return _active


def backend_info() -> Dict[str, Optional[str]]:
    """Attribution block for BENCH_*.json / RunResult metadata."""
    active = get_backend()
    cc: Optional[str] = None
    if active.NAME == "c":
        cc = getattr(active, "COMPILER", None)
    return {"kernels": active.NAME, "cc": cc}
