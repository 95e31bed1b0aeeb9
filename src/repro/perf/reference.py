"""Pre-vectorization reference implementations of the simulator hot paths.

PR 3 replaced the per-pair/per-region/per-entry Python loops in NoC
routing, address translation, IOT bank lookup, footprint registration,
and batched affinity scoring with precomputed incidence structures and
``searchsorted``/``bincount`` scatter-adds.  The originals live on here,
verbatim, for two jobs:

* **equivalence oracles** — the hypothesis property suite
  (``tests/test_vectorized_equivalence.py``) checks the vectorized paths
  against these on randomized inputs, and the vectorized paths must be
  *byte-identical* (same float bit patterns), not merely close;
* **before/after benchmarking** — ``python -m repro bench`` times each
  hot path twice, once through :func:`reference_impls` and once through
  the shipped code, so ``BENCH_*.json`` carries a measured speedup
  instead of a stale hand-recorded number.

Nothing here is a fallback: the vectorized implementations have no
scalar code path left.  If an equivalence test fails, the vectorized
code is wrong — fix it, don't reroute through this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

import numpy as np

__all__ = [
    "pair_channel_loads_reference",
    "mesh_link_loads_reference",
    "translate_reference",
    "iot_banks_reference",
    "register_heap_footprint_reference",
    "affinity_hop_sums_reference",
    "hybrid_select_batch_reference",
    "chained_hybrid_reference",
    "first_unique_reference",
    "first_unique_counts_reference",
    "from_edge_list_reference",
    "reference_impls",
]


# ----------------------------------------------------------------------
# NoC routing
# ----------------------------------------------------------------------
def pair_channel_loads_reference(mesh, pair_flits: np.ndarray) -> np.ndarray:
    """Original per-pair loop of :func:`repro.arch.noc.pair_channel_loads`."""
    n = mesh.num_tiles
    loads = np.zeros(mesh.num_links + 2 * n, dtype=np.float64)
    inj = mesh.num_links
    ej = mesh.num_links + n
    for p in np.nonzero(pair_flits)[0]:
        s, d = divmod(int(p), n)
        if s == d:
            continue
        w = pair_flits[p]
        loads[inj + s] += w
        loads[ej + d] += w
        for link in mesh.route_links(s, d):
            loads[link] += w
    return loads


def mesh_link_loads_reference(mesh, src: np.ndarray, dst: np.ndarray,
                              weight: np.ndarray) -> np.ndarray:
    """Original route-walking loop of :meth:`repro.arch.mesh.Mesh.link_loads`."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), src.shape)
    pair = src * mesh.num_tiles + dst
    pair_weight = np.bincount(pair, weights=weight,
                              minlength=mesh.num_tiles ** 2)
    loads = np.zeros(mesh.num_links, dtype=np.float64)
    nonzero = np.nonzero(pair_weight)[0]
    for p in nonzero:
        s, d = divmod(int(p), mesh.num_tiles)
        if s == d:
            continue
        for link in mesh.route_links(s, d):
            loads[link] += pair_weight[p]
    return loads


# ----------------------------------------------------------------------
# Address translation
# ----------------------------------------------------------------------
def translate_reference(space, vaddrs) -> np.ndarray:
    """Original per-unique-region loop of
    :meth:`repro.vm.layout.AddressSpace.translate`."""
    vaddrs = np.atleast_1d(np.asarray(vaddrs, dtype=np.int64))
    out = np.empty_like(vaddrs)
    idx = np.searchsorted(space._starts, vaddrs, side="right") - 1
    if (idx < 0).any():
        bad = vaddrs[idx < 0][0]
        raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
    for rid in np.unique(idx):
        region = space._regions[rid]
        mask = idx == rid
        addrs = vaddrs[mask]
        if (addrs >= space._ends[rid]).any():
            bad = addrs[addrs >= space._ends[rid]][0]
            raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
        out[mask] = region.translate(addrs)
    return out


# ----------------------------------------------------------------------
# IOT bank lookup
# ----------------------------------------------------------------------
def iot_banks_reference(iot, addrs: np.ndarray,
                        default_shift: int) -> np.ndarray:
    """Original per-entry mask loop of
    :meth:`repro.arch.iot.InterleaveOverrideTable.banks`."""
    addrs = np.asarray(addrs, dtype=np.int64)
    banks = (addrs >> default_shift) % iot.num_banks
    for start, end, shift in zip(iot._starts, iot._ends, iot._shifts):
        mask = (addrs >= start) & (addrs < end)
        if mask.any():
            banks[mask] = ((addrs[mask] - start) >> shift) % iot.num_banks
    return banks


# ----------------------------------------------------------------------
# Heap footprint registration
# ----------------------------------------------------------------------
def register_heap_footprint_reference(machine, vaddr: int, size: int) -> None:
    """Original per-page loop of ``Machine._register_heap_footprint``."""
    from repro.arch.address import align_up

    if size <= 0:
        return
    page = machine.config.page_size
    pos = vaddr
    end = vaddr + size
    while pos < end:
        page_end = min(end, align_up(pos + 1, page))
        machine.llc.register_range(machine.space.translate_one(pos),
                                   page_end - pos)
        pos = page_end


# ----------------------------------------------------------------------
# Batched affinity scoring
# ----------------------------------------------------------------------
def affinity_hop_sums_reference(alloc_ids: np.ndarray, banks: np.ndarray,
                                dist: np.ndarray, n: int) -> np.ndarray:
    """Original ``np.add.at`` row scatter of ``malloc_irregular_batch``:
    summed hop distance from every candidate bank to each allocation's
    affinity banks."""
    nb = dist.shape[0]
    hop_sums = np.zeros((n, nb), dtype=np.float64)
    np.add.at(hop_sums, alloc_ids, dist[:, banks].T)
    return hop_sums


# ----------------------------------------------------------------------
# Sequential bank-select loops (original bodies: fresh temporaries and a
# full ``loads.sum()`` every iteration)
# ----------------------------------------------------------------------
def hybrid_select_batch_reference(self, mean_hops, load, mesh) -> np.ndarray:
    """Original loop body of :meth:`HybridPolicy.select_batch`."""
    n, nb = mean_hops.shape
    loads = load.loads  # private working copy
    out = np.empty(n, dtype=np.int64)
    h = self.h
    total = loads.sum()
    for i in range(n):
        if h > 0 and total > 0:
            score = mean_hops[i] + h * (loads / (total / nb) - 1.0)
        else:
            score = mean_hops[i]
        b = int(np.argmin(score))
        out[i] = b
        loads[b] += 1.0
        total += 1.0
    for b, c in zip(*np.unique(out, return_counts=True)):
        load.record(int(b), float(c))
    return out


def chained_hybrid_reference(self, prev_ids: np.ndarray,
                             head_banks: np.ndarray,
                             n: int, nb: int) -> np.ndarray:
    """Original loop body of ``AffinityAllocator._chained_hybrid``."""
    dist = self.mesh.hops_to_all(np.arange(nb)).astype(np.float64)
    loads = self.load.loads  # working copy
    h = self.policy.h
    chosen = np.empty(n, dtype=np.int64)
    zeros = np.zeros(nb, dtype=np.float64)
    for i in range(n):
        p = prev_ids[i]
        if p >= 0:
            hops_row = dist[:, chosen[p]]
        elif head_banks[i] >= 0:
            hops_row = dist[:, head_banks[i]]
        else:
            hops_row = zeros
        if h > 0:
            total = loads.sum()
            if total > 0:
                score = hops_row + h * (loads / (total / nb) - 1.0)
            else:
                score = hops_row
        else:
            score = hops_row
        b = int(np.argmin(score))
        chosen[i] = b
        loads[b] += 1.0
    for b, c in zip(*np.unique(chosen, return_counts=True)):
        self.load.record(int(b), float(c))
    return chosen


# ----------------------------------------------------------------------
# Executor dedup keys (original: unconditional np.unique sort)
# ----------------------------------------------------------------------
def first_unique_reference(key: np.ndarray) -> np.ndarray:
    """Original ``np.unique(key, return_index=True)`` of the executor's
    (core, line) dedup, without the sorted-input boundary scan."""
    if key.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.unique(key, return_index=True)[1]


def first_unique_counts_reference(key: np.ndarray):
    if key.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy()
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return first, counts


# ----------------------------------------------------------------------
# CSR build (original: lexsort + np.add.at)
# ----------------------------------------------------------------------
def from_edge_list_reference(cls, num_vertices: int, src: np.ndarray,
                             dst: np.ndarray, weights=None,
                             remove_self_loops: bool = True,
                             symmetrize: bool = False):
    """Original body of :meth:`repro.graphs.csr.CSRGraph.from_edge_list`
    (two-key lexsort, ``np.add.at`` degree count).  It predates the
    source range check, so it is only defined on in-range inputs."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    # Sort by (src, dst): adjacency lists sorted by neighbor id is the
    # "common practice" the paper's degree-sensitivity study (§7.2)
    # relies on — consecutive edges of a vertex point to nearby ids.
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = np.asarray(weights)[order]
    index = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(index, src + 1, 1)
    np.cumsum(index, out=index)
    return cls(index, dst.astype(np.int32), weights)


# ----------------------------------------------------------------------
# Before/after switchyard
# ----------------------------------------------------------------------
@contextmanager
def reference_impls():
    """Route every vectorized hot path through its pre-PR original.

    Patches module globals and methods in place (process-wide, not
    thread-safe) and restores them on exit.  Used by ``repro bench`` to
    measure the "before" timings in the same process, and by tests that
    want to exercise the reference paths end-to-end.
    """
    from repro.arch import iot as iot_mod
    from repro.arch import mesh as mesh_mod
    from repro.arch import noc as noc_mod
    from repro.core import policy as policy_mod
    from repro.core import runtime as runtime_mod
    from repro.graphs import csr as csr_mod
    from repro.nsc import executor as executor_mod
    from repro.perf import model as model_mod
    from repro.vm import layout as layout_mod
    from repro import machine as machine_mod

    def _uncached_channel_loads(self):
        return noc_mod.pair_channel_loads(
            self.mesh, sum(self._pair_flits.values()))

    def _per_instance_hops(self):
        if self._pair_hops is None:
            n = self.mesh.num_tiles
            idx = np.arange(n * n)
            self._pair_hops = self.mesh.hops(idx // n, idx % n).astype(np.float64)
        return self._pair_hops

    # PR 4 grew the shipped signatures (fault masks, raw-bank lookups)
    # after these references were frozen.  The wrappers below keep the
    # reference loops verbatim as the timed "before" core while
    # accepting the newer call shapes; the fault-injected variants have
    # no pre-PR-4 original to reproduce, so they are clean-run only.
    def _iot_banks_compat(self, addrs, default_shift, apply_remap=True):
        addrs = np.asarray(addrs, dtype=np.int64)
        banks = iot_banks_reference(self, addrs, default_shift)
        if self._mig:
            banks = self._apply_migrations(addrs, banks)
        if apply_remap and self._remap is not None:
            return self._remap[banks]
        return banks

    def _select_batch_compat(self, mean_hops, load, mesh, mask=None):
        if mask is not None:
            raise NotImplementedError(
                "reference select_batch predates fault masks; "
                "reference_impls() is clean-run only")
        return hybrid_select_batch_reference(self, mean_hops, load, mesh)

    def _chained_hybrid_compat(self, prev_ids, head_banks, n, nb, mask=None):
        if mask is not None:
            raise NotImplementedError(
                "reference chained path predates fault masks; "
                "reference_impls() is clean-run only")
        return chained_hybrid_reference(self, prev_ids, head_banks, n, nb)

    saved = [
        (noc_mod, "pair_channel_loads", noc_mod.pair_channel_loads),
        (model_mod, "pair_channel_loads", model_mod.pair_channel_loads),
        (noc_mod.TrafficAccountant, "_channel_loads",
         noc_mod.TrafficAccountant._channel_loads),
        (noc_mod.TrafficAccountant, "_hops_per_pair",
         noc_mod.TrafficAccountant._hops_per_pair),
        (mesh_mod.Mesh, "link_loads", mesh_mod.Mesh.link_loads),
        (layout_mod.AddressSpace, "translate",
         layout_mod.AddressSpace.translate),
        (iot_mod.InterleaveOverrideTable, "banks",
         iot_mod.InterleaveOverrideTable.banks),
        (machine_mod.Machine, "_register_heap_footprint",
         machine_mod.Machine._register_heap_footprint),
        (runtime_mod, "_affinity_hop_sums", runtime_mod._affinity_hop_sums),
        (policy_mod.HybridPolicy, "select_batch",
         policy_mod.HybridPolicy.select_batch),
        (runtime_mod.AffinityAllocator, "_chained_hybrid",
         runtime_mod.AffinityAllocator._chained_hybrid),
        (executor_mod, "_first_unique", executor_mod._first_unique),
        (executor_mod, "_first_unique_counts",
         executor_mod._first_unique_counts),
        (csr_mod.CSRGraph, "from_edge_list",
         csr_mod.CSRGraph.__dict__["from_edge_list"]),
    ]
    try:
        noc_mod.pair_channel_loads = pair_channel_loads_reference
        model_mod.pair_channel_loads = pair_channel_loads_reference
        noc_mod.TrafficAccountant._channel_loads = _uncached_channel_loads
        noc_mod.TrafficAccountant._hops_per_pair = _per_instance_hops
        mesh_mod.Mesh.link_loads = mesh_link_loads_reference
        layout_mod.AddressSpace.translate = translate_reference
        iot_mod.InterleaveOverrideTable.banks = _iot_banks_compat
        machine_mod.Machine._register_heap_footprint = \
            register_heap_footprint_reference
        runtime_mod._affinity_hop_sums = affinity_hop_sums_reference
        policy_mod.HybridPolicy.select_batch = _select_batch_compat
        runtime_mod.AffinityAllocator._chained_hybrid = _chained_hybrid_compat
        executor_mod._first_unique = first_unique_reference
        executor_mod._first_unique_counts = first_unique_counts_reference
        csr_mod.CSRGraph.from_edge_list = classmethod(from_edge_list_reference)
        yield
    finally:
        for obj, name, orig in saved:
            setattr(obj, name, orig)
