"""Outside-in host-time tracing of the simulator's layers.

The benchmark does not change the program to trace it.  :class:`Tracer`
replaces each layer's public functions (listed in :data:`LAYERS`) with
wrappers that record one span per call, and puts the originals back on
exit.  A span is ``(id, name, start, end, parent id, call id)``: the
parent is the innermost open span when it started, the call id names the
workload call it belongs to.  Spans stay in memory and are written out
once, at the end of the run.

A layer's self time is its spans' duration minus the part covered by
their child spans.  ``fig12_overall`` is wrapped as the ``harness``
layer, so it is the root of every call and the self times of all layers
add up to the traced wall time of the call.  ``calls`` counts entries
into a layer (a span whose parent has the same name does not count
again); work counts (addresses, messages, rows, phases) are summed over
every wrapped call that carries them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from statistics import median
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


def _one(args, kwargs) -> float:
    return 1.0


def _addrs(args, kwargs) -> float:
    # translate(self, vaddrs) / banks(self, addrs, ...): addresses mapped.
    return float(np.size(args[1]))


def _noc_msgs(args, kwargs) -> float:
    # TrafficAccountant.record(self, src, dst, payload_bytes, cls, count=1)
    src, dst = np.atleast_1d(args[1]), np.atleast_1d(args[2])
    count = args[5] if len(args) > 5 else kwargs.get("count", 1)
    shape = np.broadcast(src, dst).shape
    return float(np.sum(np.broadcast_to(np.asarray(count, np.float64), shape)))


def _policy_rows(args, kwargs) -> float:
    # select_batch(self, mean_hops, ...): one (n, banks) row per allocation.
    return float(np.shape(args[1])[0])


@dataclass(frozen=True)
class Layer:
    """One span name and the public functions it wraps.

    ``targets`` are ``"module:Class.method"`` (wrapped on the class and on
    every subclass that overrides it) or ``"module:function"`` (wrapped
    in every loaded ``repro`` module that holds it by name).  ``work``
    maps a wrapped function's name to a function of its call's
    ``(args, kwargs)`` giving the work count of one call, summed and
    reported as ``<name>.<work_name>``.  Set-up layers are reported from
    the cold call, where their work happens; the others per warm call.
    """

    name: str
    targets: Tuple[str, ...]
    work: Dict[str, Callable] = field(default_factory=dict)
    work_name: str = ""
    setup: bool = False


LAYERS: Tuple[Layer, ...] = (
    Layer("harness", ("repro.harness.experiments:fig12_overall",)),
    Layer("graphs", ("repro.graphs.csr:CSRGraph.from_edge_list",
                     "repro.graphs.generators:kronecker",
                     "repro.graphs.generators:powerlaw",
                     "repro.graphs.datasets:load_real_world",
                     "repro.graphs.datasets:load_for_mesh"), setup=True),
    Layer("cache", ("repro.cache:ArtifactCache.get_arrays",
                    "repro.cache:ArtifactCache.get_json",
                    "repro.cache:ArtifactCache.put_arrays",
                    "repro.cache:ArtifactCache.put_json"), setup=True),
    Layer("workloads", ("repro.workloads.base:Workload.run",)),
    Layer("datastructs", (
        "repro.datastructs.binary_tree:BinaryTree.build",
        "repro.datastructs.binary_tree:BinaryTree.lookup_trace",
        "repro.datastructs.hash_table:HashTable.build",
        "repro.datastructs.hash_table:HashTable.probe_trace",
        "repro.datastructs.linked_list:LinkedListSet.build",
        "repro.datastructs.linked_list:LinkedListSet.search_trace",
        "repro.datastructs.linked_csr:LinkedCSR.build",
        "repro.datastructs.linked_csr:LinkedCSR.chase_trace",
        "repro.datastructs.dist_queue:SpatialQueue.push_trace")),
    Layer("core", (
        "repro.core.runtime:AffinityAllocator.malloc_affine",
        "repro.core.runtime:AffinityAllocator.malloc_offset",
        "repro.core.runtime:AffinityAllocator.malloc_irregular",
        "repro.core.runtime:AffinityAllocator.malloc_irregular_batch",
        "repro.core.runtime:AffinityAllocator.malloc_irregular_chained",
        "repro.core.runtime:AffinityAllocator.malloc_aff",
        "repro.core.runtime:AffinityAllocator.free_aff",
        "repro.core.runtime:AffinityAllocator.realloc_aff")),
    Layer("core.policy", ("repro.core.policy:BankSelectPolicy.select",
                          "repro.core.policy:BankSelectPolicy.select_batch"),
          work={"select": _one, "select_batch": _policy_rows},
          work_name="rows"),
    Layer("vm", ("repro.vm.layout:AddressSpace.translate",),
          work={"translate": _addrs}, work_name="addrs"),
    Layer("arch.iot", ("repro.arch.iot:InterleaveOverrideTable.banks",),
          work={"banks": _addrs}, work_name="addrs"),
    Layer("arch.llc", ("repro.arch.llc:LlcModel.banks_of",
                       "repro.arch.llc:LlcModel.register_range",
                       "repro.arch.llc:LlcModel.register_spans",
                       "repro.arch.llc:LlcModel.register_by_banks")),
    Layer("arch.noc", ("repro.arch.noc:TrafficAccountant.record",
                       "repro.arch.noc:pair_channel_loads"),
          work={"record": _noc_msgs}, work_name="msgs"),
    Layer("nsc.affine", ("repro.nsc.executor:StreamExecutor.affine_kernel",)),
    Layer("nsc.indirect", ("repro.nsc.executor:StreamExecutor.indirect_gather",
                           "repro.nsc.executor:StreamExecutor.indirect_atomic")),
    Layer("nsc.pointer_chase",
          ("repro.nsc.executor:StreamExecutor.pointer_chase",)),
    Layer("nsc.queue", ("repro.nsc.executor:StreamExecutor.queue_push",)),
    Layer("nsc.compute", ("repro.nsc.executor:StreamExecutor.core_compute",)),
    Layer("perf", ("repro.perf.stats:RunRecorder.end_phase",
                   "repro.perf.model:PerfModel.evaluate"),
          work={"end_phase": _one}, work_name="phases"),
    Layer("interfere", ("repro.interfere.engine:InterferenceState.on_epoch",)),
    Layer("relayout", ("repro.relayout.engine:RelayoutState.on_epoch_boundary",
                       "repro.relayout.engine:RelayoutState.observe_stream")),
)

NSC = tuple(layer.name for layer in LAYERS if layer.name.startswith("nsc."))

#: Per-layer metrics besides ``<layer>.self_ms``/``.calls``/``.<work>``:
#: name -> (unit, better).
_EXTRA = {
    "nsc.calls": ("count", "lower"),
    "vm.ns_per_addr": ("ns", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "interfere.host_epochs": ("count", "lower"),
    "interfere.host_msgs": ("count", "lower"),
    "relayout.migrations": ("count", "lower"),
    "sim.bottleneck.core_frac": ("ratio", "lower"),
    "sim.bottleneck.bank_frac": ("ratio", "lower"),
    "sim.bottleneck.link_frac": ("ratio", "lower"),
    "sim.bottleneck.serial_frac": ("ratio", "lower"),
    "sim.flit_hops.data": ("flit-hops", "lower"),
    "sim.flit_hops.control": ("flit-hops", "lower"),
    "sim.flit_hops.offload": ("flit-hops", "lower"),
    "sim.l3_miss_pct": ("%", "lower"),
    "sim.noc_util": ("ratio", "lower"),
    "sim.events": ("count", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.self_ms", "ms", "lower"))
        out.append((f"{layer.name}.calls", "count", "lower"))
        if layer.work_name:
            out.append((f"{layer.name}.{layer.work_name}", "count", "lower"))
    out += [(name, unit, better) for name, (unit, better) in _EXTRA.items()]
    return out


def unit_of(metric: str) -> str:
    return {name: unit for name, unit, _ in per_layer_spec()}[metric]


def layer_metrics(tracer: "Tracer", warm_calls: Sequence[str]
                  ) -> Dict[str, float]:
    """Self time, entries and work per layer: medians over the warm traced
    calls, or the cold call's values for set-up layers."""
    self_ms = {c: tracer.self_ms(c) for c in ("cold", *warm_calls)}
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls = ["cold"] if layer.setup else list(warm_calls)
        name = layer.name
        out[f"{name}.self_ms"] = median(self_ms[c].get(name, 0.0)
                                        for c in calls)
        out[f"{name}.calls"] = median(tracer.calls[(c, name)] for c in calls)
        if layer.work_name:
            out[f"{name}.{layer.work_name}"] = median(
                tracer.work[(c, name)] for c in calls)
    out["nsc.calls"] = sum(out[f"{name}.calls"] for name in NSC)
    addrs = out["vm.addrs"]
    out["vm.ns_per_addr"] = out["vm.self_ms"] * 1e6 / addrs if addrs else 0.0
    return out


# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
class Tracer:
    """Installs the wrappers (``with tracer:``) and keeps every span."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or -1, call id) per span.
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        #: (call id, span name) -> entries into the layer, and the summed
        #: ``Layer.work`` of its wrapped calls.
        self.calls: Dict[Tuple[str, str], float] = defaultdict(float)
        self.work: Dict[Tuple[str, str], float] = defaultdict(float)
        self.call = ""
        self._stack: List[Tuple[int, str]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        name, work = layer.name, layer.work.get(fn.__name__)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else (-1, "")
            # Spans started before this one: finished ones plus open ones.
            sid = len(spans) + len(stack)
            if parent[1] != name:
                self.calls[(self.call, name)] += 1.0
            if work is not None:
                self.work[(self.call, name)] += work(args, kwargs)
            stack.append((sid, name))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent[0], self.call))
        return traced

    # --------------------------------------------------------- patching
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, meth: str, layer: Layer) -> None:
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(meth)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, classmethod):
                self._patch(klass, meth,
                            classmethod(self._wrap(raw.__func__, layer)))
            else:
                self._patch(klass, meth, self._wrap(raw, layer))

    def _wrap_function(self, fn: Callable, layer: Layer) -> None:
        wrapped = self._wrap(fn, layer)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and mod is not None and mod.__dict__.get(fn.__name__) is fn:
                self._patch(mod, fn.__name__, wrapped)

    def __enter__(self) -> "Tracer":
        import importlib
        for layer in LAYERS:
            for target in layer.targets:
                mod_name, _, qual = target.partition(":")
                mod = importlib.import_module(mod_name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    self._wrap_method(getattr(mod, cls_name), meth, layer)
                else:
                    self._wrap_function(getattr(mod, qual), layer)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- reports
    def self_ms(self, call: str) -> Dict[str, float]:
        """Self time in ms per span name over the spans of one call."""
        child = defaultdict(float)
        mine = [s for s in self.spans if s[5] == call]
        for sid, _, t0, t1, parent, _ in mine:
            child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _, _ in mine:
            out[name] += (t1 - t0 - child[sid]) * 1e3
        return out

    def dump(self) -> Dict[str, object]:
        return {"fields": ["id", "name", "start_s", "end_s", "parent",
                           "call"],
                "spans": [list(s) for s in self.spans]}
