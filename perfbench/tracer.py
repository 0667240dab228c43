"""Span tracing for the benchmark's traced runs.

The benchmark never edits the program.  Instead, a traced run replaces
each layer's public entry points with wrappers *at the name the caller
resolves* (a module attribute, a class attribute or a lookup table) and
records one span per call: name, start, end and the parent span on the
same thread.  Spans stay in memory until the run ends; :func:`layer_metrics`
turns them into per-layer self times and counts.

A span's self time is its duration minus the time its child spans cover,
so self times of one thread never overlap and their sum is the share of
the run the named layers account for.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import threading
import time

#: Counts compared between two traced runs of one (workload, seed).
EXACT_COUNTS = ("graphs.builds", "cdag.inits", "oracle.expanded",
                "oracle.generated", "store.flushes", "protocol.frames")


class Tracer:
    """Per-thread span recorder plus a few event counters."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # one span list per thread that recorded any
        self._lock = threading.Lock()
        self.counts = collections.Counter()
        self.engines = []  # every SweepEngine built while tracing

    def _state(self):
        st = getattr(self._local, "spans", None)
        if st is None:
            st = self._local.spans = []
            self._local.stack = []
            self._local.depth = collections.Counter()
            with self._lock:
                self._threads.append(st)
        return st, self._local.stack, self._local.depth

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a span ``name``."""
        if getattr(fn, "_perfbench_span", None) is not None:
            return fn  # already wrapped (inherited through a subclass)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, depth = tracer._state()
            idx = len(spans)
            # [name, start, end, parent, outermost-of-its-name]
            spans.append([name, 0.0, None, stack[-1] if stack else -1,
                          depth[name] == 0])
            stack.append(idx)
            depth[name] += 1
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                depth[name] -= 1
                stack.pop()

        traced._perfbench_span = name
        return traced

    def spans(self):
        """Every finished span as ``(thread, name, start, end, parent)``."""
        with self._lock:
            threads = list(self._threads)
        return [(t, s[0], s[1], s[2], s[3])
                for t, spans in enumerate(threads) for s in spans
                if s[2] is not None]

    def layer_totals(self):
        """``{name: [self seconds, outermost calls]}`` over all spans."""
        with self._lock:
            threads = list(self._threads)
        totals = collections.defaultdict(lambda: [0.0, 0])
        for spans in threads:
            child = [0.0] * len(spans)
            done = [s for s in spans if s[2] is not None]
            for s in done:
                if s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                if s[2] is None:
                    continue
                entry = totals[s[0]]
                entry[0] += (s[2] - s[1]) - child[i]
                entry[1] += 1 if s[4] else 0
        return dict(totals)


# --------------------------------------------------------------------- #
# Installing the wrappers


def _rebind(orig, wrapper) -> None:
    """Point every loaded ``repro`` module attribute that names ``orig``
    at ``wrapper`` (callers that imported it by name resolve there)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _wrap_function(tracer: Tracer, module: str, attr: str, name: str,
                   make=None) -> None:
    orig = getattr(importlib.import_module(module), attr)
    wrapper = (make or tracer.wrap)(name, orig)
    _rebind(orig, wrapper)


def _wrap_methods(tracer: Tracer, cls, methods, name: str) -> None:
    for meth in methods:
        fn = getattr(cls, meth, None)
        if fn is not None:
            setattr(cls, meth, tracer.wrap(name, fn))


def _astar_wrapper(tracer: Tracer):
    """The A* entry point, counting settled and generated states from the
    ``SearchStats`` its caller passes in, and searches that hit the cap."""
    from repro.core.exceptions import StateSpaceTooLargeError
    from repro.schedulers.search import SearchStats

    def make(name, fn):
        traced = tracer.wrap(name, fn)

        @functools.wraps(fn)
        def astar(*args, **kwargs):
            st = kwargs.get("stats")
            if st is None:
                st = kwargs["stats"] = SearchStats()
            e0, g0 = st.expanded, st.generated
            tracer.counts["oracle.probes"] += 1
            try:
                res = traced(*args, **kwargs)
            except StateSpaceTooLargeError:
                tracer.counts["oracle.capped"] += 1
                raise
            finally:
                tracer.counts["oracle.expanded"] += st.expanded - e0
                tracer.counts["oracle.generated"] += st.generated - g0
            if getattr(res, "reason", None) == "states":
                tracer.counts["oracle.capped"] += 1
            return res

        astar._perfbench_span = name
        return astar
    return make


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (call after importing the program)."""
    import repro.service.daemon  # noqa: F401  (loaded so its names rebind)
    from repro.analysis.audit import Auditor
    from repro.analysis.engine import SweepEngine
    from repro.core.cdag import CDAG
    from repro.core.store import ResultStore
    from repro.core.weights import WeightConfig
    from repro.hardware.compiler import MemoryCompiler
    from repro.schedulers import (EvictionScheduler, ExhaustiveScheduler,
                                  GreedyTopologicalScheduler,
                                  LayerByLayerScheduler, OptimalDWTScheduler,
                                  OptimalTreeScheduler, TilingMVMScheduler)
    from repro.schedulers.conv_sliding import SlidingWindowConvScheduler
    from repro.schedulers.kdwt import OptimalKDWTScheduler
    from repro.schedulers.recompute import RecomputeScheduler
    from repro.schedulers.sparse_tiling import BandedMVMScheduler
    from repro.service import protocol

    graphs = importlib.import_module("repro.graphs")
    builders = ("dwt_graph", "mvm_graph", "banded_mvm_graph", "kdwt_graph",
                "fft_graph", "conv_graph", "complete_kary_tree",
                "caterpillar_tree", "random_kary_tree", "tree_from_nested",
                "random_layered_dag", "random_series_parallel",
                "long_chain", "wide_fan_dag", "disconnected_union",
                "random_weighted", "skewed_weights")
    for attr in builders:
        orig = getattr(graphs, attr)
        wrapper = tracer.wrap("graphs.build", orig)
        _rebind(orig, wrapper)
        # The daemon builds graphs through this family table.
        for family, (ctor, params) in list(protocol.GRAPH_FAMILIES.items()):
            if ctor is orig:
                protocol.GRAPH_FAMILIES[family] = (wrapper, params)
    CDAG.__init__ = tracer.wrap("cdag.init", CDAG.__init__)
    _wrap_methods(tracer, WeightConfig, ("apply",), "weights.apply")

    _wrap_function(tracer, "repro.core.store", "graph_fingerprint",
                   "store.fingerprint")
    _wrap_methods(tracer, ResultStore, ("put_probe", "put_doc"), "store.put")
    _wrap_methods(tracer, ResultStore, ("flush",), "store.flush")

    for cls in (OptimalDWTScheduler, OptimalTreeScheduler,
                OptimalKDWTScheduler, LayerByLayerScheduler,
                TilingMVMScheduler, BandedMVMScheduler,
                SlidingWindowConvScheduler):
        _wrap_methods(tracer, cls, ("cost", "cost_many", "schedule"),
                      "sched.dp")
    for cls in (GreedyTopologicalScheduler, EvictionScheduler,
                RecomputeScheduler):
        _wrap_methods(tracer, cls, ("cost", "cost_many", "schedule"),
                      "sched.heuristic")
    _wrap_methods(tracer, ExhaustiveScheduler,
                  ("cost", "cost_many", "schedule", "solve"), "oracle")
    _wrap_function(tracer, "repro.schedulers.exhaustive", "astar", "oracle",
                   make=_astar_wrapper(tracer))

    _wrap_methods(tracer, Auditor, ("check",), "audit")
    _wrap_function(tracer, "repro.core.simulator", "simulate", "simulator")

    _wrap_methods(tracer, SweepEngine, ("min_memory", "probe_min_memory"),
                  "engine.min_memory")
    _wrap_methods(tracer, SweepEngine, ("probe", "probe_many"),
                  "engine.probe")
    _wrap_methods(tracer, SweepEngine, ("sweep", "sweep_fn"), "engine.sweep")
    engine_init = SweepEngine.__init__

    @functools.wraps(engine_init)
    def register(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        tracer.engines.append(self)
    SweepEngine.__init__ = register

    for attr, name in (("decode_line", "protocol.decode"),
                       ("encode", "protocol.encode"),
                       ("parse_request", "protocol.parse"),
                       ("resolve_graph", "protocol.resolve_graph")):
        _wrap_function(tracer, "repro.service.protocol", attr, name)

    _wrap_methods(tracer, MemoryCompiler,
                  ("organize", "synthesize", "synthesize_pow2"),
                  "hardware.compile")


# --------------------------------------------------------------------- #
# Per-layer metrics

#: per-layer metric -> (span name whose self time it reports, unit)
SELF_TIMES = {
    "graphs.build_s": "graphs.build",
    "cdag.init_s": "cdag.init",
    "weights.apply_s": "weights.apply",
    "store.fingerprint_s": "store.fingerprint",
    "store.put_s": "store.put",
    "store.flush_s": "store.flush",
    "sched.dp_s": "sched.dp",
    "sched.heuristic_s": "sched.heuristic",
    "oracle.solve_s": "oracle",
    "audit.self_s": "audit",
    "simulator.replay_s": "simulator",
    "engine.min_memory_s": "engine.min_memory",
    "engine.probe_s": "engine.probe",
    "engine.sweep_s": "engine.sweep",
    "protocol.decode_s": "protocol.decode",
    "protocol.encode_s": "protocol.encode",
    "protocol.parse_s": "protocol.parse",
    "protocol.resolve_graph_s": "protocol.resolve_graph",
    "hardware.compile_s": "hardware.compile",
}

#: per-layer metric -> span name whose outermost calls it counts
CALL_COUNTS = {
    "graphs.builds": "graphs.build",
    "cdag.inits": "cdag.init",
    "store.fingerprints": "store.fingerprint",
    "store.flushes": "store.flush",
    "sched.dp_calls": "sched.dp",
    "simulator.replays": "simulator",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced process (absent layers read 0)."""
    totals = tracer.layer_totals()
    out = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = totals.get(span, (0.0, 0))[0]
    for metric, span in CALL_COUNTS.items():
        out[metric] = totals.get(span, (0.0, 0))[1]
    out["protocol.frames"] = (totals.get("protocol.decode", (0, 0))[1]
                              + totals.get("protocol.encode", (0, 0))[1])
    for key in ("oracle.probes", "oracle.expanded", "oracle.generated",
                "oracle.capped"):
        out[key] = tracer.counts[key]
    out["oracle.us_per_expanded"] = (
        1e6 * out["oracle.solve_s"] / out["oracle.expanded"]
        if out["oracle.expanded"] else 0.0)
    probes = sum(e.stats.probes for e in tracer.engines)
    hits = sum(e.stats.cache_hits for e in tracer.engines)
    searches = sum(e.stats.searches for e in tracer.engines)
    out["engine.searches"] = searches
    out["engine.probes_per_search"] = probes / searches if searches else 0.0
    out["engine.memo_hit_ratio"] = hits / probes if probes else 0.0
    out["traced_self_s"] = sum(v[0] for v in totals.values())
    return out
