"""Spans around calls into roughvar's modules, recorded from outside the package.

The job launcher calls :func:`install` after ``roughvar.cli`` is imported and
before ``main`` runs.  Every module binding of each listed public function is
replaced by a wrapper, because ``roughness`` and ``isometry`` import
``scaled_qv`` and ``pth_variation`` by name and patching ``roughvar.variation``
alone would miss their calls.  Spans (id, name, start, end, parent, extras)
stay in memory and the launcher writes them out when the job ends.  The
parent process turns them into per-layer metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
import time
import tracemalloc

# layer -> public functions timed as spans
SPANS = {
    "grid": ("read_path_csv", "read_path_json", "write_path_csv", "write_path_json"),
    "schauder": ("schauder_eval",),
    "pathgen": ("generate", "fbm_path"),
    "variation": ("pth_variation", "scaled_qv", "accurate_cumsum"),
    "roughness": ("critical_index_search",),
    "isometry": ("isometry_check", "chain_rule_check", "invariance_check",
                 "compose_path", "stieltjes_integral", "holder_proxy", "tabulated_map"),
    "_util": ("parallel_map",),
}
# functions called too often for a span each: counted only
COUNTS = {"grid": ("dyadic_partition",), "variation": ("limit_diagnostics",)}
# spans whose outermost instance takes a tracemalloc peak
MEMORY_SPANS = {"variation.pth_variation", "variation.scaled_qv",
                "variation.accurate_cumsum", "variation.materialized",
                "roughness.critical_index_search"}
PATH_IO = {"grid.read_path_csv": 0, "grid.read_path_json": 0,
           "grid.write_path_csv": 1, "grid.write_path_json": 1}


class Recorder:
    """Spans and counters of one job; thread-aware via a per-thread span stack."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._mem_active = 0

    # -- per-thread state: open span ids and open memory-measured spans
    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.mem_depth = [], 0
        return st

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def _mem_enter(self) -> None:
        with self._lock:
            if self._mem_active == 0:
                tracemalloc.start()
            self._mem_active += 1

    def _mem_exit(self) -> float:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_active -= 1
            if self._mem_active == 0:
                tracemalloc.stop()
        return peak / 2.0 ** 20

    def call(self, name: str, fn, args, kwargs, extra=None):
        """Run ``fn`` inside a span named ``name``."""
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        sid = next(self._ids)
        measure = name in MEMORY_SPANS and st.mem_depth == 0
        st.stack.append(sid)
        if measure:
            self._mem_enter()
        if name in MEMORY_SPANS:
            st.mem_depth += 1
        info = {}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(info, args, result)
            return result
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if name in MEMORY_SPANS:
                st.mem_depth -= 1
            if measure:
                info["peak_mb"] = self._mem_exit()
            st.stack.pop()
            info["cpu_s"] = c1 - c0
            self.spans.append((sid, name, t0, t1, parent, info))

    def thread_entry(self, fn):
        """Wrap a parallel_map worker so its spans hang under the caller's."""
        st = self._state()
        stack, depth = list(st.stack), st.mem_depth

        def run(item):
            mine = self._state()
            saved = mine.stack, mine.mem_depth
            mine.stack, mine.mem_depth = list(stack), depth
            try:
                return fn(item)
            finally:
                mine.stack, mine.mem_depth = saved

        return run


def _result_points(info, args, result):
    info["points"] = int(result.samples.size)


def _result_terms(info, args, result):
    info["terms"] = int(result.terms.size)


def _result_probes(info, args, result):
    info["probes"] = len(result.per_q)


def _path_bytes(name):
    pos = PATH_IO[name]

    def extra(info, args, result):
        info["bytes"] = os.path.getsize(args[pos])
    return extra


def _extra_for(name):
    if name in ("schauder.schauder_eval", "pathgen.generate"):
        return _result_points
    if name in ("variation.pth_variation", "variation.scaled_qv"):
        return _result_terms
    if name == "roughness.critical_index_search":
        return _result_probes
    if name in PATH_IO:
        return _path_bytes(name)
    return None


def _rebind(original, replacement) -> None:
    """Point every roughvar module attribute bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "roughvar" or modname.startswith("roughvar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _bindings(table):
    """(layer, name, function) for each listed function roughvar still has.

    A module or function a later version removes is skipped; its metrics
    then read 0.
    """
    import importlib

    for layer, names in table.items():
        try:
            mod = importlib.import_module(f"roughvar.{layer}")
        except ImportError:
            continue
        for fname in names:
            if callable(getattr(mod, fname, None)):
                yield layer.lstrip("_"), fname, getattr(mod, fname)


def install(rec: Recorder) -> None:
    """Wrap the listed functions in every roughvar module that binds them."""
    for layer, fname, original in _bindings(SPANS):
        span = f"{layer}.{fname}"
        if fname == "parallel_map":
            def wrapper(fn, items, _orig=original, _span=span):
                items = list(items)
                return rec.call(_span, _orig, (rec.thread_entry(fn), items), {},
                                lambda info, a, r: info.__setitem__("items", len(items)))
        else:
            def wrapper(*args, _orig=original, _span=span, _extra=_extra_for(span),
                        **kwargs):
                return rec.call(_span, _orig, args, kwargs, _extra)
        _rebind(original, functools.wraps(original)(wrapper))
    for layer, fname, original in _bindings(COUNTS):
        def counted(*args, _orig=original, _name=f"{layer}.{fname}", **kwargs):
            rec.count(_name)
            return _orig(*args, **kwargs)
        _rebind(original, functools.wraps(original)(counted))

    import roughvar.variation
    source = getattr(roughvar.variation, "PVarSource", None)
    materialized = getattr(source, "materialized", None)
    if materialized is not None:
        @functools.wraps(materialized)
        def traced_materialized(self, x, p):
            return rec.call("variation.materialized", materialized, (self, x, p), {})
        source.materialized = traced_materialized


# ---------------------------------------------------------------------------
# Parent side: spans of one pass -> per-layer metrics.
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _Job:
    """One job's spans, indexed for ancestry queries."""

    def __init__(self, trace: dict):
        self.spans = {s[0]: s for s in trace["spans"]}
        self.counts = trace["counts"]
        self.import_s = trace["import_s"]

    def by_name(self, name):
        return [s for s in self.spans.values() if s[1] == name]

    def ancestors(self, span):
        parent = span[4]
        while parent is not None:
            span = self.spans[parent]
            yield span
            parent = span[4]

    def outermost(self, name):
        """Spans of ``name`` not nested in another span of the same name."""
        return [s for s in self.by_name(name)
                if not any(a[1] == name for a in self.ancestors(s))]

    def under(self, name, ancestor):
        return [s for s in self.by_name(name)
                if any(a[1] == ancestor for a in self.ancestors(s))]


def _dur(spans) -> float:
    return sum((s[3] - s[2] for s in spans), 0.0)


def _info_sum(spans, key) -> float:
    return sum(s[5].get(key, 0) for s in spans)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one traced pass, from each job's trace record."""
    jobs = [_Job(t) for t in traces]
    m = {}

    def total(name):
        return sum((_dur(j.outermost(name)) for j in jobs), 0.0)

    def spans(name):
        return [s for j in jobs for s in j.outermost(name)]

    def count(name):
        return sum(j.counts.get(name, 0) for j in jobs)

    m["import.roughvar_s"] = statistics.median(j.import_s for j in jobs)

    main_s = self_s = 0.0
    for j in jobs:
        main = j.by_name("cli.main")[0]
        children = [(s[2], s[3]) for s in j.spans.values() if s[4] == main[0]]
        main_s += main[3] - main[2]
        self_s += main[3] - main[2] - _union_length(children)
    m["cli.main_s"], m["cli.self_s"] = main_s, self_s

    io_s = 0.0
    for name in ("read_path_csv", "read_path_json", "write_path_csv", "write_path_json"):
        m[f"grid.{name}_s"] = total(f"grid.{name}")
        io_s += m[f"grid.{name}_s"]
    m["grid.path_bytes"] = sum(_info_sum(spans(n), "bytes") for n in PATH_IO)
    m["grid.path_mb_per_s"] = _ratio(m["grid.path_bytes"] / 1e6, io_s)
    m["grid.dyadic_partition_calls"] = count("grid.dyadic_partition")

    m["schauder.schauder_eval_s"] = total("schauder.schauder_eval")
    m["schauder.points"] = _info_sum(spans("schauder.schauder_eval"), "points")

    m["pathgen.generate_s"] = total("pathgen.generate")
    m["pathgen.fbm_path_s"] = total("pathgen.fbm_path")
    m["pathgen.points"] = _info_sum(spans("pathgen.generate"), "points")

    pth = [s for j in jobs for s in j.by_name("variation.pth_variation")]
    sqv = [s for j in jobs for s in j.by_name("variation.scaled_qv")]
    proxy = [s for j in jobs for s in j.under("variation.pth_variation",
                                              "variation.materialized")]
    m["variation.pth_variation_s"] = total("variation.pth_variation")
    m["variation.pth_variation_calls"] = len(pth)
    m["variation.pth_variation_terms"] = _info_sum(pth, "terms")
    m["variation.scaled_qv_s"] = total("variation.scaled_qv")
    m["variation.scaled_qv_calls"] = len(sqv)
    m["variation.scaled_qv_terms"] = _info_sum(sqv, "terms")
    m["variation.finest_share"] = _ratio(_info_sum(proxy, "terms"),
                                         m["variation.pth_variation_terms"])
    m["variation.accurate_cumsum_s"] = total("variation.accurate_cumsum")
    m["variation.limit_diagnostics_calls"] = count("variation.limit_diagnostics")
    m["variation.scaled_qv_peak_mb"] = max(
        (s[5]["peak_mb"] for s in sqv if "peak_mb" in s[5]), default=0.0)

    search = spans("roughness.critical_index_search")
    probes = _info_sum(search, "probes")
    m["roughness.critical_index_search_s"] = _dur(search)
    m["roughness.probes"] = probes
    m["roughness.s_per_probe"] = _ratio(_dur(search), probes)
    m["roughness.scaled_qv_calls_per_probe"] = _ratio(
        sum(len(j.under("variation.scaled_qv", "roughness.critical_index_search"))
            for j in jobs), probes)
    m["roughness.peak_mb"] = max((s[5].get("peak_mb", 0.0) for s in search), default=0.0)

    for name in SPANS["isometry"]:
        m[f"isometry.{name}_s"] = total(f"isometry.{name}")

    pmap = spans("util.parallel_map")
    m["util.parallel_map_s"] = _dur(pmap)
    m["util.parallel_map_items"] = _info_sum(pmap, "items")
    m["util.cpu_per_wall"] = _ratio(_info_sum(pmap, "cpu_s"), _dur(pmap))
    return m
