"""Per-layer spans and counters for a traced benchmark iteration.

The tracer works from outside the package: ``Tracer.install`` replaces every
public function of the ``korobov`` layer modules (and the two ``ThetaTable``
methods that do the table work) with a timing wrapper.  Each wrapper is
installed at every module attribute that refers to the original, so calls
made through ``from .wce import theta_table``-style bindings are recorded
too.  Spans live in memory and are reduced to metrics after the run.

Memory is not traced during the timed run (tracemalloc slows the pure-Python
parts of a call several times over): the slowest calls of a layer are kept and
replayed under tracemalloc afterwards by ``Tracer.measure_peaks``.

Span time is wall time.  ``.s`` metrics are the length of the union of a
layer's spans, so spans from the search's worker threads are not counted
twice, and ``.self_s`` subtracts the union of the spans nested inside.
"""

from __future__ import annotations

import bisect
import heapq
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
import types

LAYERS = ("space", "lattice", "wce", "search", "bounds", "tract", "qmc")

# Span that the worker records around each ``korobov.cli.main`` call.
CLI_SPAN = "cli.main"
# Work the tracer itself does inside an operation (counter hooks).
HOOK_SPAN = "trace.hook"
# Slowest calls kept per memory-measured layer for the replay.
REPLAYS = 3


def _package_modules():
    """(name, module) for every loaded ``korobov`` module."""
    for name, mod in list(sys.modules.items()):
        in_package = name == "korobov" or name.startswith("korobov.")
        if in_package and isinstance(mod, types.ModuleType):
            yield name, mod


def _union(intervals):
    """Sorted, disjoint cover of a list of (start, end) intervals."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum((end - start for start, end in merged), 0.0)


def _overlap(a, b) -> float:
    """Length of the intersection of two unions."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    """Records spans ``(name, start, end)`` and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._slowest: dict[str, list] = {}
        self._tiebreak = itertools.count()
        self.sites: dict[str, list[str]] = {}
        self._originals: dict[str, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cache = None
        self._cache_start = None

    # -- recording ---------------------------------------------------------

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))  # list.append is atomic

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def _off(self) -> bool:
        return getattr(self._local, "off", False)

    def untraced(self, fn, *args, **kwargs):
        """Call ``fn`` with every wrapper passing straight through."""
        prev = self._off()
        self._local.off = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.off = prev

    def _wrap(self, name: str, fn, hook=None, measure_memory: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._off():
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.record(name, start, end)
            if measure_memory:
                tracer._keep_slowest(name, end - start, fn, args, kwargs)
            if hook is not None:
                hook_start = time.perf_counter()
                tracer.untraced(hook, result, *args, **kwargs)
                tracer.record(HOOK_SPAN, hook_start, time.perf_counter())
            return result

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    def _keep_slowest(self, name, seconds, fn, args, kwargs) -> None:
        with self._lock:
            heap = self._slowest.setdefault(name, [])
            item = (seconds, next(self._tiebreak), fn, args, kwargs)
            if len(heap) < REPLAYS:
                heapq.heappush(heap, item)
            else:
                heapq.heappushpop(heap, item)

    def measure_peaks(self) -> None:
        """Replay the kept calls under tracemalloc; record each layer's peak."""
        for name, heap in self._slowest.items():
            for _, _, fn, args, kwargs in heap:
                tracemalloc.start()
                try:
                    self.untraced(fn, *args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak)

    # -- installation ------------------------------------------------------

    def _hooks(self, wce):
        estimate = wce.dual_enum_work_estimate

        def eval_vectors(result, table, vectors):
            rows = vectors.shape[0]
            self.add("wce.eval_vectors.cells", rows * table.n * table.d)
            # Arrays the evaluation writes: the (rows, n) accumulator, and per
            # coordinate the int64 product, its residue and the gathered
            # values; plus the length-n index vector.
            self.add("wce.eval_vectors.bytes", 8 * (rows * table.n * (1 + 3 * table.d) + table.n))

        def dual_enum(result, rule, model, lam=1.0, tol=wce.DEFAULT_TOL):
            self.add("wce.dual_enum.work_est", estimate(rule, model, lam, tol))

        def double_sum(result, rule, *args, **kwargs):
            self.add("wce.kernel_double_sum.pairs", rule.n * rule.n)

        def theta_terms(result, *args, **kwargs):
            self.add("space.theta_terms.terms", result[0].size)

        def search_korobov(result, *args, **kwargs):
            self.add("search.korobov.candidates", result.evaluated)
            self.add("search.korobov.ties", result.ties)

        def st_trace(result, *args, **kwargs):
            self.add("tract.trace.cells", len(result.records))

        def convergence(result, *args, **kwargs):
            self.add("qmc.convergence_study.rows", len(result))

        return {
            "wce.eval_vectors": eval_vectors,
            "wce.wce2_dual_enum": dual_enum,
            "wce.wce2_kernel_double_sum": double_sum,
            "space.theta_terms": theta_terms,
            "search.search_korobov": search_korobov,
            "tract.st_ratio_trace": st_trace,
            "qmc.convergence_study": convergence,
        }

    def install(self) -> None:
        """Wrap the layers' public functions at every ``korobov`` import site."""
        modules = {layer: importlib.import_module(f"korobov.{layer}") for layer in LAYERS}
        wce = modules["wce"]
        hooks = self._hooks(wce)
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from another layer; wrapped there
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                replacements[id(obj)] = self._wrap(
                    name, obj, hooks.get(name), measure_memory=(name == "space.a_lambda")
                )
        self._cache = wce.theta_table
        self._cache_start = self._cache.cache_info()
        table = wce.ThetaTable
        self._originals["wce.table_build"] = table.__init__
        self._originals["wce.eval_vectors"] = table.eval_vectors
        table.__init__ = self._wrap("wce.table_build", table.__init__)
        table.eval_vectors = self._wrap(
            "wce.eval_vectors", table.eval_vectors, hooks["wce.eval_vectors"]
        )
        self.sites = {"wce.table_build": ["korobov.wce.ThetaTable.__init__"],
                      "wce.eval_vectors": ["korobov.wce.ThetaTable.eval_vectors"]}
        for mod_name, mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.sites.setdefault(wrapper.span_name, []).append(f"{mod_name}.{attr}")

    def leftover_sites(self) -> list[str]:
        """Import sites still bound to an unwrapped original (should be empty)."""
        originals = {id(fn) for fn in self._originals.values()}
        left = []
        for mod_name, mod in _package_modules():
            for attr, obj in vars(mod).items():
                if id(obj) in originals:
                    left.append(f"{mod_name}.{attr}")
        return left

    # -- reduction ---------------------------------------------------------

    def _by_name(self):
        groups: dict[str, list[tuple[float, float]]] = {}
        for name, start, end in self.spans:
            groups.setdefault(name, []).append((start, end))
        return groups

    def _self_time(self, name: str, groups) -> float:
        """Union of ``name`` spans minus the union of spans nested inside them."""
        own = _union(groups.get(name, []))
        if not own:
            return 0.0
        starts = [s for s, _ in own]
        inner = []
        for other, intervals in groups.items():
            if other == name:
                continue
            for start, end in intervals:
                k = bisect.bisect_right(starts, start) - 1
                if k >= 0 and end <= own[k][1]:
                    inner.append((start, end))
        return _length(own) - _overlap(own, _union(inner))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in ``BENCHMARK.json``."""
        groups = self._by_name()

        def calls(name):
            return float(len(groups.get(name, ())))

        def secs(name):
            return _length(_union(groups.get(name, [])))

        out: dict[str, float] = {}
        ev = secs("wce.eval_vectors")
        cells = self.counts.get("wce.eval_vectors.cells", 0.0)
        out["wce.eval_vectors.calls"] = calls("wce.eval_vectors")
        out["wce.eval_vectors.s"] = ev
        out["wce.eval_vectors.cells"] = cells
        out["wce.eval_vectors.cells_per_s"] = cells / ev if ev > 0 else 0.0
        out["wce.eval_vectors.bytes_computed"] = self.counts.get("wce.eval_vectors.bytes", 0.0)
        out["wce.table_build.calls"] = calls("wce.table_build")
        out["wce.table_build.s"] = secs("wce.table_build")
        info = self._cache.cache_info()
        hits = info.hits - self._cache_start.hits
        lookups = hits + info.misses - self._cache_start.misses
        out["wce.table_cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["space.theta_terms.calls"] = calls("space.theta_terms")
        out["space.theta_terms.s"] = secs("space.theta_terms")
        out["space.theta_terms.terms"] = self.counts.get("space.theta_terms.terms", 0.0)
        de = secs("wce.wce2_dual_enum")
        work = self.counts.get("wce.dual_enum.work_est", 0.0)
        out["wce.dual_enum.calls"] = calls("wce.wce2_dual_enum")
        out["wce.dual_enum.s"] = de
        out["wce.dual_enum.work_est"] = work
        out["wce.dual_enum.s_per_mwork"] = de / (work / 1e6) if work > 0 else 0.0
        out["wce.kernel_double_sum.calls"] = calls("wce.wce2_kernel_double_sum")
        out["wce.kernel_double_sum.s"] = secs("wce.wce2_kernel_double_sum")
        out["wce.kernel_double_sum.pairs"] = self.counts.get("wce.kernel_double_sum.pairs", 0.0)
        out["space.a_lambda.calls"] = calls("space.a_lambda")
        out["space.a_lambda.s"] = secs("space.a_lambda")
        out["space.a_lambda.peak_mb"] = self.peaks.get("space.a_lambda", 0) / 2**20
        for fn in ("error_bound_min", "info_complexity_bound"):
            out[f"bounds.{fn}.calls"] = calls(f"bounds.{fn}")
            out[f"bounds.{fn}.s"] = secs(f"bounds.{fn}")
        out["bounds.lambda_probes"] = calls("bounds.log_product_bound")
        candidates = self.counts.get("search.korobov.candidates", 0.0)
        out["search.korobov.calls"] = calls("search.search_korobov")
        out["search.korobov.s"] = secs("search.search_korobov")
        out["search.korobov.self_s"] = self._self_time("search.search_korobov", groups)
        out["search.korobov.candidates"] = candidates
        out["search.candidate_errors.s"] = secs("search.candidate_errors")
        ties = self.counts.get("search.korobov.ties", 0.0)
        out["search.ties_ratio"] = ties / candidates if candidates else 0.0
        out["lattice.next_prime.calls"] = calls("lattice.next_prime")
        out["lattice.next_prime.s"] = secs("lattice.next_prime")
        out["tract.trace.cells"] = self.counts.get("tract.trace.cells", 0.0)
        out["tract.trace.s"] = secs("tract.st_ratio_trace")
        out["qmc.convergence_study.rows"] = self.counts.get("qmc.convergence_study.rows", 0.0)
        out["qmc.convergence_study.s"] = secs("qmc.convergence_study")
        out["cli.self_s"] = self._self_time(CLI_SPAN, groups)
        return out

    def function_table(self) -> list[tuple[str, int, float]]:
        """(span name, calls, union seconds) for every recorded name."""
        groups = self._by_name()
        rows = [(name, len(iv), _length(_union(iv))) for name, iv in groups.items()]
        return sorted(rows, key=lambda row: -row[2])

