"""Spans around driftbench's public functions, patched in from outside the
package, and the per-layer metrics derived from them.

``Tracer.install`` replaces each traced function by a wrapper in every
driftbench module namespace that binds it (``detector.build_neighbor_graph``
as well as ``neighbor_kernel.build_neighbor_graph``), and each traced method
on its class.  ``Tracer.remove`` puts every original back.  A span records
(name, start, end, parent span, item) plus an optional annotation such as an
estimator id or a byte count; spans stay in memory until the run ends.

Targets that do not exist (renamed or removed) are skipped, so the metrics
they feed read 0 instead of the run failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

import numpy as np

#: (module, function) -> role; a role feeds one or more per-layer metrics
FUNCTION_ROLES = {
    ("cli", "main"): "cli.main",
    ("windows", "window_from_csv"): "windows.ingest",
    ("windows", "permute_timestamps"): "windows.permute",
    ("windows", "make_paired"): "windows.make_paired",
    ("harness", "make_concept_pair"): "generators.draw",
    ("harness", "run_grid"): "harness",
    ("harness", "run_cell"): "harness.run_cell",
    ("harness", "collect_records"): "harness.collect",
    ("harness", "evaluate_pair"): "harness.evaluate_pair",
    ("moment_tree", "fit_moment_forest"): "moment_tree.fit",
    ("moment_tree", "fit_moment_tree"): "moment_tree.fit",
    ("neighbor_kernel", "build_neighbor_graph"): "neighbor_kernel.graph",
    ("neighbor_kernel", "build_kernel_gram"): "neighbor_kernel.gram",
    ("neighbor_kernel", "ldd_statistics"): "neighbor_kernel.ldd",
    ("neighbor_kernel", "knn_kls"): "neighbor_kernel.knn_kl",
    ("neighbor_kernel", "mmds_from_gram"): "neighbor_kernel.mmd",
    ("detector", "scan_splits"): "detector.scan_splits",
    ("detector", "detect_drift"): "detector.detect_drift",
}

MODULES = ("cli", "windows", "generators", "harness", "partitions", "histograms",
           "moment_tree", "neighbor_kernel", "detector")

HARNESS_ROLES = ("harness", "harness.run_cell", "harness.collect", "harness.evaluate_pair")


def _nbytes(obj) -> int:
    """Bytes held in the numpy arrays of an object's fields."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(a.nbytes for a in value if isinstance(a, np.ndarray))
    return total


def _tree_counts(fitted) -> tuple[int, int]:
    """(trees, nodes) of a fitted moment tree or forest."""
    trees = getattr(fitted, "trees", (fitted,))
    return len(trees), sum(len(tree.partition.feature) for tree in trees)


class Tracer:
    """Records spans around driftbench calls while installed.

    ``item`` is stamped on every span opened while it is set; the caller sets
    it to identify the benchmark item being run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.roles: list[str] = []
        self.spans: list[list] = []
        self.item = None
        self.patched: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._estimator_of = weakref.WeakKeyDictionary()

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name: str, role: str, fn, annotate=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):  # spans of every install share one name table
            self.names.append(name)
            self.roles.append(role)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, tracer.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _annotate_fit(self, args, descriptor):
        name = args[0].name
        try:
            self._estimator_of[descriptor] = name
        except TypeError:  # a descriptor type that cannot be weakly referenced
            pass
        return name

    def _annotate_statistics(self, args, result):
        return (self._estimator_of.get(args[0], "unknown"), int(np.size(args[1])))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.patched = []
        modules = {name: importlib.import_module(f"driftbench.{name}") for name in MODULES}
        namespaces = [importlib.import_module("driftbench"), *modules.values()]

        functions = dict(FUNCTION_ROLES)
        for fname in vars(modules["partitions"]):
            if fname.startswith("build_"):
                functions[("partitions", fname)] = "partitions.build"
        annotations = {
            "moment_tree.fit": lambda args, result: _tree_counts(result),
            "neighbor_kernel.graph": lambda args, result: _nbytes(result),
            "neighbor_kernel.gram": lambda args, result: _nbytes(result),
            "detector.scan_splits": lambda args, result: args[0].name,
            "harness.run_cell": lambda args, result: int(result.status != "ok"),
        }
        for (mod, fname), role in functions.items():
            original = vars(modules[mod]).get(fname)
            if not inspect.isfunction(original):
                continue
            wrapper = self._wrapper(f"{mod}.{fname}", role, original, annotations.get(role))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)
            self.patched.append(f"{mod}.{fname}")

        for cls, attr, role, annotate in self._methods(modules):
            original = cls.__dict__[attr]
            self._patch(cls, attr, self._wrapper(f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{attr}",
                                                 role, original, annotate))
            self.patched.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def _methods(self, modules):
        """(class, attribute, role, annotate) for every traced method."""
        partition = getattr(modules["partitions"], "Partition", None)
        estimator = getattr(modules["detector"], "Estimator", None)
        histogram = getattr(modules["histograms"], "CumulativeHistogram", None)
        prefix_bytes = lambda args, result: _nbytes(args[0])  # noqa: E731
        for name, module in modules.items():
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                own = cls.__dict__
                if name == "generators" and inspect.isfunction(own.get("draw")):
                    yield cls, "draw", "generators.draw", None
                if partition and issubclass(cls, partition) and inspect.isfunction(own.get("cell_of")):
                    yield cls, "cell_of", "partitions.cell_of", None
                if estimator and issubclass(cls, estimator) and inspect.isfunction(own.get("fit")):
                    yield cls, "fit", "detector.fit", self._annotate_fit
                if inspect.isfunction(own.get("statistics_at")):
                    yield cls, "statistics_at", "detector.statistics", self._annotate_statistics
                if cls is histogram:
                    if inspect.isfunction(own.get("__init__")):
                        yield cls, "__init__", "histograms.prefix_build", prefix_bytes
                    if inspect.isfunction(own.get("counts_before_ranks")):
                        yield cls, "counts_before_ranks", "histograms.counts", None

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def dump(self) -> dict:
        """Spans in a JSON-ready form."""
        return {
            "fields": ["name", "start", "end", "parent", "item", "note"],
            "names": self.names,
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, passes: int, items: int, estimator_ids) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced pass, from the tracer's spans.

    Times are the inclusive time of the outermost span of a role (a role
    nested in itself counts once); self times subtract every child span;
    ``*_bytes`` are the largest single structure built.
    """
    spans = tracer.spans
    role_of = [tracer.roles[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]

    def outermost(i):
        p = spans[i][3]
        while p >= 0:
            if role_of[p] == role_of[i]:
                return False
            p = spans[p][3]
        return True

    by_role: dict[str, list[int]] = {}
    for i, role in enumerate(role_of):
        by_role.setdefault(role, []).append(i)

    def time_of(role):
        return sum(dur[i] for i in by_role.get(role, ()) if outermost(i)) / passes

    def count_of(role):
        return len(by_role.get(role, ())) / passes

    def notes(role):
        return [spans[i][5] for i in by_role.get(role, ())]

    def largest(role):
        return float(max(notes(role), default=0))

    m: dict[str, tuple[float, str]] = {}
    m["cli.detect_s"] = (time_of("cli.main"), "s")
    m["cli.self_s"] = (sum(self_time[i] for i in by_role.get("cli.main", ())) / passes, "s")
    m["windows.ingest_s"] = (time_of("windows.ingest"), "s")
    m["windows.permute_s"] = (time_of("windows.permute"), "s")
    m["windows.permute_calls"] = (count_of("windows.permute"), "count")
    m["windows.make_paired_s"] = (time_of("windows.make_paired"), "s")
    m["generators.draw_s"] = (time_of("generators.draw"), "s")
    m["partitions.build_s"] = (time_of("partitions.build"), "s")
    m["partitions.build_calls"] = (count_of("partitions.build"), "count")
    m["partitions.cell_of_s"] = (time_of("partitions.cell_of"), "s")
    m["histograms.prefix_build_s"] = (time_of("histograms.prefix_build"), "s")
    m["histograms.counts_s"] = (time_of("histograms.counts"), "s")
    m["histograms.prefix_bytes"] = (largest("histograms.prefix_build"), "B")
    m["moment_tree.fit_s"] = (time_of("moment_tree.fit"), "s")
    tree_notes = notes("moment_tree.fit")
    m["moment_tree.trees"] = (sum(n[0] for n in tree_notes) / passes, "count")
    m["moment_tree.nodes"] = (sum(n[1] for n in tree_notes) / passes, "count")
    m["neighbor_kernel.graph_s"] = (time_of("neighbor_kernel.graph"), "s")
    m["neighbor_kernel.graph_bytes"] = (largest("neighbor_kernel.graph"), "B")
    m["neighbor_kernel.gram_s"] = (time_of("neighbor_kernel.gram"), "s")
    m["neighbor_kernel.gram_bytes"] = (largest("neighbor_kernel.gram"), "B")
    m["neighbor_kernel.ldd_s"] = (time_of("neighbor_kernel.ldd"), "s")
    m["neighbor_kernel.knn_kl_s"] = (time_of("neighbor_kernel.knn_kl"), "s")
    m["neighbor_kernel.mmd_s"] = (time_of("neighbor_kernel.mmd"), "s")

    fit_s = {e: 0.0 for e in estimator_ids}
    for i in by_role.get("detector.fit", ()):
        if outermost(i):
            fit_s[spans[i][5]] = fit_s.get(spans[i][5], 0.0) + dur[i]
    scan_s = {e: 0.0 for e in estimator_ids}
    splits = {e: 0 for e in estimator_ids}
    for i in by_role.get("detector.statistics", ()):
        if outermost(i):
            est, n = spans[i][5]
            scan_s[est] = scan_s.get(est, 0.0) + dur[i]
            splits[est] = splits.get(est, 0) + n
    for e in estimator_ids:
        m[f"detector.fit_s.{e}"] = (fit_s[e] / passes, "s")
        m[f"detector.scan_s.{e}"] = (scan_s[e] / passes, "s")
        m[f"detector.per_split_us.{e}"] = (1e6 * scan_s[e] / splits[e] if splits[e] else 0.0, "us")

    # the permutation phase of detect_drift: everything after its first scan
    detect_spans = set(by_role.get("detector.detect_drift", ()))
    first_scan: dict[int, int] = {}
    for i in by_role.get("detector.scan_splits", ()):
        parent = spans[i][3]
        if parent in detect_spans and parent not in first_scan:
            first_scan[parent] = i
    perm = sum(dur[d] - (dur[first_scan[d]] if d in first_scan else 0.0) for d in detect_spans)
    m["detector.perm_s"] = (perm / passes, "s")
    fit_calls = len(by_role.get("detector.fit", ()))
    m["detector.fit_calls"] = (fit_calls / passes, "count")
    m["detector.splits_evaluated"] = (sum(splits.values()) / passes, "count")
    m["detector.fits_per_item"] = (fit_calls / items if items else 0.0, "ratio")

    m["harness.collect_s"] = (time_of("harness.collect"), "s")
    m["harness.evaluate_pair_s"] = (time_of("harness.evaluate_pair"), "s")
    m["harness.self_s"] = (sum(self_time[i] for r in HARNESS_ROLES for i in by_role.get(r, ())) / passes, "s")
    m["harness.cells_failed"] = (sum(notes("harness.run_cell")) / passes, "count")
    return m
