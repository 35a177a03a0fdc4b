"""Estimator composition, split-point search and permutation normalization.

An estimator pairs a descriptor builder (fitted once per window) with a
similarity that can be evaluated at any split point.  ``statistics_at``
maps split times to ranks (the number of samples at or before the split)
and rejects an empty side for every descriptor, which works on ranks.
A fitted descriptor is a window plus a function of ranks: the kNN and
kernel estimators bind their fitted graph or Gram to a ``neighbor_kernel``
statistic, and a binning or tree descriptor holds one cumulative histogram
over the stacked cells of its partitions and runs the metric per partition.
``Estimator.fit_each`` fits a sequence of windows lazily; the moment forest
overrides it to grow the forests of all windows in lockstep.
Scanning all candidate splits yields a statistic trace, the arg-max split
estimate and, after permutation normalization, a p-value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSplitError, ParameterError
from .histograms import CumulativeHistogram, histogram_metric
from .moment_tree import MomentTreeConfig, VARIANT_RF, fit_moment_forest, fit_moment_forests, truncate_reference
from .neighbor_kernel import (
    build_kernel_gram,
    build_neighbor_graph,
    knn_kls,
    ldd_statistics,
    mmds_from_gram,
)
from .partitions import (
    build_grid,
    build_kdq_tree,
    build_marginal,
    build_pca_projection,
    build_random_projection,
    build_random_tree,
    stacked_cells,
)
from .seeding import as_generator
from .windows import Window, candidate_split_times, permute_timestamps


@dataclass(frozen=True)
class DriftVerdict:
    """Trace of the drift statistic over candidate splits plus the arg-max."""

    split_times: np.ndarray
    statistics: np.ndarray
    t_hat: float
    max_stat: float
    p_value: float | None = None
    detected: bool | None = None


class Descriptor:
    """Fitted descriptor: evaluates the drift statistic at split times.

    ``statistics(ranks)`` gives the statistic at before-side counts in
    [1, n-1]; a subclass that computes it itself overrides the method
    instead of passing one.
    """

    def __init__(self, window: Window, statistics=None):
        self.window = window
        if statistics is not None:
            self.statistics = statistics

    def statistics_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ranks = np.searchsorted(self.window.t, ts, side="right")
        if len(ranks) and (ranks.min() <= 0 or ranks.max() >= len(self.window)):
            raise InvalidSplitError("split leaves an empty side")
        return self.statistics(ranks)

    def statistics(self, ranks: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Estimator:
    """Descriptor builder + similarity pair: ``fit`` returns a ``Descriptor``
    holding only what its statistic reads, and ``name`` is the estimator id.
    """

    name: str = "estimator"

    def fit(self, w: Window, seed=None, drift_time: float | None = None) -> Descriptor:
        raise NotImplementedError

    def fit_each(self, windows, rngs, drift_times):
        """The descriptor of each window in turn, window i fitted from
        ``rngs[i]``; lazy, so only the descriptor in use is alive."""
        return (self.fit(w, rng, drift_time=t) for w, rng, t in zip(windows, rngs, drift_times))


class _PartitionDescriptor(Descriptor):
    """One cumulative histogram over the stacked cells of all partitions;
    several independent binnings act as one descriptor via the max."""

    _combine, _start = np.maximum, -np.inf

    def __init__(self, partitions, w: Window, metric):
        super().__init__(w)
        self.metric = metric
        self.partitions = list(partitions)
        sizes = [p.n_cells for p in self.partitions]
        self._hist = CumulativeHistogram(stacked_cells(self.partitions, w.x), w.t, sizes)
        ends = np.cumsum(sizes)
        self._slices = [slice(end - size, end) for end, size in zip(ends, sizes)]

    def statistics(self, ranks):
        acc = np.full(len(ranks), self._start)
        # in place and in partition order: the forest's sum stays sequential
        for cells in self._slices:
            before = self._hist.counts_before_ranks(ranks, cells)
            self._combine(acc, self.metric(before, self._hist.totals[cells, None] - before), out=acc)
        return acc


class _ForestDescriptor(_PartitionDescriptor):
    """Moment-forest leaf histograms, aggregated by the mean over trees."""

    _combine, _start = np.add, 0.0

    def __init__(self, forest, w: Window, metric):
        super().__init__(forest.trees, w, metric)
        self.forest = forest

    def statistics(self, ranks):
        return super().statistics(ranks) / len(self._slices)


class PartitionEstimator(Estimator):
    """Generic binning/tree estimator: build partitions once, scan cheaply."""

    def __init__(self, name, builder, metric="tv"):
        self.name = name
        self._builder = builder
        self.metric = histogram_metric(metric)

    def fit(self, w: Window, seed=None, drift_time: float | None = None) -> Descriptor:
        parts = self._builder(w, as_generator(seed))
        if not isinstance(parts, (list, tuple)):
            parts = [parts]
        return _PartitionDescriptor(parts, w, self.metric)


def marginal_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> PartitionEstimator:
    return PartitionEstimator("marg", lambda w, rng: build_marginal(w, bins, edge_mode), metric)


def random_projection_estimator(
    n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv"
) -> PartitionEstimator:
    return PartitionEstimator(
        "rnd_pj", lambda w, rng: build_random_projection(w, n_axes, bins, edge_mode, rng), metric
    )


def pca_projection_estimator(n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv") -> PartitionEstimator:
    return PartitionEstimator("pca", lambda w, rng: build_pca_projection(w, n_axes, bins, edge_mode), metric)


def grid_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> PartitionEstimator:
    return PartitionEstimator("grid", lambda w, rng: build_grid(w, bins, edge_mode), metric)


def random_tree_estimator(
    n_leaves: int = 16, min_leaf: int = 5, n_trees: int = 8, metric: str = "tv"
) -> PartitionEstimator:
    """Ensemble of independently grown random trees, aggregated by max."""
    return PartitionEstimator(
        "rnd_tree",
        lambda w, rng: [build_random_tree(w, n_leaves, rng, min_leaf) for _ in range(n_trees)],
        metric,
    )


def kdq_tree_estimator(min_side: float = 0.05, min_count: int = 10, metric: str = "tv") -> PartitionEstimator:
    return PartitionEstimator("kdq", lambda w, rng: build_kdq_tree(w, min_side, min_count), metric)


class MomentForestEstimator(Estimator):
    """Moment-tree ensemble estimator (time-aware descriptor)."""

    def __init__(
        self,
        n_trees: int = 16,
        variant: str = VARIANT_RF,
        config: MomentTreeConfig | None = None,
        skip_fraction: float = 0.0,
        metric: str = "tv",
    ):
        self.name = "rf" if variant == VARIANT_RF else "dt"
        self.n_trees = n_trees
        self.variant = variant
        self.config = config or MomentTreeConfig()
        self.skip_fraction = skip_fraction
        self.metric = histogram_metric(metric)

    def _train(self, w: Window, drift_time: float | None) -> Window:
        if self.skip_fraction > 0.0:
            return truncate_reference(w, self.skip_fraction, drift_time=drift_time)
        return w

    def fit(self, w: Window, seed=None, drift_time: float | None = None) -> Descriptor:
        forest = fit_moment_forest(self._train(w, drift_time), self.n_trees, self.config, seed, self.variant)
        return _ForestDescriptor(forest, w, self.metric)

    def fit_each(self, windows, rngs, drift_times):
        """As ``Estimator.fit_each``, but the forests grow in lockstep
        (``fit_moment_forests``) and equal what ``fit`` gives each window alone; the descriptors, which hold the leaf
        histograms, are built one at a time as they are asked for."""
        trains = [self._train(w, t) for w, t in zip(windows, drift_times)]
        forests = fit_moment_forests(trains, self.n_trees, self.config, rngs, self.variant)
        return (_ForestDescriptor(forest, w, self.metric) for forest, w in zip(forests, windows))


class KnnEstimator(Estimator):
    """k-nearest-neighbor estimator with LDD or kNN-KL similarity."""

    def __init__(self, k: int = 10, statistic: str = "ldd", aggregation: str | None = None):
        """``aggregation`` of the per-point LDD values is 'mean' (default) or
        'max'; the kNN-KL statistic takes none."""
        if statistic not in ("ldd", "kl"):
            raise ParameterError(f"unknown knn statistic {statistic!r}")
        if statistic == "kl" and aggregation is not None:
            raise ParameterError("the knn_kl statistic takes no aggregation")
        if aggregation not in (None, "mean", "max"):
            raise ParameterError(f"unknown aggregation {aggregation!r}; known: ['mean', 'max']")
        self.name = "ldd" if statistic == "ldd" else "knn_kl"
        self.k = k
        self.statistic = statistic
        self.aggregation = aggregation

    def fit(self, w: Window, seed=None, drift_time: float | None = None) -> Descriptor:
        # LDD reads each point's k nearest; the kNN-KL sweep reads whole rows
        if self.statistic == "ldd":
            graph = build_neighbor_graph(w, self.k, self.k)
            return Descriptor(w, functools.partial(ldd_statistics, graph, aggregation=self.aggregation or "mean"))
        return Descriptor(w, functools.partial(knn_kls, build_neighbor_graph(w, self.k)))


class MmdEstimator(Estimator):
    """Biased Gaussian-kernel MMD estimator."""

    def __init__(self, bandwidth="median"):
        self.name = "mmd"
        self.bandwidth = bandwidth

    def fit(self, w: Window, seed=None, drift_time: float | None = None) -> Descriptor:
        return Descriptor(w, functools.partial(mmds_from_gram, build_kernel_gram(w, self.bandwidth)))


def scan_splits(estimator: Estimator, w: Window, seed=None, min_side: int | None = None) -> DriftVerdict:
    """Fit once, evaluate the statistic at every margin-safe candidate split.

    Candidates are the distinct sample timestamps whose sides both meet the
    margin; arg-max ties resolve to the earliest time.
    """
    ts = candidate_split_times(w, min_side)
    if len(ts) == 0:
        raise ParameterError("no candidate split satisfies the margin constraint")
    descriptor = estimator.fit(w, seed)
    stats = descriptor.statistics_at(ts)
    best = int(np.argmax(stats))
    return DriftVerdict(ts, stats, float(ts[best]), float(stats[best]))


def _permutation_pvalue(statistic, w: Window, observed: float, n_perms: int, rng) -> float:
    """p = (1 + #{replicates >= observed}) / (n_perms + 1), where each
    replicate is ``statistic`` of ``w`` with its timestamps re-paired at
    random (Phipson & Smyth 2010: never zero)."""
    exceed = 0
    for _ in range(n_perms):
        if statistic(permute_timestamps(w, rng)) >= observed:
            exceed += 1
    return (1 + exceed) / (n_perms + 1)


def detect_drift(
    estimator: Estimator,
    w: Window,
    n_perms: int = 99,
    alpha: float = 0.05,
    seed=None,
    min_side: int | None = None,
) -> DriftVerdict:
    """Full detection: scan for the best split and permutation-normalize it.

    Each replicate refits the descriptor from scratch on the permuted window
    and takes its scan maximum.
    """
    if n_perms < 19:
        raise ParameterError("n_perms must be at least 19")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    rng = as_generator(seed)
    verdict = scan_splits(estimator, w, rng, min_side)
    p = _permutation_pvalue(
        lambda v: scan_splits(estimator, v, rng, min_side).max_stat, w, verdict.max_stat, n_perms, rng
    )
    return replace(verdict, p_value=p, detected=bool(p <= alpha))


def permutation_normalize(
    estimator: Estimator, w: Window, n_perms: int = 99, seed=None, min_side: int | None = None
) -> float:
    """Permutation p-value of the scan maximum, as computed by ``detect_drift``."""
    return detect_drift(estimator, w, n_perms, seed=seed, min_side=min_side).p_value


def classifier_tv_oracle(partition, w: Window, t) -> float:
    """Best reweighted-classifier advantage over the partition's leaf maps.

    Brute-forces every 0/1 labeling of the cells, computes the balanced
    misclassification rate of predicting 'after the split' and returns
    1/2 minus the minimum.  Must coincide with half the total variation of
    the per-side leaf histograms.
    """
    L = partition.n_cells
    if L > 20:
        raise ParameterError("refusing brute force over more than 2^20 labelings")
    t = float(t)
    cells = partition.cell_of(w.x)
    after = w.t > t
    n_after = int(after.sum())
    n_before = len(w) - n_after
    if n_after == 0 or n_before == 0:
        raise InvalidSplitError("split leaves an empty side")
    c_after = np.bincount(cells[after], minlength=L) / n_after
    c_before = np.bincount(cells[~after], minlength=L) / n_before
    best = np.inf
    chunk = 1 << 14
    for start in range(0, 1 << L, chunk):
        labelings = np.arange(start, min(start + chunk, 1 << L), dtype=np.uint32)
        bits = ((labelings[:, None] >> np.arange(L, dtype=np.uint32)) & 1).astype(float)
        # predicting 'after' in a cell misclassifies before-mass, and vice versa
        loss = 0.5 * (bits @ c_before + (1.0 - bits) @ c_after)
        best = min(best, float(loss.min()))
    return 0.5 - best
