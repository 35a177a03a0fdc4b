"""Estimator composition, split-point search and permutation normalization.

An estimator pairs a descriptor builder (fitted once per window) with a
similarity that can be evaluated at any split point.  ``statistics_at``
maps split times to ranks (the number of samples at or before the split)
for ``statistics``.  One split contract holds for every estimator and
metric: ``statistics`` takes ranks in [1, n-1] and raises ``InvalidSplitError``
for any other, as for a time before the first sample or at or after the
last (kNN-KL, which needs more than k samples a side, also within k of an end).
A fitted descriptor is a window plus a function of ranks: the kNN and
kernel estimators bind their fitted graph or Gram to a ``neighbor_kernel``
statistic, and a binning or tree descriptor holds one cumulative histogram
over the stacked cells of its partitions.  Its scan takes the ranks in
blocks; per block it gathers the counts of all cells once, divides each
side by its sample count, makes one metric pass that gives a row per
partition, and folds the rows in partition order (max over binnings, sum
then mean over trees).
``Estimator.fit_each`` fits a sequence of windows lazily; the moment forest
overrides it to grow the forests of all windows in lockstep.
Scanning all candidate splits yields a statistic trace, the arg-max split
estimate and, after permutation normalization, a p-value.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import neighbor_kernel
from .errors import InvalidSplitError, ParameterError
from .histograms import CumulativeHistogram, histogram_metric
from .moment_tree import MomentTreeConfig, VARIANT_DT, VARIANT_RF, fit_moment_forest, fit_moment_forests
from .neighbor_kernel import (
    build_kernel_gram,
    build_neighbor_graph,
    build_neighbor_lists,
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
    build_random_trees,
    stacked_cells,
)
from .seeding import as_generator
from .windows import Window, _checked_ranks, candidate_split_times, permute_timestamps


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
    [1, n-1] and raises ``InvalidSplitError`` for any other; a subclass
    that computes it itself overrides the method instead of passing one.
    """

    def __init__(self, window: Window, statistics=None):
        self.window = window
        if statistics is not None:
            self.statistics = statistics

    def statistics_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.statistics(np.searchsorted(self.window.t, ts, side="right"))

    def statistics(self, ranks: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Estimator:
    """Descriptor builder + similarity pair: ``fit`` returns a ``Descriptor``
    holding only what its statistic reads, and ``name`` is the estimator id.
    """

    name: str = "estimator"

    def fit(self, w: Window, seed=None) -> Descriptor:
        raise NotImplementedError

    def fit_each(self, windows, rngs):
        """The descriptor of each window in turn, window i fitted from
        ``rngs[i]``; lazy, so only the descriptor in use is alive."""
        return (self.fit(w, rng) for w, rng in zip(windows, rngs))


class _PartitionDescriptor(Descriptor):
    """One cumulative histogram over the stacked cells of all partitions,
    scored in one metric pass per block of ranks; several independent
    binnings act as one descriptor via the max."""

    _combine, _start = np.maximum, -np.inf

    def __init__(self, partitions, w: Window, metric):
        super().__init__(w)
        self.metric = metric
        self.partitions = list(partitions)
        if not self.partitions:
            raise ParameterError("a partition descriptor needs at least one partition")
        self._hist = CumulativeHistogram(stacked_cells(self.partitions, w.x), w.t, [p.n_cells for p in self.partitions])

    def statistics(self, ranks):
        ranks = _checked_ranks(ranks, self._hist.n)
        out = np.empty(len(ranks))
        # blocks of ranks keep the metric's largest temporary, the counts of
        # both sides as one (cells x 2 ranks) block, within the sweep budget
        for block in neighbor_kernel._row_blocks(len(ranks), 2 * self._hist.n_cells):
            rows = self._hist.metric_rows(ranks[block], self.metric)
            # a sequential fold from _start in partition order, so the forest's
            # sum adds its trees one at a time, as a loop would
            rows[0] = self._combine(self._start, rows[0])
            out[block] = self._combine.accumulate(rows, axis=0)[-1]
        return out


class _ForestDescriptor(_PartitionDescriptor):
    """Moment-forest leaf histograms, aggregated by the mean over trees."""

    _combine, _start = np.add, 0.0

    def __init__(self, forest, w: Window, metric):
        super().__init__([tree.partition for tree in forest.trees], w, metric)
        self.forest = forest

    def statistics(self, ranks):
        return super().statistics(ranks) / len(self.partitions)


class PartitionEstimator(Estimator):
    """Generic binning/tree estimator: build partitions once, scan cheaply;
    ``builder(w, rng)`` returns the list of partitions."""

    def __init__(self, name, builder, metric="tv"):
        self.name = name
        self._builder = builder
        self.metric = histogram_metric(metric)

    def fit(self, w: Window, seed=None) -> Descriptor:
        return _PartitionDescriptor(self._builder(w, as_generator(seed)), w, self.metric)


def _at_least(low, **values) -> None:
    """Reject a parameter below ``low`` when the estimator is built: the
    check needs no data, so it fails before any window is drawn."""
    for name, value in values.items():
        if not value >= low:
            raise ParameterError(f"{name} must be >= {low}, got {value!r}")


def _check_binning(bins: int, edge_mode: str, n_axes: int | None = None) -> None:
    _at_least(2, bins=bins)
    if n_axes is not None:
        _at_least(1, n_axes=n_axes)
    if edge_mode not in ("equidistant", "equilikely"):
        raise ParameterError(f"unknown edge_mode {edge_mode!r}; known: ['equidistant', 'equilikely']")


def marginal_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> PartitionEstimator:
    _check_binning(bins, edge_mode)
    return PartitionEstimator("marg", lambda w, rng: build_marginal(w, bins, edge_mode), metric)


def random_projection_estimator(
    n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv"
) -> PartitionEstimator:
    _check_binning(bins, edge_mode, n_axes)
    return PartitionEstimator(
        "rnd_pj", lambda w, rng: build_random_projection(w, n_axes, bins, edge_mode, rng), metric
    )


def pca_projection_estimator(n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv") -> PartitionEstimator:
    _check_binning(bins, edge_mode, n_axes)
    return PartitionEstimator("pca", lambda w, rng: build_pca_projection(w, n_axes, bins, edge_mode), metric)


def grid_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> PartitionEstimator:
    _check_binning(bins, edge_mode)
    return PartitionEstimator("grid", lambda w, rng: [build_grid(w, bins, edge_mode)], metric)


def random_tree_estimator(
    n_leaves: int = 16, min_leaf: int = 5, n_trees: int = 8, metric: str = "tv"
) -> PartitionEstimator:
    """Ensemble of independently grown random trees, aggregated by max."""
    _at_least(2, n_leaves=n_leaves)
    _at_least(1, min_leaf=min_leaf, n_trees=n_trees)
    return PartitionEstimator(
        "rnd_tree",
        lambda w, rng: build_random_trees(w, n_trees, n_leaves, rng, min_leaf),
        metric,
    )


def kdq_tree_estimator(min_side: float = 0.05, min_count: int = 10, metric: str = "tv") -> PartitionEstimator:
    if not min_side > 0:
        raise ParameterError(f"min_side must be positive, got {min_side!r}")
    return PartitionEstimator("kdq", lambda w, rng: [build_kdq_tree(w, min_side, min_count)], metric)


class MomentForestEstimator(Estimator):
    """Moment-tree ensemble estimator (time-aware descriptor)."""

    def __init__(
        self,
        n_trees: int = 16,
        variant: str = VARIANT_RF,
        config: MomentTreeConfig | None = None,
        metric: str = "tv",
    ):
        _at_least(1, n_trees=n_trees)
        if variant not in (VARIANT_DT, VARIANT_RF):
            raise ParameterError(f"unknown variant {variant!r}; known: {[VARIANT_DT, VARIANT_RF]}")
        self.name = variant
        self.n_trees = n_trees
        self.config = config or MomentTreeConfig()
        self.metric = histogram_metric(metric)

    def fit(self, w: Window, seed=None) -> Descriptor:
        forest = fit_moment_forest(w, self.n_trees, self.config, seed, self.name)
        return _ForestDescriptor(forest, w, self.metric)

    def fit_each(self, windows, rngs):
        """As ``Estimator.fit_each``, but the forests grow in lockstep
        (``fit_moment_forests``) and equal what ``fit`` gives each window alone; the descriptors, which hold the leaf
        histograms, are built one at a time as they are asked for."""
        forests = fit_moment_forests(windows, self.n_trees, self.config, rngs, self.name)
        return (_ForestDescriptor(forest, w, self.metric) for forest, w in zip(forests, windows))


class LddEstimator(Estimator):
    """Local drift degree estimator, the per-point values aggregated by
    'mean' or 'max': a fit keeps each sample's k nearest as an (n, k) index
    set (no distances, no sort)."""

    name = "ldd"

    def __init__(self, k: int = 10, aggregation: str = "mean"):
        if aggregation not in ("mean", "max"):
            raise ParameterError(f"unknown aggregation {aggregation!r}; known: ['mean', 'max']")
        _at_least(1, k=k)
        self.k = k
        self.aggregation = aggregation

    def fit(self, w: Window, seed=None) -> Descriptor:
        lists = build_neighbor_lists(w, self.k)
        return Descriptor(w, functools.partial(ldd_statistics, lists, aggregation=self.aggregation))


class KnnKlEstimator(Estimator):
    """kNN estimate of KL(before || after): a fit keeps the ``NeighborGraph``
    of distance rows."""

    name = "knn_kl"

    def __init__(self, k: int = 2):
        _at_least(1, k=k)
        self.k = k

    def fit(self, w: Window, seed=None) -> Descriptor:
        return Descriptor(w, functools.partial(knn_kls, build_neighbor_graph(w, self.k)))


class MmdEstimator(Estimator):
    """Biased Gaussian-kernel MMD estimator."""

    name = "mmd"

    def __init__(self, bandwidth: float | str = "median"):
        neighbor_kernel._check_bandwidth(bandwidth)
        self.bandwidth = bandwidth

    def fit(self, w: Window, seed=None) -> Descriptor:
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
    try:
        n_perms = operator.index(n_perms)
    except TypeError:
        raise ParameterError(f"n_perms must be an integer, got {n_perms!r}") from None
    if n_perms < 19:
        raise ParameterError("n_perms must be at least 19")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    rng = as_generator(seed)
    verdict = scan_splits(estimator, w, rng, min_side)
    exceed = sum(
        scan_splits(estimator, permute_timestamps(w, rng), rng, min_side).max_stat >= verdict.max_stat
        for _ in range(n_perms)
    )
    # p = (1 + #{replicates >= observed}) / (n_perms + 1), never zero (Phipson & Smyth 2010)
    p = (1 + exceed) / (n_perms + 1)
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
