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
Every estimator id has a factory that checks each parameter with the check
its builder runs, and returns one ``Estimator``, an id and a fit;
``Estimator.fit_each`` fits a sequence of windows lazily or, for the moment
forests, grows all their forests in lockstep.
Scanning all candidate splits yields a statistic trace, the arg-max split
estimate and, after permutation normalization, a p-value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import moment_tree, neighbor_kernel, partitions
from .errors import DataError, InvalidSplitError, ParameterError, as_int
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
from .partitions import stacked_cells
from .seeding import as_generator
from .windows import Window, _checked_ranks, candidate_split_times, default_min_side, permute_timestamps


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
        return self.statistics(self.window.rank_of(ts))

    def statistics(self, ranks: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Estimator:
    """An estimator id and a fit: ``fit(w, seed)`` returns a ``Descriptor``
    holding only what its statistic reads.

    ``fit(w, rng)`` and, when given, the batch fit ``fit_each(windows, rngs)``,
    which returns the descriptors in window order, are stored as passed;
    ``params`` become attributes.
    """

    def __init__(self, name: str, fit, fit_each=None, **params):
        self.name = name
        self._fit, self._fit_each = fit, fit_each
        vars(self).update(params)

    def fit(self, w: Window, seed=None) -> Descriptor:
        return self._fit(w, as_generator(seed))

    def fit_each(self, windows, rngs):
        """The descriptor of each window in turn, window i fitted from
        ``rngs[i]``: by the batch fit when there is one, else lazily, so
        only the descriptor in use is alive."""
        if self._fit_each is not None:
            return self._fit_each(windows, rngs)
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


def partition_estimator(name: str, builder, metric: str = "tv") -> Estimator:
    """Binning/tree estimator: build partitions once, scan cheaply;
    ``builder(w, rng)`` returns the list of partitions."""
    metric = histogram_metric(metric)
    return Estimator(name, lambda w, rng: _PartitionDescriptor(builder(w, rng), w, metric))


def marginal_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> Estimator:
    bins = partitions._check_binning(bins, edge_mode)
    return partition_estimator("marg", lambda w, rng: partitions.build_marginal(w, bins, edge_mode), metric)


def random_projection_estimator(n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv") -> Estimator:
    bins, n_axes = partitions._check_binning(bins, edge_mode), partitions._check_axes(n_axes)
    return partition_estimator("rnd_pj", lambda w, rng: partitions.build_random_projection(w, n_axes, bins, edge_mode, rng), metric)


def pca_projection_estimator(n_axes: int | None = None, bins: int = 8, edge_mode: str = "equilikely", metric: str = "tv") -> Estimator:
    bins, n_axes = partitions._check_binning(bins, edge_mode), partitions._check_axes(n_axes)
    return partition_estimator("pca", lambda w, rng: partitions.build_pca_projection(w, n_axes, bins, edge_mode), metric)


def grid_estimator(bins: int = 4, edge_mode: str = "equidistant", metric: str = "tv") -> Estimator:
    bins = partitions._check_binning(bins, edge_mode)
    return partition_estimator("grid", lambda w, rng: [partitions.build_grid(w, bins, edge_mode)], metric)


def random_tree_estimator(n_leaves: int = 16, min_leaf: int = 5, n_trees: int = 8, metric: str = "tv") -> Estimator:
    """Ensemble of independently grown random trees, aggregated by max."""
    n_trees, n_leaves, min_leaf = partitions._check_random_trees(n_trees, n_leaves, min_leaf)
    return partition_estimator("rnd_tree", lambda w, rng: partitions.build_random_trees(w, n_trees, n_leaves, rng, min_leaf), metric)


def kdq_tree_estimator(min_side: float = 0.05, min_count: int = 10, metric: str = "tv") -> Estimator:
    """kdq-tree estimator; ``min_side`` may be any finite positive number (a
    feature is not split where half its range is below it)."""
    min_side, min_count = partitions._check_kdq(min_side, min_count)
    return partition_estimator("kdq", lambda w, rng: [partitions.build_kdq_tree(w, min_side, min_count)], metric)


def _moment_forest_estimator(variant: str, n_trees: int, degree: int, min_leaf: int, max_depth: int, metric: str) -> Estimator:
    """Moment-tree ensemble estimator (time-aware descriptor); a batch of
    windows grows its forests in lockstep, each equal to its lone fit, and
    the descriptors, which hold the leaf histograms, are built as asked for."""
    config = MomentTreeConfig(degree=degree, min_leaf=min_leaf, max_depth=max_depth)
    n_trees = moment_tree._check_forest(n_trees, variant)
    metric = histogram_metric(metric)

    def fit_each(windows, rngs):
        forests = fit_moment_forests(windows, n_trees, config, rngs, variant)
        return (_ForestDescriptor(forest, w, metric) for forest, w in zip(forests, windows))

    return Estimator(variant, lambda w, rng: _ForestDescriptor(fit_moment_forest(w, n_trees, config, rng, variant), w, metric), fit_each)


def rf_estimator(n_trees: int = 16, degree: int = 2, min_leaf: int = 10, max_depth: int = 8, metric: str = "tv") -> Estimator:
    """Moment forest of bootstrapped trees; ``max_depth=0`` makes each tree one leaf."""
    return _moment_forest_estimator(VARIANT_RF, n_trees, degree, min_leaf, max_depth, metric)


def dt_estimator(degree: int = 2, min_leaf: int = 10, max_depth: int = 8, metric: str = "tv") -> Estimator:
    """One tree: 'dt' draws nothing, so a second tree would be a copy;
    ``max_depth=0`` makes it one leaf."""
    return _moment_forest_estimator(VARIANT_DT, 1, degree, min_leaf, max_depth, metric)


def ldd_estimator(k: int = 10, aggregation: str = "mean") -> Estimator:
    """Local drift degree estimator, the per-point values aggregated by
    'mean' or 'max': a fit keeps each sample's k nearest as an (n, k) index
    set (no distances, no sort)."""
    k = neighbor_kernel._check_neighbors(k, aggregation)
    return Estimator(
        "ldd", lambda w, rng: Descriptor(w, functools.partial(ldd_statistics, build_neighbor_lists(w, k), aggregation=aggregation)), k=k
    )


def knn_kl_estimator(k: int = 2) -> Estimator:
    """kNN estimate of KL(before || after): a fit keeps the ``NeighborGraph``
    of distance rows."""
    k = neighbor_kernel._check_neighbors(k)
    return Estimator("knn_kl", lambda w, rng: Descriptor(w, functools.partial(knn_kls, build_neighbor_graph(w, k))), k=k)


def mmd_estimator(bandwidth: float | str = "median") -> Estimator:
    """Biased Gaussian-kernel MMD estimator; ``bandwidth`` is 'median' or any
    finite positive number."""
    neighbor_kernel._check_bandwidth(bandwidth)
    return Estimator("mmd", lambda w, rng: Descriptor(w, functools.partial(mmds_from_gram, build_kernel_gram(w, bandwidth))))


def scan_splits(estimator: Estimator, w: Window, seed=None, min_side: int | None = None) -> DriftVerdict:
    """Fit once, evaluate the statistic at every margin-safe candidate split.

    Candidates are the distinct sample timestamps whose sides both meet the
    margin; arg-max ties resolve to the earliest time.  No candidate is a
    ``DataError`` at the default margin, a ``ParameterError`` at a set one.
    """
    ts = candidate_split_times(w, min_side)
    if len(ts) == 0:
        if min_side is None:
            raise DataError(f"no split of the {len(w)} samples leaves the default margin of {default_min_side(len(w))} on each side")
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
    n_perms = as_int("n_perms", n_perms, 19)
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
