"""Cumulative cell histograms and discrete-distribution divergences.

The cumulative histogram stores, per cell, prefix counts over arrival
order; a descriptor builds one over the stacked cells of all its
partitions (``partitions.stacked_cells``, one row per partition).  After
that one build, the before/after histograms of any split come from a
prefix subtraction whose cost depends on the number of cells, not the
window length; that is what makes every binning and tree descriptor cheap
to scan over all candidate split points.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSplitError, ParameterError

# Above this many prefix entries (cells * (n+1)) in any row of cells, the dense matrix is
# replaced by per-cell sorted arrival ranks; lookups stay equivalent.
DENSE_PREFIX_LIMIT = 2_000_000


class CumulativeHistogram:
    """Arrival-ordered prefix counts of cell occupancy.

    Parameters
    ----------
    cells : int array of shape (n,) or (P, n)
        Cell index of each sample, aligned with ``times``; each row of a 2-D
        array adds one count per sample, in ids above the earlier rows'.
    times : float array of shape (n,)
        Sorted, non-decreasing timestamps.
    n_cells : int, or one int per row of 2-D ``cells``
        Number of cells (of each row).
    """

    def __init__(self, cells, times, n_cells):
        cells = np.asarray(cells, dtype=np.int64)
        times = np.asarray(times, dtype=float)
        rows = cells if cells.ndim == 2 else cells[None]
        sizes = np.reshape(np.asarray(n_cells, dtype=np.int64), -1)
        if times.ndim != 1 or rows.shape != (len(sizes), len(times)):
            raise ParameterError("cells and times must be aligned, with one n_cells per row of cells")
        if len(times) and np.any(np.diff(times) < 0):
            raise ParameterError("times must be sorted non-decreasing")
        lo = (np.cumsum(sizes) - sizes)[:, None]
        if np.any((rows < lo) | (rows >= lo + sizes[:, None])):
            raise ParameterError("cell index out of range")
        self.n = len(times)
        self.n_cells = int(sizes.sum())
        self.times = times
        self.totals = np.bincount(rows.ravel(), minlength=self.n_cells).astype(np.int64)
        # dense only if each row's own prefix would be, so a stack of
        # partitions never holds more than their separate prefixes
        self._prefix = self._ranks = None
        if sizes.max(initial=0) * (self.n + 1) <= DENSE_PREFIX_LIMIT:
            self._prefix = np.zeros((self.n_cells, self.n + 1), dtype=np.int32)
            # rows own disjoint cells, so no (cell, rank) entry is hit twice
            self._prefix[rows, np.arange(1, self.n + 1)] = 1
            np.cumsum(self._prefix, axis=1, out=self._prefix)
        else:
            order = np.argsort(rows.ravel(), kind="stable") % max(self.n, 1)
            self._ranks = np.split(order, np.cumsum(self.totals)[:-1])

    def counts_before_ranks(self, ranks, cells: slice = slice(None)) -> np.ndarray:
        """Counts of the cells in ``cells`` among the first ``rank`` arrivals, per queried rank.

        Returns an array of shape (number of cells, len(ranks)).
        """
        ranks = np.atleast_1d(np.asarray(ranks, dtype=np.int64))
        if len(ranks) and (ranks.min() < 0 or ranks.max() > self.n):
            raise ParameterError("rank out of range")
        if self._prefix is not None:
            return self._prefix[cells, ranks].astype(np.int64)
        # column-major like the dense path's gather, so the metrics' sums
        # over cells run in the same order on both paths
        lists = self._ranks[cells]
        out = np.empty((len(lists), len(ranks)), dtype=np.int64, order="F")
        for c, cell_ranks in enumerate(lists):
            out[c] = np.searchsorted(cell_ranks, ranks, side="left")
        return out

    def counts_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Before/after cell counts of the split at time ``t``."""
        rank = int(np.searchsorted(self.times, float(t), side="right"))
        if rank <= 0 or rank >= self.n:
            raise InvalidSplitError(f"split leaves an empty side (rank={rank}, n={self.n})")
        before = self.counts_before_ranks([rank])[:, 0]
        return before, self.totals - before


def recount_histograms(cells, times, n_cells: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch recount of per-cell counts on each side of ``t``.

    Brute-force reference for the prefix structure; intentionally simple.
    """
    cells = np.asarray(cells)
    times = np.asarray(times)
    mask = times <= t
    before = np.bincount(cells[mask], minlength=n_cells).astype(np.int64)
    after = np.bincount(cells[~mask], minlength=n_cells).astype(np.int64)
    return before, after


# ---------------------------------------------------------------------------
# Discrete distributions and divergences


def to_distribution(counts, smoothing: float = 0.0) -> np.ndarray:
    """Normalize counts (or any non-negative weights) into probabilities.

    ``smoothing`` is a per-cell Laplace pseudo-count added before
    normalization.  Works column-wise on (n_cells, m) inputs.
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ParameterError("negative counts")
    total = counts.sum(axis=0) + smoothing * counts.shape[0]
    if np.any(total <= 0):
        raise ParameterError("cannot normalize an empty histogram")
    return (counts + smoothing) / total


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ParameterError(f"mismatched cell sets: {p.shape} vs {q.shape}")
    return p, q


def total_variation(p, q) -> float | np.ndarray:
    """Total variation distance, 0.5 * sum |p - q|, in [0, 1]."""
    p, q = _check_pair(p, q)
    return 0.5 * np.abs(p - q).sum(axis=0)


def hellinger(p, q) -> float | np.ndarray:
    """Hellinger distance sqrt(0.5 * sum (sqrt p - sqrt q)^2), in [0, 1]."""
    p, q = _check_pair(p, q)
    return np.sqrt(0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=0))


def kl_divergence(p, q) -> float | np.ndarray:
    """Kullback-Leibler divergence sum p log(p/q), natural log.

    A cell with p > 0 = q yields inf (not an error).
    """
    p, q = _check_pair(p, q)
    active = p > 0
    log_p = np.log(p, where=active, out=np.zeros_like(p))
    log_q = np.log(q, where=q > 0, out=np.full_like(q, -np.inf))
    with np.errstate(invalid="ignore"):
        terms = np.where(active, p * (log_p - log_q), 0.0)
    return terms.sum(axis=0)


def jensen_shannon(p, q) -> float | np.ndarray:
    """Jensen-Shannon metric: sqrt(0.5 KL(p||m) + 0.5 KL(q||m)), m=(p+q)/2.

    Bounded by sqrt(log 2) for the natural log.
    """
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)
    js2 = 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)
    return np.sqrt(np.maximum(js2, 0.0))


#: Laplace pseudo-count per cell count for KL used as a drift statistic.
KL_SMOOTHING = 0.5

#: Names accepted by ``histogram_metric``.
METRICS = ("tv", "hellinger", "js", "kl")


def histogram_metric(name: str):
    """Build a metric on count pairs: (before_counts, after_counts) -> value.

    Each side is normalized by its own total.  ``name`` is one of
    ``METRICS``.  For 'kl' (before || after) each cell count gets the
    ``KL_SMOOTHING`` pseudo-count before normalization, which keeps the
    statistic finite on zero cells.
    """
    name = name.lower()
    if name not in METRICS:
        raise ParameterError(f"unknown metric {name!r}")
    alpha = KL_SMOOTHING if name == "kl" else 0.0

    def metric(counts_before, counts_after):
        p = to_distribution(counts_before, alpha)
        q = to_distribution(counts_after, alpha)
        if name == "tv":
            return total_variation(p, q)
        if name == "hellinger":
            return hellinger(p, q)
        if name == "js":
            return jensen_shannon(p, q)
        return kl_divergence(p, q)

    metric.name = name
    return metric
