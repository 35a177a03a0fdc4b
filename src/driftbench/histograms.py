"""Cumulative cell histograms and the histogram metrics.

The cumulative histogram stores, per cell, prefix counts over arrival order;
a descriptor builds one over the stacked cells of all its partitions
(``partitions.stacked_cells``, one row per partition).  After that one build,
the before/after histograms of any split come from a prefix subtraction
whose cost depends on the number of cells, not the window length; that is
what makes every binning and tree descriptor cheap to scan over all
candidate split points.  A rank or time that leaves a side empty raises
``InvalidSplitError``, under the split rule of ``windows``.

Every metric is reached through ``histogram_metric(name)``, one of
``METRICS``; ``to_distribution`` and ``total_variation`` work on plain
distributions.  A scan scores the whole stack with ``metric_rows``: each
side's (cells x splits) counts over the side's sample count, every
partition's total, then the metric's row function, a row per partition.
Every step is elementwise except the sum over a partition's cells, which
runs on that partition's contiguous run of each column of a column-major
block, so each value has the bits a partition scored alone would have.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParameterError
from .windows import _checked_ranks, _ranks_at, _scan_rows

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
        self.sizes = sizes.tolist()
        self.times = times
        self.totals = np.bincount(rows.ravel(), minlength=self.n_cells).astype(np.int64)
        # dense only if each row's own prefix would be, so a stack of
        # partitions never holds more than their separate prefixes
        self._prefix = self._ranks = None
        if sizes.max(initial=0) * (self.n + 1) <= DENSE_PREFIX_LIMIT:
            # rank-major, so the counts of all cells at one rank are one
            # contiguous row: a scan gathers whole rows, and the prefix sum
            # down the ranks adds whole rows (``_scan_rows``) where a
            # stack has enough cells
            self._prefix = np.zeros((self.n + 1, self.n_cells), dtype=np.int32)
            # rows own disjoint cells, so no (rank, cell) entry is hit twice
            self._prefix[np.arange(1, self.n + 1), rows] = 1
            _scan_rows(np.add, self._prefix)
        else:
            order = np.argsort(rows.ravel(), kind="stable") % max(self.n, 1)
            self._ranks = np.split(order, np.cumsum(self.totals)[:-1])

    def counts_before_ranks(self, ranks) -> np.ndarray:
        """Counts of every cell among the first ``rank`` arrivals, per queried rank.

        Returns a column-major array of shape (n_cells, len(ranks)), so each
        partition's cells are a contiguous run of every column.  A rank
        outside [0, n] raises ``InvalidSplitError``.
        """
        ranks = _checked_ranks(ranks, self.n, 0)
        if self._prefix is not None:
            return self._prefix[ranks].T.astype(np.int64)
        # column-major like the dense path's gather
        out = np.empty((self.n_cells, len(ranks)), dtype=np.int64, order="F")
        for c, cell_ranks in enumerate(self._ranks):
            out[c] = np.searchsorted(cell_ranks, ranks, side="left")
        return out

    def side_distributions(self, ranks, smoothing: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Every row's before and after distributions per queried rank, halves of one column-major
        (n_cells, 2 * len(ranks)) block: each cell count plus ``smoothing``, over the side's sample
        count (the rank, or n minus it: each sample lies in one cell of each row) plus ``smoothing``
        per cell of the row.  A rank outside [1, n-1] raises ``InvalidSplitError``."""
        ranks = _checked_ranks(ranks, self.n)
        before = self.counts_before_ranks(ranks)
        m = len(ranks)
        block = np.empty((self.n_cells, 2 * m), order="F")
        block[:, :m] = before
        np.subtract(self.totals[:, None], before, out=block[:, m:])
        totals = np.concatenate([ranks, self.n - ranks]).astype(float)
        if smoothing:
            block += smoothing
            # built (2m, cells) and transposed, so it is laid out like the block
            totals = np.add.outer(totals, smoothing * np.repeat(self.sizes, self.sizes)).T
        block /= totals
        return block[:, :m], block[:, m:]

    def metric_rows(self, ranks, metric) -> np.ndarray:
        """``metric`` (from ``histogram_metric``) of every row per queried rank, (rows, len(ranks))."""
        return metric.rows(*self.side_distributions(ranks, metric.smoothing), self.sizes)

    def counts_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Before/after cell counts of the split at time ``t``; a time before
        the first sample or at or after the last raises ``InvalidSplitError``."""
        rank = _checked_ranks(_ranks_at(self.times, float(t)), self.n)
        before = self.counts_before_ranks(rank)[:, 0]
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


def _run_sums(terms: np.ndarray, runs: list[int]) -> np.ndarray:
    """Column sums of each run of consecutive cells of a 2-D block, one row per run.

    Each run is summed on its own, as one partition's histogram would be:
    numpy sums a contiguous column pairwise, so the bits of a run's sum
    depend on where the run starts and ends, and a column-major block keeps
    every run of a column contiguous.  Consecutive runs of one length are
    summed in one call, as the middle axis of a (runs, length, columns) view.
    """
    out = np.empty((len(runs), terms.shape[1]))
    lo = row = 0
    for size, group in itertools.groupby(runs):
        k = len(list(group))
        np.add.reduce(terms[lo : lo + k * size].reshape(k, size, -1), 1, None, out[row : row + k])
        lo, row = lo + k * size, row + k
    return out


def to_distribution(counts, smoothing: float = 0.0) -> np.ndarray:
    """Normalize counts (or any non-negative weights) into probabilities.

    ``smoothing`` is a per-cell Laplace pseudo-count added before
    normalization.  Works column-wise on (n_cells, m) inputs.
    """
    counts = np.array(counts, dtype=float)
    if not len(counts):
        raise ParameterError("cannot normalize an empty histogram")
    if counts.size and counts.min() < 0:
        raise ParameterError("negative counts")
    # reduceat, not sum: np.sum adds non-integer weights pairwise, in another order
    totals = np.add.reduceat(counts, [0], axis=0) + smoothing * len(counts)
    if (totals <= 0).any():
        raise ParameterError("cannot normalize an empty histogram")
    return (counts + smoothing) / totals


def _tv_rows(p, q, runs):
    diff = p - q
    return 0.5 * _run_sums(np.abs(diff, out=diff), runs)


def _hellinger_rows(p, q, runs):
    return np.sqrt(0.5 * _run_sums((np.sqrt(p) - np.sqrt(q)) ** 2, runs))


def _kl_rows(p, q, runs):
    # KL(p || q), natural log: a cell with p > 0 = q gives inf, not an error
    active = p > 0
    log_p = np.log(p, where=active, out=np.zeros_like(p))
    log_q = np.log(q, where=q > 0, out=np.full_like(q, -np.inf))
    with np.errstate(invalid="ignore"):
        return _run_sums(np.where(active, p * (log_p - log_q), 0.0), runs)


def _js_rows(p, q, runs):
    m = 0.5 * (p + q)
    return np.sqrt(np.maximum(0.5 * _kl_rows(p, m, runs) + 0.5 * _kl_rows(q, m, runs), 0.0))


def _divergence(rows, p, q, smoothing=None):
    """``rows`` of the pair (or of its counts, normalized with ``smoothing``),
    shaped as a column of the input.  Both sides go into one column-major
    float (cells, 2m) block, normalized together, each column contiguous."""
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != q.shape:
        raise ParameterError(f"mismatched cell sets: {p.shape} vs {q.shape}")
    if not len(p):
        raise ParameterError("cannot normalize an empty histogram")
    m = p[:1].size
    pq = np.empty((len(p), 2 * m), order="F")
    pq[:, :m] = p.reshape(len(p), m)
    pq[:, m:] = q.reshape(len(q), m)
    if smoothing is not None:
        pq = to_distribution(pq, smoothing)
    return rows(pq[:, :m], pq[:, m:], [len(pq)]).reshape((1,) + p.shape[1:])[0]


def total_variation(p, q) -> float | np.ndarray:
    """Total variation distance, 0.5 * sum |p - q|, in [0, 1]."""
    return _divergence(_tv_rows, p, q)


#: Laplace pseudo-count per cell count for KL used as a drift statistic.
KL_SMOOTHING = 0.5

#: Names accepted by ``histogram_metric``.
METRICS = ("tv", "hellinger", "js", "kl")


def histogram_metric(name: str):
    """Build a metric on one partition's count pair: (before_counts, after_counts) -> values.

    The counts are (cells,) or stacked (cells, m) arrays, one column per
    split, and the metric gives one value per column.  Each side is
    normalized by its own total.  ``name`` is one of ``METRICS``.  For 'kl'
    (before || after) each cell count gets the ``KL_SMOOTHING`` pseudo-count
    before normalization, which keeps the statistic finite on zero cells.

    ``CumulativeHistogram.metric_rows`` scores every partition of a stack at once.
    """
    name = name.lower()
    if name not in METRICS:
        raise ParameterError(f"unknown metric {name!r}")
    rows = {"tv": _tv_rows, "hellinger": _hellinger_rows, "js": _js_rows, "kl": _kl_rows}[name]
    smoothing = KL_SMOOTHING if name == "kl" else 0.0

    def metric(counts_before, counts_after):
        return _divergence(rows, counts_before, counts_after, smoothing)

    metric.rows, metric.smoothing = rows, smoothing
    return metric
