"""Neighbor- and kernel-based drift statistics: LDD, kNN-KL and biased MMD.

The neighbor graph and the kernel Gram are built once per window (O(n^2)
time) and reused for every split point.  Each fit holds one n x n float64
matrix at its peak: the pairwise distances, which the Gram build turns into
the kernel matrix in place and reduces to O(n) block sums, all that MMD
reads.  LDD keeps only each point's k nearest neighbors (n x k lists,
selected without a full sort); kNN-KL keeps full neighbor lists, since its
sweep reads whole rows.  Windows above ``MAX_PAIRWISE_N`` samples, or with
features too large for the distance expansion, are rejected before anything
n x n is allocated.

The statistics take splits as ranks: a rank r puts the first r samples in
arrival order on the before side.  The fitted descriptor maps split times to
ranks and rejects an empty side, so the functions here see ranks in [1, n-1]
only.  MMD costs O(1) per split from cached block sums.  The kNN statistics
sweep all requested splits at once: LDD counts before-side neighbors in
O(n k) per split, and kNN-KL locates every split's k-th same-side and
other-side neighbors in one O(k n^2) pass over the graph, then costs O(n)
per split.  Both sweeps work in blocks sized against a fixed element budget;
the only scratch arrays that grow with n are LDD's k x n copy of the
neighbor columns and kNN-KL's per-split terms (splits x before-side rows,
under half the graph's size).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError, InvalidSplitError, ParameterError
from .windows import Window

DISTANCE_FLOOR = 1e-12
LDD_CAP = 10.0
#: Elements in each temporary block of a split sweep or row pass (512 KB of float64).
_BLOCK_ELEMENTS = 1 << 16
#: Largest window the O(n^2) neighbor and kernel fits accept.  Their n x n
#: float64 distance matrix takes 8 n^2 bytes (800 MB at this size), and
#: kNN-KL's full neighbor lists add 16 n^2 more; a larger window raises
#: ``ParameterError`` instead of meeting the out-of-memory killer.
MAX_PAIRWISE_N = 10_000
#: Largest squared norm the distance expansion accepts: below it |a|^2 + |b|^2,
#: 2 a.b, the squared distances (at most 4x) and 2 sigma^2 (at most 8x) all
#: stay finite.
_MAX_SQUARED_NORM = np.finfo(float).max / 8


def _row_blocks(n: int):
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances as sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)), built in
    one n x n buffer: the subtraction runs in row blocks, the rest in place."""
    n = len(x)
    if n > MAX_PAIRWISE_N:
        raise ParameterError(
            f"window of {n} samples exceeds MAX_PAIRWISE_N={MAX_PAIRWISE_N} for an O(n^2) neighbor or kernel fit"
        )
    with np.errstate(over="ignore"):
        sq = np.sum(x * x, axis=1)
    largest = sq.max()
    if largest > _MAX_SQUARED_NORM:
        raise DataError(f"features too large for pairwise distances (squared norm {largest:.3g}); rescale them")
    # one unblocked matmul: BLAS may round other block shapes differently
    d = x @ x.T
    d *= 2.0
    for rows in _row_blocks(n):
        block = d[rows]
        np.subtract(sq[rows, None] + sq[None, :], block, out=block)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


@dataclass(frozen=True)
class NeighborGraph:
    """Neighbor lists of a window under Euclidean distance.

    ``order[i]`` lists the nearest other sample indices by distance to i,
    ties broken by lower index; ``dist`` is aligned.  The lists hold all
    n - 1 neighbors (kNN-KL) or only the k nearest (LDD).  ``k`` is the
    neighborhood size of both statistics and ``dim`` the feature dimension.
    """

    order: np.ndarray
    dist: np.ndarray
    k: int
    dim: int

    @property
    def n(self) -> int:
        return self.order.shape[0]


def _top_k(block: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, sorted by
    (value, index): the first k columns of a stable argsort."""
    kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
    closer = block < kth
    # fewer than k entries lie strictly closer; the lowest-index ties with
    # the k-th value fill the rest
    tied = block == kth
    missing = k - np.count_nonzero(closer, axis=1)
    closer |= tied & (np.cumsum(tied, axis=1) <= missing[:, None])
    chosen = np.nonzero(closer)[1].reshape(len(block), k)
    by_value = np.argsort(np.take_along_axis(block, chosen, axis=1), axis=1, kind="stable")
    return np.take_along_axis(chosen, by_value, axis=1)


def build_neighbor_graph(w: Window, k: int = 10, width: int | None = None) -> NeighborGraph:
    """Exact brute-force kNN lists over the window.

    Each row keeps its ``width`` nearest neighbors (at least k; all n - 1
    when None), exactly as the first columns of a full stable sort.
    """
    n = len(w)
    if n < 2:
        raise ParameterError("need at least two samples")
    if k < 1:
        raise ParameterError("k must be >= 1")
    k = min(k, n - 1)
    width = n - 1 if width is None else min(width, n - 1)
    if width < k:
        raise ParameterError(f"neighbor lists of width {width} cannot hold k={k} neighbors")
    d = _pairwise_distances(w.x)
    np.fill_diagonal(d, np.inf)
    if width == n - 1:
        order = np.argsort(d, axis=1, kind="stable")[:, :width]
    else:
        order = np.empty((n, width), dtype=np.intp)
        for rows in _row_blocks(n):
            order[rows] = _top_k(d[rows], width)
    dist = np.take_along_axis(d, order, axis=1)
    return NeighborGraph(order, dist, k, w.dim)


def ldd_statistics(g: NeighborGraph, ranks, *, aggregation: str = "mean") -> np.ndarray:
    """Local drift degree at every before-side count in ``ranks`` (1..n-1).

    For each sample the ratio of after- to before-side neighbors among its
    k nearest, scaled by the side-size ratio, measures the local imbalance:
    delta = (n_before/n_after) * (k_after / max(k_before, 1)) - 1.  The
    statistic aggregates |delta| over all samples, each capped at ``LDD_CAP``.
    O(n k) per split, in blocks of splits.
    """
    if aggregation not in ("mean", "max"):
        raise ParameterError(f"unknown aggregation {aggregation!r}")
    ranks = np.asarray(ranks, dtype=np.intp)
    n = g.n
    # neighbor j is on the before side of split r exactly when j < r
    neighbor_columns = np.ascontiguousarray(g.order[:, : g.k].T)
    out = np.empty(len(ranks))
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, len(ranks), step):
        r = ranks[lo : lo + step]
        k_before = np.zeros((len(r), n), dtype=np.intp)
        for column in neighbor_columns:
            k_before += column < r[:, None]
        k_after = g.k - k_before
        delta = (r / (n - r))[:, None] * (k_after / np.maximum(k_before, 1)) - 1.0
        degrees = np.minimum(np.abs(delta), LDD_CAP)
        # one contiguous row per split keeps the reduction order of a 1-D array
        for i, row in enumerate(degrees, lo):
            out[i] = row.mean() if aggregation == "mean" else row.max()
    return out


def _running_kth(q: np.ndarray, k: int, outer: np.ufunc, inner: np.ufunc, empty: int) -> np.ndarray:
    """k-th smallest (``outer=np.minimum``) or largest (``np.maximum``) entry
    of every prefix of each row of ``q``; ``empty`` while a prefix is shorter
    than k.  Monotone along each row."""
    kth = outer.accumulate(q, axis=1)
    for _ in range(k - 1):
        # appending x to a prefix moves its k-th order statistic to
        # outer(old k-th, inner(x, old (k-1)-th))
        prev = np.empty_like(kth)
        prev[:, 0] = empty
        prev[:, 1:] = kth[:, :-1]
        kth = outer.accumulate(inner(q, prev), axis=1)
    return kth


def knn_kls(g: NeighborGraph, ranks) -> np.ndarray:
    """kNN estimate of KL(before || after) at every before-side count in
    ``ranks``, from one O(k n^2) sweep of the graph.

    Uses k-th neighbor distances within each side: for x in the before
    side, rho_k = distance to its k-th neighbor among the before side
    (self excluded) and nu_k = among the after side; the estimate is
    (d/n_b) * sum log(nu_k/rho_k) + log(n_a/(n_b-1)), clamped below at 0.
    Both sides need more than k samples.

    A neighbor j is on the before side of a split with before-count r
    exactly when j < r.  Along a row's distance-sorted neighbor list the
    running k-th smallest index is non-increasing and the running k-th
    largest non-decreasing, so the list positions of the k-th same-side
    (first value < r) and k-th other-side (first value >= r) neighbors of
    every split come from one batched binary search.
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    n, k = g.n, g.k
    if g.order.shape[1] != n - 1:
        raise ParameterError("kNN-KL needs full neighbor lists (width=None)")
    if len(ranks) and (ranks.min() <= k or n - ranks.max() <= k):
        raise InvalidSplitError(f"both sides must have more than k={k} samples")
    rows = int(ranks.max()) if len(ranks) else 0
    width = n - 1
    log_ratio = np.empty((len(ranks), rows))
    step = max(1, _BLOCK_ELEMENTS // width)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        q = g.order[lo:hi]
        live = ranks > lo
        r = ranks[live][:, None]
        # per-row offsets larger than the value range make the flattened
        # rows one sorted array
        offsets = np.arange(hi - lo) * (n + 1)
        falling = offsets[:, None] - _running_kth(q, k, np.minimum, np.maximum, n)
        rising = offsets[:, None] + _running_kth(q, k, np.maximum, np.minimum, -1)
        rho_at = np.searchsorted(falling.ravel(), offsets - r, side="right")
        nu_at = np.searchsorted(rising.ravel(), offsets + r, side="left")
        # rows on the after side of a split find no position in their own
        # row; their entries are clipped here and never summed
        dist = g.dist[lo:hi].ravel()
        last = dist.size - 1
        rho = np.maximum(dist[np.minimum(rho_at, last)], DISTANCE_FLOOR)
        nu = np.maximum(dist[np.minimum(nu_at, last)], DISTANCE_FLOOR)
        log_ratio[live, lo:hi] = np.log(nu / rho)
    out = np.empty(len(ranks))
    for i, n_b in enumerate(ranks.tolist()):
        n_a = n - n_b
        est = (g.dim / n_b) * log_ratio[i, :n_b].sum() + np.log(n_a / (n_b - 1))
        out[i] = max(est, 0.0)
    return out


@dataclass(frozen=True)
class KernelGram:
    """Cumulative block sums of a Gaussian kernel matrix K over arrival order.

    ``inner[i]`` is the sum of K over the leading i x i block, ``lead[i]``
    the sum of the leading i rows and ``total`` the sum of K; together they
    give every before/before, after/after and cross block sum in O(1) per
    split.  The n x n matrix itself is dropped once they are formed, so a
    fitted Gram holds O(n) floats; ``sigma`` is the bandwidth used.
    """

    sigma: float
    inner: np.ndarray
    lead: np.ndarray
    total: float


def _median_distance(d: np.ndarray) -> float:
    """Median of the strict upper triangle of a distance matrix (1.0 when
    it is empty or the median is 0)."""
    n = len(d)
    if n < 2:
        return 1.0
    upper = np.concatenate([d[i, i + 1 :] for i in range(n - 1)])
    med = float(np.median(upper, overwrite_input=True))
    return med if med > 0 else 1.0


def build_kernel_gram(w: Window, bandwidth="median") -> KernelGram:
    """Block sums of the Gram matrix of exp(-||x-y||^2 / (2 sigma^2)) in
    arrival order, formed in place in the distance matrix that also gives
    the median bandwidth."""
    if len(w) < 2:
        raise ParameterError("need at least two samples")
    if bandwidth != "median" and not (isinstance(bandwidth, Real) and 0 < bandwidth < np.inf):
        raise ParameterError(f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}")
    K = _pairwise_distances(w.x)
    sigma = _median_distance(K) if bandwidth == "median" else float(bandwidth)
    # the operations of -(d**2) / (2 sigma^2), in that order
    np.square(K, out=K)
    np.negative(K, out=K)
    np.divide(K, 2.0 * sigma**2, out=K)
    np.exp(K, out=K)
    n = len(w)
    lead = np.zeros(n + 1)
    lead[1:] = np.cumsum(K.sum(axis=1))
    # growing the leading block by row/column i adds its strict lower-row sum
    # twice plus the diagonal element
    strict_lower = np.array([K[i, :i].sum() for i in range(n)])
    inner = np.zeros(n + 1)
    inner[1:] = np.cumsum(2.0 * strict_lower + np.diag(K))
    return KernelGram(sigma, inner, lead, float(K.sum()))


def mmds_from_gram(g: KernelGram, ranks) -> np.ndarray:
    """Biased MMD at every before-side count in ``ranks`` (1..n-1), O(1)
    per split from the cached block sums."""
    ranks = np.asarray(ranks, dtype=np.intp)
    m = ranks.astype(float)
    n = float(len(g.lead) - 1)
    bb = g.inner[ranks]
    cross = g.lead[ranks] - bb
    aa = g.total - 2.0 * g.lead[ranks] + bb
    mmd2 = bb / m**2 + aa / (n - m) ** 2 - 2.0 * cross / (m * (n - m))
    return np.sqrt(np.maximum(mmd2, 0.0))


def mmd_biased_reference(x_before: np.ndarray, x_after: np.ndarray, sigma: float) -> float:
    """Naive double-loop biased MMD (test oracle)."""
    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * sigma**2))

    nb, na = len(x_before), len(x_after)
    s_bb = sum(k(x_before[i], x_before[j]) for i in range(nb) for j in range(nb))
    s_aa = sum(k(x_after[i], x_after[j]) for i in range(na) for j in range(na))
    s_ba = sum(k(x_before[i], x_after[j]) for i in range(nb) for j in range(na))
    mmd2 = s_bb / nb**2 + s_aa / na**2 - 2.0 * s_ba / (nb * na)
    return float(np.sqrt(max(mmd2, 0.0)))


def knn_kl_reference(x_before: np.ndarray, x_after: np.ndarray, k: int) -> float:
    """kNN-KL from direct per-side distance matrices (test oracle)."""
    x_before = np.asarray(x_before, dtype=float)
    x_after = np.asarray(x_after, dtype=float)
    nb, na = len(x_before), len(x_after)
    if nb <= k or na <= k:
        raise InvalidSplitError(f"both sides must have more than k={k} samples")
    within = np.sqrt(((x_before[:, None, :] - x_before[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(within, np.inf)
    across = np.sqrt(((x_before[:, None, :] - x_after[None, :, :]) ** 2).sum(axis=2))
    rho = np.maximum(np.partition(within, k - 1, axis=1)[:, k - 1], DISTANCE_FLOOR)
    nu = np.maximum(np.partition(across, k - 1, axis=1)[:, k - 1], DISTANCE_FLOOR)
    est = (x_before.shape[1] / nb) * np.log(nu / rho).sum() + np.log(na / (nb - 1))
    return float(max(est, 0.0))


def ldd_reference(x_before: np.ndarray, x_after: np.ndarray, k: int) -> float:
    """Mean LDD recounted from each point's k nearest under direct per-row
    distances, sorted by (distance, index) over the concatenated sides
    (test oracle)."""
    x = np.concatenate([np.asarray(x_before, dtype=float), np.asarray(x_after, dtype=float)])
    n, nb = len(x), len(x_before)
    if nb == 0 or nb == n:
        raise InvalidSplitError("split leaves an empty side")
    k = min(k, n - 1)
    index = np.arange(n)
    degrees = np.empty(n)
    for i in range(n):
        dist = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        dist[i] = np.inf
        nearest = np.lexsort((index, dist))[:k]
        k_before = int(np.count_nonzero(nearest < nb))
        delta = (nb / (n - nb)) * ((k - k_before) / max(k_before, 1)) - 1.0
        degrees[i] = min(abs(delta), LDD_CAP)
    return float(degrees.mean())
