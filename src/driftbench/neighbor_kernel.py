"""Neighbor- and kernel-based drift statistics: LDD, kNN-KL and biased MMD.

The neighbor graph and the kernel Gram matrix are built once per window
(O(n^2)) and reused for every split point.  The statistics take splits as
ranks: a rank r puts the first r samples in arrival order on the before
side.  The fitted descriptor maps split times to ranks and rejects an empty
side, so the functions here see ranks in [1, n-1] only.  MMD costs O(1) per
split from cached block sums.  The kNN statistics sweep all requested
splits at once: LDD counts before-side neighbors in O(n k) per split, and
kNN-KL locates every split's k-th same-side and other-side neighbors in one
O(k n^2) pass over the graph, then costs O(n) per split.  Both sweeps work
in blocks sized against a fixed element budget; the only scratch arrays
that grow with n are LDD's k x n copy of the neighbor columns and kNN-KL's
per-split terms (splits x before-side rows, under half the graph's size).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidSplitError, ParameterError
from .windows import Window

DISTANCE_FLOOR = 1e-12
LDD_CAP = 10.0
#: Elements in each temporary block of a split sweep (512 KB of float64).
_BLOCK_ELEMENTS = 1 << 16


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    return np.sqrt(np.maximum(d2, 0.0))


@dataclass(frozen=True)
class NeighborGraph:
    """Full neighbor ordering of a window under Euclidean distance.

    ``order[i]`` lists all other sample indices sorted by distance to i
    (ties broken by lower index); ``dist`` is aligned.  ``k`` is the
    neighborhood size of both statistics and ``dim`` the feature dimension.
    """

    order: np.ndarray
    dist: np.ndarray
    k: int
    dim: int

    @property
    def n(self) -> int:
        return self.order.shape[0]


def build_neighbor_graph(w: Window, k: int = 10) -> NeighborGraph:
    """Exact brute-force kNN ordering over the window."""
    n = len(w)
    if n < 2:
        raise ParameterError("need at least two samples")
    if k < 1:
        raise ParameterError("k must be >= 1")
    d = _pairwise_distances(w.x)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, : n - 1]
    dist = np.take_along_axis(d, order, axis=1)
    return NeighborGraph(order, dist, min(k, n - 1), w.dim)


def ldd_statistics(g: NeighborGraph, ranks, *, cap: float = LDD_CAP, aggregation: str = "mean") -> np.ndarray:
    """Local drift degree at every before-side count in ``ranks`` (1..n-1).

    For each sample the ratio of after- to before-side neighbors among its
    k nearest, scaled by the side-size ratio, measures the local imbalance:
    delta = (n_before/n_after) * (k_after / max(k_before, 1)) - 1.  The
    statistic aggregates |delta| over all samples (capped per point).
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
        degrees = np.minimum(np.abs(delta), cap)
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


def knn_kls(g: NeighborGraph, ranks, *, floor: float = DISTANCE_FLOOR) -> np.ndarray:
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
        rho = np.maximum(dist[np.minimum(rho_at, last)], floor)
        nu = np.maximum(dist[np.minimum(nu_at, last)], floor)
        log_ratio[live, lo:hi] = np.log(nu / rho)
    out = np.empty(len(ranks))
    for i, n_b in enumerate(ranks.tolist()):
        n_a = n - n_b
        est = (g.dim / n_b) * log_ratio[i, :n_b].sum() + np.log(n_a / (n_b - 1))
        out[i] = max(est, 0.0)
    return out


@dataclass(frozen=True)
class KernelGram:
    """Gaussian kernel matrix plus cumulative block sums over arrival order.

    ``inner[i]`` is the sum of K over the leading i x i block and
    ``lead[i]`` the sum of the leading i rows; together they give every
    before/before, after/after and cross block sum in O(1) per split.
    """

    matrix: np.ndarray
    sigma: float
    inner: np.ndarray
    lead: np.ndarray
    total: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def median_heuristic(x: np.ndarray) -> float:
    """Median pairwise distance between distinct points (1.0 fallback)."""
    d = _pairwise_distances(np.asarray(x, dtype=float))
    vals = d[np.triu_indices(len(d), k=1)]
    med = float(np.median(vals)) if len(vals) else 0.0
    return med if med > 0 else 1.0


def build_kernel_gram(w: Window, bandwidth="median") -> KernelGram:
    """Gram matrix of exp(-||x-y||^2 / (2 sigma^2)) in arrival order."""
    if len(w) < 2:
        raise ParameterError("need at least two samples")
    if bandwidth == "median":
        sigma = median_heuristic(w.x)
    elif isinstance(bandwidth, Real) and 0 < bandwidth < np.inf:
        sigma = float(bandwidth)
    else:
        raise ParameterError(f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}")
    d = _pairwise_distances(w.x)
    K = np.exp(-(d**2) / (2.0 * sigma**2))
    n = len(w)
    lead = np.zeros(n + 1)
    lead[1:] = np.cumsum(K.sum(axis=1))
    # growing the leading block by row/column i adds its strict lower-row sum
    # twice plus the diagonal element
    strict_lower = np.array([K[i, :i].sum() for i in range(n)])
    inner = np.zeros(n + 1)
    inner[1:] = np.cumsum(2.0 * strict_lower + np.diag(K))
    return KernelGram(K, sigma, inner, lead, float(K.sum()))


def mmds_from_gram(g: KernelGram, ranks) -> np.ndarray:
    """Biased MMD at every before-side count in ``ranks`` (1..n-1), O(1)
    per split from the cached block sums."""
    ranks = np.asarray(ranks, dtype=np.intp)
    m = ranks.astype(float)
    n = float(g.n)
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


def knn_kl_reference(x_before: np.ndarray, x_after: np.ndarray, k: int, *, floor: float = DISTANCE_FLOOR) -> float:
    """kNN-KL from direct per-side distance matrices (test oracle)."""
    x_before = np.asarray(x_before, dtype=float)
    x_after = np.asarray(x_after, dtype=float)
    nb, na = len(x_before), len(x_after)
    if nb <= k or na <= k:
        raise InvalidSplitError(f"both sides must have more than k={k} samples")
    within = np.sqrt(((x_before[:, None, :] - x_before[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(within, np.inf)
    across = np.sqrt(((x_before[:, None, :] - x_after[None, :, :]) ** 2).sum(axis=2))
    rho = np.maximum(np.partition(within, k - 1, axis=1)[:, k - 1], floor)
    nu = np.maximum(np.partition(across, k - 1, axis=1)[:, k - 1], floor)
    est = (x_before.shape[1] / nb) * np.log(nu / rho).sum() + np.log(na / (nb - 1))
    return float(max(est, 0.0))
