"""Neighbor- and kernel-based drift statistics: LDD, kNN-KL and biased MMD.

Each fit builds the window's pairwise distances once (O(n^2) time), one
n x n float64 matrix at its peak (1.5 under MMD's median bandwidth, which
copies its upper triangle and partitions it once at the middle), and keeps
only what its statistic reads.  LDD keeps each point's k nearest as an n x k
index set, picked by one partition per row (the tie fill runs only on rows
with more than k candidates), read off the flat indices of a row block's
picks and kept with no distances.  kNN-KL keeps the
distance matrix itself, in sample order, as the one ``NeighborGraph``, and
sorts nothing.  MMD turns the distances into the kernel matrix in place and
keeps O(n) block sums.  ``_pairwise_distances`` rejects a window of fewer
than two or more than ``MAX_PAIRWISE_N`` samples, or with features too large
for the distance expansion, before anything n x n is allocated.

The statistics take splits as ranks: a rank r puts the first r samples in
arrival order on the before side.  Each statistic rejects a rank outside
[1, n-1] (kNN-KL one that leaves k or fewer samples on a side) with
``InvalidSplitError``.  MMD costs O(1) per split from cached block sums.
The kNN statistics sweep all requested splits at once: LDD counts each
neighbor pair once per block of sorted splits, O(n k) per block plus O(n)
per split, and kNN-KL reads every split's k-th same-side and other-side
distance off running k-th minima of the distance rows in one O(k n^2) pass,
then costs O(n) per split; each running minimum covers only the columns a
split reads.  Running sums and minima are exact, so trimming or regrouping
them leaves every bit.  Every sweep and row pass works in blocks that
``_row_blocks`` sizes against one fixed element budget; the only scratch
arrays that grow with n are LDD's n k neighbor pairs and kNN-KL's per-split
terms (splits x before-side rows, under half the matrix's size).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError, ParameterError
from .windows import Window, _checked_ranks, _scan_rows

DISTANCE_FLOOR = 1e-12
LDD_CAP = 10.0
#: Elements in each temporary block of a split sweep or row pass (512 KB of float64).
_BLOCK_ELEMENTS = 1 << 16
#: Largest window the O(n^2) neighbor and kernel fits accept.  Their n x n
#: distance matrix takes 8 n^2 bytes (800 MB here); the median bandwidth's
#: 1.5 times that (1.2 GB) is the most any of them holds.  A larger window
#: raises ``ParameterError`` instead of meeting the out-of-memory killer.
MAX_PAIRWISE_N = 10_000
#: Largest squared norm the distance expansion accepts: below it |a|^2 + |b|^2,
#: 2 a.b, the squared distances (at most 4x) and 2 sigma^2 (at most 8x) all
#: stay finite.
_MAX_SQUARED_NORM = np.finfo(float).max / 8


def _row_blocks(n_rows: int, width: int):
    """Slices of ``range(n_rows)`` in steps of as many rows of ``width``
    elements as fit the block budget (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // width)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances as sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)), built in
    one n x n buffer: the subtraction runs in row blocks, the rest in place."""
    n = len(x)
    if n < 2:
        raise ParameterError("need at least two samples")
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
    for rows in _row_blocks(n, n):
        block = d[rows]
        np.subtract(sq[rows, None] + sq[None, :], block, out=block)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


@dataclass(frozen=True)
class NeighborGraph:
    """The kNN-KL neighbor graph of a window under Euclidean distance:
    ``dist`` is the n x n distance matrix in sample order, +inf on the
    diagonal, ``k`` the neighborhood size and ``dim`` the feature dimension.
    LDD keeps no graph, only ``build_neighbor_lists``' index sets.
    """

    dist: np.ndarray
    k: int
    dim: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def _distance_rows(w: Window, k: int) -> tuple[np.ndarray, int]:
    """The window's distance matrix, +inf on the diagonal, and k capped at n - 1."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    d = _pairwise_distances(w.x)
    np.fill_diagonal(d, np.inf)
    return d, min(k, len(w) - 1)


def build_neighbor_graph(w: Window, k: int = 10) -> NeighborGraph:
    """Exact brute-force kNN-KL graph of the window: its distance rows."""
    return NeighborGraph(*_distance_rows(w, k), w.dim)


def build_neighbor_lists(w: Window, k: int = 10) -> np.ndarray:
    """Each sample's k nearest others (k capped at n - 1) as a row of an
    (n, k) index array: a set in ascending index order, not sorted by
    distance, with distance ties going to the lower index.  As a set, a row
    is the first k columns of a stable argsort of the distance row: the
    entries at or below the row's k-th distance, tie-filled only where they
    are more than k.  Row blocks keep the temporaries within the budget."""
    d, k = _distance_rows(w, k)
    n = len(d)
    out = np.empty((n, k), dtype=np.intp)
    for rows in _row_blocks(n, n):
        block = d[rows]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
        near = block <= kth
        if np.count_nonzero(near) > k * len(block):
            # some row has more than k: there the lowest-index ties fill what lies closer
            surplus = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
            sub, kth = block[surplus], kth[surplus]
            closer, tied = sub < kth, sub == kth
            missing = k - np.count_nonzero(closer, axis=1)
            near[surplus] = closer | tied & (np.cumsum(tied, axis=1) <= missing[:, None])
        # a row's k flat indices in order, less the row's offset n i, are its columns
        out[rows] = np.flatnonzero(near).reshape(len(block), k) - (np.arange(len(block)) * n)[:, None]
    return out


def ldd_statistics(lists: np.ndarray, ranks, *, aggregation: str = "mean") -> np.ndarray:
    """Local drift degree at every before-side count in ``ranks`` (1..n-1),
    from the (n, k) neighbor sets of ``build_neighbor_lists``.

    For each sample the ratio of after- to before-side neighbors among its
    k nearest, scaled by the side-size ratio, measures the local imbalance:
    delta = (n_before/n_after) * (k_after / max(k_before, 1)) - 1.  The
    statistic aggregates |delta| over all samples, each capped at ``LDD_CAP``.
    O(n k) per block of splits plus O(n) per split: each sample's k_before
    over a block's sorted splits is a running integer sum of event counts,
    taken by ``_scan_rows`` (whole-row steps from ``_WIDE_ROW`` samples on).
    """
    if aggregation not in ("mean", "max"):
        raise ParameterError(f"unknown aggregation {aggregation!r}")
    n, k = lists.shape
    ranks = _checked_ranks(ranks, n)
    neighbors, rows, c = lists.ravel(), np.repeat(np.arange(n), k), np.arange(k + 1)
    reduce = np.mean if aggregation == "mean" else np.max
    out = np.empty(len(ranks))
    for block in _row_blocks(len(ranks), n):
        by_rank = np.argsort(ranks[block], kind="stable")
        r = ranks[block][by_rank]
        # neighbor j is on the before side of split r exactly when j < r, so
        # a (row, neighbor j) pair counts from the first sorted rank above j on
        first = np.searchsorted(r, np.arange(n), side="right")[neighbors]
        events = np.bincount(first * n + rows, minlength=(len(r) + 1) * n)[: len(r) * n].reshape(len(r), n)
        # k_before takes the values 0..k only: the capped degree of each count
        # per split, by the operations of the delta formula in the same order
        table = np.minimum(np.abs((r / (n - r))[:, None] * ((k - c) / np.maximum(c, 1)) - 1.0), LDD_CAP)
        # offsetting split s by s (k + 1) makes the running count k_before
        # an index into the flattened table
        events[1:] += k + 1
        degrees = table.ravel()[_scan_rows(np.add, events)]
        # a contiguous row per split: the reduction order of a 1-D array
        out[block][by_rank] = reduce(degrees, axis=1)
    return out


def _running_kth(q: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest entry of every prefix of each row of ``q``; +inf while
    a prefix is shorter than k.  k rounds of minima and maxima along the
    rows, O(k) per entry: the caller passes only the columns it reads."""
    kth = np.minimum.accumulate(q, axis=1)
    for _ in range(k - 1):
        # appending x to a prefix moves its k-th smallest to
        # min(old k-th, max(x, old (k-1)-th))
        kth[:, 1:] = np.maximum(q[:, 1:], kth[:, :-1])
        kth[:, 0] = np.inf
        np.minimum.accumulate(kth, axis=1, out=kth)
    return kth


def knn_kls(g: NeighborGraph, ranks) -> np.ndarray:
    """kNN estimate of KL(before || after) at every before-side count in
    ``ranks``, from one O(k n^2) sweep of the distance rows.

    Uses k-th neighbor distances within each side: for x in the before
    side, rho_k = distance to its k-th neighbor among the before side
    (self excluded) and nu_k = among the after side; the estimate is
    (d/n_b) * sum log(nu_k/rho_k) + log(n_a/(n_b-1)), clamped below at 0.
    Both sides need more than k samples.

    The before side of a split with before-count r is the first r samples,
    so in a distance row in sample order (self at +inf) rho_k is the k-th
    smallest of the first r entries and nu_k the k-th smallest of the rest:
    the running k-th minimum of the row taken from the left, read at column
    r - 1, and taken from the right, read at column r.  A k-th smallest
    value does not depend on how ties are ordered.  A row block is live only
    for splits past its first row, so the left pass stops at the largest
    rank's column and the right pass at the column after the block's first
    row: each covers only what it is read at, with the same values.
    """
    n, k = g.n, g.k
    ranks = _checked_ranks(ranks, n, k + 1)
    rows = int(ranks.max()) if len(ranks) else 0
    log_ratio = np.empty((len(ranks), rows))
    for block in _row_blocks(rows, n):
        live = ranks > block.start
        r = ranks[live]
        # rows on the after side of a split get finite terms that are never summed
        rho = np.maximum(_running_kth(g.dist[block, :rows], k)[:, r - 1], DISTANCE_FLOOR)
        nu = np.maximum(_running_kth(g.dist[block, : block.start : -1], k)[:, n - 1 - r], DISTANCE_FLOOR)
        log_ratio[live, block] = np.log(nu / rho).T
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
    """Median of the strict upper triangle of a distance matrix of at least
    two samples (1.0 when the median is 0): one partition of its copy at h,
    the middle index, and for an even count the ``np.mean`` of the maximum
    below h and the value at h, the two values ``np.median`` averages."""
    upper = np.concatenate([d[i, i + 1 :] for i in range(len(d) - 1)])
    h = len(upper) // 2
    upper.partition(h)
    med = float(np.mean([upper[:h].max(), upper[h]]) if len(upper) % 2 == 0 else upper[h])
    return med if med > 0 else 1.0


def _check_bandwidth(bandwidth) -> None:
    if bandwidth != "median" and not (isinstance(bandwidth, Real) and 0 < bandwidth < np.inf):
        raise ParameterError(f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}")


def build_kernel_gram(w: Window, bandwidth="median") -> KernelGram:
    """Block sums of the Gram matrix of exp(-||x-y||^2 / (2 sigma^2)) in
    arrival order, formed in place in the distance matrix that also gives
    the median bandwidth."""
    _check_bandwidth(bandwidth)
    K = _pairwise_distances(w.x)
    sigma = _median_distance(K) if bandwidth == "median" else float(bandwidth)
    # -(d**2) / (2 sigma^2) as d**2 / -(2 sigma^2): IEEE division is
    # sign-symmetric, so moving the negation onto the divisor keeps the bits
    np.square(K, out=K)
    np.divide(K, -2.0 * sigma**2, out=K)
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
    ranks = _checked_ranks(ranks, len(g.lead) - 1)
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
    _checked_ranks(nb, nb + na)
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
    _checked_ranks(nb, nb + na, k + 1)
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
    _checked_ranks(nb, n)
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
