"""Data-space partitions used as binning descriptors.

Builders: per-feature marginal binning, full grids, random-projection
binning, random trees and kdq-trees.  Every builder is deterministic given
(window, config, seed); the resulting partitions are immutable, map any
point to a cell (out-of-range values land in the nearest boundary cell)
and serialize to plain dicts.  A partition holds only what ``cell_of``
reads: an axis and its edges, the edges of each feature, or the tree
arrays; the builder's arguments are not kept.  Each fit pays its fixed
numpy costs once, not once per tree or axis: ``column_edges`` takes the
edges of every feature or projection in one pass, ``build_random_trees``
grows all trees of a fit on one stable argsort per feature, and tree
builders record their splits in lists that ``trees_from_splits`` lays out
together, each ``TreePartition`` a slice of shared node arrays.
``stacked_cells`` maps points through all of a descriptor's partitions at
once, every ``TreePartition`` in one shared walk.  The tree builders refuse
features beyond half the largest float with ``DataError``: a midpoint
threshold of two such values, or the width a random threshold is drawn
from, would overflow.  The binnings refuse a feature or projection whose
range overflows, in ``column_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .seeding import as_generator
from .windows import Window

#: Most cells ``build_grid`` creates before refusing the grid.
MAX_GRID_CELLS = 65536
#: Deepest level ``build_kdq_tree`` splits.
KDQ_MAX_DEPTH = 32


class Partition:
    """A total map from feature space onto cells {0, ..., n_cells-1}; it
    holds only the state ``cell_of`` reads."""

    n_cells: int

    def cell_of(self, X) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X[None, :] if X.ndim == 1 else X


def column_edges(P: np.ndarray, bins: int, edge_mode: str) -> list[np.ndarray]:
    """Interior bin edges over the observed values of each column of ``P``.

    'equidistant' spaces edges evenly over a column's observed range,
    'equilikely' places them at its empirical quantiles.  Duplicate edges
    are collapsed, so a constant column yields no edge: a single bin.  All
    columns are done at once, with the arithmetic ``np.linspace`` and
    ``np.quantile`` apply to each column alone, so every edge has the bits
    a per-column call gives.  A column whose range ``hi - lo`` overflows
    raises ``DataError``: its edges would not be finite.
    """
    if bins < 2:
        raise ParameterError("bins must be >= 2")
    P = np.asarray(P, dtype=float)
    lo, hi = P.min(axis=0), P.max(axis=0)
    with np.errstate(over="ignore"):
        delta = hi - lo
    if not np.isfinite(delta).all():
        raise DataError("a feature or projection spans more than the largest float; rescale the features")
    if edge_mode == "equidistant":
        i = np.arange(1.0, bins)[:, None]
        step = delta / bins
        # np.linspace divides first where the step underflows to zero
        edges = np.where(step == 0, i / bins * delta, i * step) + lo
    elif edge_mode == "equilikely":
        edges = np.quantile(P, np.arange(1, bins) / bins, axis=0)
    else:
        raise ParameterError(f"unknown edge_mode {edge_mode!r}")
    # np.unique per column: sorted, the first of each run of equal edges
    edges = np.sort(edges, axis=0)
    keep = (edges > lo) & (edges <= hi)
    keep[1:] &= edges[1:] != edges[:-1]
    return [column[kept] for column, kept in zip(edges.T, keep.T)]


@dataclass(frozen=True)
class Binning1D(Partition):
    """Cells of a 1-D binning along a projection axis: no edges (a
    constant projection) is a single cell."""

    axis: np.ndarray
    edges: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.edges) + 1

    def cell_of(self, X) -> np.ndarray:
        return np.searchsorted(self.edges, _as_matrix(X) @ self.axis, side="right")

    def to_dict(self) -> dict:
        return {
            "kind": "binning1d",
            "axis": self.axis.tolist(),
            "edges": self.edges.tolist(),
        }


@dataclass(frozen=True)
class GridPartition(Partition):
    """Product grid over all features; cell = multi-index over per-dim bins."""

    edges_per_dim: tuple[np.ndarray, ...]

    @property
    def n_cells(self) -> int:
        out = 1
        for e in self.edges_per_dim:
            out *= len(e) + 1
        return out

    def cell_of(self, X) -> np.ndarray:
        X = _as_matrix(X)
        idx = np.zeros(len(X), dtype=np.int64)
        for j, edges in enumerate(self.edges_per_dim):
            idx = idx * (len(edges) + 1) + np.searchsorted(edges, X[:, j], side="right")
        return idx

    def to_dict(self) -> dict:
        return {
            "kind": "grid",
            "edges_per_dim": [e.tolist() for e in self.edges_per_dim],
        }


@dataclass(frozen=True)
class TreePartition(Partition):
    """Axis-aligned binary tree whose leaves are the cells.

    Stored as flat arrays; ``feature[i] < 0`` marks node i as a leaf with
    cell index ``cell[i]`` and a NaN threshold; an inner node's children are
    ``left[i]`` and ``left[i] + 1``, as ``trees_from_splits`` numbers them.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    cell: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.cell.max()) + 1

    def cell_of(self, X) -> np.ndarray:
        return _walk_trees([self], _as_matrix(X))[0]

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "feature": self.feature.tolist(),
            "threshold": [None if f < 0 else t for f, t in zip(self.feature, self.threshold)],
            "left": self.left.tolist(),
            "right": np.where(self.feature < 0, -1, self.left + 1).tolist(),
            "cell": self.cell.tolist(),
        }


def trees_from_splits(split_lists) -> list[TreePartition]:
    """The trees grown from a root leaf (node 0) by each list of splits
    (node, feature, threshold): split k turns leaf ``node`` into an inner
    node whose children are nodes 2k+1 (left) and 2k+2 (right).  All trees
    are laid out in one pass over shared node arrays, each tree's arrays a
    slice of them."""
    counts = np.array([len(splits) for splits in split_lists], dtype=np.int64)
    sizes = 2 * counts + 1
    starts = np.concatenate(([0], np.cumsum(sizes)))
    feature, left, cell = (np.full(starts[-1], -1, dtype=np.int64) for _ in range(3))
    threshold = np.full(starts[-1], np.nan)
    flat = [split for splits in split_lists for split in splits]
    if flat:
        node, feature_of, threshold_of = (np.array(column) for column in zip(*flat))
        node = node + np.repeat(starts[:-1], counts)
        k = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
        feature[node], threshold[node] = feature_of, threshold_of
        left[node] = 2 * k + 1
    leaf = feature < 0
    leaves_before = np.cumsum(leaf) - leaf
    cell[leaf] = (leaves_before - np.repeat(leaves_before[starts[:-1]], sizes))[leaf]
    arrays = (feature, threshold, left, cell)
    return [TreePartition(*(a[start:stop] for a in arrays)) for start, stop in zip(starts[:-1], starts[1:])]


def _walk_trees(trees, X: np.ndarray) -> np.ndarray:
    """Leaf cell of every row of ``X`` in each tree, shape (len(trees), n): all
    trees descend at once over their concatenated nodes, a row from node i to
    ``left[i] + (x > threshold[i])``.  Each leaf is its own left child, and its
    NaN threshold never compares greater, so a row stays once at a leaf."""
    n, d = X.shape
    starts = np.cumsum([0] + [len(t.feature) for t in trees])
    fields = ("feature", "threshold", "left", "cell")
    feature, threshold, left, cell = (np.concatenate([getattr(t, f) for t in trees]) for f in fields)
    inner = feature >= 0
    left = np.where(inner, left + np.repeat(starts[:-1], np.diff(starts)), np.arange(len(inner)))
    feature = np.where(inner, feature, 0)
    x = X.ravel()
    offset = np.tile(np.arange(n) * d, len(trees))
    node = np.repeat(starts[:-1], n)
    while inner[node].any():
        node = left[node] + (x[offset + feature[node]] > threshold[node])
    return cell[node].reshape(len(trees), n)


def stacked_cells(partitions, X) -> np.ndarray:
    """Cells of ``X`` in every partition, shape (P, n): row i is partition i's
    cells plus the cell count of the partitions before it, so the partitions
    own disjoint cell ids.  All ``TreePartition``s share one walk; other
    partitions map points with their own ``cell_of``."""
    X = _as_matrix(X)
    is_tree = [isinstance(p, TreePartition) for p in partitions]
    walked = iter(_walk_trees([p for p, tree in zip(partitions, is_tree) if tree], X) if any(is_tree) else ())
    rows = [next(walked) if tree else p.cell_of(X) for p, tree in zip(partitions, is_tree)]
    offsets = np.cumsum([0] + [p.n_cells for p in partitions])[:-1]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(X)) + offsets[:, None]


def _require_halvable(w: Window):
    """Tree builders cut at midpoints 0.5 * (a + b) and draw between two
    values; both stay finite while no feature exceeds half the largest float."""
    if np.abs(w.x).max() > np.finfo(float).max / 2:
        raise DataError("features exceed half the largest float, so tree thresholds overflow; rescale the features")


def build_marginal(w: Window, bins_per_dim: int = 8, edge_mode: str = "equilikely") -> list[Binning1D]:
    """One 1-D binning per feature (coordinate-axis projections)."""
    edges = column_edges(w.x, bins_per_dim, edge_mode)
    return [Binning1D(axis, e) for axis, e in zip(np.eye(w.dim), edges)]


def _binnings(w: Window, axes, bins: int, edge_mode: str) -> list[Binning1D]:
    """Binnings along ``axes``: each projection is its own product, as
    ``cell_of`` computes it, and the edges of all are taken at once."""
    # a projection that overflows is refused by column_edges, without a warning
    with np.errstate(over="ignore"):
        P = np.column_stack([w.x @ axis for axis in axes])
    return [Binning1D(axis, e) for axis, e in zip(axes, column_edges(P, bins, edge_mode))]


def build_random_projection(
    w: Window,
    n_axes: int | None = None,
    bins_per_axis: int = 8,
    edge_mode: str = "equilikely",
    seed=None,
) -> list[Binning1D]:
    """Binnings along random Gaussian directions (normalized to unit length)."""
    if n_axes is None:
        n_axes = 2 * w.dim
    if n_axes < 1:
        raise ParameterError("n_axes must be >= 1")
    rng = as_generator(seed)
    axes = []
    for _ in range(n_axes):
        axis = rng.standard_normal(w.dim)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            axis[0] = 1.0
            norm = 1.0
        axes.append(axis / norm)
    return _binnings(w, axes, bins_per_axis, edge_mode)


def build_pca_projection(
    w: Window, n_axes: int | None = None, bins_per_axis: int = 8, edge_mode: str = "equilikely"
) -> list[Binning1D]:
    """Binnings along principal components.

    Baseline only: principal directions can be blind to drift that leaves
    the large-variance structure untouched, so this builder is kept out of
    the benchmark defaults.
    """
    if n_axes is None:
        n_axes = w.dim
    if n_axes < 1:
        raise ParameterError("n_axes must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = w.x - w.x.mean(axis=0)
        cov = centered.T @ centered / max(len(w) - 1, 1)
    if not np.isfinite(cov).all():
        raise DataError("feature covariance overflows; rescale the features")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_axes]
    return _binnings(w, [eigvecs[:, j] for j in order], bins_per_axis, edge_mode)


def build_grid(w: Window, bins_per_dim: int = 4, edge_mode: str = "equidistant") -> GridPartition:
    """Full product grid over all features."""
    edges = column_edges(w.x, bins_per_dim, edge_mode)
    if np.prod([len(e) + 1 for e in edges], dtype=float) > MAX_GRID_CELLS:
        raise ParameterError(f"grid would exceed {MAX_GRID_CELLS} cells")
    return GridPartition(tuple(edges))


def build_random_trees(w: Window, n_trees: int, n_leaves: int = 16, seed=None, min_leaf: int = 5) -> list[TreePartition]:
    """Grow ``n_trees`` trees, one after another from one generator, by
    uniformly random (leaf, feature, threshold) choices.

    Thresholds are drawn uniformly between the leaf's min_leaf-th smallest
    and min_leaf-th largest value of the chosen feature, so every leaf keeps
    at least ``min_leaf`` build samples.  Growth stops at ``n_leaves`` or
    when no leaf can be split.  Every tree grows on the whole window, so one
    stable argsort per feature serves them all: a leaf holds its rows as a
    (d, m) matrix, row f in feature f's sorted order, and its order
    statistics are index reads (presorted attribute lists, as in SLIQ:
    Mehta, Agrawal & Rissanen 1996).
    """
    _require_halvable(w)
    if not (n_leaves >= 2 and min_leaf >= 1 and n_trees >= 1):
        raise ParameterError("n_leaves must be >= 2, min_leaf >= 1 and n_trees >= 1")
    rng = as_generator(seed)
    xt = np.ascontiguousarray(w.x.T)
    d, n = xt.shape
    presorted = np.argsort(xt, axis=1, kind="stable")
    split_lists = []
    for _ in range(n_trees):
        splits = []
        # (node, rows of its parent, mask of its own rows or None for all)
        # of each leaf that may still split, in growth order; a leaf's rows
        # are taken only when it is picked
        open_leaves = [(0, presorted, None)] if n >= 2 * min_leaf else []
        while open_leaves and len(splits) + 1 < n_leaves:
            nid, rows, keep = open_leaves.pop(rng.integers(len(open_leaves)))
            if keep is not None:
                rows = rows[keep].reshape(d, -1)
            m = rows.shape[1]
            for f in rng.permutation(d):
                lo, hi = xt[f, rows[f, min_leaf - 1]], xt[f, rows[f, m - min_leaf]]
                if hi > lo:
                    thr = float(rng.uniform(lo, hi))
                    if thr >= hi:
                        thr = 0.5 * (lo + hi)
                    break
            else:  # no feature separates the leaf: it stays a leaf for good
                continue
            left = (xt[f] <= thr)[rows]
            n_left = int(np.count_nonzero(left[0]))
            lc = 2 * len(splits) + 1
            splits.append((nid, int(f), thr))
            if n_left >= 2 * min_leaf:
                open_leaves.append((lc, rows, left))
            if m - n_left >= 2 * min_leaf:
                open_leaves.append((lc + 1, rows, ~left))
        split_lists.append(splits)
    return trees_from_splits(split_lists)


def build_random_tree(w: Window, n_leaves: int = 16, seed=None, min_leaf: int = 5) -> TreePartition:
    """One random tree: ``build_random_trees`` with a single tree."""
    return build_random_trees(w, 1, n_leaves, seed, min_leaf)[0]


def build_kdq_tree(w: Window, min_side: float = 0.05, min_count: int = 10) -> TreePartition:
    """Cycle through dimensions, splitting each cell at the midpoint of its box.

    The bounding box is computed from the window once and frozen.  A cell is
    not split when its sample count is below ``min_count`` or when halving
    the current dimension would create sides shorter than ``min_side``.
    """
    _require_halvable(w)
    if not min_side > 0:
        raise ParameterError("min_side must be positive")
    x = w.x
    d = w.dim
    box_lo, box_hi = x.min(axis=0), x.max(axis=0)
    splits = []
    stack = [(0, np.arange(len(w)), box_lo.copy(), box_hi.copy(), 0)]
    while stack:
        nid, idx, lo, hi, depth = stack.pop()
        dim = depth % d
        side = hi[dim] - lo[dim]
        if len(idx) < min_count or side / 2.0 < min_side or depth >= KDQ_MAX_DEPTH:
            continue
        mid = 0.5 * (lo[dim] + hi[dim])
        mask = x[idx, dim] <= mid
        lc = 2 * len(splits) + 1
        splits.append((nid, dim, mid))
        l_hi, r_lo = hi.copy(), lo.copy()
        l_hi[dim] = mid
        r_lo[dim] = mid
        stack.append((lc + 1, idx[~mask], r_lo, hi.copy(), depth + 1))
        stack.append((lc, idx[mask], lo.copy(), l_hi, depth + 1))
    return trees_from_splits([splits])[0]
