"""Data-space partitions used as binning descriptors.

Builders: per-feature marginal binning, full grids, random-projection
binning, random trees and kdq-trees.  Every builder is deterministic given
(window, config, seed); the resulting partitions are immutable, map any
point to a cell (out-of-range values land in the nearest boundary cell)
and serialize to plain dicts.  A partition holds only what ``cell_of``
reads: an axis and its edges, the edges of each feature, or the tree
arrays; the builder's arguments are not kept.  Tree builders record their
splits in a list and ``tree_from_splits`` lays the list out as a
``TreePartition``; ``stacked_cells`` maps points through all of a
descriptor's partitions at once, every ``TreePartition`` in one shared walk.
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


def make_edges(values: np.ndarray, bins: int, edge_mode: str) -> np.ndarray:
    """Interior bin edges over observed values.

    'equidistant' spaces edges evenly over the observed range, 'equilikely'
    places them at empirical quantiles.  Duplicate edges are collapsed, so a
    constant feature yields no edge: a single bin.
    """
    if bins < 2:
        raise ParameterError("bins must be >= 2")
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.empty(0)
    if edge_mode == "equidistant":
        edges = np.linspace(lo, hi, bins + 1)[1:-1]
    elif edge_mode == "equilikely":
        edges = np.quantile(values, np.arange(1, bins) / bins)
    else:
        raise ParameterError(f"unknown edge_mode {edge_mode!r}")
    edges = np.unique(edges)
    edges = edges[(edges > lo) & (edges <= hi)]
    return edges


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
    cell index ``cell[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
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
            "right": self.right.tolist(),
            "cell": self.cell.tolist(),
        }


def tree_from_splits(splits) -> TreePartition:
    """The tree grown from a root leaf (node 0) by ``splits``, a list of
    (node, feature, threshold): split k turns leaf ``node`` into an inner node
    whose children are nodes 2k+1 (left) and 2k+2 (right)."""
    size = 2 * len(splits) + 1
    feature, left, right, cell = (np.full(size, -1, dtype=np.int64) for _ in range(4))
    threshold = np.full(size, np.nan)
    if splits:
        node, feature_of, threshold_of = (np.array(column) for column in zip(*splits))
        feature[node], threshold[node] = feature_of, threshold_of
        left[node] = np.arange(1, size, 2)
        right[node] = left[node] + 1
    leaves = np.flatnonzero(feature < 0)
    cell[leaves] = np.arange(len(leaves))
    return TreePartition(feature, threshold, left, right, cell)


def _walk_trees(trees, X: np.ndarray) -> np.ndarray:
    """Leaf cell of every row of ``X`` in each tree, shape (len(trees), n): all
    trees descend at once over their concatenated nodes, each leaf its own child."""
    n, d = X.shape
    starts = np.cumsum([0] + [len(t.feature) for t in trees])
    fields = ("feature", "threshold", "left", "right", "cell")
    feature, threshold, left, right, cell = (np.concatenate([getattr(t, f) for t in trees]) for f in fields)
    inner = feature >= 0
    shift = np.repeat(starts[:-1], np.diff(starts))
    # child[2 * node + goes_left]
    child = np.where(inner, np.stack([right + shift, left + shift]), np.arange(len(inner))).T.ravel()
    feature = np.where(inner, feature, 0)
    x = X.ravel()
    offset = np.tile(np.arange(n) * d, len(trees))
    node = np.repeat(starts[:-1], n)
    while inner[node].any():
        node = child[2 * node + (x[offset + feature[node]] <= threshold[node])]
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


def _require_window(w: Window):
    if len(w) == 0:
        raise ParameterError("cannot build a partition on an empty window")


def build_marginal(w: Window, bins_per_dim: int = 8, edge_mode: str = "equilikely") -> list[Binning1D]:
    """One 1-D binning per feature (coordinate-axis projections)."""
    _require_window(w)
    out = []
    for j in range(w.dim):
        axis = np.zeros(w.dim)
        axis[j] = 1.0
        out.append(Binning1D(axis, make_edges(w.x[:, j], bins_per_dim, edge_mode)))
    return out


def build_random_projection(
    w: Window,
    n_axes: int | None = None,
    bins_per_axis: int = 8,
    edge_mode: str = "equilikely",
    seed=None,
) -> list[Binning1D]:
    """Binnings along random Gaussian directions (normalized to unit length)."""
    _require_window(w)
    if n_axes is None:
        n_axes = 2 * w.dim
    if n_axes < 1:
        raise ParameterError("n_axes must be >= 1")
    rng = as_generator(seed)
    out = []
    for _ in range(n_axes):
        axis = rng.standard_normal(w.dim)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            axis[0] = 1.0
            norm = 1.0
        axis = axis / norm
        out.append(Binning1D(axis, make_edges(w.x @ axis, bins_per_axis, edge_mode)))
    return out


def build_pca_projection(
    w: Window, n_axes: int | None = None, bins_per_axis: int = 8, edge_mode: str = "equilikely"
) -> list[Binning1D]:
    """Binnings along principal components.

    Baseline only: principal directions can be blind to drift that leaves
    the large-variance structure untouched, so this builder is kept out of
    the benchmark defaults.
    """
    _require_window(w)
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
    out = []
    for j in order:
        axis = eigvecs[:, j]
        out.append(Binning1D(axis, make_edges(w.x @ axis, bins_per_axis, edge_mode)))
    return out


def build_grid(w: Window, bins_per_dim: int = 4, edge_mode: str = "equidistant") -> GridPartition:
    """Full product grid over all features."""
    _require_window(w)
    edges = []
    total = 1
    for j in range(w.dim):
        e = make_edges(w.x[:, j], bins_per_dim, edge_mode)
        edges.append(e)
        total *= len(e) + 1
        if total > MAX_GRID_CELLS:
            raise ParameterError(f"grid would exceed {MAX_GRID_CELLS} cells")
    return GridPartition(tuple(edges))


def build_random_tree(w: Window, n_leaves: int = 16, seed=None, min_leaf: int = 5) -> TreePartition:
    """Grow a tree by uniformly random (leaf, feature, threshold) choices.

    Thresholds are drawn uniformly between the leaf's min_leaf-th smallest
    and min_leaf-th largest value of the chosen feature, so every leaf keeps
    at least ``min_leaf`` build samples.  Growth stops at ``n_leaves`` or
    when no leaf can be split.
    """
    _require_window(w)
    if n_leaves < 2 or min_leaf < 1:
        raise ParameterError("n_leaves must be >= 2 and min_leaf >= 1")
    rng = as_generator(seed)
    x = w.x
    splits = []
    # (node, build samples) of each leaf that may still split, in growth order
    open_leaves = [(0, np.arange(len(w)))] if len(w) >= 2 * min_leaf else []
    while open_leaves and len(splits) + 1 < n_leaves:
        nid, idx = open_leaves.pop(rng.integers(len(open_leaves)))
        for f in rng.permutation(x.shape[1]):
            v = np.sort(x[idx, f])
            lo, hi = v[min_leaf - 1], v[len(v) - min_leaf]
            if hi > lo:
                thr = float(rng.uniform(lo, hi))
                if thr >= hi:
                    thr = 0.5 * (lo + hi)
                break
        else:  # no feature separates the leaf: it stays a leaf for good
            continue
        mask = x[idx, f] <= thr
        lc = 2 * len(splits) + 1
        splits.append((nid, int(f), thr))
        open_leaves += [(c, part) for c, part in ((lc, idx[mask]), (lc + 1, idx[~mask])) if len(part) >= 2 * min_leaf]
    return tree_from_splits(splits)


def build_kdq_tree(w: Window, min_side: float = 0.05, min_count: int = 10) -> TreePartition:
    """Cycle through dimensions, splitting each cell at the midpoint of its box.

    The bounding box is computed from the window once and frozen.  A cell is
    not split when its sample count is below ``min_count`` or when halving
    the current dimension would create sides shorter than ``min_side``.
    """
    _require_window(w)
    if min_side <= 0:
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
    return tree_from_splits(splits)
