"""Moment trees: decision trees over features with arrival time as target.

Each split maximizes the weighted squared distance between the children's
time-moment vectors (mean of T, T^2, ..., T^D), so the fitted tree models
the conditional time distribution and reacts to the temporal ordering
inside the window, unlike the pure partition builders, which ignore
timestamps at build time.  This module only fits trees; the detector
evaluates a forest like any other set of partitions, with cumulative leaf
histograms of the evaluation window averaged over trees.

One grower fits every forest.  ``_grow_forest`` grows a window's trees
depth-first as a generator that yields each node's split request, and
``_grow_in_lockstep`` answers the pending requests of many windows in one
padded ``_best_splits`` pass, so the forests of a batch of windows
(``fit_moment_forests``) grow together while each draws from its own
generator exactly what it draws alone (``fit_moment_forest`` is the batch of
one, and ``fit_moment_tree`` its one-tree 'dt' forest).  Each tree argsorts
its features once; a node's rows stay in every feature's sorted order as the
tree splits them (presorted attribute lists, as in SLIQ: Mehta, Agrawal &
Rissanen 1996), so no node sorts.  A tree is
recorded as its list of splits, in growth order, and a forest's lists are
laid out together by ``partitions.trees_from_splits``; a fitted tree keeps
only its partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .partitions import TreePartition, trees_from_splits
from .seeding import as_generator
from .windows import Window

VARIANT_DT = "dt"
VARIANT_RF = "rf"

# scores below this are prefix-sum rounding noise, not a real moment contrast
MIN_SPLIT_SCORE = 1e-24
# nodes above CANDIDATE_NODE_SIZE samples keep at most MAX_CANDIDATES thresholds
# per feature, evenly spaced over the distinct cuts
MAX_CANDIDATES = 64
CANDIDATE_NODE_SIZE = 256


@dataclass(frozen=True)
class MomentTreeConfig:
    degree: int = 2
    min_leaf: int = 10
    max_depth: int = 8

    def __post_init__(self):
        if self.degree < 1 or self.min_leaf < 1 or self.max_depth < 0:
            raise ParameterError("invalid moment tree config")


@dataclass(frozen=True)
class MomentTree:
    """A fitted tree: its partition of feature space, all that evaluation reads."""

    partition: TreePartition

    @property
    def n_cells(self) -> int:
        return self.partition.n_cells

    def cell_of(self, X) -> np.ndarray:
        return self.partition.cell_of(X)

    def to_dict(self) -> dict:
        doc = self.partition.to_dict()
        doc["kind"] = "moment_tree"
        return doc


@dataclass(frozen=True)
class MomentForest:
    trees: tuple[MomentTree, ...]


def _best_splits(requests, min_leaf: int) -> list:
    """Answer the split requests of many nodes in one padded pass.

    A request holds a node's values on each of its k drawn features, shape
    (k, m), each row in that feature's stable sort order, and the time
    powers of the same rows, shape (D, k, m).  Rows are padded to the
    longest node with +inf values and zero time powers; the prefix sums run
    sequentially along the rows and the squared moment contrasts are summed
    over a contiguous last axis of length D, so every real cut sees the
    same arithmetic as a node scored alone.  A cut must leave ``min_leaf``
    samples on each side and separate two distinct values; above
    CANDIDATE_NODE_SIZE samples, at most MAX_CANDIDATES of them, evenly
    spaced, are scored.  The answer for a node is (j, threshold) for its
    best cut, on its j-th feature, or None: the first feature in drawn order
    whose first best cut scores highest, if that score exceeds
    MIN_SPLIT_SCORE.
    """
    ks = [values.shape[0] for values, _ in requests]
    sizes = [values.shape[1] for values, _ in requests]
    n_rows, width, degree = sum(ks), max(sizes), requests[0][1].shape[0]
    values = np.full((n_rows, width), np.inf)
    t_pows = np.zeros((degree, n_rows, width))
    start = 0
    for v, p in requests:
        k, size = v.shape
        values[start : start + k, :size] = v
        t_pows[:, start : start + k, :size] = p
        start += k
    prefix = np.cumsum(t_pows, axis=2)

    # the cut after the first c rows, for c in [min_leaf, width - min_leaf];
    # padding adds zeros to the last prefix sum, so it is each row's total
    lo, hi = min_leaf - 1, width - min_leaf
    m = np.repeat(np.array(sizes, dtype=float), ks)
    cuts = np.arange(float(min_leaf), hi + 1)
    ok = (cuts <= m[:, None] - min_leaf) & (values[:, lo:hi] < values[:, lo + 1 : hi + 1])
    if width > CANDIDATE_NODE_SIZE:
        for row in np.flatnonzero(m > CANDIDATE_NODE_SIZE):
            candidates = np.flatnonzero(ok[row])
            if len(candidates) > MAX_CANDIDATES:
                sel = np.unique(np.round(np.linspace(0, len(candidates) - 1, MAX_CANDIDATES)).astype(int))
                ok[row] = False
                ok[row, candidates[sel]] = True
    row, col = np.nonzero(ok)
    c, mr = cuts[col], m[row]
    before = prefix[:, row, col + lo]
    contrast = (before / c - (prefix[:, row, -1] - before) / (mr - c)) ** 2
    # summed over a contiguous last axis, as numpy sums each cut's (D,) row
    scores = np.full(ok.shape, -np.inf)
    scores[row, col] = c * (mr - c) / mr**2 * np.ascontiguousarray(contrast.T).sum(axis=1)

    best, best_score = scores.argmax(axis=1), scores.max(axis=1)
    answers, start = [], 0
    for k in ks:
        j = start + int(best_score[start : start + k].argmax())
        if best_score[j] > MIN_SPLIT_SCORE:
            p = lo + best[j]
            answers.append((j - start, 0.5 * (values[j, p] + values[j, p + 1])))
        else:
            answers.append(None)
        start += k
    return answers


def _grow_forest(w: Window, n_trees: int, config: MomentTreeConfig, rng, variant: str):
    """Grow one window's forest; a generator that yields each node's split
    request to ``_best_splits`` and receives its answer, and returns the
    MomentForest.

    Trees grow one after another, each depth-first in preorder.  'rf' draws
    each tree's bootstrap and then, at each node that passes the depth and
    size test, ``rng.permutation(d)[:n_sub]``; 'dt' draws nothing.  A node
    holds the (d, m) matrix of its rows, row f in feature f's stable sort
    order; its children filter that matrix by ``x[:, f] <= threshold``.
    """
    n, d = w.x.shape
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if variant == VARIANT_RF else d
    every_feature = np.arange(d)
    splittable = 2 * config.min_leaf
    split_lists = []
    for _ in range(n_trees):
        xt, t = w.x.T, w.t
        if variant == VARIANT_RF:
            boot = rng.integers(0, n, size=n)
            xt, t = xt[:, boot], t[boot]
        xt = np.ascontiguousarray(xt)
        t_pows = np.stack([t**k for k in range(1, config.degree + 1)])
        splits = []
        # only nodes that pass the depth and size test go on the stack; the
        # others stay leaves and draw nothing
        stack = []
        if config.max_depth > 0 and n >= splittable:
            stack.append((0, np.argsort(xt, axis=1, kind="stable"), 0))
        while stack:
            node, rows, depth = stack.pop()
            features = rng.permutation(d)[:n_sub] if n_sub < d else every_feature
            sorted_rows = rows[features]
            split = yield xt[features[:, None], sorted_rows], t_pows[:, sorted_rows]
            if split is None:
                continue
            j, threshold = split
            f = int(features[j])
            lc = 2 * len(splits) + 1
            splits.append((node, f, threshold))
            if depth + 1 < config.max_depth:
                left = (xt[f] <= threshold)[rows]
                n_left = int(np.count_nonzero(left[0]))
                if rows.shape[1] - n_left >= splittable:
                    stack.append((lc + 1, rows[~left].reshape(d, -1), depth + 1))
                if n_left >= splittable:
                    stack.append((lc, rows[left].reshape(d, -1), depth + 1))
        split_lists.append(splits)
    return MomentForest(tuple(MomentTree(tree) for tree in trees_from_splits(split_lists)))


def _grow_in_lockstep(growers, min_leaf: int) -> list[MomentForest]:
    """Run forest growers together: each round answers the pending request
    of every grower in one ``_best_splits`` pass."""
    forests = [None] * len(growers)
    pending: dict = {}

    def advance(i, answer):
        try:
            pending[i] = growers[i].send(answer)
        except StopIteration as done:
            forests[i] = done.value
            pending.pop(i, None)

    for i in range(len(growers)):
        advance(i, None)
    while pending:
        waiting = list(pending)
        for i, answer in zip(waiting, _best_splits([pending[i] for i in waiting], min_leaf)):
            advance(i, answer)
    return forests


def fit_moment_tree(w: Window, config: MomentTreeConfig | None = None, seed=None) -> MomentTree:
    """Fit a single moment tree on the full window (no sub-sampling)."""
    return fit_moment_forest(w, 1, config, seed, VARIANT_DT).trees[0]


def fit_moment_forests(
    windows, n_trees: int, config: MomentTreeConfig | None, rngs, variant: str = VARIANT_RF
) -> list[MomentForest]:
    """Fit one forest per window, all in lockstep; window i draws from rngs[i].

    The 'rf' variant bootstraps the window per tree and subsamples sqrt(d)
    features per node; the 'dt' variant grows every tree on the full window
    with all features.  Each forest equals the one ``fit_moment_forest``
    fits on its window alone from the same generator.
    """
    if n_trees < 1:
        raise ParameterError("n_trees must be >= 1")
    if variant not in (VARIANT_DT, VARIANT_RF):
        raise ParameterError(f"unknown variant {variant!r}")
    if any(len(w) == 0 for w in windows):
        raise ParameterError("cannot fit on an empty window")
    rngs = [as_generator(r) for r in rngs]
    if len(rngs) != len(windows) or len({id(r) for r in rngs}) != len(rngs):
        raise ParameterError("each window needs a generator of its own")
    config = config or MomentTreeConfig()
    growers = [_grow_forest(w, n_trees, config, rng, variant) for w, rng in zip(windows, rngs)]
    return _grow_in_lockstep(growers, config.min_leaf)


def fit_moment_forest(
    w: Window,
    n_trees: int = 16,
    config: MomentTreeConfig | None = None,
    seed=None,
    variant: str = VARIANT_RF,
) -> MomentForest:
    """Fit an ensemble of moment trees on one window (see ``fit_moment_forests``)."""
    return fit_moment_forests([w], n_trees, config, [as_generator(seed)], variant)[0]


def truncate_reference(w: Window, skip_fraction: float, *, drift_time: float | None = None) -> Window:
    """Drop samples from the trailing band of the reference time range.

    The reference range runs from the window's first timestamp to
    ``drift_time`` (default: the window's last timestamp); samples whose
    timestamps fall in its last ``skip_fraction`` are removed.  Used before
    fitting time-aware descriptors; evaluation still sees the full window.
    """
    if not 0.0 <= skip_fraction < 0.5:
        raise ParameterError("skip_fraction must lie in [0, 0.5)")
    if skip_fraction == 0.0 or len(w) == 0:
        return w
    t_lo = float(w.t[0])
    t_end = float(w.t[-1]) if drift_time is None else float(drift_time)
    cut = t_lo + (1.0 - skip_fraction) * (t_end - t_lo)
    keep = ~((w.t > cut) & (w.t <= t_end))
    if not keep.any():
        raise ParameterError("truncation would drop the whole window")
    return Window(w.x[keep], w.t[keep], w.label_feature_appended)

