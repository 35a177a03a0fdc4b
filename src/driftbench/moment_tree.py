"""Moment trees: decision trees over features with arrival time as target.

Each split maximizes the weighted squared distance between the children's
time-moment vectors (mean of T, T^2, ..., T^D), so the fitted tree models
the conditional time distribution and reacts to the temporal ordering
inside the window, unlike the pure partition builders, which ignore
timestamps at build time.  This module only fits trees; the detector
evaluates a forest like any other set of partitions, with cumulative leaf
histograms of the evaluation window averaged over trees.

One grower fits every forest.  ``_grow_forest`` grows a window's trees as
a generator that yields rounds of split requests, and ``_grow_in_lockstep``
answers the rounds of many windows together, in blocks of padded
``_best_splits`` passes, so the forests of a batch of windows
(``fit_moment_forests``) grow together while each draws from its own
generator exactly what it draws alone (``fit_moment_forest`` is the batch of
one, and ``fit_moment_tree`` its one-tree 'dt' forest).  Where nodes draw
their features ('rf' with fewer features per node than d), a round is one
node, in depth-first preorder, so the draws keep their order; where they
draw nothing ('dt', and 'rf' with d <= 2), a round is every open node of
every tree, so a forest grows level by level in a few passes.  Each tree
argsorts its features once; a node's rows stay in every feature's sorted
order as the tree splits them (presorted attribute lists, as in SLIQ:
Mehta, Agrawal & Rissanen 1996), so no node sorts.  A tree's splits are
recorded at their nodes and listed in depth-first preorder, and a forest's
lists are laid out together by ``partitions.trees_from_splits``, so a tree
has the same node numbers whichever way it grew; a fitted tree keeps only
its partition.  Features beyond half the largest float are refused with
``DataError``, since a midpoint threshold of them can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .partitions import TreePartition, _require_halvable, trees_from_splits
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
# most padded values (rows x width) one ``_best_splits`` call scores, unless
# a single request is larger; bounds the per-call arrays as a round grows
_BLOCK_ELEMENTS = 8192


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


def _thin_candidates(ok: np.ndarray, m: np.ndarray) -> None:
    """Keep, on each row of ``ok`` whose node has more than CANDIDATE_NODE_SIZE
    samples (``m``) and more than MAX_CANDIDATES marked cuts, only the marked
    cuts at positions round(i·(L−1)/(MAX_CANDIDATES−1)) of its L marked ones,
    the last at L−1: ``np.linspace``'s own arithmetic.  The step exceeds 1, so
    no position repeats.  All rows are thinned in one pass, in place."""
    counts = np.count_nonzero(ok, axis=1)
    thin = np.flatnonzero((m > CANDIDATE_NODE_SIZE) & (counts > MAX_CANDIDATES))
    if len(thin) == 0:
        return
    counts = counts[thin]
    positions = np.round(np.arange(MAX_CANDIDATES) * ((counts[:, None] - 1) / (MAX_CANDIDATES - 1))).astype(np.int64)
    positions[:, -1] = counts - 1
    row, col = np.nonzero(ok[thin])
    keep = (positions + (np.cumsum(counts) - counts)[:, None]).ravel()
    ok[thin] = False
    ok[thin[row[keep]], col[keep]] = True


def _best_splits(requests, min_leaf: int) -> list:
    """Answer the split requests of many nodes in one padded pass.

    A request (xt, t_pows, features, rows) is a node of a tree over the
    features ``xt`` (d, n) and time powers ``t_pows`` (D, n) of its window:
    ``rows`` (k, m) holds the node's rows in the stable sort order of each
    of its k drawn ``features``.  The values and time powers are gathered
    here, each row padded to the longest node with +inf values and zero
    time powers; the prefix sums run sequentially along the rows and the
    squared moment contrasts are summed over a contiguous last axis of
    length D, so every real cut sees the same arithmetic as a node scored
    alone.  A cut must leave ``min_leaf`` samples on each side and separate
    two distinct values; above CANDIDATE_NODE_SIZE samples, at most
    MAX_CANDIDATES of them, evenly spaced, are scored.  The answer for a
    node is (j, threshold) for its best cut, on its j-th feature, or None:
    the first feature in drawn order whose first best cut scores highest,
    if that score exceeds MIN_SPLIT_SCORE.
    """
    ks = [len(features) for _, _, features, _ in requests]
    sizes = [rows.shape[1] for _, _, _, rows in requests]
    n_rows, width, degree = sum(ks), max(sizes), requests[0][1].shape[0]
    values = np.full((n_rows, width), np.inf)
    t_pows = np.zeros((degree, n_rows, width))
    start = 0
    for (xt, p, features, rows), k, size in zip(requests, ks, sizes):
        values[start : start + k, :size] = xt[features[:, None], rows]
        t_pows[:, start : start + k, :size] = p[:, rows]
        start += k
    prefix = np.cumsum(t_pows, axis=2)

    # the cut after the first c rows, for c in [min_leaf, width - min_leaf];
    # padding adds zeros to the last prefix sum, so it is each row's total
    lo, hi = min_leaf - 1, width - min_leaf
    m = np.repeat(np.array(sizes, dtype=float), ks)
    cuts = np.arange(float(min_leaf), hi + 1)
    ok = (cuts <= m[:, None] - min_leaf) & (values[:, lo:hi] < values[:, lo + 1 : hi + 1])
    if width > CANDIDATE_NODE_SIZE:
        _thin_candidates(ok, m)
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
    """Grow one window's forest; a generator that yields rounds of split
    requests to ``_best_splits``, receives each round's answers, and returns
    the MomentForest.

    'rf' draws each tree's bootstrap and then, at each node that passes the
    depth and size test, ``rng.permutation(d)[:n_sub]``; 'dt' draws
    nothing.  When nodes draw ('rf' with n_sub < d), trees grow one after
    another, each depth-first in preorder, and a round is the node on top of
    the stack.  When they do not, every bootstrap is drawn first (the same
    draws in the same order) and a round is every open node of every tree,
    so the forest grows level by level.  A node holds the (d, m) matrix of
    its rows, as window indices, row f in feature f's stable sort order; its
    children filter that matrix by ``x[:, f] <= threshold``.  Each split is
    recorded at its node, and each tree's splits are laid out at the end in
    depth-first preorder, left child first, so node numbers, leaves and
    cells are those of a depth-first growth whichever way the tree grew.
    """
    n, d = w.x.shape
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if variant == VARIANT_RF else d
    draws = n_sub < d
    every_feature = np.arange(d)
    splittable = 2 * config.min_leaf
    grows = config.max_depth > 0 and n >= splittable
    xt = np.ascontiguousarray(w.x.T)
    t_pows = np.stack([w.t**k for k in range(1, config.degree + 1)])
    presorted = np.argsort(xt, axis=1, kind="stable") if grows and variant == VARIANT_DT else None
    # each tree is a one-slot list holding its root split; a split is
    # [feature, threshold, left, right], each child its split or None.  An
    # open node is (slots, slot, rows, depth): its split goes to slots[slot].
    # Only nodes that pass the depth and size test open; the others stay
    # leaves and draw nothing.
    roots, open_nodes = [], []
    while len(roots) < n_trees or open_nodes:
        if not open_nodes:
            for _ in range(1 if draws else n_trees):
                roots.append([None])
                rows = presorted
                if variant == VARIANT_RF:
                    boot = rng.integers(0, n, size=n)
                    rows = boot[np.argsort(xt[:, boot], axis=1, kind="stable")] if grows else None
                if grows:
                    open_nodes.append((roots[-1], 0, rows, 0))
            continue
        if draws:
            nodes = [open_nodes.pop()]
            features = rng.permutation(d)[:n_sub]
            answers = yield [(xt, t_pows, features, nodes[0][2][features])]
        else:
            nodes, open_nodes = open_nodes, []
            features = every_feature
            answers = yield [(xt, t_pows, features, rows) for _, _, rows, _ in nodes]
        for (slots, slot, rows, depth), split in zip(nodes, answers):
            if split is None:
                continue
            j, threshold = split
            f = int(features[j])
            slots[slot] = split = [f, threshold, None, None]
            if depth + 1 < config.max_depth:
                left = (xt[f] <= threshold)[rows]
                n_left = int(np.count_nonzero(left[0]))
                if rows.shape[1] - n_left >= splittable:
                    open_nodes.append((split, 3, rows[~left].reshape(d, -1), depth + 1))
                if n_left >= splittable:
                    open_nodes.append((split, 2, rows[left].reshape(d, -1), depth + 1))
    return MomentForest(tuple(MomentTree(tree) for tree in trees_from_splits([_preorder(root) for (root,) in roots])))


def _preorder(root) -> list:
    """A tree's splits (node, feature, threshold) in depth-first preorder,
    left child first, numbered as ``trees_from_splits`` numbers them: the
    children of the k-th split are nodes 2k+1 and 2k+2."""
    splits, stack = [], [(root, 0)] if root else []
    while stack:
        (feature, threshold, left, right), node = stack.pop()
        lc = 2 * len(splits) + 1
        splits.append((node, feature, threshold))
        if right:
            stack.append((right, lc + 1))
        if left:
            stack.append((left, lc))
    return splits


def _blocks(requests):
    """Split a round's requests into ``_best_splits`` calls, as lists of
    indices: the whole round if its padded block holds at most
    _BLOCK_ELEMENTS values, else the widest requests first, in blocks of at
    most that many values (or one request, if larger), so that little of a
    block is padding."""
    ks = [len(features) for _, _, features, _ in requests]
    widths = [rows.shape[1] for _, _, _, rows in requests]
    if sum(ks) * max(widths) <= _BLOCK_ELEMENTS:
        return [range(len(requests))]
    blocks, n_rows = [], 0
    for r in sorted(range(len(requests)), key=widths.__getitem__, reverse=True):
        if not blocks or (n_rows + ks[r]) * widths[blocks[-1][0]] > _BLOCK_ELEMENTS:
            blocks.append([])
            n_rows = 0
        blocks[-1].append(r)
        n_rows += ks[r]
    return blocks


def _grow_in_lockstep(growers, min_leaf: int) -> list[MomentForest]:
    """Run forest growers together, one round of every grower at a time;
    each block of a round is one ``_best_splits`` call, which gathers only
    its own requests."""
    forests = [None] * len(growers)
    pending: dict = {}

    def advance(i, answers):
        try:
            pending[i] = growers[i].send(answers)
        except StopIteration as done:
            forests[i] = done.value
            pending.pop(i, None)

    for i in range(len(growers)):
        advance(i, None)
    while pending:
        waiting = list(pending)
        requests = [request for i in waiting for request in pending[i]]
        answers = [None] * len(requests)
        for block in _blocks(requests):
            for r, answer in zip(block, _best_splits([requests[r] for r in block], min_leaf)):
                answers[r] = answer
        start = 0
        for i in waiting:
            k = len(pending[i])
            advance(i, answers[start : start + k])
            start += k
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
    for w in windows:
        _require_halvable(w)
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

