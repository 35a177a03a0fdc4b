"""Moment trees: decision trees over features with arrival time as target.

Each split maximizes the weighted squared distance between the children's
time-moment vectors (mean of T, T^2, ..., T^D), so the fitted tree models
the conditional time distribution and reacts to the temporal ordering
inside the window, unlike the pure partition builders, which ignore
timestamps at build time.  This module only fits trees; the detector
evaluates a forest like any other set of partitions, with cumulative leaf
histograms of the evaluation window averaged over trees.

One grower fits every forest.  ``fit_moment_forests`` lays out its windows
once, side by side: features as one (d_max, N + 1) array and time powers as
one (D, N + 1) array, the last column a sentinel (+inf values, zero time
powers); a node's rows are columns of them.  ``_grow_forest`` grows a
window's trees as a generator that yields rounds of split requests, and
``_grow_in_lockstep`` answers many windows' rounds together: a round that
fits a block of _BLOCK_ELEMENTS values is one ``_best_splits`` gather padded
with the sentinel, a wider round one gather per block, so a batch's forests
grow together while each draws from its own generator what it draws alone
(``fit_moment_forest`` is the batch of one, and ``fit_moment_tree`` its
one-tree 'dt' forest).  Where nodes draw their features ('rf' with fewer
features per node than d), a round is one node, in depth-first preorder, so
the draws keep their order; where they draw nothing ('dt', and 'rf' with
d <= 2), a round is every open node of every tree, so a forest grows level by
level in a few passes.  Each tree argsorts its features once; a node's rows
stay in every feature's sorted order as the tree splits them (presorted
attribute lists, as in SLIQ: Mehta, Agrawal & Rissanen 1996), so no node
sorts.  A tree's splits are recorded at their nodes and listed in
depth-first preorder, and a forest's lists are laid out together by
``partitions.trees_from_splits``, so a tree has the same node numbers
whichever way it grew; a fitted tree keeps only its partition.  Features
beyond half the largest float are refused with ``DataError``, since a
midpoint threshold of them can overflow.
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


def _best_splits(xt, t_pows, requests, min_leaf: int) -> list:
    """Answer the split requests of many nodes in one gather.

    ``xt`` (d, N + 1) and ``t_pows`` (D, N + 1) are a lockstep's stacked
    features and time powers, the last column a sentinel of +inf values and
    zero time powers.  A request (features, rows) is a node: ``rows`` (k, m)
    holds its columns in the stable sort order of each of its k drawn
    ``features``.  One index matrix, padded to the longest node with the
    sentinel (a lone request is its own index), reads a block's values and
    time powers in one gather each.  Prefix sums run along the rows and
    squared contrasts are summed over a contiguous last axis of length D, so
    every real cut sees the arithmetic of a node scored alone.  A cut leaves
    ``min_leaf`` samples on each side and separates two distinct values;
    above CANDIDATE_NODE_SIZE samples, at most MAX_CANDIDATES, evenly
    spaced, are scored.  A request's candidates are one run of the row-major
    list; its answer is (j, threshold) for the run's first best cut, on its
    j-th drawn feature, if that scores above MIN_SPLIT_SCORE, else None.
    """
    ks = [len(features) for features, _ in requests]
    sizes = [rows.shape[1] for _, rows in requests]
    width = max(sizes)
    ragged = min(sizes) < width
    if len(requests) == 1:
        features, index = requests[0]
    else:
        features = np.concatenate([features for features, _ in requests])
        index = np.full((len(features), width), xt.shape[1] - 1)
        index[np.arange(width) < np.repeat(sizes, ks)[:, None]] = np.concatenate([rows.ravel() for _, rows in requests])
    values = xt[features[:, None], index]
    prefix = np.add.accumulate(t_pows.take(index, axis=1), axis=2)

    # the cut after the first c rows, for c in [min_leaf, width - min_leaf];
    # padding adds zeros to the last prefix sum, so it is each row's total
    lo, hi = min_leaf - 1, width - min_leaf
    ok = values[:, lo:hi] < values[:, lo + 1 : hi + 1]
    m = np.repeat(np.array(sizes, dtype=float), ks) if ragged else float(width)
    if ragged:
        ok &= np.arange(float(min_leaf), hi + 1) <= m[:, None] - min_leaf
    if width > CANDIDATE_NODE_SIZE:
        _thin_candidates(ok, m)
    row, col = ok.nonzero()
    # the cut size c = col + min_leaf, exact as a double
    c, mr = col + float(min_leaf), m[row] if ragged else m
    rest = mr - c
    # the row-major candidates, as nonzero lists them, and each one's row total
    before = prefix[:, :, lo:hi][:, ok]
    contrast = (before / c - (prefix[:, :, -1].take(row, axis=1) - before) / rest) ** 2
    # summed over a contiguous last axis, as numpy sums each cut's (D,) row
    scores = c * rest / mr**2 * np.ascontiguousarray(contrast.T).sum(axis=1)

    ends = np.searchsorted(row, np.cumsum(ks)).tolist() if len(ks) > 1 else [len(row)]
    answers, start, first = [], 0, 0
    for k, end in zip(ks, ends):
        best = first + int(scores[first:end].argmax()) if end > first else None
        if best is not None and scores[best] > MIN_SPLIT_SCORE:
            j, p = int(row[best]), lo + int(col[best])
            answers.append((j - start, 0.5 * (values[j, p] + values[j, p + 1])))
        else:
            answers.append(None)
        start, first = start + k, end
    return answers


def _grow_forest(xt, offset: int, n: int, d: int, n_trees: int, config: MomentTreeConfig, rng, variant: str):
    """Grow the forest of the window at ``xt[:d, offset : offset + n]``; a
    generator that yields rounds of split requests to ``_best_splits``,
    receives each round's answers, and returns the MomentForest.

    'rf' draws each tree's bootstrap and then, at each node that passes the
    depth and size test, ``rng.permutation(d)[:n_sub]``; 'dt' draws nothing.
    When nodes draw ('rf' with n_sub < d), trees grow one after another,
    each depth-first in preorder, and a round is the node on top of the
    stack.  When they do not, every bootstrap is drawn first (the same draws
    in the same order) and a round is every open node of every tree, so the
    forest grows level by level.  A node holds the (d, m) matrix of its rows
    as columns of ``xt`` (the offset is added at the bootstrap or presort),
    row f in feature f's stable sort order; its children filter that matrix
    by ``xt[f][rows] <= threshold``.  Each split is recorded at its node,
    and each tree's splits are laid out at the end in depth-first preorder,
    left child first, so node numbers, leaves and cells are those of a
    depth-first growth whichever way the tree grew.
    """
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if variant == VARIANT_RF else d
    draws = n_sub < d
    every_feature = np.arange(d)
    splittable = 2 * config.min_leaf
    grows = config.max_depth > 0 and n >= splittable
    window = xt[:d, offset : offset + n]
    presorted = np.argsort(window, axis=1, kind="stable") + offset if grows and variant == VARIANT_DT else None
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
                    rows = boot[np.argsort(window[:, boot], axis=1, kind="stable")] + offset if grows else None
                if grows:
                    open_nodes.append((roots[-1], 0, rows, 0))
            continue
        if draws:
            nodes = [open_nodes.pop()]
            features = rng.permutation(d)[:n_sub]
            answers = yield [(features, nodes[0][2][features])]
        else:
            nodes, open_nodes = open_nodes, []
            features = every_feature
            answers = yield [(features, rows) for _, _, rows, _ in nodes]
        for (slots, slot, rows, depth), split in zip(nodes, answers):
            if split is None:
                continue
            j, threshold = split
            f = int(features[j])
            slots[slot] = split = [f, threshold, None, None]
            if depth + 1 < config.max_depth:
                left = xt[f][rows] <= threshold
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
    indices: None if the whole round's padded block holds at most
    _BLOCK_ELEMENTS values, so the round is one call, else the widest
    requests first, in blocks of at most that many values (or one request,
    if larger), so that little of a block is padding."""
    ks = [len(features) for features, _ in requests]
    widths = [rows.shape[1] for _, rows in requests]
    if sum(ks) * max(widths) <= _BLOCK_ELEMENTS:
        return None
    blocks, n_rows = [], 0
    for r in sorted(range(len(requests)), key=widths.__getitem__, reverse=True):
        if not blocks or (n_rows + ks[r]) * widths[blocks[-1][0]] > _BLOCK_ELEMENTS:
            blocks.append([])
            n_rows = 0
        blocks[-1].append(r)
        n_rows += ks[r]
    return blocks


def _grow_in_lockstep(xt, t_pows, growers, min_leaf: int) -> list[MomentForest]:
    """Run forest growers over the stacked ``xt`` and ``t_pows`` together,
    one round of every live grower at a time.  A round of one request, or
    one that fits a block, is one ``_best_splits`` call whose answers go
    straight back to the growers; a wider round is one call per block of
    ``_blocks``, each gathering only its own requests.  Live growers and
    their pending requests are kept in two lists, in grower order."""
    forests = [None] * len(growers)
    # a grower's first send starts it, with no answers
    live, pending, answers = list(enumerate(growers)), [()] * len(growers), []
    while live:
        start, advanced, asking = 0, [], []
        for (i, grower), own in zip(live, pending):
            try:
                asking.append(grower.send(answers[start : start + len(own)] if own else None))
                advanced.append((i, grower))
            except StopIteration as done:
                forests[i] = done.value
            start += len(own)
        # rebinding drops the last round's requests, so a round holds one level of node rows
        live, pending = advanced, asking
        requests = [request for own in pending for request in own]
        blocks = _blocks(requests) if len(requests) > 1 else None
        if blocks is None:
            answers = _best_splits(xt, t_pows, requests, min_leaf) if requests else []
        else:
            answers = [None] * len(requests)
            for block in blocks:
                for r, answer in zip(block, _best_splits(xt, t_pows, [requests[r] for r in block], min_leaf)):
                    answers[r] = answer
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
    # every window's columns side by side, then the sentinel column
    offsets = np.cumsum([0] + [len(w) for w in windows]).tolist()
    xt = np.full((max((w.x.shape[1] for w in windows), default=0), offsets[-1] + 1), np.inf)
    t_pows = np.zeros((config.degree, offsets[-1] + 1))
    for w, offset in zip(windows, offsets):
        xt[: w.x.shape[1], offset : offset + len(w)] = w.x.T
        t_pows[:, offset : offset + len(w)] = np.stack([w.t**k for k in range(1, config.degree + 1)])
    growers = [_grow_forest(xt, o, *w.x.shape, n_trees, config, rng, variant) for w, o, rng in zip(windows, offsets, rngs)]
    return _grow_in_lockstep(xt, t_pows, growers, config.min_leaf)


def fit_moment_forest(
    w: Window,
    n_trees: int = 16,
    config: MomentTreeConfig | None = None,
    seed=None,
    variant: str = VARIANT_RF,
) -> MomentForest:
    """Fit an ensemble of moment trees on one window (see ``fit_moment_forests``)."""
    return fit_moment_forests([w], n_trees, config, [as_generator(seed)], variant)[0]

