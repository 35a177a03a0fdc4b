"""Moment trees: decision trees over features with arrival time as target.

Each split maximizes the weighted squared distance between the children's
time-moment vectors (mean of T, T^2, ..., T^D), so the fitted tree models
the conditional time distribution and reacts to the temporal ordering
inside the window, unlike the pure partition builders, which ignore
timestamps at build time.  This module only fits trees; the detector
evaluates a forest like any other set of partitions, with cumulative leaf
histograms of the evaluation window averaged over trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .partitions import Provenance, TreePartition, _TreeBuilder
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
    """A fitted tree: its partition of feature space and its config."""

    partition: TreePartition
    config: MomentTreeConfig

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


def _best_split(x, t_pows, idx, features, config):
    """Highest-scoring (feature, threshold) among candidate cuts, or None."""
    m = len(idx)
    best_score, best = MIN_SPLIT_SCORE, None
    for f in features:
        v = x[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ts = t_pows[idx[order]]
        prefix = np.cumsum(ts, axis=0)
        total = prefix[-1]
        cuts = np.arange(config.min_leaf, m - config.min_leaf + 1)
        cuts = cuts[vs[cuts - 1] < vs[cuts]]
        if len(cuts) == 0:
            continue
        if m > CANDIDATE_NODE_SIZE and len(cuts) > MAX_CANDIDATES:
            sel = np.unique(np.round(np.linspace(0, len(cuts) - 1, MAX_CANDIDATES)).astype(int))
            cuts = cuts[sel]
        mean_l = prefix[cuts - 1] / cuts[:, None]
        mean_r = (total - prefix[cuts - 1]) / (m - cuts)[:, None]
        weight = cuts * (m - cuts) / m**2
        scores = weight * ((mean_l - mean_r) ** 2).sum(axis=1)
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score = float(scores[j])
            best = (int(f), 0.5 * (vs[cuts[j] - 1] + vs[cuts[j]]))
    return best_score, best


def _grow_tree(x, t, config, rng, feature_subsample: bool, provenance: Provenance) -> MomentTree:
    n, d = x.shape
    t_pows = np.column_stack([t**k for k in range(1, config.degree + 1)])
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if feature_subsample else d
    builder = _TreeBuilder()

    def recurse(node: int, idx: np.ndarray, depth: int):
        if depth >= config.max_depth or len(idx) < 2 * config.min_leaf:
            return
        if feature_subsample and n_sub < d:
            features = rng.permutation(d)[:n_sub]
        else:
            features = np.arange(d)
        _, split = _best_split(x, t_pows, idx, features, config)
        if split is None:
            return
        f, thr = split
        mask = x[idx, f] <= thr
        lc, rc = builder.set_split(node, f, thr)
        recurse(lc, idx[mask], depth + 1)
        recurse(rc, idx[~mask], depth + 1)

    root = builder.add_node()
    recurse(root, np.arange(n), 0)
    return MomentTree(builder.finish(provenance), config)


def fit_moment_tree(w: Window, config: MomentTreeConfig | None = None, seed=None) -> MomentTree:
    """Fit a single moment tree on the full window (no sub-sampling)."""
    if len(w) == 0:
        raise ParameterError("cannot fit on an empty window")
    config = config or MomentTreeConfig()
    rng = as_generator(seed)
    prov = Provenance("moment_tree", None, {"degree": config.degree, "max_depth": config.max_depth, "min_leaf": config.min_leaf})
    return _grow_tree(w.x, w.t, config, rng, feature_subsample=False, provenance=prov)


def fit_moment_forest(
    w: Window,
    n_trees: int = 16,
    config: MomentTreeConfig | None = None,
    seed=None,
    variant: str = VARIANT_RF,
) -> MomentForest:
    """Fit an ensemble of moment trees.

    The 'rf' variant bootstraps the window per tree and subsamples sqrt(d)
    features per node; the 'dt' variant grows every tree on the full window
    with all features.
    """
    if n_trees < 1:
        raise ParameterError("n_trees must be >= 1")
    if variant not in (VARIANT_DT, VARIANT_RF):
        raise ParameterError(f"unknown variant {variant!r}")
    if len(w) == 0:
        raise ParameterError("cannot fit on an empty window")
    config = config or MomentTreeConfig()
    rng = as_generator(seed)
    trees = []
    for i in range(n_trees):
        prov = Provenance("moment_tree", None, {"tree": i, "variant": variant, "degree": config.degree})
        if variant == VARIANT_RF:
            idx = rng.integers(0, len(w), size=len(w))
            trees.append(_grow_tree(w.x[idx], w.t[idx], config, rng, feature_subsample=True, provenance=prov))
        else:
            trees.append(_grow_tree(w.x, w.t, config, rng, feature_subsample=False, provenance=prov))
    return MomentForest(tuple(trees))


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

