import dataclasses

import numpy as np
import pytest

from driftbench import harness
from driftbench.detector import dt_estimator, rf_estimator
from driftbench.errors import DataError, InvalidSplitError, ParameterError
from driftbench.histograms import histogram_metric
from driftbench.moment_tree import (
    CANDIDATE_NODE_SIZE,
    MAX_CANDIDATES,
    MIN_SPLIT_SCORE,
    MomentTree,
    MomentTreeConfig,
    VARIANT_DT,
    VARIANT_RF,
    _best_splits,
    _thin_candidates,
    fit_moment_forest,
    fit_moment_forests,
    fit_moment_tree,
)
from driftbench.partitions import trees_from_splits
from driftbench.windows import Window


def window(x, t):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    t = np.asarray(t, dtype=float)
    order = np.argsort(t, kind="stable")
    return Window(x[order], t[order])


def two_cluster_window(n_per=30, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.zeros(n_per), np.ones(n_per)]) + 0.01 * rng.standard_normal(2 * n_per)
    t = np.concatenate([rng.uniform(0, 0.5, n_per), rng.uniform(0.5, 1.0, n_per)])
    return window(x, t)


class TestFitMomentTree:
    def test_disjoint_time_clusters_split_at_root(self):
        w = two_cluster_window()
        tree = fit_moment_tree(w, MomentTreeConfig(degree=1, min_leaf=10, max_depth=1), seed=0)
        assert tree.n_cells == 2
        assert tree.partition.feature[0] == 0
        assert 0.0 < tree.partition.threshold[0] < 1.0
        early = int(tree.cell_of(np.array([[0.0]]))[0])
        late = int(tree.cell_of(np.array([[1.0]]))[0])
        cells = tree.cell_of(w.x)
        assert np.mean(w.t[cells == early]) == pytest.approx(0.25, abs=0.05)
        assert np.mean(w.t[cells == late]) == pytest.approx(0.75, abs=0.05)

    def test_identical_timestamps_yield_single_leaf(self, rng):
        w = Window(rng.normal(size=(50, 2)), np.full(50, 0.3))
        tree = fit_moment_tree(w, seed=0)
        assert tree.n_cells == 1

    def test_degenerate_features_yield_single_leaf(self):
        w = window(np.full(40, 2.0), np.linspace(0, 1, 40))
        tree = fit_moment_tree(w, seed=0)
        assert tree.n_cells == 1

    def test_deterministic(self, rng):
        w = Window(rng.normal(size=(80, 3)), np.sort(rng.uniform(0, 1, 80)))
        a = fit_moment_tree(w, seed=5)
        b = fit_moment_tree(w, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_min_leaf_respected(self, rng):
        w = Window(rng.normal(size=(100, 2)), np.sort(rng.uniform(0, 1, 100)))
        tree = fit_moment_tree(w, MomentTreeConfig(min_leaf=10), seed=1)
        counts = np.bincount(tree.cell_of(w.x), minlength=tree.n_cells)
        assert counts.min() >= 10


class TestForest:
    def test_single_dt_tree_equals_plain_fit(self, rng):
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        forest = fit_moment_forest(w, n_trees=1, seed=3, variant=VARIANT_DT)
        plain = fit_moment_tree(w, seed=99)
        assert forest.trees[0].partition.to_dict()["feature"] == plain.partition.to_dict()["feature"]
        assert forest.trees[0].partition.to_dict()["threshold"] == plain.partition.to_dict()["threshold"]

    def test_rf_trees_differ(self):
        w = two_cluster_window(n_per=40, seed=1)
        forest = fit_moment_forest(w, n_trees=4, seed=0, variant=VARIANT_RF)
        docs = [t.to_dict() for t in forest.trees]
        assert any(docs[0] != d for d in docs[1:])

    def test_forest_statistic_is_mean_of_tree_statistics(self):
        w = two_cluster_window(n_per=25, seed=2)
        desc = rf_estimator(n_trees=5).fit(w, seed=1)
        forest = desc.forest
        metric = histogram_metric("tv")
        t = 0.4
        per_tree = []
        for tree in forest.trees:
            cells = tree.cell_of(w.x)
            mask = w.t <= t
            before = np.bincount(cells[mask], minlength=tree.n_cells)
            after = np.bincount(cells[~mask], minlength=tree.n_cells)
            per_tree.append(float(metric(before, after)))
        assert desc.statistics_at([t])[0] == pytest.approx(np.mean(per_tree), abs=1e-15)

    def test_statistics_match_recount_on_all_splits(self):
        w = two_cluster_window(n_per=20, seed=3)
        descriptor = rf_estimator(n_trees=3).fit(w, seed=2)
        forest = descriptor.forest
        metric = histogram_metric("tv")
        for t in np.unique(w.t)[:-1]:
            manual = []
            for tree in forest.trees:
                cells = tree.cell_of(w.x)
                mask = w.t <= t
                before = np.bincount(cells[mask], minlength=tree.n_cells)
                after = np.bincount(cells[~mask], minlength=tree.n_cells)
                manual.append(float(metric(before, after)))
            assert descriptor.statistics_at([float(t)])[0] == np.mean(manual)

    def test_single_leaf_tree_statistic_zero_for_every_metric(self, rng):
        w = Window(np.full((50, 1), 1.0), np.sort(rng.uniform(0, 1, 50)))
        for metric in ("tv", "hellinger", "js", "kl"):
            desc = rf_estimator(n_trees=2, metric=metric).fit(w, seed=0)
            assert desc.forest.trees[0].n_cells == 1
            for t in (0.2, 0.5, 0.8):
                assert desc.statistics_at([t])[0] == 0.0

    def test_empty_side_errors(self):
        w = two_cluster_window()
        desc = rf_estimator(n_trees=1).fit(w, seed=0)
        with pytest.raises(InvalidSplitError):
            desc.statistics_at([float(w.t[-1])])[0]

    def test_invalid_params(self):
        w = two_cluster_window()
        with pytest.raises(ParameterError):
            fit_moment_forest(w, n_trees=0)
        with pytest.raises(ParameterError):
            fit_moment_forest(w, variant="boosted")

    def test_estimator_names_are_the_variants(self):
        assert [rf_estimator().name, dt_estimator().name] == [VARIANT_RF, VARIANT_DT] == ["rf", "dt"]


def arrival_time_witness_windows():
    """Three x-clusters whose within-side time blocks decide the best split.

    Swapping the A and B time blocks inside each sub-window moves the
    moment contrast from the A|BC cut to the AB|C cut, while the x values
    (and hence every pure partition descriptor) stay identical.
    """
    x = np.repeat([0.0, 1.0, 2.0], 8)
    slots_a = np.array([0.02, 0.04, 0.06, 0.08, 0.52, 0.54, 0.56, 0.58])
    slots_b = np.array([0.28, 0.30, 0.32, 0.34, 0.78, 0.80, 0.82, 0.84])
    slots_c = np.array([0.36, 0.38, 0.40, 0.42, 0.86, 0.88, 0.90, 0.92])
    t_original = np.concatenate([slots_a, slots_b, slots_c])
    t_swapped = np.concatenate([slots_b, slots_a, slots_c])
    return window(x, t_original), window(x, t_swapped)


class TestArrivalTimeRespecting:
    CONFIG = MomentTreeConfig(degree=1, min_leaf=4, max_depth=1)

    def test_within_side_permutation_changes_moment_tree(self):
        w_orig, w_swapped = arrival_time_witness_windows()
        tree_orig = fit_moment_tree(w_orig, self.CONFIG, seed=0)
        tree_swapped = fit_moment_tree(w_swapped, self.CONFIG, seed=0)
        thr_orig = tree_orig.partition.threshold[0]
        thr_swapped = tree_swapped.partition.threshold[0]
        assert thr_orig == pytest.approx(0.5)
        assert thr_swapped == pytest.approx(1.5)

    def test_partition_builders_ignore_the_permutation(self):
        from driftbench.partitions import build_kdq_tree, build_marginal, build_random_tree

        w_orig, w_swapped = arrival_time_witness_windows()
        for build in (
            lambda w: build_marginal(w, 4)[0],
            lambda w: build_random_tree(w, n_leaves=3, seed=7, min_leaf=2),
            lambda w: build_kdq_tree(w, min_side=0.2, min_count=4),
        ):
            assert build(w_orig).to_dict() == build(w_swapped).to_dict()


# ---------------------------------------------------------------------------
# reference: the recursive grower that sorts every feature at every node


def _reference_best_split(x, t_pows, idx, features, config):
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
    return best


def _reference_tree(x, t, config, rng, feature_subsample):
    n, d = x.shape
    t_pows = np.column_stack([t**k for k in range(1, config.degree + 1)])
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if feature_subsample else d
    splits = []

    def recurse(node, idx, depth):
        if depth >= config.max_depth or len(idx) < 2 * config.min_leaf:
            return
        if feature_subsample and n_sub < d:
            features = rng.permutation(d)[:n_sub]
        else:
            features = np.arange(d)
        split = _reference_best_split(x, t_pows, idx, features, config)
        if split is None:
            return
        f, thr = split
        mask = x[idx, f] <= thr
        lc = 2 * len(splits) + 1
        splits.append((node, f, thr))
        recurse(lc, idx[mask], depth + 1)
        recurse(lc + 1, idx[~mask], depth + 1)

    recurse(0, np.arange(n), 0)
    return trees_from_splits([splits])[0]


def reference_forest(w, n_trees, config, seed, variant):
    """to_dict() of every tree the recursive grower fits, in order."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_trees):
        x, t = w.x, w.t
        if variant == VARIANT_RF:
            idx = rng.integers(0, len(w), size=len(w))
            x, t = x[idx], t[idx]
        doc = _reference_tree(x, t, config, rng, variant == VARIANT_RF).to_dict()
        doc["kind"] = "moment_tree"
        docs.append(doc)
    return docs


def assert_forest_equals_reference(forest, w, n_trees, config, seed, variant):
    expected = reference_forest(w, n_trees, config, seed, variant)
    got = [tree.to_dict() for tree in forest.trees]
    assert got == expected
    for tree, doc in zip(forest.trees, expected):
        leaf = np.array(doc["feature"]) < 0
        assert np.array_equal(tree.partition.threshold[~leaf], np.array(doc["threshold"], dtype=float)[~leaf])


def random_window(seed, n, d, ties=False):
    rng = np.random.default_rng(seed)
    if ties:
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        t = np.round(rng.uniform(0, 1, n), 1)
    else:
        x = rng.normal(size=(n, d)) + np.linspace(0, 1, n)[:, None]
        t = rng.uniform(0, 1, n)
    order = np.argsort(t, kind="stable")
    return Window(x[order], t[order])


class TestLockstepGrowerMatchesRecursion:
    @pytest.mark.parametrize("variant", [VARIANT_RF, VARIANT_DT])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 7, 8, 9])
    def test_forests_equal_across_degrees(self, variant, degree):
        config = MomentTreeConfig(degree=degree, min_leaf=3, max_depth=12)
        for seed, d in ((degree, 2), (10 + degree, 3), (20 + degree, 5)):
            w = random_window(seed, 120, d)
            forest = fit_moment_forest(w, 4, config, seed=seed, variant=variant)
            assert_forest_equals_reference(forest, w, 4, config, seed, variant)

    @pytest.mark.parametrize("variant", [VARIANT_RF, VARIANT_DT])
    def test_large_nodes_thin_their_candidates_exactly(self, variant):
        config = MomentTreeConfig(degree=2, min_leaf=1, max_depth=12)
        w = random_window(7, 300, 3)
        forest = fit_moment_forest(w, 3, config, seed=7, variant=variant)
        assert_forest_equals_reference(forest, w, 3, config, 7, variant)

    @pytest.mark.parametrize("variant", [VARIANT_RF, VARIANT_DT])
    def test_tied_values_and_timestamps(self, variant):
        for min_leaf in (1, 3, 10):
            config = MomentTreeConfig(degree=2, min_leaf=min_leaf, max_depth=12)
            w = random_window(min_leaf, 150, 3, ties=True)
            forest = fit_moment_forest(w, 5, config, seed=min_leaf, variant=variant)
            assert_forest_equals_reference(forest, w, 5, config, min_leaf, variant)

    def test_single_tree_equals_recursion(self):
        config = MomentTreeConfig(degree=3, min_leaf=2, max_depth=12)
        w = random_window(3, 200, 4)
        expected = _reference_tree(w.x, w.t, config, None, False).to_dict()
        expected["kind"] = "moment_tree"
        assert fit_moment_tree(w, config, seed=0).to_dict() == expected

    def test_midpoint_rounding_onto_the_upper_value(self):
        # the midpoint of these adjacent floats rounds up onto b, so the
        # split sends every b to the left child, as the recursion does
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        x = np.concatenate([np.full(20, a), np.full(20, b), np.linspace(2.0, 3.0, 20)])
        t = np.concatenate([np.linspace(0.0, 0.3, 20), np.linspace(0.35, 0.6, 20), np.linspace(0.65, 1.0, 20)])
        w = window(x, t)
        config = MomentTreeConfig(degree=1, min_leaf=2, max_depth=6)
        for variant in (VARIANT_DT, VARIANT_RF):
            forest = fit_moment_forest(w, 3, config, seed=1, variant=variant)
            assert all(np.any(tree.partition.threshold == b) for tree in forest.trees)
            assert_forest_equals_reference(forest, w, 3, config, 1, variant)

    @pytest.mark.parametrize("variant", [VARIANT_RF, VARIANT_DT])
    def test_batch_equals_one_window_at_a_time(self, variant):
        config = MomentTreeConfig(degree=2, min_leaf=5, max_depth=8)
        windows = [random_window(s, 60 + 13 * s, 1 + s % 4, ties=s % 3 == 0) for s in range(9)]
        batch = fit_moment_forests(windows, 6, config, [np.random.default_rng(s) for s in range(9)], variant)
        rngs = [np.random.default_rng(s) for s in range(9)]
        for s, (w, forest) in enumerate(zip(windows, batch)):
            alone = fit_moment_forest(w, 6, config, seed=rngs[s], variant=variant)
            assert [t.to_dict() for t in forest.trees] == [t.to_dict() for t in alone.trees]
            assert_forest_equals_reference(forest, w, 6, config, s, variant)
        # the batch leaves each generator where a lone fit leaves it
        after = [np.random.default_rng(s) for s in range(9)]
        fit_moment_forests(windows, 6, config, after, variant)
        assert [r.random() for r in after] == [r.random() for r in rngs]

    def test_batch_of_short_lived_and_wide_rounds_equals_lone_fits(self, monkeypatch):
        from driftbench import moment_tree

        blocks = []
        split = moment_tree._blocks
        monkeypatch.setattr(moment_tree, "_blocks", lambda requests: blocks.append(split(requests)) or blocks[-1])
        config = MomentTreeConfig(degree=2, min_leaf=5, max_depth=8)
        windows = [
            random_window(60, 9, 2),  # too small to open its root: its grower ends in its first round
            random_window(61, 80, 1),
            random_window(62, CANDIDATE_NODE_SIZE + 40, 2),  # draw-free: every open node of every tree per round
            random_window(63, 9, 3),
            random_window(64, 130, 3),  # nodes draw: a round is one node
            random_window(65, 90, 2, ties=True),
        ]
        rngs = [np.random.default_rng([66, s]) for s in range(len(windows))]
        batch = fit_moment_forests(windows, 4, config, rngs, VARIANT_RF)
        # rounds of several requests: some fit one block and some need several
        assert None in blocks and any(b is not None and len(b) > 1 for b in blocks)
        for s, (w, forest, rng) in enumerate(zip(windows, batch, rngs)):
            alone_rng = np.random.default_rng([66, s])
            alone = fit_moment_forest(w, 4, config, seed=alone_rng, variant=VARIANT_RF)
            assert [t.to_dict() for t in forest.trees] == [t.to_dict() for t in alone.trees]
            assert rng.bit_generator.state == alone_rng.bit_generator.state
        assert all(tree.n_cells == 1 for tree in batch[0].trees + batch[3].trees)
        assert all(tree.n_cells > 1 for forest in batch[1:3] + batch[4:] for tree in forest.trees)

    def test_shared_generator_rejected(self):
        rng = np.random.default_rng(0)
        w = random_window(0, 40, 2)
        with pytest.raises(ParameterError):
            fit_moment_forests([w, w], 2, None, [rng, rng])

    @pytest.mark.parametrize("estimator_id", sorted(harness.ESTIMATOR_BUILDERS))
    def test_records_across_blocks_equal_one_repetition_at_a_time(self, monkeypatch, estimator_id):
        monkeypatch.setattr(harness, "REPETITION_BLOCK", 4)
        cfg = harness.ExperimentConfig(
            datasets=("sea",), estimators=(estimator_id,), n=100, repetitions=10, seed=11
        )
        records = harness.collect_records(cfg, "sea", estimator_id)
        estimator = harness.make_estimator(estimator_id)
        positions = np.asarray(cfg.split_positions)
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng(harness.derive_seed(cfg.seed, "sea", estimator_id, rep))
            before, after = harness.make_concept_pair("sea", rng)
            pw = harness.make_paired(before, after, cfg.n, harness.DRIFT_POSITION, 0.0, rng)
            drift = estimator.fit(pw.drifting, rng).statistics_at(positions)
            perm = estimator.fit(pw.permuted, rng).statistics_at(positions)
            assert np.array_equal(records.drift[rep], drift)
            assert np.array_equal(records.perm[rep], perm)

    def test_forest_statistics_equal_reference_trees(self):
        from driftbench.detector import _ForestDescriptor
        from driftbench.partitions import TreePartition

        config = MomentTreeConfig()
        w = random_window(5, 150, 3)
        desc = rf_estimator(16).fit(w, seed=5)
        ts = np.unique(w.t)[1:-2]
        reference_trees = [
            MomentTree(TreePartition(
                feature=np.array(doc["feature"]),
                threshold=np.array([np.nan if v is None else v for v in doc["threshold"]]),
                left=np.array(doc["left"]),
                cell=np.array(doc["cell"]),
            ))
            for doc in reference_forest(w, 16, config, 5, VARIANT_RF)
        ]
        reference = _ForestDescriptor(dataclasses.replace(desc.forest, trees=reference_trees), w, desc.metric)
        assert np.array_equal(desc.statistics_at(ts), reference.statistics_at(ts))


# ---------------------------------------------------------------------------
# reference: the depth-first grower the level-wise rounds replaced


def depth_first_forest(w, n_trees, config, rng, variant):
    """The trees of the depth-first grower: trees one after another, each
    grown in preorder from an explicit stack, one ``_best_splits`` call per
    node; 'rf' draws each tree's bootstrap and then, at each node that passes
    the depth and size test, ``rng.permutation(d)[:n_sub]``."""
    n, d = w.x.shape
    n_sub = max(1, int(np.ceil(np.sqrt(d)))) if variant == VARIANT_RF else d
    splittable = 2 * config.min_leaf
    split_lists = []
    for _ in range(n_trees):
        x, t = w.x, w.t
        if variant == VARIANT_RF:
            boot = rng.integers(0, n, size=n)
            x, t = x[boot], t[boot]
        # one window's columns, then the sentinel column
        xt = np.hstack([x.T, np.full((d, 1), np.inf)])
        t_pows = np.hstack([np.stack([t**k for k in range(1, config.degree + 1)]), np.zeros((config.degree, 1))])
        splits, stack = [], []
        if config.max_depth > 0 and n >= splittable:
            stack.append((0, np.argsort(x.T, axis=1, kind="stable"), 0))
        while stack:
            node, rows, depth = stack.pop()
            features = rng.permutation(d)[:n_sub] if n_sub < d else np.arange(d)
            (split,) = _best_splits(xt, t_pows, [(features, rows[features])], config.min_leaf)
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
    return trees_from_splits(split_lists)


def mixed_windows(variant):
    """Windows whose 'rf' nodes draw (d >= 3) and do not (d <= 2), with a
    window too small to split, tied features and one above CANDIDATE_NODE_SIZE."""
    dims = (1, 2, 4, 10) if variant == VARIANT_DT else (1, 2, 3, 4)
    windows = [random_window(30 + d, 90 + 7 * d, d) for d in dims]
    windows.append(random_window(40, 7, 2))
    windows.append(random_window(41, 120, 2, ties=True))
    windows.append(random_window(42, 120, 3, ties=True))
    windows.append(random_window(43, CANDIDATE_NODE_SIZE + 64, 2))
    windows.append(random_window(44, CANDIDATE_NODE_SIZE + 64, 3))
    return windows


class TestLevelWiseGrowerMatchesDepthFirst:
    @pytest.mark.parametrize("variant", [VARIANT_RF, VARIANT_DT])
    @pytest.mark.parametrize("max_depth", [0, 1, 12])
    def test_mixed_batch_equals_depth_first_growth(self, variant, max_depth):
        config = MomentTreeConfig(degree=2, min_leaf=4, max_depth=max_depth)
        windows = mixed_windows(variant)
        rngs = [np.random.default_rng([max_depth, s]) for s in range(len(windows))]
        forests = fit_moment_forests(windows, 5, config, rngs, variant)
        for s, (w, forest, rng) in enumerate(zip(windows, forests, rngs)):
            reference_rng = np.random.default_rng([max_depth, s])
            expected = depth_first_forest(w, 5, config, reference_rng, variant)
            assert [tree.partition.to_dict() for tree in forest.trees] == [tree.to_dict() for tree in expected]
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        if max_depth == 0:
            assert all(tree.n_cells == 1 for forest in forests for tree in forest.trees)

    def test_draw_free_forest_is_scored_in_few_calls(self, monkeypatch):
        from driftbench import moment_tree

        calls = []
        score = moment_tree._best_splits
        monkeypatch.setattr(moment_tree, "_best_splits", lambda *a: calls.append(1) or score(*a))
        w = random_window(3, 150, 2)
        forest = fit_moment_forest(w, 16, MomentTreeConfig(), seed=3, variant=VARIANT_RF)
        inner = sum(int(np.count_nonzero(tree.partition.feature >= 0)) for tree in forest.trees)
        # one call per level and block, not one per inner node
        assert inner > 100 and len(calls) <= 16


def stacked(windows, degree):
    """The layout ``fit_moment_forests`` gives its windows: features and time
    powers side by side, then a sentinel column; and each window's offset."""
    offsets = np.cumsum([0] + [len(w) for w in windows])
    xt = np.full((max(w.x.shape[1] for w in windows), offsets[-1] + 1), np.inf)
    t_pows = np.zeros((degree, offsets[-1] + 1))
    for w, offset in zip(windows, offsets):
        xt[: w.x.shape[1], offset : offset + len(w)] = w.x.T
        t_pows[:, offset : offset + len(w)] = np.stack([w.t**k for k in range(1, degree + 1)])
    return xt, t_pows, offsets[:-1]


class TestBlockScoring:
    def test_each_node_of_a_mixed_block_scores_as_alone(self):
        config = MomentTreeConfig(degree=2, min_leaf=4)
        rng = np.random.default_rng(51)
        x = rng.normal(size=(120, 4))
        x[:, 2] = x[:, 0]  # two equal features: their best cuts tie, and the first drawn wins
        windows = [
            # first, so its late samples sit in the columns a wrong padding would read
            Window(np.ones((60, 3)), np.linspace(0.5, 1.0, 60)),
            random_window(50, CANDIDATE_NODE_SIZE + 64, 2),
            Window(x, np.sort(rng.uniform(0, 1, 120))),
        ]
        xt, t_pows, offsets = stacked(windows, config.degree)
        # (window, its rows in ascending order, drawn features)
        nodes = [
            (1, np.arange(CANDIDATE_NODE_SIZE + 64), [0, 1]),  # as wide as the block, above CANDIDATE_NODE_SIZE
            (2, np.arange(0, 120, 2), [3]),  # shorter than the block
            (1, np.arange(CANDIDATE_NODE_SIZE + 64), [1, 0]),
            (0, np.arange(60), [2, 0, 1]),  # all tied: no cut separates two values
            (2, np.arange(120), [2, 0]),
            (2, np.arange(100), [1, 3, 0]),
        ]
        requests = [
            (np.array(features), offsets[i] + np.stack([idx[np.argsort(windows[i].x[idx, f], kind="stable")] for f in features]))
            for i, idx, features in nodes
        ]
        block = _best_splits(xt, t_pows, requests, config.min_leaf)
        assert block == [_best_splits(xt, t_pows, [request], config.min_leaf)[0] for request in requests]
        for answer, (i, idx, features) in zip(block, nodes):
            w = windows[i]
            expected = _reference_best_split(w.x, np.column_stack([w.t, w.t**2]), idx, features, config)
            assert (answer and (features[answer[0]], answer[1])) == expected
        assert block[3] is None and block[4][0] == 0 and all(block[:3] + block[4:])


def thin_candidates_loop(ok, m):
    """The per-row thinning loop the vectorised pass replaced."""
    for row in np.flatnonzero(m > CANDIDATE_NODE_SIZE):
        candidates = np.flatnonzero(ok[row])
        if len(candidates) > MAX_CANDIDATES:
            sel = np.unique(np.round(np.linspace(0, len(candidates) - 1, MAX_CANDIDATES)).astype(int))
            ok[row] = False
            ok[row, candidates[sel]] = True


class TestCandidateThinning:
    def test_equals_the_per_row_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            rows, width = rng.integers(1, 12), rng.integers(2, 2500)
            ok = rng.random((rows, width)) < rng.uniform(0.0, 1.0, (rows, 1))
            # counts on both sides of MAX_CANDIDATES, sizes on both sides of CANDIDATE_NODE_SIZE
            ok[0, : MAX_CANDIDATES + trial % 3] = True
            m = rng.integers(CANDIDATE_NODE_SIZE - 5, CANDIDATE_NODE_SIZE + 2000, rows).astype(float)
            expected = ok.copy()
            thin_candidates_loop(expected, m)
            _thin_candidates(ok, m)
            assert np.array_equal(ok, expected)

    def test_keeps_evenly_spaced_cuts(self):
        ok = np.ones((1, 1000), dtype=bool)
        _thin_candidates(ok, np.array([1000.0]))
        kept = np.flatnonzero(ok[0])
        assert len(kept) == MAX_CANDIDATES and kept[0] == 0 and kept[-1] == 999


class TestHugeFeatures:
    def test_features_past_half_the_float_range_raise_data_error(self):
        rng = np.random.default_rng(0)
        w = Window(rng.uniform(-1, 1, (60, 2)) * np.finfo(float).max, np.sort(rng.uniform(0, 1, 60)))
        for variant in (VARIANT_RF, VARIANT_DT):
            with pytest.raises(DataError, match="rescale"):
                fit_moment_forest(w, 2, seed=0, variant=variant)

    def test_features_at_half_the_float_range_split_finitely(self):
        rng = np.random.default_rng(1)
        w = Window(rng.uniform(-1, 1, (60, 2)) * (np.finfo(float).max / 2), np.sort(rng.uniform(0, 1, 60)))
        tree = fit_moment_tree(w, MomentTreeConfig(degree=1, min_leaf=5), seed=0)
        inner = tree.partition.feature >= 0
        assert inner.any() and np.isfinite(tree.partition.threshold[inner]).all()
        assert np.bincount(tree.cell_of(w.x), minlength=tree.n_cells).min() >= 5
