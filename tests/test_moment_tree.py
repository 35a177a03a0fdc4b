import dataclasses

import numpy as np
import pytest

from driftbench import harness
from driftbench.detector import MomentForestEstimator
from driftbench.errors import InvalidSplitError, ParameterError
from driftbench.histograms import histogram_metric
from driftbench.moment_tree import (
    CANDIDATE_NODE_SIZE,
    MAX_CANDIDATES,
    MIN_SPLIT_SCORE,
    MomentTree,
    MomentTreeConfig,
    VARIANT_DT,
    VARIANT_RF,
    fit_moment_forest,
    fit_moment_forests,
    fit_moment_tree,
    truncate_reference,
)
from driftbench.partitions import tree_from_splits
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
        desc = MomentForestEstimator(n_trees=5, variant=VARIANT_RF).fit(w, seed=1)
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
        descriptor = MomentForestEstimator(n_trees=3).fit(w, seed=2)
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
            desc = MomentForestEstimator(n_trees=2, metric=metric).fit(w, seed=0)
            assert desc.forest.trees[0].n_cells == 1
            for t in (0.2, 0.5, 0.8):
                assert desc.statistics_at([t])[0] == 0.0

    def test_empty_side_errors(self):
        w = two_cluster_window()
        desc = MomentForestEstimator(n_trees=1).fit(w, seed=0)
        with pytest.raises(InvalidSplitError):
            desc.statistics_at([float(w.t[-1])])[0]

    def test_invalid_params(self):
        w = two_cluster_window()
        with pytest.raises(ParameterError):
            fit_moment_forest(w, n_trees=0)
        with pytest.raises(ParameterError):
            fit_moment_forest(w, variant="boosted")

    def test_estimator_rejects_unknown_variant_at_construction(self):
        with pytest.raises(ParameterError, match="unknown variant 'boosted'"):
            MomentForestEstimator(variant="boosted")
        assert [MomentForestEstimator(variant=v).name for v in (VARIANT_RF, VARIANT_DT)] == ["rf", "dt"]


class TestTruncateReference:
    def test_zero_skip_is_identity(self):
        w = two_cluster_window()
        assert truncate_reference(w, 0.0) is w

    def test_removes_last_tenth_of_reference_range(self):
        w = window(np.arange(21.0), np.linspace(0, 0.5, 21))
        out = truncate_reference(w, 0.1)
        assert len(out) == 19
        assert out.t.max() <= 0.45

    def test_drift_time_limits_removal_band(self):
        t = np.linspace(0, 1, 41)
        w = window(np.arange(41.0), t)
        out = truncate_reference(w, 0.1, drift_time=0.5)
        removed = np.setdiff1d(w.t, out.t)
        assert np.all((removed > 0.45) & (removed <= 0.5))
        # everything after the drift stays
        assert np.sum(out.t > 0.5) == np.sum(w.t > 0.5)

    def test_invalid_fraction(self):
        with pytest.raises(ParameterError):
            truncate_reference(two_cluster_window(), 0.5)

    def test_evaluation_runs_on_untruncated_window(self):
        w = two_cluster_window(n_per=30, seed=4)
        train = truncate_reference(w, 0.1, drift_time=0.5)
        assert len(train) < len(w)
        desc = MomentForestEstimator(n_trees=2, skip_fraction=0.1).fit(w, seed=0, drift_time=0.5)
        assert desc.window is w
        assert desc.statistics_at([0.5])[0] >= 0.0


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
    return tree_from_splits(splits)


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

    def test_shared_generator_rejected(self):
        rng = np.random.default_rng(0)
        w = random_window(0, 40, 2)
        with pytest.raises(ParameterError):
            fit_moment_forests([w, w], 2, None, [rng, rng])

    @pytest.mark.parametrize("estimator_id", ["rf", "dt", "marg"])
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
            drift = estimator.fit(pw.drifting, rng, drift_time=pw.t0).statistics_at(positions)
            perm = estimator.fit(pw.permuted, rng, drift_time=pw.t0).statistics_at(positions)
            assert np.array_equal(records.drift[rep], drift)
            assert np.array_equal(records.perm[rep], perm)

    def test_forest_statistics_equal_reference_trees(self):
        from driftbench.detector import _ForestDescriptor
        from driftbench.partitions import TreePartition

        config = MomentTreeConfig()
        w = random_window(5, 150, 3)
        desc = MomentForestEstimator(16, VARIANT_RF, config).fit(w, seed=5)
        ts = np.unique(w.t)[1:-2]
        reference_trees = [
            MomentTree(TreePartition(
                feature=np.array(doc["feature"]),
                threshold=np.array([np.nan if v is None else v for v in doc["threshold"]]),
                left=np.array(doc["left"]),
                right=np.array(doc["right"]),
                cell=np.array(doc["cell"]),
            ))
            for doc in reference_forest(w, 16, config, 5, VARIANT_RF)
        ]
        reference = _ForestDescriptor(dataclasses.replace(desc.forest, trees=reference_trees), w, desc.metric)
        assert np.array_equal(desc.statistics_at(ts), reference.statistics_at(ts))
