import numpy as np
import pytest

from driftbench.detector import MomentForestEstimator
from driftbench.errors import InvalidSplitError, ParameterError
from driftbench.histograms import histogram_metric
from driftbench.moment_tree import (
    MomentTreeConfig,
    VARIANT_DT,
    VARIANT_RF,
    fit_moment_forest,
    fit_moment_tree,
    truncate_reference,
)
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
        assert desc.statistic_at(t) == pytest.approx(np.mean(per_tree), abs=1e-15)

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
            assert descriptor.statistic_at(float(t)) == np.mean(manual)

    def test_single_leaf_tree_statistic_zero_for_every_metric(self, rng):
        w = Window(np.full((50, 1), 1.0), np.sort(rng.uniform(0, 1, 50)))
        for metric in ("tv", "hellinger", "js", "kl"):
            desc = MomentForestEstimator(n_trees=2, metric=metric).fit(w, seed=0)
            assert desc.forest.trees[0].n_cells == 1
            for t in (0.2, 0.5, 0.8):
                assert desc.statistic_at(t) == 0.0

    def test_empty_side_errors(self):
        w = two_cluster_window()
        desc = MomentForestEstimator(n_trees=1).fit(w, seed=0)
        with pytest.raises(InvalidSplitError):
            desc.statistic_at(float(w.t[-1]))

    def test_invalid_params(self):
        w = two_cluster_window()
        with pytest.raises(ParameterError):
            fit_moment_forest(w, n_trees=0)
        with pytest.raises(ParameterError):
            fit_moment_forest(w, variant="boosted")


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
        assert desc.statistic_at(0.5) >= 0.0


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
