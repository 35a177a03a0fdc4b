import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftbench import partitions
from driftbench.errors import DataError, ParameterError
from driftbench.histograms import CumulativeHistogram, to_distribution, total_variation
from driftbench.moment_tree import MomentTreeConfig, fit_moment_tree
from driftbench.partitions import (
    TreePartition,
    build_grid,
    build_kdq_tree,
    build_marginal,
    build_pca_projection,
    build_random_projection,
    build_random_tree,
    build_random_trees,
    column_edges,
    stacked_cells,
    trees_from_splits,
)
from driftbench.windows import Window, permute_timestamps


def window_of(x, rng=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = len(x)
    t = np.arange(n) / max(n - 1, 1)
    return Window(x, t)


class TestMarginal:
    def test_equidistant_edges_on_unit_range(self):
        w = window_of(np.linspace(0, 1, 21))
        part = build_marginal(w, bins_per_dim=4, edge_mode="equidistant")[0]
        assert np.allclose(part.edges, [0.25, 0.5, 0.75])
        assert part.n_cells == 4

    def test_one_partition_per_feature(self, rng):
        w = Window(rng.normal(size=(50, 3)), np.sort(rng.uniform(0, 1, 50)))
        parts = build_marginal(w)
        assert len(parts) == 3
        assert np.array_equal([p.axis for p in parts], np.eye(3))

    def test_equilikely_balances_counts(self, rng):
        w = window_of(rng.uniform(0, 1, 100))
        part = build_marginal(w, bins_per_dim=4, edge_mode="equilikely")[0]
        counts = np.bincount(part.cell_of(w.x), minlength=4)
        assert np.array_equal(counts, [25, 25, 25, 25])

    def test_constant_feature_collapses_with_flag(self):
        w = window_of(np.full(20, 3.3))
        part = build_marginal(w, bins_per_dim=4, edge_mode="equilikely")[0]
        assert part.n_cells == 1

    def test_out_of_range_maps_to_boundary_cells(self, rng):
        w = window_of(rng.uniform(0, 1, 50))
        part = build_marginal(w, bins_per_dim=4)[0]
        assert part.cell_of(np.array([[-10.0]]))[0] == 0
        assert part.cell_of(np.array([[10.0]]))[0] == part.n_cells - 1


def reference_edges(values: np.ndarray, bins: int, edge_mode: str) -> np.ndarray:
    """The edges of one column, computed alone with np.linspace or np.quantile."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.empty(0)
    if edge_mode == "equidistant":
        edges = np.linspace(lo, hi, bins + 1)[1:-1]
    else:
        edges = np.quantile(values, np.arange(1, bins) / bins)
    edges = np.unique(edges)
    return edges[(edges > lo) & (edges <= hi)]


class TestEdges:
    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            column_edges(np.arange(5.0)[:, None], 4, "mystery")

    def test_too_few_bins(self):
        with pytest.raises(ParameterError):
            column_edges(np.arange(5.0)[:, None], 1, "equidistant")

    def test_edges_strictly_increasing(self, rng):
        values = np.round(rng.uniform(0, 1, 200), 2)
        (edges,) = column_edges(values[:, None], 16, "equilikely")
        assert np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("edge_mode", ["equidistant", "equilikely"])
    def test_all_columns_at_once_equal_each_column_alone(self, edge_mode):
        """Bit for bit, on columns with ties, signed zeros, constant
        columns, underflowing steps and scales from 1e-300 to 1e300."""
        rng = np.random.default_rng(17)
        for _ in range(600):
            n, k, bins = int(rng.integers(1, 40)), int(rng.integers(1, 6)), int(rng.integers(2, 17))
            P = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 301, size=k)
            ties = rng.random(k) < 0.4
            P[:, ties] = rng.integers(-2, 3, size=(n, int(ties.sum()))) * rng.choice([0.0, -0.0, 5e-324, 1e-320, 1.0], int(ties.sum()))
            P[:, rng.random(k) < 0.2] = rng.normal()
            for got, column in zip(column_edges(P, bins, edge_mode), P.T):
                expected = reference_edges(column, bins, edge_mode)
                assert got.tobytes() == expected.tobytes()


class TestRandomProjection:
    def test_default_axis_count(self, rng):
        w = Window(rng.normal(size=(40, 3)), np.sort(rng.uniform(0, 1, 40)))
        parts = build_random_projection(w, seed=0)
        assert len(parts) == 6

    def test_axes_are_unit_and_deterministic(self, rng):
        w = Window(rng.normal(size=(40, 3)), np.sort(rng.uniform(0, 1, 40)))
        a = build_random_projection(w, n_axes=4, seed=11)
        b = build_random_projection(w, n_axes=4, seed=11)
        for pa, pb in zip(a, b):
            assert np.linalg.norm(pa.axis) == pytest.approx(1.0)
            assert np.array_equal(pa.axis, pb.axis)
            assert np.array_equal(pa.edges, pb.edges)

    def test_1d_equivalent_to_marginal_up_to_sign(self, rng):
        w = window_of(rng.normal(size=60))
        proj = build_random_projection(w, n_axes=1, bins_per_axis=4, seed=5)[0]
        marg = build_marginal(w, bins_per_dim=4, edge_mode="equilikely")[0]
        cells_proj = proj.cell_of(w.x)
        cells_marg = marg.cell_of(w.x)
        sign = float(np.sign(proj.axis[0]))
        if sign > 0:
            assert np.array_equal(cells_proj, cells_marg)
        else:
            assert np.array_equal(cells_proj, marg.n_cells - 1 - cells_marg)

    def test_diagonal_axis_separates_opposite_correlations(self):
        # equal marginals, correlation +0.8 vs -0.8: the diagonal projection
        # tells the halves apart while every marginal looks identical
        rng = np.random.default_rng(0)
        n = 500
        xb = rng.multivariate_normal([0, 0], [[1, 0.8], [0.8, 1]], n // 2)
        xa = rng.multivariate_normal([0, 0], [[1, -0.8], [-0.8, 1]], n // 2)
        x = np.vstack([xb, xa])
        t = np.concatenate([np.linspace(0, 0.5, n // 2), np.linspace(0.51, 1, n // 2)])
        w = Window(x, t)
        from driftbench.partitions import Binning1D

        axis = np.array([1.0, 1.0]) / np.sqrt(2)
        part = Binning1D(axis, column_edges((w.x @ axis)[:, None], 8, "equilikely")[0])
        ch = CumulativeHistogram(part.cell_of(w.x), w.t, part.n_cells)
        before, after = ch.counts_at(0.5)
        tv = total_variation(to_distribution(before), to_distribution(after))
        assert tv > 0.2


class TestMarginalBlindness:
    def test_correlation_flip_invisible_to_marginals_visible_to_projections(self):
        # equal marginals, correlation +0.8 -> -0.8: marginal binning stays
        # in the no-drift permutation band while random projections detect
        from driftbench.detector import marginal_estimator, random_projection_estimator
        from driftbench.windows import make_paired

        pos = lambda n, rng: rng.multivariate_normal([0, 0], [[1, 0.8], [0.8, 1]], n)
        neg = lambda n, rng: rng.multivariate_normal([0, 0], [[1, -0.8], [-0.8, 1]], n)
        marg, proj = marginal_estimator(), random_projection_estimator()
        wins_marg = wins_proj = 0
        reps = 300
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            pw = make_paired(pos, neg, 500, seed=rng)
            wins_marg += marg.fit(pw.drifting, rng).statistics_at([0.5])[0] > marg.fit(pw.permuted, rng).statistics_at([0.5])[0]
            wins_proj += proj.fit(pw.drifting, rng).statistics_at([0.5])[0] > proj.fit(pw.permuted, rng).statistics_at([0.5])[0]
        assert 0.4 <= wins_marg / reps <= 0.6
        assert wins_proj / reps >= 0.9


class TestRandomTree:
    def test_two_leaves_single_split(self, rng):
        w = Window(rng.normal(size=(40, 2)), np.sort(rng.uniform(0, 1, 40)))
        tree = build_random_tree(w, n_leaves=2, seed=1)
        assert tree.n_cells == 2
        assert int((tree.feature >= 0).sum()) == 1

    def test_min_leaf_below_one_is_rejected(self, rng):
        # min_leaf = 0 used to index one past the end of a leaf's values
        w = Window(rng.normal(size=(40, 2)), np.sort(rng.uniform(0, 1, 40)))
        with pytest.raises(ParameterError, match="min_leaf"):
            build_random_tree(w, n_leaves=4, seed=1, min_leaf=0)

    def test_min_leaf_invariant(self, rng):
        w = Window(rng.normal(size=(100, 3)), np.sort(rng.uniform(0, 1, 100)))
        tree = build_random_tree(w, n_leaves=16, seed=2, min_leaf=5)
        counts = np.bincount(tree.cell_of(w.x), minlength=tree.n_cells)
        assert counts.min() >= 5

    def test_cells_recombine_to_window(self, rng):
        w = Window(rng.normal(size=(80, 2)), np.sort(rng.uniform(0, 1, 80)))
        tree = build_random_tree(w, n_leaves=8, seed=3)
        counts = np.bincount(tree.cell_of(w.x), minlength=tree.n_cells)
        assert counts.sum() == 80

    def test_deterministic_given_seed(self, rng):
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        a = build_random_tree(w, n_leaves=8, seed=9)
        b = build_random_tree(w, n_leaves=8, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_degenerate_data_stops_early(self):
        w = window_of(np.full(30, 1.0))
        tree = build_random_tree(w, n_leaves=8, seed=0)
        assert tree.n_cells == 1


class TestKdqTree:
    def test_center_splits_cycle_dimensions(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (200, 2))
        x[0] = [0.0, 0.0]
        x[1] = [1.0, 1.0]  # pin the box corners
        w = Window(x, np.sort(rng.uniform(0, 1, 200)))
        tree = build_kdq_tree(w, min_side=0.2, min_count=5)
        assert tree.feature[0] == 0 and tree.threshold[0] == pytest.approx(0.5)
        left_child = tree.left[0]
        assert tree.feature[left_child] == 1
        assert tree.threshold[left_child] == pytest.approx(0.5)

    def test_deterministic(self, rng):
        w = Window(rng.uniform(0, 1, (150, 3)), np.sort(rng.uniform(0, 1, 150)))
        assert build_kdq_tree(w).to_dict() == build_kdq_tree(w).to_dict()

    def test_leaf_count_matches_recursive_reference(self, rng):
        def reference_leaf_count(x, lo, hi, idx, depth, min_side, min_count, max_depth):
            dim = depth % x.shape[1]
            side = hi[dim] - lo[dim]
            if len(idx) < min_count or side / 2.0 < min_side or depth >= max_depth:
                return 1
            mid = 0.5 * (lo[dim] + hi[dim])
            mask = x[idx, dim] <= mid
            l_hi, r_lo = hi.copy(), lo.copy()
            l_hi[dim] = mid
            r_lo[dim] = mid
            return reference_leaf_count(
                x, lo, l_hi, idx[mask], depth + 1, min_side, min_count, max_depth
            ) + reference_leaf_count(x, r_lo, hi, idx[~mask], depth + 1, min_side, min_count, max_depth)

        for _ in range(10):
            n = int(rng.integers(20, 300))
            d = int(rng.integers(1, 4))
            x = rng.uniform(0, 1, (n, d))
            w = Window(x, np.sort(rng.uniform(0, 1, n)))
            tree = build_kdq_tree(w, min_side=0.1, min_count=8)
            expected = reference_leaf_count(
                x, x.min(axis=0), x.max(axis=0), np.arange(n), 0, 0.1, 8, 32
            )
            assert tree.n_cells == expected

    def test_total_function(self, rng):
        w = Window(rng.uniform(0, 1, (100, 2)), np.sort(rng.uniform(0, 1, 100)))
        tree = build_kdq_tree(w)
        cells = tree.cell_of(rng.uniform(-5, 5, (500, 2)))
        assert cells.min() >= 0 and cells.max() < tree.n_cells


class TestGridAndPca:
    def test_pca_needs_an_axis(self, rng):
        # no axis used to give no partitions, and a division by zero in the scan
        w = Window(rng.normal(size=(30, 2)), np.sort(rng.uniform(0, 1, 30)))
        with pytest.raises(ParameterError, match="n_axes"):
            build_pca_projection(w, n_axes=0)

    def test_grid_cell_count(self, rng):
        w = Window(rng.uniform(0, 1, (100, 2)), np.sort(rng.uniform(0, 1, 100)))
        grid = build_grid(w, bins_per_dim=3)
        assert grid.n_cells == 9
        assert np.bincount(grid.cell_of(w.x), minlength=9).sum() == 100

    def test_grid_cell_blowup_guard(self, rng, monkeypatch):
        monkeypatch.setattr(partitions, "MAX_GRID_CELLS", 1000)
        w = Window(rng.uniform(0, 1, (50, 8)), np.sort(rng.uniform(0, 1, 50)))
        with pytest.raises(ParameterError, match="1000 cells"):
            build_grid(w, bins_per_dim=8)

    def test_pca_axes_orthogonal(self, rng):
        w = Window(rng.normal(size=(200, 3)), np.sort(rng.uniform(0, 1, 200)))
        parts = build_pca_projection(w, n_axes=2)
        assert abs(parts[0].axis @ parts[1].axis) < 1e-8


GOLDEN_TREE = json.loads(
    '{"kind": "tree", "feature": [1, -1, 0, -1, 0, -1, -1], "threshold": '
    '[0.5123917975994242, null, 0.3367217644884629, null, 0.5812353725392208, null, null], '
    '"left": [1, -1, 3, -1, 5, -1, -1], "right": [2, -1, 4, -1, 6, -1, -1], '
    '"cell": [-1, 0, -1, 1, -1, 2, 3]}'
)

# three chosen leaves cannot split (every feature tied within its inner
# samples), and growth stops at 6 of 12 leaves
GOLDEN_STALLED_TREE = json.loads(
    '{"kind": "tree", "feature": [0, 0, -1, 1, 1, -1, 0, -1, -1, -1, -1], "threshold": '
    '[2.851391088977806, 0.28831922543926747, null, 0.5495936876730595, 0.6236629040209709, null, '
    '1.8277025938204416, null, null, null, null], "left": [1, 3, -1, 9, 5, -1, 7, -1, -1, -1, -1], '
    '"right": [2, 4, -1, 10, 6, -1, 8, -1, -1, -1, -1], "cell": [-1, -1, 0, -1, -1, 1, -1, 2, 3, 4, 5]}'
)


class TestSerialization:
    def test_golden_tree_document(self):
        rng = np.random.default_rng(99)
        w = Window(np.round(rng.uniform(0, 1, (30, 2)), 6), np.sort(rng.uniform(0, 1, 30)))
        tree = build_random_tree(w, n_leaves=4, seed=4, min_leaf=3)
        assert tree.to_dict() == GOLDEN_TREE

    def test_golden_tree_with_unsplittable_leaves(self):
        x = np.array([
            [0, 0, 3, 1, 0, 1, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 2],
            [0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 2, 1, 1, 2],
        ], dtype=float).T
        tree = build_random_tree(Window(x, np.linspace(0, 1, len(x))), n_leaves=12, seed=1, min_leaf=2)
        assert tree.to_dict() == GOLDEN_STALLED_TREE


def reference_layout(splits) -> TreePartition:
    """One tree laid out alone from its list of splits."""
    size = 2 * len(splits) + 1
    feature, left, cell = (np.full(size, -1, dtype=np.int64) for _ in range(3))
    threshold = np.full(size, np.nan)
    for k, (node, f, thr) in enumerate(splits):
        feature[node], threshold[node], left[node] = f, thr, 2 * k + 1
    leaves = np.flatnonzero(feature < 0)
    cell[leaves] = np.arange(len(leaves))
    return TreePartition(feature, threshold, left, cell)


def reference_random_tree(w, n_leaves, rng, min_leaf) -> TreePartition:
    """A random tree grown leaf by leaf, sorting the chosen leaf's values of
    each tried feature, with the draws ``build_random_trees`` makes."""
    x = w.x
    splits = []
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
        else:
            continue
        mask = x[idx, f] <= thr
        lc = 2 * len(splits) + 1
        splits.append((nid, int(f), thr))
        open_leaves += [(c, part) for c, part in ((lc, idx[mask]), (lc + 1, idx[~mask])) if len(part) >= 2 * min_leaf]
    return reference_layout(splits)


class TestTreeFromSplits:
    def test_no_splits_is_one_leaf(self):
        (tree,) = trees_from_splits([[]])
        assert tree.n_cells == 1
        assert tree.to_dict()["feature"] == [-1] and tree.to_dict()["cell"] == [0]
        assert np.array_equal(tree.cell_of(np.zeros((3, 2))), [0, 0, 0])

    def test_split_k_makes_nodes_2k_plus_1_and_2k_plus_2(self):
        (tree,) = trees_from_splits([[(0, 1, 0.5), (2, 0, -1.0), (3, 0, -3.0)]])
        doc = tree.to_dict()
        assert doc["feature"] == [1, -1, 0, 0, -1, -1, -1]
        assert doc["threshold"] == [0.5, None, -1.0, -3.0, None, None, None]
        assert doc["left"] == [1, -1, 3, 5, -1, -1, -1]
        assert doc["right"] == [2, -1, 4, 6, -1, -1, -1]
        assert doc["cell"] == [-1, 0, -1, -1, 1, 2, 3]
        points = np.array([[0.0, 0.4], [0.0, 0.6], [-4.0, 0.6], [-2.0, 0.6]])
        assert np.array_equal(tree.cell_of(points), [0, 1, 2, 3])

    def test_forest_layout_equals_each_tree_alone(self):
        """Empty and one-split lists among others; each tree's arrays are
        slices of the forest's shared node arrays."""
        split_lists = [
            [],
            [(0, 1, 0.5)],
            [(0, 1, 0.5), (2, 0, -1.0), (3, 0, -3.0)],
            [],
            [(0, 0, 2.0), (1, 1, 1.0)],
            [(0, 2, -0.0)],
        ]
        trees = trees_from_splits(split_lists)
        assert len(trees) == len(split_lists)
        for tree, splits in zip(trees, split_lists):
            expected = reference_layout(splits)
            for field in ("feature", "threshold", "left", "cell"):
                got, want = getattr(tree, field), getattr(expected, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert tree.feature.base is trees[0].feature.base
        assert trees_from_splits([]) == []


class TestRandomTreesMatchReference:
    """The presorted forest builder equals the per-leaf-sort builder tree by
    tree, and leaves the generator in the same state."""

    @staticmethod
    def windows():
        rng = np.random.default_rng(23)
        t = np.sort(rng.uniform(0, 1, 120))
        yield Window(rng.normal(size=(120, 3)), t)
        yield Window(rng.integers(0, 3, (120, 2)).astype(float), t)  # ties
        x = rng.normal(size=(120, 3))
        x[:, 0] = 1.5  # a constant feature
        x[:, 2] = np.round(x[:, 2])
        yield Window(x, t)
        yield Window(rng.integers(0, 2, (40, 1)).astype(float), t[:40])  # d = 1, two values
        yield Window(np.full((30, 2), 4.0), t[:30])  # nothing splits
        yield Window(rng.normal(size=(9, 2)), t[:9])  # fewer samples than two leaves need

    @pytest.mark.parametrize("n_leaves, min_leaf", [(2, 1), (2, 5), (5, 2), (16, 5), (64, 1)])
    def test_trees_and_generator_state(self, n_leaves, min_leaf):
        for i, w in enumerate(self.windows()):
            rng, reference_rng = np.random.default_rng(i), np.random.default_rng(i)
            trees = build_random_trees(w, 8, n_leaves, rng, min_leaf)
            for tree in trees:
                assert tree.to_dict() == reference_random_tree(w, n_leaves, reference_rng, min_leaf).to_dict()
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_one_tree_is_the_forest_of_one(self, rng):
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        assert build_random_tree(w, 8, 3, 2).to_dict() == build_random_trees(w, 1, 8, 3, 2)[0].to_dict()

    def test_needs_a_tree(self, rng):
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        with pytest.raises(ParameterError, match="n_trees"):
            build_random_trees(w, 0)


PROPERTY = settings(derandomize=True, max_examples=60, database=None, deadline=None)


@st.composite
def windows(draw):
    """Continuous windows, or integer grids where feature values and
    timestamps tie often."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.integers(0, 3)
    else:
        values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
    ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    return Window(x, np.array(ticks) / 20.0)


# pca is left out: its covariance sums the rows in arrival order, so a
# permutation can move its axes in the last bits
TIME_AGNOSTIC_BUILDERS = {
    "marginal_equidistant": lambda w: build_marginal(w, edge_mode="equidistant"),
    "marginal_equilikely": lambda w: build_marginal(w, edge_mode="equilikely"),
    "grid": build_grid,
    "kdq_tree": build_kdq_tree,
    "random_tree": lambda w: build_random_tree(w, seed=5, min_leaf=2),
    "random_projection": lambda w: build_random_projection(w, seed=5),
}


def documents(parts):
    return [p.to_dict() for p in parts] if isinstance(parts, list) else parts.to_dict()


class TestProperties:
    """Criterion 9 generalized: a time-agnostic partition is a function of
    the feature multiset, so it ignores a timestamp permutation."""

    @pytest.mark.parametrize("builder", sorted(TIME_AGNOSTIC_BUILDERS))
    @PROPERTY
    @given(w=windows(), perm_seed=st.integers(0, 2**32 - 1))
    def test_timestamp_permutation_keeps_partition(self, builder, w, perm_seed):
        build = TIME_AGNOSTIC_BUILDERS[builder]
        assert documents(build(w)) == documents(build(permute_timestamps(w, perm_seed)))


#: Partitions a descriptor can stack, mixed freely in the property below.
STACKABLE = {
    "marginal": build_marginal,
    "random_projection": lambda w: build_random_projection(w, n_axes=2, seed=3),
    "grid": lambda w: [build_grid(w, bins_per_dim=3)],
    "kdq_tree": lambda w: [build_kdq_tree(w, min_count=4)],
    "random_trees": lambda w: [build_random_tree(w, seed=5, min_leaf=2), build_random_tree(w, seed=6, min_leaf=1)],
    "moment_tree": lambda w: [fit_moment_tree(w, MomentTreeConfig(min_leaf=2), seed=7)],
}


def descend(tree, x):
    """Leaf cell of one point, found node by node."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.left[node] + 1
    return tree.cell[node]


class TestStackedCells:
    @PROPERTY
    @given(
        w=windows(),
        names=st.lists(st.sampled_from(sorted(STACKABLE)), min_size=1, max_size=4),
        shift=st.floats(-200.0, 200.0),
    )
    def test_rows_are_own_cells_plus_offsets(self, w, names, shift):
        parts = [p for name in names for p in STACKABLE[name](w)]
        X = [*w.x, *(w.x + shift)]  # the shifted copy leaves the window's range
        for part in parts:  # points on a tree's thresholds, which go left
            tree = getattr(part, "partition", part)
            for f, threshold in zip(getattr(tree, "feature", ()), getattr(tree, "threshold", ())):
                if f >= 0:
                    X.append(np.where(np.arange(w.dim) == f, threshold, w.x[0]))
        X = np.array(X)
        cells = stacked_cells(parts, X)
        offsets = np.cumsum([0] + [p.n_cells for p in parts])[:-1]
        assert cells.shape == (len(parts), len(X))
        for row, part, offset in zip(cells, parts, offsets):
            assert np.array_equal(row, part.cell_of(X) + offset)
            tree = getattr(part, "partition", part)
            if isinstance(tree, TreePartition):
                assert np.array_equal(row - offset, [descend(tree, x) for x in X])


class TestHugeFeatures:
    """Tree thresholds are midpoints or draws between two values: the tree
    builders refuse features whose midpoints can overflow, and take those
    that cannot.  The binnings refuse a feature or projection whose range
    overflows."""

    @staticmethod
    def window(scale):
        rng = np.random.default_rng(0)
        return Window(rng.uniform(-1, 1, (80, 2)) * scale, np.sort(rng.uniform(0, 1, 80)))

    @pytest.mark.parametrize("build", [
        lambda w: build_random_tree(w, 16, 0, 5),
        lambda w: build_kdq_tree(w),
        # the range hi - lo of a feature or projection overflows
        lambda w: build_marginal(w, 4, "equidistant"),
        lambda w: build_marginal(w, 8, "equilikely"),
        lambda w: build_grid(w),
        lambda w: build_random_projection(w, seed=0),
    ])
    def test_past_half_the_float_range_raise_data_error(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="rescale"):
                build(self.window(np.finfo(float).max))

    def test_at_half_the_float_range_thresholds_stay_finite(self):
        w = self.window(np.finfo(float).max / 2)
        random_tree, kdq_tree = build_random_tree(w, 16, 0, 5), build_kdq_tree(w, 1e-3, 5)
        for tree in (random_tree, kdq_tree):
            inner = tree.feature >= 0
            assert inner.sum() > 3 and np.isfinite(tree.threshold[inner]).all()
        assert np.bincount(random_tree.cell_of(w.x), minlength=random_tree.n_cells).min() >= 5
