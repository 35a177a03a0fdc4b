import tracemalloc

import numpy as np
import pytest

from driftbench.detector import KnnKlEstimator, LddEstimator, MmdEstimator, detect_drift, scan_splits
from driftbench.errors import DataError, InvalidSplitError, ParameterError
from driftbench import neighbor_kernel
from driftbench.neighbor_kernel import (
    DISTANCE_FLOOR,
    LDD_CAP,
    build_kernel_gram,
    build_neighbor_graph,
    build_neighbor_lists,
    knn_kls,
    ldd_statistics,
    mmd_biased_reference,
    mmds_from_gram,
)
from driftbench.windows import Window, candidate_split_times, permute_timestamps


def window(x, t):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    t = np.asarray(t, dtype=float)
    order = np.argsort(t, kind="stable")
    return Window(x[order], t[order])


def two_sided(x_before, x_after):
    nb, na = len(x_before), len(x_after)
    t = np.concatenate([np.linspace(0, 0.5, nb), np.linspace(0.5 + 1e-9, 1, na)])
    return Window(np.vstack([np.atleast_2d(x_before).reshape(nb, -1), np.atleast_2d(x_after).reshape(na, -1)]), t)


def ranks_of(w, ts):
    """Before-side counts of split times, as the descriptor computes them."""
    return np.searchsorted(w.t, ts, side="right")


def ldd_at(g, w, t, **kw):
    return float(ldd_statistics(g, [w.rank_of(t)], **kw)[0])


def knn_kl_at(g, w, t):
    return float(knn_kls(g, [w.rank_of(t)])[0])


def mmd_at(w, t, bandwidth="median"):
    return float(mmds_from_gram(build_kernel_gram(w, bandwidth), [w.rank_of(t)])[0])


class TestNeighborGraph:
    def test_collinear_middle_point(self):
        w = window([0.0, 1.0, 3.0], [0.1, 0.5, 0.9])
        lists = build_neighbor_lists(w, k=1)
        middle = int(np.flatnonzero(w.x[:, 0] == 1.0)[0])
        nearest = lists[middle, 0]
        assert w.x[nearest, 0] == 0.0

    def test_matches_independent_scan(self, rng):
        # double-check the brute force against an independently coded scan
        w = Window(rng.normal(size=(40, 3)), np.sort(rng.uniform(0, 1, 40)))
        for k in (5, 39):
            lists = build_neighbor_lists(w, k)
            for i in range(len(w)):
                pairs = sorted(
                    ((float(np.linalg.norm(w.x[i] - w.x[j])), j) for j in range(len(w)) if j != i),
                )[:k]
                assert sorted(j for _, j in pairs) == list(lists[i])
        # the kNN-KL graph keeps the distances in sample order
        full = build_neighbor_graph(w, k=5)
        for i in range(len(w)):
            expected = [float(np.linalg.norm(w.x[i] - w.x[j])) if j != i else np.inf for j in range(len(w))]
            assert np.allclose(full.dist[i], expected)

    def test_k_capped_at_n_minus_one(self, rng):
        w = Window(rng.normal(size=(5, 2)), np.sort(rng.uniform(0, 1, 5)))
        assert build_neighbor_graph(w, k=50).k == 4
        assert build_neighbor_lists(w, k=50).shape == (5, 4)

    def test_distance_ties_broken_by_lower_index(self):
        # two neighbors tie at distance 1 from the origin; k = 1 keeps the lower index
        for t in ([0.1, 0.5, 0.9], [0.1, 0.9, 0.5]):
            w = window([0.0, 1.0, -1.0], t)
            origin = int(np.flatnonzero(w.x[:, 0] == 0.0)[0])
            others = [int(np.flatnonzero(w.x[:, 0] == v)[0]) for v in (1.0, -1.0)]
            assert list(build_neighbor_lists(w, k=1)[origin]) == [min(others)]
            assert list(build_neighbor_lists(w, k=2)[origin]) == sorted(others)

    def test_needs_two_samples(self):
        for build in (build_neighbor_graph, build_neighbor_lists):
            with pytest.raises(ParameterError):
                build(window([1.0], [0.5]), k=1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 20])
    def test_top_k_lists_equal_full_prefix(self, k):
        # tie-heavy integer grids (one over several row blocks), an all-zero
        # window, continuous data, and a window over several row blocks whose
        # every block mixes rows with surplus ties at the k-th distance (an
        # integer lattice and duplicated rows) and rows without them
        rng = np.random.default_rng(200 + k)
        mixed = rng.normal(size=(600, 2))
        mixed[::4] = np.round(mixed[::4])
        mixed[1::7] = mixed[rng.choice(600, len(mixed[1::7]))]
        cases = [
            Window(rng.integers(0, 3, size=(700, 2)).astype(float), np.sort(rng.uniform(0, 1, 700))),
            Window(rng.integers(0, 5, size=(90, 1)).astype(float), np.sort(rng.uniform(0, 1, 90))),
            Window(np.zeros((40, 2)), np.sort(rng.uniform(0, 1, 40))),
            Window(rng.normal(size=(120, 4)), np.sort(rng.uniform(0, 1, 120))),
            Window(mixed, np.sort(rng.uniform(0, 1, 600))),
        ]
        assert len(cases[0]) ** 2 > 4 * neighbor_kernel._BLOCK_ELEMENTS
        dist = build_neighbor_graph(cases[-1], k).dist
        surplus = np.count_nonzero(dist <= np.partition(dist, k - 1, axis=1)[:, k - 1 : k], axis=1) > k
        blocks = list(neighbor_kernel._row_blocks(600, 600))
        assert len(blocks) > 4 and all(0 < np.count_nonzero(surplus[b]) < len(surplus[b]) for b in blocks)
        for w in cases:
            order = np.argsort(build_neighbor_graph(w, k).dist, axis=1, kind="stable")[:, :k]
            lists = build_neighbor_lists(w, k)
            assert lists.shape == (len(w), k) and lists.dtype == np.intp
            # the same set per row, kept in ascending index order
            assert np.array_equal(lists, np.sort(order, axis=1))

    def test_estimator_keeps_k_wide_lists_for_ldd_only(self, rng):
        w = Window(rng.normal(size=(50, 2)), np.sort(rng.uniform(0, 1, 50)))

        def held(g):
            return [v for v in vars(g).values() if isinstance(v, np.ndarray)]

        # a kNN descriptor's statistics are bound to its fitted neighbors:
        # for LDD one (n, k) integer array and no float array
        ldd = LddEstimator(k=4).fit(w).statistics
        assert [(a.shape, a.dtype.kind) for a in ldd.args] == [((50, 4), "i")]
        assert not [v for v in ldd.keywords.values() if isinstance(v, np.ndarray)]
        # kNN-KL holds the one distance matrix and no n x n integer array
        kl = KnnKlEstimator(k=4).fit(w).statistics.args[0]
        assert [(a.shape, a.dtype) for a in held(kl)] == [((50, 50), np.float64)]


class TestLdd:
    def test_balanced_neighborhoods_give_zero(self):
        # squares with side-adjacent pairs: every point sees exactly one
        # neighbor from each side among its two nearest
        corners, sides, times = [], [], []
        for s, shift in enumerate([0.0, 10.0, 20.0]):
            corners += [[shift, 0.0], [shift, 1.0], [shift + 1.0, 1.0], [shift + 1.0, 0.0]]
            sides += [0, 0, 1, 1]
            times += [0.1 + 0.01 * s, 0.2 + 0.01 * s, 0.7 + 0.01 * s, 0.8 + 0.01 * s]
        w = window(np.array(corners), np.array(times))
        assert ldd_at(build_neighbor_lists(w, k=2), w, 0.5) == 0.0

    def test_separated_clusters_hit_cap(self):
        nb = na = 20
        xb = np.zeros((nb, 1))
        xa = np.full((na, 1), 100.0)
        xb += np.linspace(0, 0.1, nb)[:, None]
        xa += np.linspace(0, 0.1, na)[:, None]
        w = two_sided(xb, xa)
        g = build_neighbor_lists(w, k=12)
        # before points: all neighbors on their own side -> |delta| = 1;
        # after points: ratio 12/1 - 1 = 11, capped at 10
        assert ldd_at(g, w, 0.5) == pytest.approx((1.0 + 10.0) / 2.0)

    def test_no_drift_statistic_sits_inside_permutation_band(self):
        # without drift the observed statistic is exchangeable with its
        # permutation replicates, so its rank among 19 of them avoids the
        # extremes about 80% of the time
        within = 0
        reps = 30
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
            split = float(np.median(w.t)) - 1e-9
            observed = ldd_at(build_neighbor_lists(w, k=5), w, split)
            null = []
            for _ in range(19):
                perm = permute_timestamps(w, rng)
                null.append(ldd_at(build_neighbor_lists(perm, k=5), perm, split))
            greater = int(np.sum(np.asarray(null) >= observed))
            within += 2 <= greater <= 17
        assert within >= 18

    def test_aggregation_modes(self, rng):
        w = Window(rng.normal(size=(30, 2)), np.sort(rng.uniform(0, 1, 30)))
        g = build_neighbor_lists(w, k=3)
        assert ldd_at(g, w, 0.5, aggregation="max") >= ldd_at(g, w, 0.5)
        with pytest.raises(ParameterError):
            ldd_at(g, w, 0.5, aggregation="median")

    def test_empty_side_errors(self, rng):
        w = Window(rng.normal(size=(20, 1)), np.sort(rng.uniform(0.2, 0.8, 20)))
        desc = LddEstimator(k=2).fit(w)
        with pytest.raises(InvalidSplitError):
            desc.statistics_at([0.95])[0]

    def test_rank_outside_one_to_n_minus_one_errors(self, rng):
        # these ranks gave 1.0, a finite degree and nan instead of an error
        w = Window(rng.normal(size=(30, 2)), np.sort(rng.uniform(0, 1, 30)))
        lists = build_neighbor_lists(w, k=5)
        assert np.isfinite(ldd_statistics(lists, [1, 29])).all()
        for bad in (0, -1, 30):
            with pytest.raises(InvalidSplitError):
                ldd_statistics(lists, [15, bad])


class TestKnnKl:
    def test_same_distribution_near_zero(self):
        rng = np.random.default_rng(0)
        w = two_sided(rng.normal(size=(250, 2)), rng.normal(size=(250, 2)))
        g = build_neighbor_graph(w, k=5)
        assert 0.0 <= knn_kl_at(g, w, 0.5) < 0.35

    def test_gaussian_closed_form(self):
        # KL(N(0,1) || N(3,1)) = 4.5
        rng = np.random.default_rng(1)
        w = two_sided(rng.normal(0, 1, (1000, 1)), rng.normal(3, 1, (1000, 1)))
        g = build_neighbor_graph(w, k=2)
        est = knn_kl_at(g, w, 0.5)
        assert abs(est - 4.5) <= 0.25 * 4.5

    def test_duplicate_points_floored_not_crashing(self):
        xb = np.zeros((10, 1))
        xa = np.zeros((10, 1))
        w = two_sided(xb, xa)
        g = build_neighbor_graph(w, k=2)
        val = knn_kl_at(g, w, 0.5)
        assert np.isfinite(val) and val >= 0.0

    def test_requires_more_than_k_per_side(self):
        rng = np.random.default_rng(2)
        w = two_sided(rng.normal(size=(4, 1)), rng.normal(size=(30, 1)))
        g = build_neighbor_graph(w, k=5)
        with pytest.raises(InvalidSplitError):
            knn_kl_at(g, w, 0.5)


def ldd_per_split(lists, ranks, cap=LDD_CAP, aggregation="mean"):
    """Reference: one before-side mask and neighbor count per split."""
    n, k = lists.shape
    out = np.empty(len(ranks))
    for i, r in enumerate(ranks):
        before = np.arange(n) < r
        n_before = int(before.sum())
        n_after = n - n_before
        k_before = before[lists].sum(axis=1)
        k_after = k - k_before
        delta = (n_before / n_after) * (k_after / np.maximum(k_before, 1)) - 1.0
        degrees = np.minimum(np.abs(delta), cap)
        out[i] = degrees.mean() if aggregation == "mean" else degrees.max()
    return out


def knn_kl_per_split(g, w, ranks, floor=DISTANCE_FLOOR):
    """Reference: k-th same-/other-side distance by ``np.partition`` of each
    before-side row's two column ranges, per split."""
    d = w.dim
    out = np.empty(len(ranks))
    for i, r in enumerate(ranks):
        n_b, n_a = r, g.n - r
        if n_b <= g.k or n_a <= g.k:
            raise InvalidSplitError(f"both sides must have more than k={g.k} samples")
        same = np.delete(g.dist[:r, :r], np.arange(r) * (r + 1)).reshape(r, r - 1)  # self dropped
        rho = np.maximum(np.partition(same, g.k - 1, axis=1)[:, g.k - 1], floor)
        nu = np.maximum(np.partition(g.dist[:r, r:], g.k - 1, axis=1)[:, g.k - 1], floor)
        est = (d / n_b) * np.log(nu / rho).sum() + np.log(n_a / (n_b - 1))
        out[i] = max(est, 0.0)
    return out


def sweep_window(rng, n, d=2):
    """Window with tied timestamps and duplicated feature rows (distance ties)."""
    x = rng.normal(size=(n, d))
    x[rng.integers(0, n, n // 4)] = x[rng.integers(0, n, n // 4)]
    t = np.round(np.sort(rng.uniform(0, 1, n)), 2)
    return Window(x, t)


def sweep_cases(k, build, n_windows=4):
    """Windows, each fitted by ``build`` with k, and their candidate ranks."""
    rng = np.random.default_rng(k)
    for _ in range(n_windows):
        w = sweep_window(rng, int(rng.integers(3 * k + 8, 120)), int(rng.integers(1, 4)))
        g = build(w, k)
        ranks = ranks_of(w, candidate_split_times(w, min_side=k + 1))
        yield w, g, ranks
        yield w, g, ranks[len(ranks) // 2 : len(ranks) // 2 + 1]


class TestSplitSweep:
    """The sweeps equal the per-split formulas bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 20])
    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    def test_ldd_equals_per_split(self, k, aggregation):
        for w, g, ranks in sweep_cases(k, build_neighbor_lists):
            assert np.array_equal(ldd_statistics(g, ranks, aggregation=aggregation), ldd_per_split(g, ranks, aggregation=aggregation))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_knn_kl_equals_per_split(self, k):
        for w, g, ranks in sweep_cases(k, build_neighbor_graph):
            assert np.array_equal(knn_kls(g, ranks), knn_kl_per_split(g, w, ranks))

    @pytest.mark.parametrize("k", [2, 10])
    def test_windows_wider_than_one_block(self, k):
        rng = np.random.default_rng(100 + k)
        w = sweep_window(rng, 300, 3)
        assert len(w) * (len(w) - 1) > neighbor_kernel._BLOCK_ELEMENTS  # several row and split blocks
        g, lists = build_neighbor_graph(w, k), build_neighbor_lists(w, k)
        ranks = ranks_of(w, candidate_split_times(w, min_side=k + 1))
        assert np.array_equal(knn_kls(g, ranks), knn_kl_per_split(g, w, ranks))
        assert np.array_equal(ldd_statistics(lists, ranks), ldd_per_split(lists, ranks))

    def test_splits_in_any_order_and_repeated(self, rng):
        w = sweep_window(rng, 80)
        g, lists = build_neighbor_graph(w, 3), build_neighbor_lists(w, 3)
        ranks = rng.permutation(np.repeat(ranks_of(w, candidate_split_times(w, min_side=4)), 2))
        assert np.array_equal(knn_kls(g, ranks), knn_kl_per_split(g, w, ranks))
        for aggregation in ("mean", "max"):
            assert np.array_equal(ldd_statistics(lists, ranks, aggregation=aggregation), ldd_per_split(lists, ranks, aggregation=aggregation))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_at_most_k_on_a_side_errors(self, rng, k):
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        g = build_neighbor_graph(w, k)
        ok = [k + 1, len(w) - k - 1]
        assert np.array_equal(knn_kls(g, ok), knn_kl_per_split(g, w, ok))
        for r in (k, len(w) - k):
            with pytest.raises(InvalidSplitError):
                knn_kls(g, ok + [r])
            with pytest.raises(InvalidSplitError):
                knn_kl_per_split(g, w, ok + [r])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20])
    def test_ldd_from_top_k_lists_equals_full_graph(self, k):
        # the sort-free sets give the statistic of a full stable sort's prefix
        rng = np.random.default_rng(300 + k)
        for _ in range(3):
            n = int(rng.integers(3 * k + 8, 150))
            x = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
            w = Window(x, np.round(np.sort(rng.uniform(0, 1, n)), 2))
            ranks = ranks_of(w, candidate_split_times(w, min_side=k + 1))
            full = np.argsort(build_neighbor_graph(w, k).dist, axis=1, kind="stable")[:, :k]
            top = build_neighbor_lists(w, k)
            for aggregation in ("mean", "max"):
                assert np.array_equal(
                    ldd_statistics(top, ranks, aggregation=aggregation),
                    ldd_statistics(full, ranks, aggregation=aggregation),
                )

    def test_no_splits_gives_empty(self, rng):
        w = sweep_window(rng, 30)
        assert knn_kls(build_neighbor_graph(w, 2), []).shape == (0,)
        assert ldd_statistics(build_neighbor_lists(w, 2), []).shape == (0,)


class TestMmd:
    def test_identical_sides_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        w = two_sided(x, x.copy())
        assert mmd_at(w, 0.5) <= 1e-10

    def test_matches_double_loop_reference(self, rng):
        for _ in range(20):
            nb = int(rng.integers(4, 25))
            na = int(rng.integers(4, 25))
            d = int(rng.integers(1, 4))
            w = two_sided(rng.normal(size=(nb, d)), rng.normal(1.0, 1.0, (na, d)))
            gram = build_kernel_gram(w)
            fast = mmds_from_gram(gram, [nb])[0]
            slow = mmd_biased_reference(w.x[:nb], w.x[nb:], gram.sigma)
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_gram_diagonal_and_symmetry(self, rng):
        n = 30
        x = rng.normal(size=(n, 2))
        t = np.sort(rng.uniform(0, 1, n))
        gram = build_kernel_gram(Window(x, t))
        # inner[1] is K[0, 0]; rolling the window brings each K[i, i] there
        diag = [build_kernel_gram(Window(np.roll(x, -i, axis=0), t)).inner[1] for i in range(n)]
        assert np.allclose(diag, 1.0)
        # the before/after block of one order is the after/before block of the reversed order
        rev = build_kernel_gram(Window(x[::-1].copy(), t))
        m = np.arange(1, n)
        before_after = gram.lead[m] - gram.inner[m]
        after_before = rev.lead[n - m] - rev.inner[n - m]
        assert np.max(np.abs(before_after - after_before)) < 1e-12
        assert gram.total == pytest.approx(rev.total, abs=1e-12)

    def test_descriptor_holds_no_n_by_n_array(self, rng):
        n = 120
        w = Window(rng.normal(size=(n, 2)), np.sort(rng.uniform(0, 1, n)))
        desc = MmdEstimator().fit(w)
        gram = desc.statistics.args[0]
        held = [v for v in (*vars(desc).values(), *vars(gram).values()) if isinstance(v, np.ndarray)]
        assert held and max(a.size for a in held) <= n + 1

    def test_monotone_decreasing_in_bandwidth_on_separated_clusters(self):
        xb = np.zeros((20, 1))
        xa = np.full((20, 1), 5.0)
        w = two_sided(xb, xa)
        vals = [mmd_at(w, 0.5, bandwidth=s) for s in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(np.sqrt(2.0), abs=1e-3)

    def test_median_heuristic_positive(self, rng):
        assert build_kernel_gram(Window(rng.normal(size=(20, 2)), np.linspace(0, 1, 20))).sigma > 0
        assert build_kernel_gram(Window(np.zeros((5, 2)), np.linspace(0, 1, 5))).sigma == 1.0

    def test_invalid_bandwidth(self, rng):
        w = Window(rng.normal(size=(10, 1)), np.sort(rng.uniform(0, 1, 10)))
        for bad in (0.0, -1.0, float("nan"), float("inf"), "silverman", None):
            with pytest.raises(ParameterError, match="bandwidth"):
                build_kernel_gram(w, bandwidth=bad)

    def test_nan_bandwidth_is_rejected_not_detected(self, rng):
        # a NaN bandwidth used to give max_stat = nan and a p-value of 0.05
        w = Window(rng.normal(size=(80, 2)), np.sort(rng.uniform(0, 1, 80)))
        with pytest.raises(ParameterError, match="bandwidth"):
            detect_drift(MmdEstimator(bandwidth=float("nan")), w, n_perms=19, seed=0)

    def test_rank_outside_one_to_n_minus_one_errors(self, rng):
        # ranks 0 and n gave nan or inf, and rank -1 wrapped round to a finite value
        w = Window(rng.normal(size=(30, 2)), np.sort(rng.uniform(0, 1, 30)))
        gram = build_kernel_gram(w)
        assert np.isfinite(mmds_from_gram(gram, [1, 29])).all()
        for bad in (0, -1, 30):
            with pytest.raises(InvalidSplitError):
                mmds_from_gram(gram, [15, bad])

    def test_reference_rejects_an_empty_side(self, rng):
        # an empty side used to raise ZeroDivisionError
        x = rng.normal(size=(6, 2))
        assert np.isfinite(mmd_biased_reference(x[:1], x[1:], 1.0))
        for before, after in ((x[:0], x), (x, x[:0])):
            with pytest.raises(InvalidSplitError):
                mmd_biased_reference(before, after, 1.0)

    def test_scan_all_splits_o1_per_split(self, rng):
        # the cached block sums agree with a fresh two-block computation
        w = Window(rng.normal(size=(60, 2)), np.sort(rng.uniform(0, 1, 60)))
        gram = build_kernel_gram(w)
        ranks = ranks_of(w, np.unique(w.t)[5:-5])
        fast = mmds_from_gram(gram, ranks)
        for i, f in zip(ranks, fast):
            assert f == pytest.approx(mmd_biased_reference(w.x[:i], w.x[i:], gram.sigma), abs=1e-10)

    def test_permutation_null_below_drift_on_stagger(self):
        # drifting stagger windows: the statistic at the drift point sits
        # above the median of its permutation null in nearly every repetition
        from driftbench.generators import stagger_pair
        from driftbench.windows import make_paired

        before, after = stagger_pair(1, 2)
        wins = 0
        reps = 200
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            pw = make_paired(before, after, 150, seed=rng)
            drift_stat = mmd_at(pw.drifting, 0.5)
            null = []
            for _ in range(9):
                perm = permute_timestamps(pw.drifting, rng)
                null.append(mmd_at(perm, 0.5))
            wins += drift_stat > np.median(null)
        assert wins >= 0.95 * reps


def unblocked_distances(x):
    """Reference: the expansion formula in whole-matrix temporaries."""
    sq = np.sum(x * x, axis=1)
    return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))


def buffer_cases():
    rng = np.random.default_rng(17)
    for n, d in [(2, 1), (3, 2), (4, 1), (150, 4), (200, 1), (700, 3)]:
        yield rng.normal(size=(n, d))
    yield rng.integers(0, 3, size=(301, 2)).astype(float)  # heavy distance ties


class TestDistanceBuffer:
    """The one-buffer distance, median and kernel passes equal the
    whole-matrix formulas bit for bit."""

    def test_pairwise_distances_equal_unblocked_formula(self):
        assert 700**2 > 4 * neighbor_kernel._BLOCK_ELEMENTS  # several row blocks
        for x in buffer_cases():
            assert np.array_equal(neighbor_kernel._pairwise_distances(x), unblocked_distances(x))

    def test_median_heuristic_equals_triu_median(self):
        # pair counts of both parities, and ties
        for x in buffer_cases():
            d = unblocked_distances(x)
            expected = float(np.median(d[np.triu_indices(len(x), k=1)]))
            assert build_kernel_gram(Window(x, np.linspace(0, 1, len(x)))).sigma == expected

    def test_median_distance_equals_np_median(self):
        # odd and even pair counts (n = 2..7 give 1, 3, 6, 10, 15, 21), also
        # either side of the block budget where the sample starts to bracket
        # (362 and 363 give 65 341 and 65 703 pairs, 700 and 1500 even
        # counts); rounded ties, all-equal distances, asymmetric matrices,
        # half the rows duplicated (zero distances), and an even count split
        # between two values exactly at the middle, so the two middle values differ
        def check(m):
            expected = float(np.median(m[np.triu_indices(len(m), k=1)]))
            assert neighbor_kernel._median_distance(m) == (expected if expected > 0 else 1.0)

        rng = np.random.default_rng(17)
        assert 362 * 361 // 2 < neighbor_kernel._BLOCK_ELEMENTS < 363 * 362 // 2
        for n in (2, 3, 4, 5, 6, 7, 40, 41, 362, 363, 700, 1500):
            m = rng.uniform(0.5, 2.0, size=(n, n))
            x = rng.normal(size=(n, 2))
            x[n // 2 :] = x[: n - n // 2]
            for case in (m, np.round(m, 1), np.full((n, n), 0.75), neighbor_kernel._pairwise_distances(x)):
                check(case)
        for n in (4, 5, 8, 41, 364):
            m, upper = np.zeros((n, n)), np.triu_indices(n, k=1)
            m[upper] = rng.permutation(np.repeat([0.5, 2.0], len(upper[0]) // 2))
            check(m)
        assert neighbor_kernel._median_distance(np.zeros((4, 4))) == 1.0

    @pytest.mark.parametrize("n", [363, 364])
    def test_median_distance_takes_a_second_pass_when_the_bracket_fails(self, n, monkeypatch):
        # values planted on the sampled pairs make the bracket miss the middle
        # ranks from above or below, or hold more than its room; for an even
        # count, exactly h values below the bracket leave out the lower
        # middle rank h - 1.  Each case takes a second pass, which widens the
        # side that missed to infinity and gathers exactly what lies inside
        passes = []
        count_and_gather = neighbor_kernel._count_and_gather
        monkeypatch.setattr(
            neighbor_kernel, "_count_and_gather", lambda d, *bracket: passes.append(bracket) or count_and_gather(d, *bracket)
        )
        rng = np.random.default_rng(n)
        count = n * (n - 1) // 2
        sampled = np.zeros((n, n), dtype=bool)
        sampled[neighbor_kernel._median_sample(n)] = True
        cases = []  # (matrix, lower end widened, upper end widened)
        for planted, widened in ((0.25, (False, True)), (3.0, (True, False))):
            m = rng.uniform(0.5, 2.0, size=(n, n))
            m[sampled] = planted
            cases.append((m, *widened))
        m = rng.uniform(0.5, 2.0, size=(n, n))
        m[~sampled] = 1.25  # near the sample's median, so inside its bracket
        cases.append((m, False, False))
        if count % 2 == 0:
            rows, cols = np.nonzero(np.triu(~sampled, k=1))
            m = np.full((n, n), 2.0)
            m[rows[: count // 2], cols[: count // 2]] = 0.5
            m[sampled] = 1.0
            cases.append((m, True, False))
        for m, lo_widened, hi_widened in cases:
            passes.clear()
            upper = m[np.triu_indices(n, k=1)]
            assert neighbor_kernel._median_distance(m) == float(np.median(upper))
            assert len(passes) == 2
            (lo, hi, _), (lo2, hi2, room) = passes
            assert (lo2, hi2) == (-np.inf if lo_widened else lo, np.inf if hi_widened else hi)
            assert room == np.count_nonzero((upper >= lo2) & (upper <= hi2))

    @pytest.mark.parametrize("n", [363, 364])
    def test_median_distance_widens_a_bracket_one_rank_short_of_h(self, n, monkeypatch):
        # a sample of two pairs, the smallest value and the one at rank h - 1,
        # brackets exactly the h lowest ranks: below + inside == h, so rank h
        # lies above the bracket and its upper end must widen
        upper = np.triu_indices(n, k=1)
        count = len(upper[0])
        m = np.zeros((n, n))
        m[upper] = np.random.default_rng(n).permutation(count) + 1.0
        picked = np.argsort(m[upper])[[0, count // 2 - 1]]
        monkeypatch.setattr(neighbor_kernel, "_median_sample", lambda _: (upper[0][picked], upper[1][picked]))
        assert neighbor_kernel._median_distance(m) == float(np.median(m[upper]))

    def test_kernel_matrix_equals_formula(self):
        # the block sums reduce the formula's matrix, bit for bit
        for x in buffer_cases():
            gram = build_kernel_gram(Window(x, np.linspace(0, 1, len(x))))
            K = np.exp(-(unblocked_distances(x) ** 2) / (2.0 * gram.sigma**2))
            assert np.allclose(np.diag(K), 1.0)
            assert np.max(np.abs(K - K.T)) < 1e-12
            strict_lower = np.array([K[i, :i].sum() for i in range(len(x))])
            assert np.array_equal(gram.inner, np.concatenate([[0.0], np.cumsum(2.0 * strict_lower + np.diag(K))]))
            assert np.array_equal(gram.lead, np.concatenate([[0.0], np.cumsum(K.sum(axis=1))]))
            assert gram.total == float(K.sum())


class TestSizeGuard:
    def test_quadratic_fits_refuse_windows_above_the_cap(self, rng, monkeypatch):
        monkeypatch.setattr(neighbor_kernel, "MAX_PAIRWISE_N", 20)
        small = Window(rng.normal(size=(20, 2)), np.sort(rng.uniform(0, 1, 20)))
        build_neighbor_graph(small, 3)
        build_kernel_gram(small)
        big = Window(rng.normal(size=(21, 2)), np.sort(rng.uniform(0, 1, 21)))
        fits = [
            lambda: build_neighbor_graph(big, 3),
            lambda: build_neighbor_lists(big, 3),
            lambda: build_kernel_gram(big),
            lambda: build_kernel_gram(big, bandwidth=1.0),
        ]
        for fit in fits:
            with pytest.raises(ParameterError, match="MAX_PAIRWISE_N"):
                fit()

    @pytest.mark.parametrize(
        "fit, matrices",
        [
            (lambda w: build_kernel_gram(w), 1.0),  # the median gathers only its bracket
            # all distances tie, so the median's bracket gathers the whole upper triangle
            (lambda w: build_kernel_gram(Window(np.zeros_like(w.x), w.t)), 1.5),
            (lambda w: build_kernel_gram(w, bandwidth=1.0), 1.0),
            (lambda w: build_neighbor_graph(w, 2), 1.0),
            (lambda w: build_neighbor_lists(w, 10), 1.0),
        ],
        ids=["gram-median", "gram-median-tied", "gram-fixed", "neighbor-graph", "neighbor-lists"],
    )
    def test_fit_peak_memory_is_the_documented_multiple_of_one_matrix(self, fit, matrices):
        # the module docstring, MAX_PAIRWISE_N and README give these peaks;
        # row blocks add a few temporaries of the sweep budget on top
        n = 2000
        rng = np.random.default_rng(0)
        w = Window(rng.normal(size=(n, 3)), np.sort(rng.uniform(0, 1, n)))
        matrix = 8 * n * n
        tracemalloc.start()
        try:
            fit(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (matrices - 0.01) * matrix <= peak <= matrices * matrix + 6 * 8 * neighbor_kernel._BLOCK_ELEMENTS

    def test_squared_norms_up_to_an_eighth_of_the_float_range(self, rng):
        # below the limit every intermediate of the distance expansion and of
        # the kernel bandwidth stays finite; above it the fit refuses the window
        limit = np.sqrt(np.finfo(float).max / 8)
        x = rng.normal(size=(60, 2))
        x *= 0.99 * limit / np.linalg.norm(x, axis=1).max()
        t = np.sort(rng.uniform(0, 1, 60))
        estimators = (LddEstimator(k=3), KnnKlEstimator(k=2), MmdEstimator())
        for est in estimators:
            assert np.isfinite(scan_splits(est, Window(x, t)).statistics).all(), est.name
        for est in estimators:
            with pytest.raises(DataError, match="too large"):
                est.fit(Window(x * 1.02, t))


class TestSideInvariance:
    def test_statistics_invariant_to_within_side_reordering(self, rng):
        # pure set functions of the two sides: permuting timestamps within
        # each side never changes LDD, kNN-KL or MMD
        x = rng.normal(size=(40, 2))
        t = np.sort(rng.uniform(0, 1, 40))
        w = Window(x, t)
        split = float(np.median(t))
        mask = t <= split
        t2 = t.copy()
        t2[mask] = rng.permutation(t[mask])
        t2[~mask] = rng.permutation(t[~mask])
        w2 = window(x, t2)
        l1, l2 = build_neighbor_lists(w, k=4), build_neighbor_lists(w2, k=4)
        assert ldd_at(l1, w, split) == pytest.approx(ldd_at(l2, w2, split), abs=1e-12)
        g1, g2 = build_neighbor_graph(w, k=4), build_neighbor_graph(w2, k=4)
        assert knn_kl_at(g1, w, split) == pytest.approx(knn_kl_at(g2, w2, split), abs=1e-12)
        m1 = mmd_at(w, split)
        m2 = mmd_at(w2, split)
        assert m1 == pytest.approx(m2, abs=1e-12)
