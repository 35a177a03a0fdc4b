import contextlib
import warnings

import numpy as np
import pytest

from driftbench.detector import (
    DriftVerdict,
    classifier_tv_oracle,
    detect_drift,
    kdq_tree_estimator,
    marginal_estimator,
    partition_estimator,
    permutation_normalize,
    random_projection_estimator,
    random_tree_estimator,
    scan_splits,
)
from driftbench.errors import DataError, DriftBenchError, InvalidSplitError, ParameterError
from driftbench.harness import ESTIMATOR_BUILDERS, make_estimator
from driftbench.histograms import METRICS, CumulativeHistogram, histogram_metric
from driftbench.partitions import build_random_tree
from driftbench.windows import Window, candidate_split_times, make_paired

BLOCK_BEFORE = lambda n, rng: rng.uniform(0, 1, (n, 1))
BLOCK_AFTER = lambda n, rng: rng.uniform(2, 3, (n, 1))


def precision(verdict: DriftVerdict, t0: float, w: Window) -> float:
    """1 minus the sample mass strictly between t0 and the verdict's estimate."""
    lo, hi = sorted((t0, verdict.t_hat))
    between = np.count_nonzero((w.t > lo) & (w.t <= hi)) if hi > lo else 0
    return 1.0 - between / len(w)


class _Transformed:
    """Wraps an estimator, applying a monotone map to its statistics."""

    def __init__(self, inner, fn):
        self.inner, self.fn = inner, fn
        self.name = inner.name

    def fit(self, w, seed=None):
        desc, fn = self.inner.fit(w, seed), self.fn

        class Wrapped:
            def statistics_at(self, ts):
                return fn(desc.statistics_at(ts))

        return Wrapped()


class TestScanSplits:
    def test_single_candidate(self, rng):
        w = Window(rng.normal(size=(20, 1)), np.sort(rng.uniform(0, 1, 20)))
        only = float(np.unique(w.t)[9])  # the exact 10/10 split
        verdict = scan_splits(marginal_estimator(), w, seed=0, min_side=10)
        assert verdict.t_hat == only
        assert len(verdict.split_times) == 1

    def test_no_candidates_errors(self, rng):
        w = Window(rng.normal(size=(10, 1)), np.sort(rng.uniform(0, 1, 10)))
        with pytest.raises(ParameterError):
            scan_splits(marginal_estimator(), w, min_side=9)

    @pytest.mark.parametrize("n", [1, 40, 49])
    def test_no_candidate_at_the_default_margin_is_data_error(self, rng, n):
        w = Window(rng.normal(size=(n, 1)), np.sort(rng.uniform(0, 1, n)))
        fits = []
        est = marginal_estimator()
        est.fit = lambda *args, **kwargs: fits.append(args)
        message = f"no split of the {n} samples leaves the default margin of 25 on each side"
        with pytest.raises(DataError, match=message):
            scan_splits(est, w)
        with pytest.raises(DataError, match=message):
            detect_drift(est, w, n_perms=19, seed=0)
        assert fits == []

    @pytest.mark.parametrize("min_side", [0, -3, 0.5, float("nan")])
    def test_margin_below_one_is_rejected_before_any_fit(self, rng, min_side):
        # min_side = 0 proposed the split after the last sample and failed
        # only in the fit's statistics, with InvalidSplitError
        w = Window(rng.normal(size=(20, 1)), np.sort(rng.uniform(0, 1, 20)))
        fits = []
        est = marginal_estimator()
        est.fit = lambda *args, **kwargs: fits.append(args)
        with pytest.raises(ParameterError, match="min_side"):
            scan_splits(est, w, min_side=min_side)
        with pytest.raises(ParameterError, match="min_side"):
            detect_drift(est, w, n_perms=19, seed=0, min_side=min_side)
        with pytest.raises(ParameterError, match="min_side"):
            candidate_split_times(w, min_side)
        assert fits == []
        assert len(candidate_split_times(w, 1)) == len(np.unique(w.t)) - 1

    def test_trace_is_complete_and_argmax_consistent(self, rng):
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=0)
        verdict = scan_splits(random_tree_estimator(), pw.drifting, seed=1)
        assert verdict.max_stat == verdict.statistics.max()
        first_max = verdict.split_times[np.argmax(verdict.statistics)]
        assert verdict.t_hat == first_max

    def test_localizes_drift_in_90_percent_of_runs(self):
        # two disjoint uniform blocks, drift at t0=0.5: the arg-max split
        # lands within 5% sample mass of the truth nearly always
        hits = 0
        runs = 200
        for rep in range(runs):
            pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=rep)
            verdict = scan_splits(random_tree_estimator(), pw.drifting, seed=rep)
            hits += precision(verdict, pw.t0, pw.drifting) >= 0.95
        assert hits >= 0.90 * runs

    def test_permuted_window_stays_below_own_null_tail(self):
        est = marginal_estimator()
        ok = 0
        runs = 60
        for rep in range(runs):
            rng = np.random.default_rng(rep)
            pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 120, seed=rng)
            observed = scan_splits(est, pw.permuted, seed=rng).max_stat
            null = []
            for _ in range(19):
                from driftbench.windows import permute_timestamps

                again = permute_timestamps(pw.permuted, rng)
                null.append(scan_splits(est, again, seed=rng).max_stat)
            ok += observed < np.quantile(null, 0.95)
        assert ok >= 0.90 * runs - 3

    def test_argmax_invariant_under_monotone_transforms(self, rng):
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=5)
        base = random_tree_estimator()
        reference = scan_splits(base, pw.drifting, seed=7)
        for fn in (lambda s: s**2, lambda s: np.log1p(s)):
            got = scan_splits(_Transformed(base, fn), pw.drifting, seed=7)
            assert got.t_hat == reference.t_hat

    def test_precision_measures_sample_mass(self):
        w = Window(np.zeros((10, 1)), np.linspace(0, 1, 10))
        verdict = DriftVerdict(np.array([0.4]), np.array([1.0]), t_hat=float(w.t[6]), max_stat=1.0)
        # samples strictly between t0=w.t[2] and the estimate: ranks 3..6
        assert precision(verdict, float(w.t[2]), w) == pytest.approx(1.0 - 4 / 10)
        assert precision(verdict, float(w.t[6]), w) == 1.0


class TestFactorization:
    def test_prefix_scan_equals_naive_rebuild(self, rng):
        # partition estimators: evaluating the fitted descriptor over all
        # candidate splits must equal re-splitting and recounting naively
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 120, seed=3)
        w = pw.drifting
        metric = histogram_metric("tv")
        for est in (marginal_estimator(), random_tree_estimator(n_trees=2), kdq_tree_estimator()):
            desc = est.fit(w, seed=11)
            ts = candidate_split_times(w)
            fast = desc.statistics_at(ts)
            for t, value in zip(ts, fast):
                before = w.t <= t
                per_part = [
                    metric(
                        np.bincount(p.cell_of(w.x[before]), minlength=p.n_cells),
                        np.bincount(p.cell_of(w.x[~before]), minlength=p.n_cells),
                    )
                    for p in desc.partitions
                ]
                assert value == max(per_part)


class TestDescriptorProtocol:
    """Every estimator's descriptor maps split times to ranks the same way."""

    @pytest.fixture(scope="class")
    def window(self):
        rng = np.random.default_rng(7)
        t = np.round(np.sort(rng.uniform(0, 1, 90)), 2)  # tied timestamps
        return Window(rng.normal(size=(90, 3)), t)

    def test_partition_estimator_with_no_partitions_is_rejected(self, window):
        with pytest.raises(ParameterError, match="at least one partition"):
            partition_estimator("none", lambda w, rng: []).fit(window)

    @pytest.mark.parametrize("estimator_id", sorted(ESTIMATOR_BUILDERS))
    def test_statistics_at(self, window, estimator_id):
        w = window
        desc = make_estimator(estimator_id).fit(w, seed=3)
        ts = candidate_split_times(w)
        batch = desc.statistics_at(ts)
        assert np.array_equal(batch, [desc.statistics_at([t])[0] for t in ts])
        assert desc.statistics_at([]).shape == (0,)
        # a time strictly between two samples splits like the earlier one
        gaps = np.flatnonzero(np.diff(w.t) > 0)
        j = int(gaps[len(gaps) // 2])
        between = 0.5 * (w.t[j] + w.t[j + 1])
        assert w.t[j] < between < w.t[j + 1]
        assert desc.statistics_at([between])[0] == desc.statistics_at([w.t[j]])[0]
        # one split contract for every estimator under every metric: ranks
        # outside [1, n-1], and the times that map to them, raise
        # InvalidSplitError
        n = len(w)
        for metric in METRICS:
            desc = make_estimator(estimator_id, metric).fit(w, seed=3)
            for r in (-1, 0, n, n + 1):
                for ranks in ([r], [n // 2, r]):
                    with pytest.raises(InvalidSplitError):
                        desc.statistics(np.array(ranks))
            # ranks 0, n and n; no time maps to -1 or n + 1
            for t in (float(w.t[0]) - 0.01, float(w.t[-1]), float(w.t[-1]) + 0.01):
                with pytest.raises(InvalidSplitError):
                    desc.statistics_at([t])

    @pytest.mark.parametrize("estimator_id", sorted(ESTIMATOR_BUILDERS))
    def test_one_sample_window_fits_or_raises_a_driftbench_error(self, estimator_id):
        # a lone sample has no split; the O(n^2) fits refuse it in one place
        w = Window(np.array([[0.3, 0.7]]), np.array([0.5]))
        if estimator_id in ("ldd", "knn_kl", "mmd"):
            with pytest.raises(ParameterError, match="need at least two samples"):
                make_estimator(estimator_id).fit(w, seed=0)
        else:
            with contextlib.suppress(DriftBenchError):
                make_estimator(estimator_id).fit(w, seed=0)

    def test_rank_list_path_gives_dense_bits(self, monkeypatch):
        # both prefix storage paths hand the metrics column-major counts, so
        # their sums over 8 or more cells run in the same order
        from driftbench import histograms

        rng = np.random.default_rng(11)
        w = Window(rng.normal(size=(300, 3)), np.sort(rng.uniform(0, 1, 300)))
        ts = candidate_split_times(w)
        for estimator_id in ("kdq", "rf", "rnd_pj", "rnd_tree"):
            for metric in ("tv", "hellinger", "js"):
                with monkeypatch.context() as mp:
                    dense = make_estimator(estimator_id, metric).fit(w, seed=5).statistics_at(ts)
                    mp.setattr(histograms, "DENSE_PREFIX_LIMIT", 0)
                    ranked = make_estimator(estimator_id, metric).fit(w, seed=5).statistics_at(ts)
                assert np.array_equal(ranked, dense), (estimator_id, metric)


def per_partition_statistics(desc, ranks):
    """A partition descriptor's statistics from one cumulative histogram per
    partition: max over binnings, sequential sum over trees, then the mean."""
    forest = hasattr(desc, "forest")
    parts = desc.forest.trees if forest else desc.partitions
    acc = np.zeros(len(ranks)) if forest else np.full(len(ranks), -np.inf)
    for part in parts:
        h = CumulativeHistogram(part.cell_of(desc.window.x), desc.window.t, part.n_cells)
        before = h.counts_before_ranks(ranks)
        (np.add if forest else np.maximum)(acc, desc.metric(before, h.totals[:, None] - before), out=acc)
    return acc / len(parts) if forest else acc


PARTITION_ESTIMATORS = ["dt", "grid", "kdq", "marg", "pca", "rf", "rnd_pj", "rnd_tree"]


class TestStackedDescriptor:
    """One stacked histogram per descriptor gives the bits of one per partition."""

    @pytest.fixture(scope="class")
    def windows(self):
        rng = np.random.default_rng(23)
        tied = np.round(np.sort(rng.uniform(0, 1, 160)), 2)
        return {
            "plain": make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=4).drifting,
            "3-d tied": Window(rng.normal(size=(160, 3)), tied),
            "1-d tied": Window(rng.normal(size=(160, 1)), tied),
        }

    @pytest.mark.parametrize("estimator_id", PARTITION_ESTIMATORS)
    def test_equals_per_partition_reference(self, windows, estimator_id, monkeypatch):
        from driftbench import histograms

        for limit in (histograms.DENSE_PREFIX_LIMIT, 0):
            monkeypatch.setattr(histograms, "DENSE_PREFIX_LIMIT", limit)
            for name, w in windows.items():
                ts = candidate_split_times(w)
                ranks = np.searchsorted(w.t, ts, side="right")
                for metric in ("tv", "hellinger", "js", "kl"):
                    desc = make_estimator(estimator_id, metric).fit(w, seed=9)
                    assert (desc._hist._prefix is None) == (limit == 0)
                    got = desc.statistics_at(ts)
                    assert np.array_equal(got, per_partition_statistics(desc, ranks)), (name, metric, limit)

    @pytest.mark.parametrize("estimator_id", PARTITION_ESTIMATORS)
    def test_rank_blocks_give_the_one_block_bits(self, windows, estimator_id, monkeypatch):
        # a scan cut into blocks of 1 rank, and of 7 with a shorter last one,
        # gives the bits of the same scan in one block, on both prefix paths
        from driftbench import histograms, neighbor_kernel

        w = windows["3-d tied"]
        ts = candidate_split_times(w)
        ranks = np.searchsorted(w.t, ts, side="right")
        assert len(ts) % 7
        for limit in (histograms.DENSE_PREFIX_LIMIT, 0):
            monkeypatch.setattr(histograms, "DENSE_PREFIX_LIMIT", limit)
            for metric in METRICS:
                desc = make_estimator(estimator_id, metric).fit(w, seed=9)
                cells = desc._hist.n_cells
                # a block's largest temporary is both sides of its splits
                assert 2 * cells * len(ts) <= neighbor_kernel._BLOCK_ELEMENTS  # one block
                whole = desc.statistics_at(ts)
                assert np.array_equal(whole, per_partition_statistics(desc, ranks)), (metric, limit)
                for step in (1, 7):
                    with monkeypatch.context() as mp:
                        mp.setattr(neighbor_kernel, "_BLOCK_ELEMENTS", 2 * cells * step)
                        assert np.array_equal(desc.statistics_at(ts), whole), (metric, limit, step)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("estimator_id", PARTITION_ESTIMATORS)
    def test_rank_by_rank_equals_batch(self, windows, estimator_id, metric):
        w = windows["3-d tied"]
        desc = make_estimator(estimator_id, metric).fit(w, seed=3)
        ts = candidate_split_times(w)
        assert np.array_equal(desc.statistics_at(ts), [desc.statistics_at([t])[0] for t in ts])


class TestPermutationNormalize:
    def test_minimum_p_value_formula(self):
        # clear drift, 19 permutations all below the observed maximum
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=2)
        p = permutation_normalize(marginal_estimator(), pw.drifting, n_perms=19, seed=0)
        assert p == pytest.approx(1 / 20)

    def test_requires_19_permutations(self, rng):
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 100, seed=0)
        with pytest.raises(ParameterError):
            permutation_normalize(marginal_estimator(), pw.drifting, n_perms=10)

    def test_bad_arguments_rejected_before_any_fit(self):
        class Unfittable:
            name = "unfittable"

            def fit(self, w, seed=None):
                raise AssertionError("fitted before the arguments were checked")

        w = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 100, seed=0).drifting
        for kwargs in ({"n_perms": 18}, {"alpha": 1.0}, {"alpha": float("nan")}):
            with pytest.raises(ParameterError):
                detect_drift(Unfittable(), w, **kwargs)

    def test_fractional_permutation_count_is_parameter_error(self):
        w = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 100, seed=0).drifting
        with pytest.raises(ParameterError, match="n_perms must be an integer"):
            detect_drift(marginal_estimator(), w, n_perms=19.5)

    def test_stagger_rf_detects_at_5_percent(self):
        from driftbench.generators import stagger_pair
        from driftbench.harness import make_estimator

        before, after = stagger_pair(1, 2)
        est = make_estimator("rf")
        hits = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            pw = make_paired(before, after, 150, seed=rng)
            p = permutation_normalize(est, pw.drifting, n_perms=19, seed=rng)
            hits += p <= 0.05
        assert hits >= 0.95 * reps

    def test_detect_drift_end_to_end(self):
        pw = make_paired(BLOCK_BEFORE, BLOCK_AFTER, 150, seed=8)
        verdict = detect_drift(random_projection_estimator(), pw.drifting, n_perms=19, seed=1)
        assert verdict.detected is True
        assert verdict.p_value == pytest.approx(1 / 20)
        assert abs(verdict.t_hat - 0.5) < 0.1


class TestHugeFeatures:
    """Finite features whose squares overflow: the O(n^2) and PCA fits
    refuse them instead of scanning NaN or constant statistics.  Past half
    the largest float, the tree fits and the binnings refuse them too."""

    @pytest.fixture(scope="class")
    def window(self):
        rng = np.random.default_rng(0)
        return Window(rng.normal(size=(80, 2)) * 1e160, np.sort(rng.uniform(0, 1, 80)))

    @pytest.mark.parametrize("estimator_id", ["ldd", "knn_kl", "mmd", "pca"])
    def test_overflowing_fits_raise_data_error(self, window, estimator_id):
        with pytest.raises(DataError, match="rescale"):
            scan_splits(make_estimator(estimator_id), window, 0)

    def test_marginal_binning_still_scans(self, window):
        verdict = scan_splits(make_estimator("marg"), window, 0)
        assert np.isfinite(verdict.statistics).all() and 0.0 < verdict.max_stat <= 1.0

    @pytest.mark.parametrize("estimator_id", ["rnd_tree", "kdq", "rf", "dt", "marg", "grid", "rnd_pj"])
    def test_fits_refuse_features_past_half_the_float_range(self, window, estimator_id):
        # a midpoint 0.5 * (a + b) of such features overflows to inf, and so
        # does the range hi - lo of a feature or projection that a binning spans
        rng = np.random.default_rng(1)
        w = Window(rng.uniform(-1, 1, (80, 2)) * np.finfo(float).max, np.sort(rng.uniform(0, 1, 80)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="rescale"):
                scan_splits(make_estimator(estimator_id), w, 0)
        # features whose squares overflow still fit
        assert np.isfinite(scan_splits(make_estimator(estimator_id), window, 0).max_stat)


class TestClassifierTvOracle:
    def test_equal_leaf_distributions_give_zero(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(40, 1))] * 2)
        t = np.concatenate([np.linspace(0, 0.5, 40), np.linspace(0.51, 1, 40)])
        w = Window(x, t)
        tree = build_random_tree(w, n_leaves=4, seed=1, min_leaf=2)
        # identical point sets on both sides: every leaf histogram matches
        assert classifier_tv_oracle(tree, w, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_fully_separating_partition_gives_half(self):
        xb = np.zeros((30, 1))
        xa = np.ones((30, 1))
        t = np.concatenate([np.linspace(0, 0.5, 30), np.linspace(0.51, 1, 30)])
        w = Window(np.vstack([xb, xa]), t)
        tree = build_random_tree(w, n_leaves=2, seed=0, min_leaf=5)
        assert classifier_tv_oracle(tree, w, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_equals_half_total_variation_on_random_triples(self, rng):
        from driftbench.histograms import to_distribution, total_variation

        for _ in range(50):
            n = int(rng.integers(40, 300))
            w = Window(rng.normal(size=(n, 2)), np.sort(rng.uniform(0, 1, n)))
            tree = build_random_tree(w, n_leaves=int(rng.integers(2, 11)), seed=rng, min_leaf=2)
            t = float(np.quantile(w.t, rng.uniform(0.2, 0.8)))
            cells = tree.cell_of(w.x)
            after = w.t > t
            if after.sum() == 0 or (~after).sum() == 0:
                continue
            hb = np.bincount(cells[~after], minlength=tree.n_cells)
            ha = np.bincount(cells[after], minlength=tree.n_cells)
            tv = total_variation(to_distribution(hb), to_distribution(ha))
            assert classifier_tv_oracle(tree, w, t) == pytest.approx(0.5 * tv, abs=1e-12)

    def test_brute_forces_twenty_cells_and_refuses_twenty_one(self, rng):
        from driftbench.histograms import to_distribution, total_variation
        from driftbench.partitions import Binning1D

        w = Window(rng.uniform(0, 1, (200, 1)), np.sort(rng.uniform(0, 1, 200)))
        at_limit = Binning1D(np.ones(1), np.linspace(0, 1, 21)[1:-1])
        assert at_limit.n_cells == 20
        cells, after = at_limit.cell_of(w.x), w.t > 0.5
        hb = np.bincount(cells[~after], minlength=20)
        ha = np.bincount(cells[after], minlength=20)
        tv = total_variation(to_distribution(hb), to_distribution(ha))
        assert classifier_tv_oracle(at_limit, w, 0.5) == pytest.approx(0.5 * tv, abs=1e-12)
        with pytest.raises(ParameterError, match="2\\^20"):
            classifier_tv_oracle(Binning1D(np.ones(1), np.linspace(0, 1, 22)[1:-1]), w, 0.5)

    def test_refuses_large_partitions(self, rng):
        w = Window(rng.normal(size=(3000, 3)), np.sort(rng.uniform(0, 1, 3000)))
        tree = build_random_tree(w, n_leaves=25, seed=0, min_leaf=2)
        assert tree.n_cells > 20
        with pytest.raises(ParameterError):
            classifier_tv_oracle(tree, w, 0.5)

    def test_empty_side_errors(self, rng):
        w = Window(rng.normal(size=(40, 1)), np.sort(rng.uniform(0, 1, 40)))
        tree = build_random_tree(w, n_leaves=2, seed=0, min_leaf=5)
        with pytest.raises(InvalidSplitError):
            classifier_tv_oracle(tree, w, 1.0)
