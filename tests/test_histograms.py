import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftbench.histograms as hg
from driftbench.errors import InvalidSplitError, ParameterError
from driftbench.histograms import (
    CumulativeHistogram,
    histogram_metric,
    recount_histograms,
    to_distribution,
    total_variation,
)
from driftbench.windows import Window

#: Upper bound of the Jensen-Shannon metric with the natural log.
JS_MAX = math.sqrt(math.log(2.0))


class TestCumulativeHistogram:
    def test_stacked_rows_keep_to_their_ranges(self):
        times = [0.1, 0.5, 0.9]
        ch = CumulativeHistogram([[0, 1, 1], [2, 4, 3]], times, [2, 3])
        assert ch.n_cells == 5
        assert np.array_equal(ch.totals, [1, 2, 1, 1, 1])
        assert np.array_equal(ch.counts_before_ranks([0, 2, 3])[2:], [[0, 1, 1], [0, 0, 1], [0, 1, 1]])
        # ranks 0 and n are the empty and the full prefix; beyond them, and
        # at a time that leaves a side empty, the split rule's error
        assert np.array_equal(ch.counts_before_ranks([0])[:, 0], np.zeros(5))
        assert np.array_equal(ch.counts_before_ranks([3])[:, 0], ch.totals)
        for bad in (-1, 4):
            with pytest.raises(InvalidSplitError):
                ch.counts_before_ranks([0, bad])
        for t in (0.05, 0.9):  # before the first sample, at the last
            with pytest.raises(InvalidSplitError):
                ch.counts_at(t)
        with pytest.raises(ParameterError):  # row 0 reaches into row 1's ids
            CumulativeHistogram([[0, 2, 1], [2, 4, 3]], times, [2, 3])
        with pytest.raises(ParameterError):  # one n_cells per row
            CumulativeHistogram([[0, 1, 1], [2, 4, 3]], times, 5)

    def test_two_cell_example(self):
        ch = CumulativeHistogram([0, 1], [0.2, 0.8], 2)
        before, after = ch.counts_at(0.5)
        assert np.array_equal(before, [1, 0])
        assert np.array_equal(after, [0, 1])
        assert before.sum() == after.sum() == 1

    def test_split_at_last_timestamp_errors(self):
        ch = CumulativeHistogram([0, 1], [0.2, 0.8], 2)
        with pytest.raises(InvalidSplitError):
            ch.counts_at(0.8)

    def test_split_before_first_errors(self):
        ch = CumulativeHistogram([0, 1], [0.2, 0.8], 2)
        with pytest.raises(InvalidSplitError):
            ch.counts_at(0.1)

    def test_matches_recount_on_all_splits(self, rng):
        # prefix subtraction equals a from-scratch recount, bit-exact
        for _ in range(25):
            n = int(rng.integers(2, 500))
            n_cells = int(rng.integers(1, 65))
            cells = rng.integers(0, n_cells, n)
            times = np.sort(rng.uniform(0, 1, n))
            ch = CumulativeHistogram(cells, times, n_cells)
            for t in np.unique(times)[:-1]:
                before, after = ch.counts_at(float(t))
                ref_before, ref_after = recount_histograms(cells, times, n_cells, float(t))
                assert np.array_equal(before, ref_before)
                assert np.array_equal(after, ref_after)

    def test_sparse_fallback_equals_dense(self, rng, monkeypatch):
        n, n_cells = 200, 8
        cells = rng.integers(0, n_cells, n)
        times = np.sort(rng.uniform(0, 1, n))
        dense = CumulativeHistogram(cells, times, n_cells)
        assert dense._prefix is not None
        monkeypatch.setattr(hg, "DENSE_PREFIX_LIMIT", 1)
        sparse = CumulativeHistogram(cells, times, n_cells)
        assert sparse._prefix is None
        ranks = np.arange(1, n)
        assert np.array_equal(dense.counts_before_ranks(ranks), sparse.counts_before_ranks(ranks))

    def test_counts_a_partitions_cells(self, rng):
        from driftbench.partitions import build_marginal

        w = Window(rng.normal(size=(50, 1)), np.sort(rng.uniform(0, 1, 50)))
        part = build_marginal(w, bins_per_dim=4)[0]
        ch = CumulativeHistogram(part.cell_of(w.x), w.t, part.n_cells)
        assert ch.totals.sum() == 50

    def test_rejects_unsorted_times(self):
        with pytest.raises(ParameterError):
            CumulativeHistogram([0, 0], [0.9, 0.1], 1)


class TestDistributions:
    def test_normalizes_and_sums_to_one(self):
        p = to_distribution([2, 6])
        assert np.allclose(p, [0.25, 0.75])
        assert abs(p.sum() - 1.0) < 1e-12

    def test_smoothing_pseudocount(self):
        p = to_distribution([0, 2], smoothing=0.5)
        assert np.allclose(p, [0.5 / 3, 2.5 / 3])

    def test_empty_histogram_rejected(self):
        with pytest.raises(ParameterError):
            to_distribution([0, 0])


class TestDivergences:
    def test_total_variation_values(self):
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert total_variation([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25, abs=1e-15)

    def test_mismatched_cells_rejected(self):
        with pytest.raises(ParameterError):
            total_variation([1.0], [0.5, 0.5])

    def test_hellinger_values(self):
        hellinger = histogram_metric("hellinger")
        assert hellinger([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        expected = math.sqrt(0.5 * ((math.sqrt(0.5) - 1.0) ** 2 + 0.5))
        got = hellinger([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5412, abs=5e-5)

    # unsmoothed KL, as the 'js' metric uses it; histogram_metric("kl") smooths the counts
    def test_kl_values(self):
        assert hg._divergence(hg._kl_rows, [0.5, 0.5], [0.5, 0.5]) == 0.0
        assert hg._divergence(hg._kl_rows, [1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_kl_infinite_without_smoothing(self):
        assert hg._divergence(hg._kl_rows, [1.0, 0.0], [0.0, 1.0]) == np.inf

    def test_kl_smoothing_monotone_on_disjoint(self):
        alphas = [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0]
        vals = [hg._divergence(hg._kl_rows, to_distribution([1.0, 0.0], a), to_distribution([0.0, 1.0], a)) for a in alphas]
        assert all(np.isfinite(vals))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_jensen_shannon_values(self):
        jensen_shannon = histogram_metric("js")
        assert jensen_shannon([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert jensen_shannon([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(math.log(2.0)))

    def test_metric_properties_on_random_triples(self, rng):
        # symmetry, non-negativity, zero iff equal, triangle inequality
        L, m = 6, 1000
        p = to_distribution(rng.uniform(0, 1, (L, m)))
        q = to_distribution(rng.uniform(0, 1, (L, m)))
        r = to_distribution(rng.uniform(0, 1, (L, m)))
        for metric in map(histogram_metric, ("tv", "hellinger", "js")):
            dpq, dqp = metric(p, q), metric(q, p)
            assert np.allclose(dpq, dqp, atol=1e-12)
            assert np.all(dpq >= 0)
            assert np.allclose(metric(p, p), 0.0, atol=1e-12)
            assert np.all(dpq > 0)  # random triples differ a.s.
            assert np.all(metric(p, r) <= dpq + metric(q, r) + 1e-12)

    def test_pinsker_bound(self, rng):
        L, m = 5, 500
        p = to_distribution(rng.uniform(0.05, 1, (L, m)))
        q = to_distribution(rng.uniform(0.05, 1, (L, m)))
        tv = total_variation(p, q)
        kl = hg._divergence(hg._kl_rows, p, q)
        assert np.all(tv**2 <= 0.5 * kl + 1e-12)

    def test_bounds(self, rng):
        p = to_distribution(rng.uniform(0, 1, (8, 200)))
        q = to_distribution(rng.uniform(0, 1, (8, 200)))
        assert np.all(total_variation(p, q) <= 1.0)
        assert np.all(histogram_metric("hellinger")(p, q) <= 1.0)
        assert np.all(histogram_metric("js")(p, q) <= JS_MAX + 1e-12)


def reference_metric(name, before, after):
    """One partition's metric in plain numpy: each column normalized by its
    sum, then summed over cells, on column-major (cells, m) float blocks as
    the partition's own gather would give them."""
    alpha = hg.KL_SMOOTHING if name == "kl" else 0.0
    p, q = (
        (np.asfortranarray(c, dtype=float) + alpha) / (np.asfortranarray(c, dtype=float).sum(axis=0) + alpha * len(c))
        for c in (before, after)
    )

    def kl(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - np.log(q)), 0.0).sum(axis=0)

    if name == "tv":
        return 0.5 * np.abs(p - q).sum(axis=0)
    if name == "hellinger":
        return np.sqrt(0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=0))
    if name == "kl":
        return kl(p, q)
    m = 0.5 * (p + q)
    return np.sqrt(np.maximum(0.5 * kl(p, m) + 0.5 * kl(q, m), 0.0))


class TestHistogramMetric:
    def test_each_side_normalized_separately(self):
        metric = histogram_metric("tv")
        assert metric([10, 10], [30, 10]) == pytest.approx(0.25)

    def test_kl_smoothed_finite_on_zero_cells(self):
        metric = histogram_metric("kl")
        assert np.isfinite(metric([5, 0], [0, 5]))

    def test_kl_pseudo_count_goes_on_counts(self):
        # 0.5 per cell count, then normalize: disjoint sides give
        # (n/(n+1)) ln(2n+1), which grows with the sample size
        metric = histogram_metric("kl")
        assert metric([50, 0], [0, 50]) == pytest.approx(50 / 51 * math.log(101), rel=1e-12)
        assert metric([5000, 0], [0, 5000]) == pytest.approx(5000 / 5001 * math.log(10001), rel=1e-12)
        assert metric([50, 0], [0, 50]) == pytest.approx(4.5246, abs=5e-5)
        assert metric([5000, 0], [0, 5000]) == pytest.approx(9.2086, abs=5e-5)

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            histogram_metric("wasserstein")

    @pytest.mark.parametrize("name", hg.METRICS)
    def test_stacked_rows_are_each_partitions_bits(self, name, rng):
        # partitions of 1 to 300 cells (pairwise sums start at 8 cells and
        # split past 128), with empty cells, one column per split
        metric = histogram_metric(name)
        for _ in range(20):
            sizes = rng.integers(1, 300, rng.integers(1, 6))
            before = np.asfortranarray(rng.integers(0, 4, (sizes.sum(), 5)) * rng.integers(0, 2, (sizes.sum(), 5)))
            before[np.cumsum(sizes) - 1] += 1  # no empty side
            after = before[::-1].copy(order="F")
            rows = metric(before, after, sizes)
            assert rows.shape == (len(sizes), 5)
            for row, lo, size in zip(rows, np.cumsum(sizes) - sizes, sizes):
                part = slice(lo, lo + size)
                assert row.tobytes() == reference_metric(name, before[part], after[part]).tobytes()
                assert row.tobytes() == np.array([metric(before[part, j], after[part, j]) for j in range(5)]).tobytes()

    def test_stacked_checks_every_partition(self):
        metric = histogram_metric("tv")
        before = np.array([[1, 2], [0, 1], [3, 0]])
        assert metric(before, before, [1, 2]).shape == (2, 2)
        with pytest.raises(ParameterError, match="empty"):  # partition 1 is empty before split 1
            metric(before, before, [2, 1])
        with pytest.raises(ParameterError, match="negative"):
            metric(before, -before, [1, 2])
        for sizes in ([1, 1], [3, 1], [0, 3], []):
            with pytest.raises(ParameterError):
                metric(before, before, sizes)


PROPERTY = settings(derandomize=True, max_examples=60, database=None, deadline=None)


@st.composite
def cell_streams(draw):
    """Cell ids with sorted timestamps on a coarse grid, so ties are common."""
    n_cells = draw(st.integers(1, 8))
    n = draw(st.integers(1, 60))
    cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n))
    ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    return np.array(cells), np.array(ticks) / 20.0, n_cells


@st.composite
def cell_stacks(draw):
    """Rows of cell ids over one sorted time axis, each in its own id range."""
    n = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rows = [draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)) for s in sizes]
    ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    return np.array(rows), np.array(ticks) / 20.0, sizes


@st.composite
def count_pairs(draw):
    n_cells = draw(st.integers(1, 12))
    side = st.lists(st.integers(0, 1000), min_size=n_cells, max_size=n_cells).filter(any)
    return np.array(draw(side)), np.array(draw(side))


class TestProperties:
    @pytest.mark.parametrize("dense", [True, False])
    @PROPERTY
    @given(stream=cell_streams())
    def test_prefix_counts_equal_recount_at_every_rank(self, dense, stream):
        cells, times, n_cells = stream
        with pytest.MonkeyPatch.context() as mp:
            if not dense:
                mp.setattr(hg, "DENSE_PREFIX_LIMIT", 0)
            ch = CumulativeHistogram(cells, times, n_cells)
        assert (ch._prefix is not None) == dense
        # every attainable rank: none before, then each distinct timestamp
        for t in np.concatenate([[times[0] - 1.0], np.unique(times)]):
            rank = int(np.searchsorted(times, t, side="right"))
            before = ch.counts_before_ranks([rank])[:, 0]
            ref_before, ref_after = recount_histograms(cells, times, n_cells, float(t))
            assert np.array_equal(before, ref_before)
            assert np.array_equal(ch.totals - before, ref_after)

    @pytest.mark.parametrize("dense", [True, False])
    @PROPERTY
    @given(stack=cell_stacks())
    def test_stacked_rows_equal_one_histogram_per_row(self, dense, stack):
        rows, times, sizes = stack
        offsets = np.cumsum([0] + sizes)[:-1]
        with pytest.MonkeyPatch.context() as mp:
            if not dense:
                mp.setattr(hg, "DENSE_PREFIX_LIMIT", 0)
            ch = CumulativeHistogram(rows + offsets[:, None], times, sizes)
            singles = [CumulativeHistogram(row, times, size) for row, size in zip(rows, sizes)]
        assert (ch._prefix is not None) == dense
        ranks = np.arange(len(times) + 1)
        stacked = ch.counts_before_ranks(ranks)
        # the metrics sum each row's run of cells in memory order, so the
        # runs of every column must be contiguous, as in a row's own histogram
        assert stacked.flags.f_contiguous
        for lo, size, single in zip(offsets, sizes, singles):
            want = single.counts_before_ranks(ranks)
            assert want.flags.f_contiguous
            assert np.array_equal(stacked[lo : lo + size], want)
            assert np.array_equal(ch.totals[lo : lo + size], single.totals)

    @PROPERTY
    @given(pair=count_pairs())
    def test_metric_ranges(self, pair):
        before, after = pair
        for name, top in (("tv", 1.0), ("hellinger", 1.0), ("js", JS_MAX)):
            value = float(histogram_metric(name)(before, after))
            assert 0.0 <= value <= top + 1e-12, name
