import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftbench.errors import DataError, ParameterError
from driftbench.windows import (
    _WIDE_ROW,
    PairedWindows,
    Window,
    _scan_rows,
    candidate_split_times,
    default_min_side,
    ingest_window,
    make_paired,
    permute_timestamps,
    window_from_csv,
)


def window_from_times(times, d=1):
    times = np.asarray(times, dtype=float)
    x = np.arange(len(times), dtype=float)[:, None] * np.ones(d)
    return Window(x, times)


class TestWindow:
    def test_validates_timestamp_range(self):
        with pytest.raises(ParameterError):
            Window(np.zeros((2, 1)), np.array([0.0, 1.5]))

    def test_validates_sorting(self):
        with pytest.raises(ParameterError):
            Window(np.zeros((2, 1)), np.array([0.9, 0.1]))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="timestamps must be finite"):
            Window(np.zeros((3, 1)), np.array([0.1, np.nan, 0.9]))
        with pytest.raises(ParameterError, match="x must be finite"):
            Window(np.array([[0.0], [np.inf]]), np.array([0.1, 0.9]))

    def test_rejects_zero_rows(self):
        with pytest.raises(ParameterError, match="a window needs at least one sample"):
            Window(np.zeros((0, 2)), np.zeros(0))

    def test_immutable_arrays(self):
        w = window_from_times([0.1, 0.2])
        with pytest.raises(ValueError):
            w.t[0] = 0.5


class TestSplitWindow:
    """A split at time t puts the first ``rank_of(t)`` samples, those with
    t' <= t, on the before side."""

    def test_sizes_at_half(self):
        w = window_from_times([0.1, 0.4, 0.9])
        assert w.rank_of(0.5) == 2

    def test_boundary_split_keeps_everything(self):
        w = window_from_times([0.1, 0.4, 0.9])
        assert w.rank_of(1.0) == 3

    def test_median_split_of_150(self, rng):
        t = np.sort(rng.uniform(0, 1, 150))
        w = window_from_times(t)
        split = float(np.quantile(t, 0.5))
        # independent scan oracle
        assert w.rank_of(split) == int(np.sum(t <= split)) == 75

    def test_partition_by_threshold(self, rng):
        w = window_from_times(np.sort(rng.uniform(0, 1, 40)))
        i = w.rank_of(0.3)
        assert np.all(w.t[:i] <= 0.3) and np.all(w.t[i:] > 0.3)

    def test_sides_recombine_exhaustively(self, rng):
        # all n+1 distinct splits of windows up to n=20
        for n in range(1, 21):
            t = np.sort(rng.uniform(0, 1, n))
            w = Window(rng.normal(size=(n, 2)), t)
            cuts = np.concatenate([[-0.1], np.unique(t), [1.0]])
            for cut in cuts:
                i = w.rank_of(cut)
                assert i == int(np.sum(t <= cut))
                assert np.all(w.t[:i] <= cut) and np.all(w.t[i:] > cut)


class TestPermuteTimestamps:
    def test_single_sample_identity(self):
        w = window_from_times([0.3])
        out = permute_timestamps(w, 0)
        assert np.array_equal(out.x, w.x) and np.array_equal(out.t, w.t)

    def test_two_sample_swap_frequency(self):
        # swap probability 1/2: chi-square over 1000 seeds at the 0.1% level
        w = Window(np.array([[0.0], [1.0]]), np.array([0.2, 0.8]))
        swaps = 0
        for seed in range(1000):
            out = permute_timestamps(w, seed)
            swaps += out.x[0, 0] == 1.0
        assert abs(swaps - 500) < 52

    def test_marginal_multisets_preserved(self, rng):
        w = Window(rng.normal(size=(40, 3)), np.sort(rng.uniform(0, 1, 40)))
        out = permute_timestamps(w, 7)
        assert np.array_equal(np.sort(out.t), np.sort(w.t))
        assert np.array_equal(
            np.sort(out.x.view([("", out.x.dtype)] * 3), axis=0),
            np.sort(w.x.view([("", w.x.dtype)] * 3), axis=0),
        )

    def test_resorted_by_time(self, rng):
        w = Window(rng.normal(size=(30, 1)), np.sort(rng.uniform(0, 1, 30)))
        out = permute_timestamps(w, 3)
        assert np.all(np.diff(out.t) >= 0)

    @settings(derandomize=True, max_examples=40, database=None, deadline=None)
    @given(ticks=st.lists(st.integers(0, 10), min_size=1, max_size=200), seed=st.integers(0, 2**32 - 1))
    def test_tied_rows_keep_their_arrival_order(self, ticks, seed):
        # each row's feature is its arrival index, so rows that draw one
        # timestamp must come out in increasing feature order
        out = permute_timestamps(window_from_times(np.sort(ticks) / 10.0), seed)
        for t in np.unique(out.t):
            assert np.all(np.diff(out.x[out.t == t, 0]) > 0)


def uniform_sampler(lo, hi):
    return lambda n, rng: rng.uniform(lo, hi, (n, 1))


class TestMakePaired:
    def test_counts_at_even_split(self):
        pw = make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), 150, seed=0)
        assert len(pw.drifting) == 150
        assert int(np.sum(pw.drifting.t <= pw.t0)) == 75
        assert pw.t0 == 0.5

    def test_before_after_time_supports(self):
        pw = make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), 200, seed=1)
        before_x = pw.drifting.x[pw.drifting.t <= 0.5]
        after_x = pw.drifting.x[pw.drifting.t > 0.5]
        assert before_x.max() <= 1.0 and after_x.min() >= 2.0

    def test_offset_removes_oldest_quarter(self):
        n = 4000
        pw = make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), n, offset_fraction=0.25, seed=2)
        # removal is by time mass: about a quarter of the samples disappear
        assert abs(len(pw.drifting) - 0.75 * n) < 3 * np.sqrt(n * 0.25 * 0.75)
        # drift lands exactly at 1/3 of the remaining (renormalized) time axis
        assert pw.t0 == pytest.approx((0.5 - 0.25) / 0.75)
        before = np.sum(pw.drifting.t <= pw.t0)
        assert abs(before - len(pw.drifting) / 3) < 3 * np.sqrt(n)

    def test_permuted_counterpart_shares_multisets(self):
        pw = make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), 80, seed=3)
        assert np.array_equal(np.sort(pw.permuted.t), np.sort(pw.drifting.t))
        assert np.array_equal(
            np.sort(pw.permuted.x, axis=0), np.sort(pw.drifting.x, axis=0)
        )

    @pytest.mark.parametrize("t0_fraction", [0.0, 1.0, 1.2])
    def test_drift_time_outside_the_open_unit_interval_refused(self, t0_fraction):
        with pytest.raises(ParameterError, match="t0_fraction must lie"):
            make_paired(uniform_sampler(0, 1), uniform_sampler(0, 1), 50, t0_fraction=t0_fraction)

    @pytest.mark.parametrize("offset_fraction", [0.5, 0.6])
    def test_offset_at_or_past_the_drift_time_refused(self, offset_fraction):
        with pytest.raises(ParameterError, match="offset_fraction must lie"):
            make_paired(uniform_sampler(0, 1), uniform_sampler(0, 1), 50, offset_fraction=offset_fraction)

    def test_two_samples_are_the_smallest_window(self):
        pw = make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), 2, seed=0)
        assert len(pw.drifting) == len(pw.permuted) == 2
        assert sorted(pw.drifting.x[:, 0] >= 2) == [False, True]
        with pytest.raises(ParameterError, match="n must be at least 2"):
            make_paired(uniform_sampler(0, 1), uniform_sampler(2, 3), 1, seed=0)

    def test_equal_concepts_give_symmetric_p_perm(self):
        # no drift by construction: the drift statistic beats its permuted
        # counterpart about half the time (binomial 3-sigma band at 500 reps)
        from driftbench.detector import marginal_estimator

        est = marginal_estimator()
        wins = 0
        reps = 500
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            pw = make_paired(uniform_sampler(0, 1), uniform_sampler(0, 1), 100, seed=rng)
            d = est.fit(pw.drifting, rng).statistics_at([0.5])[0]
            p = est.fit(pw.permuted, rng).statistics_at([0.5])[0]
            wins += d > p
        assert abs(wins / reps - 0.5) < 0.06


class TestScanRows:
    """``_scan_rows`` gives the values of ``op.accumulate`` along axis 0, in
    place, on both sides of its width rule."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7, 16, 151, 2001])
    @pytest.mark.parametrize("width", [1, _WIDE_ROW - 1, _WIDE_ROW, 300])
    def test_equals_accumulate(self, rows, width):
        rng = np.random.default_rng([rows, width])
        floats = rng.normal(size=(rows, width))
        floats[rng.random(floats.shape) < 0.05] = np.inf
        floats[rng.random(floats.shape) < 0.05] = -np.inf
        cases = [
            (np.add, rng.integers(-3, 4, size=(rows, width), dtype=np.int32)),
            (np.add, rng.integers(-(2**40), 2**40, size=(rows, width), dtype=np.int64)),
            (np.minimum, floats),
            (np.maximum, floats),
        ]
        for op, a in cases:
            expected = op.accumulate(a, axis=0)
            scanned = a.copy()
            assert _scan_rows(op, scanned) is scanned
            assert scanned.dtype == a.dtype and np.array_equal(scanned, expected)


class TestSplitPoints:
    def test_default_min_side(self):
        assert default_min_side(150) == 25
        assert default_min_side(1000) == 50

    def test_candidates_respect_margin(self, rng):
        w = window_from_times(np.sort(rng.uniform(0, 1, 60)))
        ts = candidate_split_times(w, min_side=10)
        for t in ts:
            assert 10 <= np.sum(w.t <= t) <= 50
        assert len(ts) == 41


class TestIngestion:
    def test_rescales_timestamps(self):
        w = ingest_window(np.zeros((3, 1)), [10.0, 20.0, 30.0])
        assert np.allclose(w.t, [0.0, 0.5, 1.0])

    def test_row_index_timestamps(self):
        w = ingest_window(np.zeros((5, 2)))
        assert np.allclose(w.t, np.arange(5) / 4)

    def test_stable_tie_order(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        w = ingest_window(x, [0.5, 0.5, 1.0, 0.5, 0.0])
        assert np.array_equal(w.t, [0.0, 0.5, 0.5, 0.5, 1.0])
        assert np.array_equal(w.x[:, 0], [5.0, 1.0, 2.0, 4.0, 3.0])

    def test_one_row_with_a_timestamp_sits_at_zero(self):
        w = ingest_window(np.array([[1.0, 2.0]]), [5.0])
        assert np.array_equal(w.t, [0.0]) and np.array_equal(w.x, [[1.0, 2.0]])

    def test_constant_timestamps_rejected(self):
        with pytest.raises(DataError):
            ingest_window(np.zeros((3, 1)), [5.0, 5.0, 5.0])

    def test_non_finite_values_named(self):
        with pytest.raises(DataError, match="non-finite timestamps; first nan at row 1"):
            ingest_window(np.zeros((3, 1)), [5.0, np.nan, 7.0])
        with pytest.raises(DataError, match="non-finite feature values; first inf at row 2, column 1"):
            ingest_window(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, np.inf]]))


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "stream.csv"
        path.write_text(text)
        return path

    def test_basic_load(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        w = window_from_csv(path)
        assert w.x.shape == (3, 2)
        assert np.allclose(w.t, [0, 0.5, 1])
        assert not w.label_feature_appended

    def test_label_column_appended_last(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,up\n2,down\n3,up\n")
        w = window_from_csv(path)
        assert w.label_feature_appended
        assert w.x.shape == (3, 2)
        assert np.array_equal(w.x[:, 1], [1.0, 0.0, 1.0])

    def test_multiclass_one_hot(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,x\n2,y\n3,z\n")
        w = window_from_csv(path)
        assert w.x.shape == (3, 4)
        assert np.array_equal(w.x[:, 1:].sum(axis=1), [1, 1, 1])

    def test_t_column_used_and_rescaled(self, tmp_path):
        path = self.write(tmp_path, "a,t\n1,100\n2,300\n3,200\n")
        w = window_from_csv(path)
        assert np.allclose(w.t, [0.0, 0.5, 1.0])
        assert np.array_equal(w.x[:, 0], [1.0, 3.0, 2.0])

    def test_errors(self, tmp_path):
        with pytest.raises(DataError):
            window_from_csv(self.write(tmp_path, ""))
        with pytest.raises(DataError):
            window_from_csv(self.write(tmp_path, "a,b\n1\n"))
        with pytest.raises(DataError):
            window_from_csv(self.write(tmp_path, "a\nfoo\n"))
        with pytest.raises(DataError):
            window_from_csv(self.write(tmp_path, "a,b\n"))

    @pytest.mark.parametrize(
        "text, name", [("x,x,t\n1,2,0\n3,4,1\n", "x"), ("a,b,t,t\n1,2,0,5\n3,4,1,6\n", "t")]
    )
    def test_repeated_column_names_rejected(self, tmp_path, text, name):
        # a dict keyed by header name kept only the last of the repeated columns
        with pytest.raises(DataError, match=re.escape(f"repeated column name(s) [{name!r}]")):
            window_from_csv(self.write(tmp_path, text))

    @pytest.mark.parametrize("text", ["t,x0\n5,1\n3,2\n4,3\n", "label,x0\nup,1\ndown,2\nup,3\n"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text):
        # spreadsheet exports start UTF-8 files with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = window_from_csv(plain), window_from_csv(marked)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.t, want.t)
        assert got.label_feature_appended == want.label_feature_appended

    @pytest.mark.parametrize("data", [b"a,b\n1,\xff\n3,4\n", b"\xff\xfea,b\n1,2\n"])
    def test_non_utf8_bytes_are_a_data_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "latin.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            window_from_csv(path)
