import contextlib
import io
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftbench.cli import main
from driftbench.harness import ESTIMATOR_BUILDERS, SWEEP_GRIDS, TABLE_DATASETS


def drift_csv(tmp_path, n=150):
    rng = np.random.default_rng(0)
    rows = ["a,b"]
    for i in range(n):
        if i < n // 2:
            rows.append(f"{rng.normal():.4f},{rng.normal():.4f}")
        else:
            rows.append(f"{rng.normal(4):.4f},{rng.normal(4):.4f}")
    path = tmp_path / "drift.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestDetect:
    def test_detects_planted_change(self, tmp_path, capsys):
        path = drift_csv(tmp_path)
        code = main(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19"])
        out = capsys.readouterr().out
        assert code == 0
        assert "drift detected   : yes" in out
        assert "estimated change" in out

    def test_missing_file_is_data_error(self, capsys):
        code = main(["detect", "--csv", "/nonexistent.csv", "--estimator", "marg"])
        assert code == 2

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n" + b"1,\xff\n" * 60)
        assert main(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19"]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_repeated_column_name_is_data_error(self, tmp_path, capsys):
        rows = ["x,x,t"] + [f"{i},{-i},{i}" for i in range(150)]
        path = tmp_path / "repeated.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19"])
        assert code == 2
        assert "repeated column name(s) ['x']" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["knn_kl", "mmd"])
    def test_nan_feature_is_data_error(self, tmp_path, capsys, estimator):
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{u:.4f},{v:.4f}" for u, v in rng.normal(size=(150, 2))]
        rows[40] = "nan,0.5"
        path = tmp_path / "null.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["detect", "--csv", str(path), "--estimator", estimator, "--perms", "19"])
        captured = capsys.readouterr()
        assert code == 2
        assert "non-finite feature values" in captured.err
        assert "drift detected" not in captured.out

    @pytest.mark.parametrize("estimator", ["ldd", "knn_kl", "mmd"])
    def test_window_above_pairwise_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, estimator):
        from driftbench import neighbor_kernel

        monkeypatch.setattr(neighbor_kernel, "MAX_PAIRWISE_N", 100)
        path = drift_csv(tmp_path)
        code = main(["detect", "--csv", str(path), "--estimator", estimator, "--perms", "19"])
        captured = capsys.readouterr()
        assert code == 1
        assert "MAX_PAIRWISE_N" in captured.err
        assert "drift detected" not in captured.out
        # estimators without an n x n structure still run on the window
        assert main(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19"]) == 0

    @pytest.mark.parametrize("estimator", ["ldd", "knn_kl", "mmd", "pca"])
    def test_features_too_large_are_data_error(self, tmp_path, capsys, estimator):
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{u:.17g},{v:.17g}" for u, v in rng.normal(size=(80, 2)) * 1e160]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["detect", "--csv", str(path), "--estimator", estimator, "--perms", "19"])
        captured = capsys.readouterr()
        assert code == 2
        assert "rescale" in captured.err
        assert "drift detected" not in captured.out

    @pytest.mark.parametrize("estimator", ["rnd_tree", "kdq", "rf", "dt", "marg", "grid", "rnd_pj"])
    def test_features_past_half_the_float_range_are_data_error(self, tmp_path, capsys, estimator):
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{u:.17g},{v:.17g}" for u, v in rng.uniform(-1, 1, (80, 2)) * np.finfo(float).max]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["detect", "--csv", str(path), "--estimator", estimator, "--perms", "19"])
        captured = capsys.readouterr()
        assert code == 2
        assert "rescale" in captured.err and "Traceback" not in captured.err
        assert "drift detected" not in captured.out

    @pytest.mark.parametrize(
        "estimator, option",
        [
            ("marg", ["--alpha", "2.0"]),
            ("marg", ["--alpha", "nan"]),
            ("marg", ["--alpha", "0"]),
            ("mmd", ["--metric", "bogus"]),
            ("ldd", ["--metric", "bogus"]),
            ("knn_kl", ["--metric", "bogus"]),
        ],
    )
    def test_bad_alpha_or_metric_is_usage_error(self, tmp_path, capsys, estimator, option):
        path = drift_csv(tmp_path)
        code = main(["detect", "--csv", str(path), "--estimator", estimator, "--perms", "19", *option])
        captured = capsys.readouterr()
        assert code == 1
        assert ("alpha" if option[0] == "--alpha" else "unknown metric") in captured.err
        assert "drift detected" not in captured.out

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        path = drift_csv(tmp_path)
        assert main(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad seed -1") and "drift detected" not in captured.out

    def test_unknown_estimator_is_usage_error(self, tmp_path):
        path = drift_csv(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["detect", "--csv", str(path), "--estimator", "psychic"])
        assert err.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1


#: Estimator values that are wrong whatever the data.
VALUES_THAT_NEED_NO_DATA = [
    "estimator.rnd_tree.n_trees = 0", "estimator.ldd.k = 0", "estimator.knn_kl.k = -3", "estimator.mmd.bandwidth = -1.0",
    "estimator.marg.bins = 0", "estimator.rnd_pj.bins = 0", "estimator.rnd_tree.n_leaves = 0", "estimator.rf.n_trees = 0",
    "estimator.pca.n_axes = 0", "estimator.rnd_tree.min_leaf = 0", "estimator.grid.edge_mode = even",
    "estimator.kdq.min_side = 0.0",
]


class TestRun:
    def test_run_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "datasets = stagger\nestimators = marg\nrepetitions = 4\n"
            "split_positions = 0.5, 0.62\nseed = 1\n"
        )
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "metadata.json").exists()

    def test_reps_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("datasets = stagger\nestimators = marg\nrepetitions = 50\nseed = 1\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir), "--reps", "2"]) == 0
        rows = (out_dir / "results.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[-3] == "2"

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


    @pytest.mark.parametrize("line", ["metric = bogus", "estimators = marg, nope", "datasets = nope"])
    def test_unknown_id_is_usage_error_before_any_cell(self, tmp_path, capsys, line):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"repetitions = 2\n{line}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "unknown" in captured.err and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("datasets =\nestimators = marg", "bench.cfg:3: empty list for 'datasets'"),
            ("datasets = stagger\nestimators =", "bench.cfg:4: empty list for 'estimators'"),
            ("estimators = marg\nestimators = ldd", "bench.cfg:4: 'estimators' is already set on line 3"),
            ("estimator.marg.bins = 8\nestimator.marg.bins = 4", "bench.cfg:4: 'estimator.marg.bins' is already set on line 3"),
        ],
    )
    def test_empty_list_or_repeated_key_is_usage_error_before_any_cell(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"repetitions = 2\nseed = 1\n{lines}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("lines", ["offset = 0.5", "split_positions = 0.5, 1.5", "offset = 0.25\nsplit_positions = 0.2, 0.5"])
    def test_custom_offset_or_position_outside_the_window_is_usage_error(self, tmp_path, capsys, lines):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"datasets = stagger\nestimators = marg\nrepetitions = 2\ncustom = true\n{lines}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "outside" in captured.err and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("line, message", [("noise_dims = -1", "noise_dims"), ("estimator.rf.n_tres = 3", "n_tres")])
    def test_bad_noise_dims_or_estimator_parameter_is_usage_error_before_any_cell(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"datasets = stagger\nestimators = marg, rf\nrepetitions = 2\n{line}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", VALUES_THAT_NEED_NO_DATA)
    def test_bad_estimator_value_is_usage_error_before_any_cell(self, tmp_path, capsys, line):
        # each used to fail every cell and exit 0, or to crash the run
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"datasets = sea\nestimators = marg\nn = 60\nrepetitions = 1\n{line}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        name, _, value = line.partition(".")[2].partition(".")[2].partition(" = ")
        assert captured.err.startswith("error: ") and name in captured.err and value in captured.err
        assert captured.out == "" and not out_dir.exists()

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_bytes(b"datasets = stagger\n# caf\xe9\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["estimator.rf = 3", "n = abc", "split_positions = 0.5, x"])
    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"datasets = stagger\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {cfg}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("estimator.marg.bins = 8.5", "bad value for 'estimator.marg.bins'"),
            ("dataset.sea.variant_after = 2.0", "bad value for 'dataset.sea.variant_after'"),
            ("estimator.rff.n_trees = 4", "unknown estimator 'rff'"),
            ("dataset.sea.variant_aftr = 2", "'variant_aftr'"),
            ("dataset.rbf.seed = 3", "'seed'"),
            ("estimator.knn_kl.aggregation = mean", "'aggregation'"),
            ("estimator.dt.n_trees = 4", "'n_trees'"),
        ],
    )
    def test_bad_parameter_name_or_type_is_usage_error_before_any_cell(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"datasets = sea, rbf\nestimators = marg\nn = 60\nrepetitions = 2\n{line}\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}:5: ") and message in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_csv_path_is_text(self, tmp_path, capsys, monkeypatch):
        # read as the integer 1, the path opened this process's stdout
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench.cfg").write_text("datasets = csv\nestimators = marg\nn = 60\nrepetitions = 2\ndataset.csv.path = 1\n")
        assert main(["run", "--config", "bench.cfg", "--out", "o"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: ") and "'1'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("datasets = stagger\nestimators = marg\nrepetitions = 2\n")
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", threads])
        assert err.value.code == 1
        assert "--threads: expected an integer >= 1" in capsys.readouterr().err


class TestTables:
    def test_tiny_tables_run(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(["tables", "--out", str(out_dir), "--reps", "2", "--seed", "3"])
        assert code == 0
        rows = (out_dir / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4 * 6  # header + datasets x estimators


    def test_seed_outside_32_bits_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        assert main(["tables", "--out", str(out_dir), "--reps", "2", "--seed", "-4"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad seed -4") and captured.out == ""
        assert not out_dir.exists()

    def test_threads_below_one_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["tables", "--out", str(tmp_path / "tables"), "--reps", "2", "--threads", "0"])
        assert err.value.code == 1


class TestOracle:
    def test_oracle_passes(self, capsys):
        code = main(["oracle", "--trials", "20", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["oracle", "--trials", "20", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad seed -1") and captured.out == ""

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--trials", trials])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "--trials: expected an integer >= 1" in captured.err and "[PASS]" not in captured.out


PROPERTY = settings(derandomize=True, max_examples=100, database=None, deadline=None)

#: Config lines a one-cell grid accepts (the sweep sets, less rf's 64-tree
#: forests, which are slow), and lines wrong by name, type or form, each of
#: which ``bench run`` must reject before any cell runs.
GOOD_LINES = [
    "seed = 7", "metric = hellinger", "offset = 0.125", "noise_dims = 1", "split_positions = 0.5, 0.62",
    "custom = off", "dataset.sea.variant_after = 2", "dataset.stagger.concept_after = 3", "dataset.rbf.d = 3",
    "dataset.rhp.rotation_angle = 1", "estimator.mmd.bandwidth = 0.5",
    *(f"estimator.{e}.{k} = {v}" for e, sets in SWEEP_GRIDS.items() for p in sets for k, v in p.items() if e != "rf"),
]
BAD_LINES = [
    "reps = 2", "datset = sea", "estimator.rff.n_trees = 4", "dataset.se.variant_after = 2", "estimator.marg.nope = 1",
    "dataset.sea.variant_aftr = 2", "dataset.rbf.seed = 3", "estimator.ldd.metric = tv", "estimator.rf = 3",
    "n = 8.5", "repetitions = two", "custom = 1", "seed = -1", "estimator.marg.bins = 8.5",
    "dataset.sea.variant_after = 2.0", "estimator.rf.n_trees = many", "split_positions = 0.5, x", "datasets sea",
    "datasets =", "estimators = ,", "estimator.dt.n_trees = 4", "estimator.dt.skip_fraction = 0.5",
    *VALUES_THAT_NEED_NO_DATA,
]
#: Other invocations, with the exit code each must give; ``{dir}`` is a fresh directory.
OTHER_INVOCATIONS = [
    (["tables", "--out", "{dir}/t", "--seed", "-4"], 1),
    (["tables", "--out", "{dir}/t", "--threads", "0"], 1),
    (["oracle", "--trials", "0"], 1),
    (["detect", "--csv", "{dir}/absent.csv", "--estimator", "marg"], 2),
    (["detect", "--csv", "{dir}/absent.csv", "--estimator", "psychic"], 1),
    (["run", "--config", "{dir}/absent.cfg", "--out", "{dir}/o"], 2),
    ([], 1),
]


@st.composite
def runs(draw):
    """``bench run`` of a one-cell grid: arguments, config bytes and the exit
    code the contract gives them (1 when any line or argument is bad)."""
    lines = [
        f"datasets = {draw(st.sampled_from(TABLE_DATASETS))}",
        f"estimators = {draw(st.sampled_from(sorted(ESTIMATOR_BUILDERS)))}",
        f"n = {draw(st.integers(20, 60))}",
        f"repetitions = {draw(st.integers(1, 2))}",
    ]
    lines += draw(st.lists(st.sampled_from(GOOD_LINES + BAD_LINES), max_size=3))
    text = "\n".join(draw(st.permutations(lines))).encode() + b"\n"
    keys = [line.partition("=")[0].strip() for line in lines if "=" in line]
    bad = any(line in BAD_LINES for line in lines) or len(set(keys)) < len(keys)  # a key set twice
    if draw(st.booleans()) and draw(st.booleans()):
        text, bad = text + b"# caf\xe9\n", True
    args = ["run", "--config", "{dir}/bench.cfg", "--out", "{dir}/o"]
    for flag, values in (("--reps", ["1", "2", "0", "x"]), ("--threads", ["1", "0", "-2"])):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            args += [flag, value]
            bad = bad or value not in ("1", "2")
    if draw(st.booleans()) and draw(st.booleans()):
        args.append("--sweep")
    return args, text, 1 if bad else 0


class TestExitCodeContract:
    @PROPERTY
    @given(invocation=runs() | st.sampled_from(OTHER_INVOCATIONS).map(lambda pair: (pair[0], None, pair[1])))
    def test_exit_code_is_documented_and_usage_errors_run_no_cell(self, invocation):
        args, config, expected = invocation
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                with open(f"{tmp}/bench.cfg", "wb") as fh:
                    fh.write(config)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main([a.format(dir=tmp) for a in args])
                except SystemExit as exc:  # argparse rejects the arguments
                    assert exc.code == 1
                    code = 1
        assert code in (0, 1, 2)
        assert code == expected, stderr.getvalue()
        if code:
            assert stdout.getvalue() == ""
