import numpy as np
import pytest

from driftbench.cli import main


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


class TestTables:
    def test_tiny_tables_run(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(["tables", "--out", str(out_dir), "--reps", "2", "--seed", "3"])
        assert code == 0
        rows = (out_dir / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4 * 6  # header + datasets x estimators


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
