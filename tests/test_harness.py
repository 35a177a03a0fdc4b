import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from driftbench import harness
from driftbench.detector import Estimator
from driftbench.errors import ParameterError
from driftbench.harness import (
    DRIFT_POSITION,
    ESTIMATOR_BUILDERS,
    GRID_POSITIONS,
    SWEEP_GRIDS,
    EvalRecords,
    ExperimentConfig,
    collect_records,
    load_config,
    make_concept_pair,
    make_estimator,
    p_pa,
    p_perm,
    p_thre,
    run_cell,
    run_grid,
)
from driftbench.windows import make_paired


def records(drift, perm, positions=(0.50, 0.53, 0.62)):
    drift = np.asarray(drift, dtype=float)
    perm = np.asarray(perm, dtype=float)
    if drift.ndim == 1:
        drift = np.column_stack([drift] * len(positions))
        perm = np.column_stack([perm] * len(positions))
    return EvalRecords(tuple(positions), drift, perm)


SMALL = ExperimentConfig(
    datasets=("stagger",),
    estimators=("marg",),
    n=150,
    repetitions=8,
    split_positions=(0.50, 0.53, 0.62),
    seed=123,
)


class TestPValues:
    def test_p_perm_all_strictly_larger(self):
        assert p_perm(records([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])) == 1.0

    def test_p_perm_ties_count_against(self):
        assert p_perm(records([1.0, 2.0], [1.0, 1.0])) == 0.5

    def test_p_perm_exchangeable_near_half(self, rng):
        vals = rng.normal(size=400)
        others = rng.normal(size=400)
        assert abs(p_perm(records(vals, others)) - 0.5) < 0.08

    def test_p_thre_perfect_separation(self):
        assert p_thre(records([2.0, 3.0, 4.0], [0.5, 0.9, 1.0])) == 1.0

    def test_p_thre_identical_values_zero(self):
        assert p_thre(records([1.0, 1.0], [1.0, 1.0])) == 0.0

    def test_p_thre_matches_brute_force_sweep(self, rng):
        for _ in range(20):
            drift = np.round(rng.normal(size=30), 1)
            perm = np.round(rng.normal(size=30), 1)
            rec = records(drift, perm)
            # sweep every observed value from both sides plus in-between points
            candidates = np.concatenate([drift, perm, perm - 1e-9, drift - 1e-9, [-np.inf]])
            brute = max(float(np.mean((drift > b) & (perm <= b))) for b in candidates)
            assert p_thre(rec) == pytest.approx(brute)

    def test_p_pa_zero_displacement_is_zero(self):
        rec = records([1.0, 2.0], [0.5, 0.5])
        assert p_pa(rec, 0.0) == 0.0

    def test_p_pa_uses_same_descriptor_trace(self):
        drift = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        perm = np.zeros_like(drift)
        rec = EvalRecords((0.50, 0.53, 0.62), drift, perm)
        assert p_pa(rec, 0.03) == 0.5
        assert p_pa(rec, 0.12) == 0.5

    def test_missing_position_rejected(self):
        rec = records([1.0], [0.0])
        with pytest.raises(ParameterError):
            p_pa(rec, 0.07)

    def test_p_thre_on_fully_separable_fixture(self):
        # disjoint uniform blocks: one threshold separates drift from
        # permuted statistics in nearly every repetition
        from driftbench.detector import marginal_estimator

        before = lambda n, rng: rng.uniform(0, 1, (n, 1))
        after = lambda n, rng: rng.uniform(3, 4, (n, 1))
        est = marginal_estimator()
        drift, perm = [], []
        for rep in range(60):
            rng = np.random.default_rng(rep)
            from driftbench.windows import make_paired

            pw = make_paired(before, after, 150, seed=rng)
            drift.append(est.fit(pw.drifting, rng).statistics_at([0.5])[0])
            perm.append(est.fit(pw.permuted, rng).statistics_at([0.5])[0])
        rec = records(np.array(drift), np.array(perm), positions=(0.50,))
        assert p_thre(rec) >= 0.97

    def test_success_monotonicity_incremental(self, rng):
        # adding a strictly separated repetition moves each bound up toward 1
        drift = rng.normal(size=25)
        perm = rng.normal(size=25)
        rec = records(drift, perm)
        better = records(
            np.concatenate([drift, [drift.max() + perm.max() + 10.0]]),
            np.concatenate([perm, [min(drift.min(), perm.min()) - 10.0]]),
        )
        assert p_perm(better) >= p_perm(rec) - 1e-12
        assert p_thre(better) >= p_thre(rec) - 1e-12


class TestCollectRecords:
    def test_shapes_and_determinism(self):
        rec1 = collect_records(SMALL, "stagger", "marg")
        rec2 = collect_records(SMALL, "stagger", "marg")
        assert rec1.drift.shape == (8, 3)
        assert np.array_equal(rec1.drift, rec2.drift)
        assert np.array_equal(rec1.perm, rec2.perm)

    def test_different_seeds_differ(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=999)
        a = collect_records(SMALL, "stagger", "marg")
        b = collect_records(other, "stagger", "marg")
        assert not np.array_equal(a.drift, b.drift)


class TestRunGrid:
    def test_single_repetition_degenerate_probabilities(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, repetitions=1)
        table = run_grid(cfg)
        cell = table.cell("stagger", "marg")
        assert cell.p_perm in (0.0, 1.0)
        assert cell.p_thre in (0.0, 1.0)

    def test_same_seed_identical_tables(self):
        t1 = run_grid(SMALL)
        t2 = run_grid(SMALL)
        assert t1.cells == t2.cells

    def test_elapsed_seconds_ignores_a_wall_clock_step(self, monkeypatch):
        # the wall clock steps back an hour during the run; the elapsed time
        # comes from a monotonic clock, so it stays a small positive number
        wall = iter([2e9, 2e9 - 3600.0])
        monkeypatch.setattr(harness.time, "time", lambda: next(wall, 2e9 - 3600.0))
        elapsed = run_grid(dataclasses.replace(SMALL, repetitions=1)).metadata["elapsed_seconds"]
        assert 0 <= elapsed < 600

    def test_parallel_equals_serial(self):
        cfg = ExperimentConfig(
            datasets=("stagger", "sea"),
            estimators=("marg",),
            repetitions=4,
            split_positions=(0.50, 0.62),
            seed=5,
        )
        serial = run_grid(cfg, threads=1)
        parallel = run_grid(cfg, threads=2)
        assert serial.cells == parallel.cells

    def test_failed_cell_recorded_and_run_continues(self):
        cfg = ExperimentConfig(
            datasets=("stagger",),
            estimators=("knn_kl", "marg"),
            n=150,
            repetitions=2,
            split_positions=(0.50, 0.62),
            seed=2,
            estimator_params={"knn_kl": {"k": 80}},  # more neighbors than a side can have
        )
        table = run_grid(cfg)
        failed = table.cell("stagger", "knn_kl")
        assert failed.status == "failed" and failed.error
        assert table.cell("stagger", "marg").status == "ok"

    @pytest.mark.parametrize("bandwidth", ["silverman", "nan", "-1.0"])
    def test_bad_mmd_bandwidth_is_usage_error_before_any_cell(self, tmp_path, bandwidth):
        # a bandwidth is checked when the estimator is built: it needs no data
        path = tmp_path / "bench.cfg"
        path.write_text(
            "datasets = stagger\nestimators = mmd, marg\nrepetitions = 2\n"
            f"split_positions = 0.5, 0.62\nestimator.mmd.bandwidth = {bandwidth}\n"
        )
        with pytest.raises(ParameterError, match="bandwidth"):
            load_config(path)

    def test_features_too_large_cell_recorded_as_failed(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{u:.17g},{v:.17g}" for u, v in rng.normal(size=(80, 2)) * 1e160]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = dataclasses.replace(
            SMALL, datasets=("csv",), estimators=("mmd", "marg"), n=60, repetitions=2,
            dataset_params={"csv": {"path": str(path)}},
        )
        table = run_grid(cfg)
        failed = table.cell("csv", "mmd")
        assert failed.status == "failed" and failed.error.startswith("DataError")
        assert table.cell("csv", "marg").status == "ok"

    def test_features_past_half_the_float_range_cells_recorded_as_failed(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{u:.17g},{v:.17g}" for u, v in rng.uniform(-1, 1, (80, 2)) * np.finfo(float).max]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = dataclasses.replace(
            SMALL, datasets=("csv",), estimators=("rnd_tree", "rf", "marg", "grid", "rnd_pj"), n=60, repetitions=2,
            dataset_params={"csv": {"path": str(path)}},
        )
        table = run_grid(cfg)
        for estimator_id in cfg.estimators:
            failed = table.cell("csv", estimator_id)
            assert failed.status == "failed" and failed.error.startswith("DataError")

    def test_metric_name_checked_for_every_estimator(self):
        cfg = dataclasses.replace(SMALL, estimators=("mmd", "ldd", "marg"), repetitions=2, metric="hellinger")
        assert [c.status for c in run_grid(cfg).cells] == ["ok"] * 3
        with pytest.raises(ParameterError, match="unknown metric"):
            dataclasses.replace(cfg, metric="bogus")
        for estimator_id in cfg.estimators:
            with pytest.raises(ParameterError, match="unknown metric"):
                make_estimator(estimator_id, "bogus")

    @pytest.mark.parametrize("estimator_id", sorted(ESTIMATOR_BUILDERS))
    def test_fit_takes_a_window_and_a_seed(self, estimator_id):
        # a fit sees nothing but its window and its draws: no drift time
        estimator = make_estimator(estimator_id)
        assert list(inspect.signature(estimator.fit).parameters) == ["w", "seed"]
        assert list(inspect.signature(estimator.fit_each).parameters) == ["windows", "rngs"]

    def test_unexpected_error_propagates(self, monkeypatch):
        class Broken(Estimator):
            name = "broken"

            def fit(self, w, seed=None):
                raise TypeError("bug in estimator code")

        monkeypatch.setitem(ESTIMATOR_BUILDERS, "broken", lambda metric="tv", **p: Broken())
        cfg = dataclasses.replace(SMALL, estimators=("marg", "broken"), repetitions=2)
        with pytest.raises(TypeError, match="bug in estimator code"):
            run_grid(cfg)

    def test_parallel_progress_once_per_cell_in_order(self):
        cfg = ExperimentConfig(
            datasets=("stagger", "sea"),
            estimators=("marg", "knn_kl"),
            repetitions=2,
            split_positions=(0.50, 0.62),
            seed=5,
        )
        calls = []
        table = run_grid(cfg, threads=2, progress=lambda d, e, cell: calls.append((d, e, cell)))
        assert [(d, e) for d, e, _ in calls] == [(d, e) for d in cfg.datasets for e in cfg.estimators]
        assert tuple(cell for _, _, cell in calls) == table.cells

    def test_write_outputs(self, tmp_path):
        table = run_grid(SMALL)
        table.write(tmp_path / "out")
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert rows[0].startswith("dataset,estimator,p_perm,p_thre,p_pa_0.03")
        assert len(rows) == 2
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["config_hash"] == SMALL.config_hash()
        assert meta["config"]["repetitions"] == 8
        assert meta["cells"] == {"stagger/marg": {"params": {}, "selected_from_sweep": False}}

    def test_sweep_flags_result(self):
        cfg = dataclasses.replace(SMALL, repetitions=3)
        cell = run_cell(cfg, "stagger", "marg", sweep=True)
        assert cell.selected_from_sweep
        assert cell.status == "ok"

    def test_sweep_with_every_set_failing_runs_each_set_once(self, monkeypatch):
        # both grid sets exceed MAX_GRID_CELLS on 12 features
        calls = []

        def counting(cfg, dataset_id, estimator_id, params=None):
            calls.append(params)
            return collect_records(cfg, dataset_id, estimator_id, params)

        monkeypatch.setattr(harness, "collect_records", counting)
        cfg = dataclasses.replace(SMALL, datasets=("rbf",), estimators=("grid",), repetitions=2, dataset_params={"rbf": {"d": 12}})
        cell = run_cell(cfg, "rbf", "grid", sweep=True)
        assert calls == SWEEP_GRIDS["grid"]
        assert cell.status == "failed" and cell.error.startswith("ParameterError: grid would exceed")
        assert cell.params == SWEEP_GRIDS["grid"][0]
        assert not cell.selected_from_sweep

    def test_sweep_records_the_chosen_params_in_metadata(self, tmp_path):
        cfg = dataclasses.replace(SMALL, estimators=("marg", "rnd_pj"), repetitions=3)
        table = run_grid(cfg, sweep=True)
        table.write(tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert sorted(meta["cells"]) == ["stagger/marg", "stagger/rnd_pj"]
        for estimator in cfg.estimators:
            entry = meta["cells"][f"stagger/{estimator}"]
            assert entry["selected_from_sweep"] is True
            assert entry["params"] in SWEEP_GRIDS[estimator]
            assert entry["params"] == table.cell("stagger", estimator).params


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["n", "repetitions", "noise_dims", "seed"])
    def test_integer_fields_must_be_integers(self, name):
        with pytest.raises(ParameterError, match=f"{name} must be an integer, got 1.5"):
            ExperimentConfig(**{name: 1.5})
        cfg = ExperimentConfig(**{name: np.int64(5)})
        assert getattr(cfg, name) == 5 and type(getattr(cfg, name)) is int

    def test_positions_must_include_drift_point(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(split_positions=(0.53, 0.62))

    def test_off_grid_values_need_custom_flag(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(offset=0.4)
        with pytest.raises(ParameterError):
            ExperimentConfig(split_positions=(0.50, 0.77))
        assert ExperimentConfig(offset=0.4, custom=True).offset == 0.4

    @pytest.mark.parametrize(
        "offset, positions, message",
        [
            (0.5, GRID_POSITIONS, "offset 0.5 outside"),
            (-0.1, GRID_POSITIONS, "offset -0.1 outside"),
            (0.0, (0.5, 1.5), re.escape("split positions [1.5]")),
            (0.25, (0.2, 0.25, 0.5), re.escape("split positions [0.2, 0.25]")),
        ],
    )
    def test_custom_offset_and_positions_stay_inside_the_window(self, offset, positions, message):
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(offset=offset, split_positions=positions, custom=True)
        assert ExperimentConfig(offset=0.25, split_positions=(0.3, 0.5), custom=True).offset == 0.25

    def test_custom_split_before_the_first_sample_fails_its_cell(self):
        # the config cannot see where the drawn window starts: the cell
        # fails with the split contract's error and the grid goes on
        cfg = ExperimentConfig(
            datasets=("sea",), estimators=("marg",), n=150, repetitions=3, split_positions=(0.001, 0.5), custom=True
        )
        (cell,) = run_grid(cfg).cells
        assert cell.status == "failed"
        assert cell.error == "InvalidSplitError: split rank outside [1, 149] for a window of 150 samples"

    def test_unknown_estimator_rejected_at_runtime(self):
        with pytest.raises(ParameterError):
            make_estimator("nope")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("metric", "bogus", "unknown metric"),
            ("estimators", ("marg", "nope"), "unknown estimator 'nope'"),
            ("datasets", ("sea", "nope"), "unknown dataset 'nope'"),
        ],
    )
    def test_unknown_ids_rejected_before_any_cell(self, field, value, message):
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(SMALL, **{field: value})

    def test_unknown_parameter_is_parameter_error(self):
        with pytest.raises(ParameterError, match="estimator 'marg'"):
            make_estimator("marg", params={"nope": 1})
        with pytest.raises(ParameterError, match="dataset 'sea'"):
            make_concept_pair("sea", np.random.default_rng(0), {"nope": 1})
        with pytest.raises(ParameterError, match="estimator 'marg'"):
            dataclasses.replace(SMALL, repetitions=2, estimator_params={"marg": {"nope": 1}})

    def test_misspelt_estimator_parameter_rejected_before_any_cell(self):
        with pytest.raises(ParameterError, match="bad parameters for estimator 'rf'.*'n_tres'"):
            dataclasses.replace(SMALL, estimators=("marg", "rf"), estimator_params={"rf": {"n_tres": 3}})

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"sea": {"variant_aftr": 2}}, "dataset 'sea'.*'variant_aftr'"),
            ({"rbf": {"seed": 3}}, "dataset 'rbf'.*'seed'"),  # the harness passes each repetition's seed
            ({"rhp": {"d": 3}, "se": {"variant_after": 2}}, "unknown dataset 'se'"),
        ],
    )
    def test_dataset_parameters_checked_before_any_cell(self, params, message):
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(SMALL, dataset_params=params)

    def test_listed_csv_dataset_needs_a_path_but_is_not_read(self, tmp_path):
        with pytest.raises(ParameterError, match="dataset 'csv'.*'path'"):
            dataclasses.replace(SMALL, datasets=("csv",))
        cfg = dataclasses.replace(SMALL, datasets=("csv",), dataset_params={"csv": {"path": str(tmp_path / "absent.csv")}})
        assert cfg.datasets == ("csv",)

    def test_estimator_parameters_of_an_unlisted_id_checked(self):
        with pytest.raises(ParameterError, match="unknown estimator 'rff'"):
            dataclasses.replace(SMALL, estimator_params={"rff": {"n_trees": 4}})
        with pytest.raises(ParameterError, match="estimator 'rf'.*'n_tres'"):
            dataclasses.replace(SMALL, estimator_params={"rf": {"n_tres": 4}})
        with pytest.raises(ParameterError, match="estimator 'marg'.*'metric'"):
            make_estimator("marg", params={"metric": "js"})

    def test_type_error_inside_a_builder_propagates(self, monkeypatch):
        def broken(bins=4, metric="tv"):
            raise TypeError("bug in builder code")

        monkeypatch.setitem(ESTIMATOR_BUILDERS, "marg", broken)
        with pytest.raises(TypeError, match="bug in builder code"):
            make_estimator("marg", params={"bins": 8})

    @pytest.mark.parametrize("seed", [-5, 2**32, 2**32 + 7])
    def test_seed_outside_32_bits_rejected(self, seed):
        # derive_seed keeps 32 bits: 2**32 would run the grid of seed 0
        with pytest.raises(ParameterError, match=f"bad seed {seed}"):
            dataclasses.replace(SMALL, seed=seed)
        assert dataclasses.replace(SMALL, seed=2**32 - 1).seed == 2**32 - 1

    def test_negative_noise_dims_rejected(self):
        with pytest.raises(ParameterError, match="noise_dims must be >= 0"):
            dataclasses.replace(SMALL, noise_dims=-1)

    def test_csv_dataset_without_path_is_parameter_error(self):
        with pytest.raises(ParameterError, match="dataset 'csv'.*'path'"):
            make_concept_pair("csv", np.random.default_rng(0), {"timestamp_split": 0.5})

    def test_knn_aggregation_checked_at_construction(self):
        # ldd aggregates per-point values by mean or max; knn_kl has nothing to aggregate
        w = make_paired(*make_concept_pair("sea", np.random.default_rng(1)), 150, seed=1).drifting
        stats = {a: make_estimator("ldd", params={"aggregation": a}).fit(w).statistics_at([0.5]) for a in ("mean", "max")}
        assert np.array_equal(stats["mean"], make_estimator("ldd").fit(w).statistics_at([0.5]))
        assert stats["max"] > stats["mean"]
        for aggregation in ("median", "MEAN", 1):
            with pytest.raises(ParameterError, match="unknown aggregation"):
                make_estimator("ldd", params={"aggregation": aggregation})
        # knn_kl has no such parameter: its signature rejects the name
        for aggregation in ("mean", "max", "median"):
            with pytest.raises(ParameterError, match="'knn_kl'.*'aggregation'"):
                make_estimator("knn_kl", params={"aggregation": aggregation})

    def test_offset_run_executes(self):
        cfg = ExperimentConfig(
            datasets=("stagger",),
            estimators=("marg",),
            repetitions=3,
            offset=0.25,
            split_positions=(0.50, 0.62),
            seed=0,
        )
        cell = run_cell(cfg, "stagger", "marg")
        assert cell.status == "ok"

    def test_csv_dataset_through_grid(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["a,b"]
        rows += [f"{v:.4f},{u:.4f}" for v, u in rng.normal(size=(60, 2))]
        rows += [f"{v:.4f},{u:.4f}" for v, u in rng.normal(5.0, 1.0, size=(60, 2))]
        path = tmp_path / "stream.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(
            datasets=("csv",),
            estimators=("marg",),
            n=100,
            repetitions=5,
            split_positions=(0.50, 0.62),
            seed=1,
            dataset_params={"csv": {"path": str(path), "timestamp_split": 0.5}},
        )
        cell = run_cell(cfg, "csv", "marg")
        assert cell.status == "ok"
        assert cell.p_perm == 1.0  # strongly separated halves


class TestLoadConfig:
    def test_full_file(self, tmp_path):
        text = """
# benchmark configuration
datasets = stagger, sea
estimators = marg, rf
n = 150
repetitions = 20
seed = 7
metric = tv
offset = 0.125
split_positions = 0.5, 0.53, 0.62
estimator.rf.n_trees = 4
estimator.marg.bins = 8
dataset.sea.variant_after = 2
"""
        path = tmp_path / "bench.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.datasets == ("stagger", "sea")
        assert cfg.estimators == ("marg", "rf")
        assert cfg.repetitions == 20
        assert cfg.offset == 0.125
        assert cfg.estimator_params == {"rf": {"n_trees": 4}, "marg": {"bins": 8}}
        assert cfg.dataset_params == {"sea": {"variant_after": 2}}

    def test_values_take_their_parameters_types(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "split_positions = 0.5, 0.75\noffset = 0\ncustom = yes\n"
            "estimator.rf.n_trees = 4\nestimator.kdq.min_side = 1\nestimator.mmd.bandwidth = 2\n"
            "estimator.ldd.aggregation = max\ndataset.rhp.rotation_angle = 1\n"
            "dataset.csv.path = 1\n"
        )
        cfg = load_config(path)
        assert cfg.split_positions == (0.5, 0.75) and type(cfg.offset) is float and cfg.custom is True
        assert cfg.estimator_params == {
            "rf": {"n_trees": 4}, "kdq": {"min_side": 1.0}, "mmd": {"bandwidth": 2.0}, "ldd": {"aggregation": "max"},
        }
        assert cfg.dataset_params == {"rhp": {"rotation_angle": 1.0}, "csv": {"path": "1"}}
        types = [type(v) for p in (*cfg.estimator_params.values(), *cfg.dataset_params.values()) for v in p.values()]
        assert types == [int, float, float, str, float, str]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("estimator.marg.bins = 8.5", "bad value for 'estimator.marg.bins': '8.5' is not int"),
            ("dataset.sea.variant_after = 2.0", "bad value for 'dataset.sea.variant_after': '2.0' is not int"),
            ("estimator.rnd_pj.n_axes = none", "bad value for 'estimator.rnd_pj.n_axes': 'none' is not int | None"),
            ("custom = 1", "bad value for 'custom': '1' is not bool"),
            ("estimator.rff.n_trees = 4", "unknown estimator 'rff'"),
            ("dataset.sea.variant_aftr = 2", "bad parameters for dataset 'sea': .*'variant_aftr'"),
            ("dataset.rbf.seed = 3", "bad parameters for dataset 'rbf': .*'seed'"),
            ("estimator.marg.metric = js", "bad parameters for estimator 'marg': .*'metric'"),
            ("estimator.dt.skip_fraction = 0.5", "bad parameters for estimator 'dt': .*'skip_fraction'"),
            ("estimator.rf.skip_fraction = 0.1", "bad parameters for estimator 'rf': .*'skip_fraction'"),
            ("dataset.csv.two_sample_check = on", "bad parameters for dataset 'csv': .*'two_sample_check'"),
            ("seed = 1.5", "bad value for 'seed': '1.5' is not int"),
        ],
    )
    def test_bad_name_or_type_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "bench.cfg"
        path.write_text(f"datasets = sea\n{line}\n")
        with pytest.raises(ParameterError, match=re.escape(f"{path}:2: ") + message):
            load_config(path)

    @pytest.mark.parametrize("line", ["datasets =", "estimators = ,", "split_positions = "])
    def test_empty_list_names_the_line(self, tmp_path, line):
        path = tmp_path / "bench.cfg"
        path.write_text(f"repetitions = 2\n{line}\n")
        key = line.partition("=")[0].strip()
        with pytest.raises(ParameterError, match=re.escape(f"{path}:2: empty list for {key!r}")):
            load_config(path)

    @pytest.mark.parametrize("field", ["datasets", "estimators"])
    def test_empty_id_list_rejected(self, field):
        with pytest.raises(ParameterError, match="at least one id"):
            ExperimentConfig(**{field: ()})

    @pytest.mark.parametrize(
        "first, second",
        [
            ("estimators = marg", "estimators = ldd"),
            ("estimators = marg", "estimators ="),
            ("estimator.marg.bins = 4", "estimator.marg.bins = 8"),
            ("dataset.sea.variant_after = 2", "dataset.sea.variant_after = 3"),
        ],
    )
    def test_repeated_key_names_both_lines(self, tmp_path, first, second):
        path = tmp_path / "bench.cfg"
        path.write_text(f"{first}\nrepetitions = 2\n{second}\n")
        key = first.partition("=")[0].strip()
        with pytest.raises(ParameterError, match=re.escape(f"{path}:3: {key!r} is already set on line 1")):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("reps = 10\n")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("datasets stagger\n")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_non_utf8_bytes_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"datasets = stagger\nmetric = \xff\n")
        with pytest.raises(ParameterError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            load_config(path)

    @pytest.mark.parametrize("value, expected", [("true", True), ("Yes", True), ("on", True), ("false", False), ("no", False)])
    def test_custom_takes_a_boolean(self, tmp_path, value, expected):
        path = tmp_path / "bench.cfg"
        path.write_text(f"custom = {value}\n")
        assert load_config(path).custom is expected

    @pytest.mark.parametrize("value", ["1", "0", "maybe", ""])
    def test_custom_rejects_a_non_boolean(self, tmp_path, value):
        path = tmp_path / "bench.cfg"
        path.write_text(f"offset = 0.4\ncustom = {value}\n")
        with pytest.raises(ParameterError, match=re.escape(f"{path}:2: bad value for 'custom'")):
            load_config(path)
