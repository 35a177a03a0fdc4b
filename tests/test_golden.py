"""The statistics, p-values and generator states still equal the digests
recorded in ``tests/golden/*.json``, each rewritten by the script of the
same name: ``neighbor.py`` for the kNN statistics, ``estimators.py`` for the
scans of the binning, tree and kernel estimators, ``detections.py`` for
their ``detect_drift`` p-values and generator states, ``results.py`` for
the ``results.csv`` of a small grid and a sweep and ``partitions.py`` for the
documents of the partition builders."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from driftbench.partitions import build_grid
from driftbench.windows import _WIDE_ROW


def _load(name):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", Path(__file__).parent / "golden" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("neighbor")
golden_estimators = _load("estimators")
golden_detections = _load("detections")
golden_results = _load("results")
golden_partitions = _load("partitions")


def _recorded(module) -> dict:
    recorded = json.loads(module.PATH.read_text())
    # Generator streams and BLAS rounding may change between numpy versions
    assert recorded["numpy"] == np.__version__, (
        f"{module.PATH.name} was written with numpy {recorded['numpy']}, this is numpy {np.__version__}; "
        "run the tests with the recorded version"
    )
    return recorded


def _differ(computed: dict, recorded: dict) -> list[str]:
    assert computed.keys() == recorded.keys()
    return [name for name, value in computed.items() if value != recorded[name]]


def test_neighbor_statistics_equal_the_golden_digests():
    recorded = _recorded(golden)
    differ = _differ(golden.digests(), recorded["digests"]) + _differ(golden.detections(), recorded["detections"])
    assert not differ, f"{len(differ)} golden entries differ: {differ}"


def test_estimator_scans_equal_the_golden_digests():
    recorded = _recorded(golden_estimators)
    differ = _differ(golden_estimators.scans(), recorded["scans"])
    assert not differ, f"{len(differ)} golden entries differ: {differ}"


def test_estimator_detections_equal_the_golden_results():
    recorded = _recorded(golden_detections)
    differ = _differ(golden_detections.detections(), recorded["detections"])
    assert not differ, f"{len(differ)} golden entries differ: {differ}"


def test_grid_results_equal_the_golden_csv():
    recorded = _recorded(golden_results)
    differ = _differ(golden_results.results(), recorded["results"])
    assert not differ, f"{len(differ)} golden grids differ: {differ}"


def test_partitions_equal_the_golden_documents():
    recorded = _recorded(golden_partitions)
    differ = _differ(golden_partitions.partitions(), recorded["partitions"])
    assert not differ, f"{len(differ)} golden entries differ: {differ}"


def test_golden_windows_reach_the_whole_row_scan():
    # ``_scan_rows`` adds whole rows from ``_WIDE_ROW`` columns on: the prefix
    # table of the d=4 sea windows' default grid has a column per cell, and
    # the n=600 window's LDD event counts have a column per sample
    windows = golden.windows()
    assert build_grid(windows["sea_n150_drifting"]).n_cells == 256 >= _WIDE_ROW
    assert len(windows["rbf4_n600_drifting"]) == 600 >= _WIDE_ROW
