"""Golden ``results.csv`` of two small grids, as ``bench run`` writes it:
every estimator on the four synthetic datasets at n = 80 with 17
repetitions (two repetition blocks, one with a single repetition), and one
``--sweep`` cell with the parameters the sweep selected.

    PYTHONPATH=src python tests/golden/results.py   # rewrites results.json

``grid`` on ``stagger`` fails its cell, so the failed-cell row is pinned as
well.  ``tests/test_golden.py`` recomputes both files and compares them line
by line; the file records the numpy version it was written with.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from driftbench.harness import ESTIMATOR_BUILDERS, TABLE_DATASETS, ExperimentConfig, run_grid

PATH = Path(__file__).with_name("results.json")
GRID = ExperimentConfig(datasets=TABLE_DATASETS, estimators=tuple(ESTIMATOR_BUILDERS), n=80, repetitions=17, seed=11)
SWEEP = ExperimentConfig(datasets=("rbf",), estimators=("kdq",), n=80, repetitions=17, seed=11)


def _results_csv(cfg: ExperimentConfig, sweep: bool = False) -> dict:
    table = run_grid(cfg, sweep=sweep)
    with tempfile.TemporaryDirectory() as out:
        table.write(out)
        lines = (Path(out) / "results.csv").read_text().splitlines()
    return {"results_csv": lines, "params": {f"{c.dataset}/{c.estimator}": c.params for c in table.cells}}


def results() -> dict[str, dict]:
    """Grid name -> its ``results.csv`` lines and each cell's parameters."""
    return {"grid": _results_csv(GRID), "sweep": _results_csv(SWEEP, sweep=True)}


def main() -> None:
    doc = {"numpy": np.__version__, "results": results()}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['results'])} grids to {PATH}")


if __name__ == "__main__":
    main()
