"""Golden ``detect_drift`` results of the binning, tree and kernel estimators:
the p-value, ``t_hat`` and ``max_stat`` with 19 permutations, and the state
of the generator afterwards, for the estimators of ``estimators.py`` under
their default parameters and metric, on two n = 80 windows of ``neighbor.py``,
plus the ``rf`` and ``dt`` moment forests on a drifting rbf d = 2, n = 150
window (the shape of the benchmark's ``detect`` drift window, where no node
of either forest draws), and ``rf`` on a drift-free rbf d = 2, n = 150 window
whose timestamps are rounded to 2 decimals, where the order that each
permutation leaves tied rows in moves the p-value.

    PYTHONPATH=src python tests/golden/detections.py   # rewrites detections.json

Every run starts from a generator seeded with ``estimators.SEED``, the
tied-timestamp run from one seeded with 3.  Each permutation refit draws
from that generator, so its final state pins every draw of the run.  A run that raises is recorded by its error class.
``tests/test_golden.py`` recomputes every entry and compares; the file
records the numpy version it was written with.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from driftbench.detector import detect_drift
from driftbench.errors import DriftBenchError
from driftbench.generators import rbf_pair
from driftbench.harness import make_estimator
from driftbench.windows import Window, make_paired

PATH = Path(__file__).with_name("detections.json")
WINDOWS = ("sea_n80_drifting", "rbf4_n80_permuted")
#: (window, estimator) of the draw-free moment forests
MOMENT_RUNS = (("rbf2_n150_drifting", "rf"), ("rbf2_n150_drifting", "dt"))
#: (window, estimator, seed) of the run on tied timestamps
TIED_RUN = ("rbf2_n150_permuted_tied", "rf", 3)

_spec = importlib.util.spec_from_file_location("golden_estimators_scans", Path(__file__).with_name("estimators.py"))
estimators = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(estimators)


def _detection(estimator_id: str, w, seed: int = estimators.SEED) -> dict:
    rng = np.random.default_rng(seed)
    try:
        v = detect_drift(make_estimator(estimator_id), w, n_perms=19, seed=rng)
    except DriftBenchError as exc:
        return {"error": type(exc).__name__}
    return {
        "p_value": v.p_value,
        "max_stat": v.max_stat.hex(),
        "t_hat": v.t_hat.hex(),
        "state": rng.bit_generator.state,
    }


def detections() -> dict[str, dict]:
    """Entry name -> the run's p-value, maximum, split and generator state,
    or the class of the error it raised; in a fixed order."""
    ws = estimators.neighbor.windows()
    ws["rbf2_n150_drifting"] = make_paired(*rbf_pair(2, seed=5), 150, seed=np.random.default_rng(15)).drifting
    permuted = make_paired(*rbf_pair(2, 5, 0), 150, seed=0).permuted
    ws["rbf2_n150_permuted_tied"] = Window(permuted.x, np.round(permuted.t, 2))
    out = {}
    for window_name in WINDOWS:
        for estimator_id in estimators.ESTIMATORS:
            out[f"{window_name}/{estimator_id}"] = _detection(estimator_id, ws[window_name])
    for window_name, estimator_id in MOMENT_RUNS:
        out[f"{window_name}/{estimator_id}"] = _detection(estimator_id, ws[window_name])
    window_name, estimator_id, seed = TIED_RUN
    out[f"{window_name}/{estimator_id}"] = _detection(estimator_id, ws[window_name], seed)
    return out


def main() -> None:
    doc = {"numpy": np.__version__, "detections": detections()}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['detections'])} detections to {PATH}")


if __name__ == "__main__":
    main()
