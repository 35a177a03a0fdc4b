"""Golden digests of the binning, tree and kernel estimators: the scan trace,
``t_hat`` and ``max_stat`` of ``scan_splits`` for ``marg``, ``rnd_pj``,
``pca``, ``grid``, ``rnd_tree``, ``kdq``, ``rf``, ``dt`` and ``mmd`` under
every metric each takes, on the windows of ``neighbor.py``.

    PYTHONPATH=src python tests/golden/estimators.py   # rewrites estimators.json

Every scan uses the estimator's default parameters, the default margin and
the seed ``SEED``.  A trace digest is the sha256 of its float64 bytes, and
``t_hat`` and ``max_stat`` are kept as float hex strings, so a change in the
last bit of any value changes the entry.  A fit that refuses a window is
recorded by its error class.  ``tests/test_golden.py`` recomputes every
entry and compares; the file records the numpy version it was written with.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from driftbench.detector import scan_splits
from driftbench.errors import DriftBenchError
from driftbench.harness import make_estimator
from driftbench.histograms import METRICS

PATH = Path(__file__).with_name("estimators.json")
ESTIMATORS = ("marg", "rnd_pj", "pca", "grid", "rnd_tree", "kdq", "rf", "dt", "mmd")
#: Estimators that take no histogram metric.
METRIC_FREE = ("mmd",)
SEED = 2024

_spec = importlib.util.spec_from_file_location("golden_neighbor_windows", Path(__file__).with_name("neighbor.py"))
neighbor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(neighbor)


def scans() -> dict[str, dict]:
    """Entry name -> the scan's digest, t_hat and max_stat, or the class of
    the error its fit raised; in a fixed order."""
    out = {}
    for window_name, w in neighbor.windows().items():
        for estimator_id in ESTIMATORS:
            for metric in ("tv",) if estimator_id in METRIC_FREE else METRICS:
                name = f"{window_name}/{estimator_id}" + ("" if estimator_id in METRIC_FREE else f"/{metric}")
                try:
                    v = scan_splits(make_estimator(estimator_id, metric), w, seed=SEED)
                except DriftBenchError as exc:
                    out[name] = {"error": type(exc).__name__}
                    continue
                out[name] = {
                    "trace": neighbor._digest(v.statistics),
                    "t_hat": v.t_hat.hex(),
                    "max_stat": v.max_stat.hex(),
                }
    return out


def main() -> None:
    doc = {"numpy": np.__version__, "scans": scans()}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['scans'])} scans to {PATH}")


if __name__ == "__main__":
    main()
