"""Golden digests of the kNN statistics: LDD and kNN-KL over every candidate
split of fixed windows, plus ``detect_drift`` p-values and generator states.

    PYTHONPATH=src python tests/golden/neighbor.py   # rewrites neighbor.json

Each digest is the sha256 of the float64 bytes of one statistic trace, so a
change in the last bit of any value changes it.  ``tests/test_golden.py``
recomputes every entry and compares.  numpy's ``Generator`` streams and the
BLAS product ``x @ x.T`` may differ between numpy builds, so the file
records the numpy version it was written with.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from driftbench.detector import KnnKlEstimator, LddEstimator, detect_drift
from driftbench.generators import rbf_pair, sea_pair, stagger_pair
from driftbench.neighbor_kernel import build_neighbor_graph, build_neighbor_lists, knn_kls, ldd_statistics
from driftbench.windows import Window, candidate_split_times, make_paired

PATH = Path(__file__).with_name("neighbor.json")
KNN_KL_KS = (1, 2, 5, 10)
LDD_KS = (5, 10, 20)


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def windows() -> dict[str, Window]:
    """Drifting and permuted sea, stagger and rbf d=4 windows at n = 80 and
    150, a tied-timestamp window with duplicated rows, and an n = 600 window
    that spans several row and split blocks."""
    pairs = {"sea": sea_pair(), "stagger": stagger_pair(1, 2), "rbf4": rbf_pair(4, seed=7)}
    out = {}
    for seed, (name, (before, after)) in enumerate(pairs.items()):
        for n in (80, 150):
            pw = make_paired(before, after, n, seed=np.random.default_rng([seed, n]))
            out[f"{name}_n{n}_drifting"] = pw.drifting
            out[f"{name}_n{n}_permuted"] = pw.permuted
    rng = np.random.default_rng(11)
    x = rng.normal(size=(120, 2))
    x[rng.integers(0, 120, 40)] = x[rng.integers(0, 120, 40)]
    out["tied_n120"] = Window(x, np.round(np.sort(rng.uniform(0, 1, 120)), 2))
    out["rbf4_n600_drifting"] = make_paired(*pairs["rbf4"], 600, seed=np.random.default_rng(12)).drifting
    return out


def _ranks(w: Window, min_side: int) -> np.ndarray:
    return np.searchsorted(w.t, candidate_split_times(w, min_side), side="right")


def digests() -> dict[str, str]:
    """Entry name -> digest, in a fixed order."""
    out = {}
    for name, w in windows().items():
        for k in KNN_KL_KS:
            # both sides need more than k samples
            out[f"{name}/knn_kl/k{k}"] = _digest(knn_kls(build_neighbor_graph(w, k), _ranks(w, k + 1)))
        for k in LDD_KS:
            lists = build_neighbor_lists(w, k)
            for aggregation in ("mean", "max"):
                stats = ldd_statistics(lists, _ranks(w, 1), aggregation=aggregation)
                out[f"{name}/ldd_{aggregation}/k{k}"] = _digest(stats)
    return out


def detections() -> dict[str, dict]:
    """p-value, maximum and split of ``detect_drift`` with 19 permutations,
    and the state of its generator afterwards."""
    ws = windows()
    estimators = {"ldd": LddEstimator(10), "knn_kl": KnnKlEstimator(2)}
    out = {}
    for window_name in ("sea_n150_drifting", "stagger_n150_drifting", "rbf4_n80_permuted"):
        for est_name, est in estimators.items():
            rng = np.random.default_rng(2024)
            v = detect_drift(est, ws[window_name], n_perms=19, seed=rng)
            out[f"{window_name}/{est_name}"] = {
                "p_value": v.p_value,
                "max_stat": v.max_stat.hex(),
                "t_hat": v.t_hat.hex(),
                "state": rng.bit_generator.state,
            }
    return out


def main() -> None:
    doc = {"numpy": np.__version__, "digests": digests(), "detections": detections()}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['digests'])} digests and {len(doc['detections'])} detections to {PATH}")


if __name__ == "__main__":
    main()
