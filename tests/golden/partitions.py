"""Golden partitions: the ``to_dict`` documents of the random, kdq and moment
trees and the edges of the marginal, PCA, random-projection and grid
binnings.

    PYTHONPATH=src python tests/golden/partitions.py   # rewrites partitions.json

Windows: four of ``neighbor.py`` (with the n = 600 one, where moment trees
thin their candidate cuts), its tied window, and small windows made for
the corner cases: d = 1 with ties, a constant feature, fewer samples than
two moment-tree leaves need, and features scaled by 1e300 and 1e-300; and
the ``rf`` and ``dt`` fits of a drifting rbf d = 2, n = 600 window, where
moment trees thin their candidate cuts and no node draws.  An
entry is the sha256 of the JSON of its documents (JSON floats round-trip,
so any last-bit change changes it) and the cell count; a fit that draws
also records its generator's state afterwards.  A builder that refuses a
window is recorded by its error class.  ``tests/test_golden.py`` recomputes
every entry and compares; the file records the numpy version it was
written with.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from driftbench.errors import DriftBenchError
from driftbench.generators import rbf_pair
from driftbench.harness import make_estimator
from driftbench.partitions import (
    build_grid,
    build_kdq_tree,
    build_marginal,
    build_pca_projection,
    build_random_projection,
    build_random_tree,
)
from driftbench.windows import Window, make_paired

PATH = Path(__file__).with_name("partitions.json")
SEED = 2024
NEIGHBOR_WINDOWS = ("sea_n150_drifting", "stagger_n150_drifting", "rbf4_n80_permuted", "rbf4_n600_drifting", "tied_n120")
#: (n_leaves, min_leaf) of the lone random trees
RANDOM_TREES = ((2, 1), (3, 2), (16, 5), (40, 2))
EDGE_MODES = ("equidistant", "equilikely")

_spec = importlib.util.spec_from_file_location("golden_neighbor_windows", Path(__file__).with_name("neighbor.py"))
neighbor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(neighbor)


def windows() -> dict[str, Window]:
    ws = neighbor.windows()
    out = {name: ws[name] for name in NEIGHBOR_WINDOWS}
    rng = np.random.default_rng(13)
    t = np.round(np.sort(rng.uniform(0, 1, 90)), 2)
    out["d1_ties_n90"] = Window(rng.integers(0, 6, (90, 1)).astype(float), t)
    x = rng.normal(size=(90, 3))
    x[:, 1] = 2.5
    x[:, 2] = np.round(x[:, 2])
    out["constant_feature_n90"] = Window(x, t)
    out["small_n15"] = Window(rng.normal(size=(15, 2)), np.sort(rng.uniform(0, 1, 15)))
    x = rng.normal(size=(90, 2))
    out["scale_1e300_n90"] = Window(x * 1e300, t)
    out["scale_1e-300_n90"] = Window(x * 1e-300, t)
    return out


def _entry(parts, rng=None) -> dict:
    docs = [p.to_dict() for p in parts]
    out = {
        "sha256": hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest(),
        "cells": sum(p.n_cells for p in parts),
    }
    if rng is not None:
        out["state"] = rng.bit_generator.state
    return out


def _recorded(build, draws: bool = False) -> dict:
    rng = np.random.default_rng(SEED)
    try:
        parts = build(rng)
    except DriftBenchError as exc:
        return {"error": type(exc).__name__}
    return _entry(parts, rng if draws else None)


def partitions() -> dict[str, dict]:
    """Entry name -> its digest, cell count and generator state, or the
    class of the error its builder raised; in a fixed order."""
    out = {}
    for name, w in windows().items():
        for n_leaves, min_leaf in RANDOM_TREES:
            out[f"{name}/random_tree/{n_leaves}_{min_leaf}"] = _recorded(
                lambda rng: [build_random_tree(w, n_leaves, rng, min_leaf)], draws=True
            )
        for estimator_id in ("rnd_tree", "kdq", "rf", "dt"):
            estimator = make_estimator(estimator_id, "tv")
            out[f"{name}/{estimator_id}"] = _recorded(lambda rng: estimator.fit(w, rng).partitions, draws=True)
        out[f"{name}/kdq/0.01_3"] = _recorded(lambda rng: [build_kdq_tree(w, 0.01, 3)])
        for mode in EDGE_MODES:
            for bins in (3, 8):
                out[f"{name}/marg/{mode}/{bins}"] = _recorded(lambda rng: build_marginal(w, bins, mode))
                out[f"{name}/pca/{mode}/{bins}"] = _recorded(lambda rng: build_pca_projection(w, None, bins, mode))
                out[f"{name}/rnd_pj/{mode}/{bins}"] = _recorded(
                    lambda rng: build_random_projection(w, None, bins, mode, rng), draws=True
                )
                out[f"{name}/grid/{mode}/{bins}"] = _recorded(lambda rng: [build_grid(w, bins, mode)])
    w = make_paired(*rbf_pair(2, seed=6), 600, seed=np.random.default_rng(16)).drifting
    for estimator_id in ("rf", "dt"):
        estimator = make_estimator(estimator_id, "tv")
        out[f"rbf2_n600_drifting/{estimator_id}"] = _recorded(lambda rng: estimator.fit(w, rng).partitions, draws=True)
    return out


def main() -> None:
    doc = {"numpy": np.__version__, "partitions": partitions()}
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['partitions'])} partition entries to {PATH}")


if __name__ == "__main__":
    main()
