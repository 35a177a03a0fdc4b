"""Experiment engine: paired drift/permuted repetitions and the empirical
upper bounds p_perm, p_thre and p_pa over a dataset x estimator grid.

Each repetition samples a window with one abrupt drift at 50% plus its
timestamp-permuted counterpart, fits one descriptor per window and
evaluates the statistic at all configured split positions.  Repetitions
use seeds derived from (master seed, dataset, estimator, index), so grids
are reproducible and order-independent; a cell runs them in blocks, which
lets the moment forests of a block grow in lockstep.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .detector import (
    Estimator,
    KnnEstimator,
    MmdEstimator,
    MomentForestEstimator,
    grid_estimator,
    kdq_tree_estimator,
    marginal_estimator,
    pca_projection_estimator,
    random_projection_estimator,
    random_tree_estimator,
)
from .errors import DriftBenchError, ParameterError
from .generators import csv_concept_pair, rbf_pair, rhp_pair, sea_pair, stagger_pair, with_noise
from .histograms import METRICS
from .moment_tree import MomentTreeConfig, VARIANT_DT, VARIANT_RF
from .seeding import as_generator, derive_seed
from .windows import make_paired

GRID_POSITIONS = (0.50, 0.53, 0.56, 0.62, 0.75)
GRID_OFFSETS = (0.0, 0.125, 0.25)
DRIFT_POSITION = 0.50
DESK_REPETITIONS = 200
#: Repetitions of a cell drawn and fitted together (moment forests grow in
#: lockstep across a block).
REPETITION_BLOCK = 16


def _moment_estimator(variant):
    def build(metric="tv", n_trees=None, degree=2, min_leaf=10, max_depth=8, skip_fraction=0.0):
        if n_trees is None:
            n_trees = 16 if variant == VARIANT_RF else 1
        cfg = MomentTreeConfig(degree=degree, min_leaf=min_leaf, max_depth=max_depth)
        return MomentForestEstimator(n_trees, variant, cfg, skip_fraction, metric)

    return build


ESTIMATOR_BUILDERS = {
    "marg": marginal_estimator,
    "rnd_pj": random_projection_estimator,
    "pca": pca_projection_estimator,
    "grid": grid_estimator,
    "rnd_tree": random_tree_estimator,
    "kdq": kdq_tree_estimator,
    "rf": _moment_estimator(VARIANT_RF),
    "dt": _moment_estimator(VARIANT_DT),
    "mmd": lambda metric="tv", **p: MmdEstimator(**p),
    "ldd": lambda metric="tv", **p: KnnEstimator(statistic="ldd", **p),
    "knn_kl": lambda metric="tv", k=2, **p: KnnEstimator(k=k, statistic="kl", **p),
}

#: Estimators shown in the benchmark tables.
TABLE_ESTIMATORS = ("rf", "rnd_pj", "marg", "rnd_tree", "mmd", "ldd")
TABLE_DATASETS = ("sea", "stagger", "rbf", "rhp")

#: Coarse hyperparameter sweeps for best-cell selection.
SWEEP_GRIDS = {
    "marg": [{"bins": b, "edge_mode": m} for b in (4, 8, 16) for m in ("equidistant", "equilikely")],
    "rnd_pj": [{"bins": b} for b in (4, 8, 16)],
    "rnd_tree": [{"n_leaves": l} for l in (8, 16, 32)],
    "kdq": [{"min_count": c} for c in (5, 10, 20)],
    "rf": [{"n_trees": t, "degree": d} for t in (16, 64) for d in (1, 2)],
    "dt": [{"degree": d} for d in (1, 2, 3)],
    "ldd": [{"k": k} for k in (5, 10, 20)],
    "knn_kl": [{"k": k} for k in (3, 5, 10)],
    "mmd": [{}],
    "grid": [{"bins": b} for b in (3, 4)],
    "pca": [{"bins": b} for b in (4, 8, 16)],
}


def make_estimator(estimator_id: str, metric: str = "tv", params: dict | None = None) -> Estimator:
    try:
        builder = ESTIMATOR_BUILDERS[estimator_id]
    except KeyError:
        raise ParameterError(f"unknown estimator {estimator_id!r}; known: {sorted(ESTIMATOR_BUILDERS)}") from None
    # the neighbor and kernel estimators ignore the metric, but a misspelt one
    # is still an error
    if metric.lower() not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}; known: {list(METRICS)}")
    try:
        return builder(metric=metric, **(params or {}))
    except TypeError as exc:  # the builders only construct, so this is a bad keyword
        raise ParameterError(f"bad parameters for estimator {estimator_id!r}: {exc}") from None


def _csv_pair(path, timestamp_split, two_sample_check, rng):
    if path is None:
        raise ParameterError("csv dataset needs a 'path' parameter")
    return csv_concept_pair(path, timestamp_split, two_sample_check, rng)


DATASET_BUILDERS = {
    "sea": lambda rng, variant_before=0, variant_after=3: sea_pair(variant_before, variant_after),
    "stagger": lambda rng, concept_before=1, concept_after=2: stagger_pair(concept_before, concept_after),
    "rbf": lambda rng, d=2, n_centroids=5: rbf_pair(d, n_centroids, rng),
    "rhp": lambda rng, d=2, rotation_angle=math.pi / 2: rhp_pair(d, rotation_angle, rng),
    "csv": lambda rng, path=None, timestamp_split=0.5, two_sample_check=False: _csv_pair(
        path, timestamp_split, two_sample_check, rng
    ),
}


def make_concept_pair(dataset_id: str, rng, params: dict | None = None, noise_dims: int = 0):
    try:
        builder = DATASET_BUILDERS[dataset_id]
    except KeyError:
        raise ParameterError(f"unknown dataset {dataset_id!r}; known: {sorted(DATASET_BUILDERS)}") from None
    try:
        before, after = builder(rng, **(params or {}))
    except TypeError as exc:  # the builders only construct concepts, so this is a bad keyword
        raise ParameterError(f"bad parameters for dataset {dataset_id!r}: {exc}") from None
    if noise_dims:
        before, after = with_noise(before, noise_dims), with_noise(after, noise_dims)
    return before, after


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid run: datasets x estimators at fixed window settings."""

    datasets: tuple[str, ...] = TABLE_DATASETS
    estimators: tuple[str, ...] = TABLE_ESTIMATORS
    n: int = 150
    noise_dims: int = 0
    offset: float = 0.0
    split_positions: tuple[float, ...] = GRID_POSITIONS
    repetitions: int = 1000
    seed: int = 0
    metric: str = "tv"
    estimator_params: dict = field(default_factory=dict)
    dataset_params: dict = field(default_factory=dict)
    custom: bool = False

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "split_positions", tuple(float(p) for p in self.split_positions))
        if self.repetitions < 1 or self.n < 4:
            raise ParameterError("repetitions and n must be positive (n >= 4)")
        if self.metric.lower() not in METRICS:
            raise ParameterError(f"unknown metric {self.metric!r}; known: {list(METRICS)}")
        for kind, ids, known in (
            ("estimator", self.estimators, ESTIMATOR_BUILDERS),
            ("dataset", self.datasets, DATASET_BUILDERS),
        ):
            bad = [i for i in ids if i not in known]
            if bad:
                raise ParameterError(f"unknown {kind} ids {bad}; known: {sorted(known)}")
        if DRIFT_POSITION not in self.split_positions:
            raise ParameterError(f"split_positions must include the drift position {DRIFT_POSITION}")
        if not self.custom:
            if self.offset not in GRID_OFFSETS:
                raise ParameterError(f"offset {self.offset} outside the grid {GRID_OFFSETS}; set custom=true to override")
            bad = [p for p in self.split_positions if p not in GRID_POSITIONS]
            if bad:
                raise ParameterError(f"split positions {bad} outside the grid {GRID_POSITIONS}; set custom=true to override")
        # make_paired drops at most the time before the drift; every split must
        # stay strictly inside the window left after the drop
        if not 0.0 <= self.offset < DRIFT_POSITION:
            raise ParameterError(f"offset {self.offset} outside [0, {DRIFT_POSITION})")
        mapped = _effective_positions(self.split_positions, self.offset)
        bad = [p for p, q in zip(self.split_positions, mapped) if not 0.0 < q < 1.0]
        if bad:
            raise ParameterError(f"split positions {bad} fall outside (0, 1) once the offset {self.offset} is removed")

    def config_hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class EvalRecords:
    """Per-repetition paired statistics at every configured split position.

    Within a repetition all positions share one fitted descriptor; the
    permuted window gets its own, freshly fitted descriptor.
    """

    positions: tuple[float, ...]
    drift: np.ndarray
    perm: np.ndarray

    def position_index(self, position: float) -> int:
        for i, p in enumerate(self.positions):
            if abs(p - position) < 1e-9:
                return i
        raise ParameterError(f"position {position} was not evaluated; have {self.positions}")


def p_perm(records: EvalRecords) -> float:
    """Probability that the drift statistic beats its permuted counterpart.

    Ties count against detection (strict inequality), evaluated at the
    drift-point split.
    """
    i = records.position_index(DRIFT_POSITION)
    return float(np.mean(records.drift[:, i] > records.perm[:, i]))


def p_thre(records: EvalRecords) -> float:
    """Best single-threshold separation of paired drift/permuted statistics.

    sup over b of P[drift > b >= permuted]; the supremum is attained on the
    multiset of permuted statistics (the objective is piecewise constant).
    """
    i = records.position_index(DRIFT_POSITION)
    drift, perm = records.drift[:, i], records.perm[:, i]
    best = 0.0
    for b in np.unique(perm):
        best = max(best, float(np.mean((drift > b) & (perm <= b))))
    return best


def p_pa(records: EvalRecords, delta: float) -> float:
    """Probability that the statistic at the drift point beats the one at
    the displaced split (same fitted descriptor), i.e. localization power."""
    i = records.position_index(DRIFT_POSITION)
    j = records.position_index(DRIFT_POSITION + delta)
    return float(np.mean(records.drift[:, i] > records.drift[:, j]))


@dataclass(frozen=True)
class CellResult:
    dataset: str
    estimator: str
    p_perm: float | None
    p_thre: float | None
    p_pa: dict
    repetitions: int
    status: str = "ok"
    error: str | None = None
    params: dict = field(default_factory=dict)
    selected_from_sweep: bool = False


@dataclass(frozen=True)
class ResultTable:
    cells: tuple[CellResult, ...]
    config: ExperimentConfig
    metadata: dict

    def cell(self, dataset: str, estimator: str) -> CellResult:
        for c in self.cells:
            if c.dataset == dataset and c.estimator == estimator:
                return c
        raise KeyError((dataset, estimator))

    def write(self, out_dir) -> None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        deltas = sorted({round(p - DRIFT_POSITION, 9) for p in self.config.split_positions if p > DRIFT_POSITION})
        path = os.path.join(out_dir, "results.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["dataset", "estimator", "p_perm", "p_thre"]
            header += [f"p_pa_{d:g}" for d in deltas]
            header += ["repetitions", "status", "error"]
            writer.writerow(header)
            for c in self.cells:
                row = [c.dataset, c.estimator, _fmt(c.p_perm), _fmt(c.p_thre)]
                row += [_fmt(c.p_pa.get(d)) for d in deltas]
                row += [c.repetitions, c.status, c.error or ""]
                writer.writerow(row)
        with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True, default=str)


def _fmt(v) -> str:
    return "" if v is None else f"{v:.4f}"


def _effective_positions(positions, offset: float) -> np.ndarray:
    # positions are quoted on the no-offset scale; map them through the same
    # renormalization the offset removal applies to time
    if offset == 0.0:
        return np.asarray(positions, dtype=float)
    return (np.asarray(positions, dtype=float) - offset) / (1.0 - offset)


def collect_records(cfg: ExperimentConfig, dataset_id: str, estimator_id: str) -> EvalRecords:
    """Run all repetitions of one (dataset, estimator) cell.

    Repetitions run in blocks of REPETITION_BLOCK.  Each repetition draws its
    window pair, then its drift window's fit, then its permuted window's fit
    from its own generator, so blocking changes no draw.  A block draws all
    its pairs, fits the drift windows, then the permuted windows, and each
    descriptor is evaluated at every position and dropped before the next.
    """
    params = cfg.estimator_params.get(estimator_id, {})
    estimator = make_estimator(estimator_id, cfg.metric, params)
    reps = cfg.repetitions
    drift = np.empty((reps, len(cfg.split_positions)))
    perm = np.empty_like(drift)
    eff_positions = _effective_positions(cfg.split_positions, cfg.offset)
    ds_params = cfg.dataset_params.get(dataset_id, {})
    for start in range(0, reps, REPETITION_BLOCK):
        block = range(start, min(start + REPETITION_BLOCK, reps))
        rngs = [as_generator(derive_seed(cfg.seed, dataset_id, estimator_id, rep)) for rep in block]
        pairs = []
        for rng in rngs:
            before, after = make_concept_pair(dataset_id, rng, ds_params, cfg.noise_dims)
            pairs.append(make_paired(before, after, cfg.n, DRIFT_POSITION, cfg.offset, rng))
        drift_times = [pw.t0 for pw in pairs]
        for out, windows in ((drift, [pw.drifting for pw in pairs]), (perm, [pw.permuted for pw in pairs])):
            for rep, descriptor in zip(block, estimator.fit_each(windows, rngs, drift_times)):
                out[rep] = descriptor.statistics_at(eff_positions)
    return EvalRecords(cfg.split_positions, drift, perm)


def summarize(records: EvalRecords, cfg: ExperimentConfig, dataset_id: str, estimator_id: str, **extra) -> CellResult:
    deltas = sorted({round(p - DRIFT_POSITION, 9) for p in cfg.split_positions if p > DRIFT_POSITION})
    return CellResult(
        dataset=dataset_id,
        estimator=estimator_id,
        p_perm=p_perm(records),
        p_thre=p_thre(records),
        p_pa={d: p_pa(records, d) for d in deltas},
        repetitions=cfg.repetitions,
        params=dict(cfg.estimator_params.get(estimator_id, {})),
        **extra,
    )


def run_cell(cfg: ExperimentConfig, dataset_id: str, estimator_id: str) -> CellResult:
    try:
        records = collect_records(cfg, dataset_id, estimator_id)
        return summarize(records, cfg, dataset_id, estimator_id)
    except DriftBenchError as exc:  # incompatible cells are recorded, not fatal
        return CellResult(
            dataset=dataset_id,
            estimator=estimator_id,
            p_perm=None,
            p_thre=None,
            p_pa={},
            repetitions=cfg.repetitions,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            params=dict(cfg.estimator_params.get(estimator_id, {})),
        )


def run_cell_sweep(cfg: ExperimentConfig, dataset_id: str, estimator_id: str) -> CellResult:
    """Try the coarse parameter grid and keep the cell with the best p_thre."""
    best = None
    for params in SWEEP_GRIDS.get(estimator_id, [{}]):
        merged = dict(cfg.estimator_params.get(estimator_id, {}))
        merged.update(params)
        sub = replace(cfg, estimator_params={**cfg.estimator_params, estimator_id: merged})
        result = run_cell(sub, dataset_id, estimator_id)
        if result.status == "ok" and (best is None or result.p_thre > best.p_thre):
            best = replace(result, selected_from_sweep=True)
    return best if best is not None else run_cell(cfg, dataset_id, estimator_id)


def _cell_task(args):
    cfg, dataset_id, estimator_id, sweep = args
    runner = run_cell_sweep if sweep else run_cell
    return runner(cfg, dataset_id, estimator_id)


def run_grid(cfg: ExperimentConfig, threads: int = 1, sweep: bool = False, progress=None) -> ResultTable:
    """Run every (dataset, estimator) cell; deterministic given cfg.seed.

    ``threads`` > 1 distributes cells across processes; results are
    identical to a serial run because every repetition derives its own seed.
    ``progress(dataset, estimator, cell)`` is called once per cell, in task
    order.
    """
    tasks = [(cfg, d, e, sweep) for d in cfg.datasets for e in cfg.estimators]
    started = time.time()
    cells = []
    with contextlib.ExitStack() as stack:
        if threads > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=threads))
            results = pool.map(_cell_task, tasks)
        else:
            results = map(_cell_task, tasks)
        for task, cell in zip(tasks, results):
            cells.append(cell)
            if progress:
                progress(task[1], task[2], cell)
    metadata = {
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "elapsed_seconds": round(time.time() - started, 3),
        "sweep": sweep,
        "drift_position": DRIFT_POSITION,
        # the estimator parameters each cell ran with (a sweep picks them per cell)
        "cells": {
            f"{c.dataset}/{c.estimator}": {"params": c.params, "selected_from_sweep": c.selected_from_sweep}
            for c in cells
        },
    }
    return ResultTable(tuple(cells), cfg, metadata)


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _parse_bool(value: str) -> bool:
    parsed = _parse_scalar(value)
    if not isinstance(parsed, bool):
        raise ValueError(value)
    return parsed


#: Plain config keys and the parser of each value.
_CONFIG_PARSERS = {
    "datasets": _parse_list,
    "estimators": _parse_list,
    "split_positions": lambda value: tuple(float(v) for v in value.split(",")),
    "n": int,
    "noise_dims": int,
    "repetitions": int,
    "seed": int,
    "offset": float,
    "metric": str,
    "custom": _parse_bool,
}


def load_config(path) -> ExperimentConfig:
    """Parse a plain-text ``key = value`` config file.

    Lists are comma separated; estimator/dataset parameter overrides use
    dotted keys, e.g. ``estimator.rf.n_trees = 64`` or
    ``dataset.rhp.rotation_angle = 0.7854``.  A malformed line raises
    ``ParameterError`` naming ``path:line``.
    """
    kwargs: dict = {}
    overrides: dict = {"estimator": {}, "dataset": {}}
    unknown: set = set()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind, dotted, rest = key.partition(".")
        if dotted and kind in overrides:
            target, _, param = rest.partition(".")
            if not target or not param:
                raise ParameterError(f"{path}:{lineno}: expected '{kind}.<id>.<parameter> = value', got {key!r}")
            overrides[kind].setdefault(target, {})[param] = _parse_scalar(value)
        elif key in _CONFIG_PARSERS:
            try:
                kwargs[key] = _CONFIG_PARSERS[key](value)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
        else:
            unknown.add(key)
    if unknown:
        raise ParameterError(f"{path}: unknown config keys {sorted(unknown)}")
    return ExperimentConfig(estimator_params=overrides["estimator"], dataset_params=overrides["dataset"], **kwargs)


def _parse_scalar(value: str):
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
