"""Experiment engine: paired drift/permuted repetitions and the empirical
upper bounds p_perm, p_thre and p_pa over a dataset x estimator grid.

Each repetition samples a window with one abrupt drift at 50% plus its
timestamp-permuted counterpart, fits one descriptor per window and
evaluates the statistic at all configured split positions.  Repetitions
use seeds derived from (master seed, dataset, estimator, index), so grids
are reproducible and order-independent; a cell runs them in blocks, which
lets the moment forests of a block grow in lockstep.

``run_cell`` builds every cell's ``CellResult``, ok or failed, swept or
not, and ``run_grid`` maps it over the grid.

Config names and value types are checked from the builders' signatures
before any cell runs; a value that needs data or a fit fails its cells.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .detector import (
    Estimator,
    dt_estimator,
    grid_estimator,
    kdq_tree_estimator,
    knn_kl_estimator,
    ldd_estimator,
    marginal_estimator,
    mmd_estimator,
    pca_projection_estimator,
    random_projection_estimator,
    random_tree_estimator,
    rf_estimator,
)
from .errors import DriftBenchError, ParameterError, as_int
from .generators import csv_concept_pair, rbf_pair, rhp_pair, sea_pair, stagger_pair, with_noise
from .histograms import _check_metric
from .seeding import as_generator, derive_seed
from .windows import make_paired

GRID_POSITIONS = (0.50, 0.53, 0.56, 0.62, 0.75)
DRIFT_POSITION = 0.50
DESK_REPETITIONS = 200
#: Repetitions of a cell drawn and fitted together (moment forests grow in
#: lockstep across a block).
REPETITION_BLOCK = 16


ESTIMATOR_BUILDERS = {
    "marg": marginal_estimator,
    "rnd_pj": random_projection_estimator,
    "pca": pca_projection_estimator,
    "grid": grid_estimator,
    "rnd_tree": random_tree_estimator,
    "kdq": kdq_tree_estimator,
    "rf": rf_estimator,
    "dt": dt_estimator,
    "mmd": mmd_estimator,
    "ldd": ldd_estimator,
    "knn_kl": knn_kl_estimator,
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


DATASET_BUILDERS = {"sea": sea_pair, "stagger": stagger_pair, "rbf": rbf_pair, "rhp": rhp_pair, "csv": csv_concept_pair}

#: Each builder table, and the parameter the harness passes a builder that takes it.
_BUILDERS = {"estimator": (ESTIMATOR_BUILDERS, "metric"), "dataset": (DATASET_BUILDERS, "seed")}


@functools.cache
def _settable(builder, *supplied) -> tuple[inspect.Signature, bool]:
    """``builder``'s signature less ``supplied``, annotations evaluated, and
    whether it takes any of ``supplied``; resolved once per builder."""
    sig = inspect.signature(builder, eval_str=True)
    rest = [p for p in sig.parameters.values() if p.name not in supplied]
    return sig.replace(parameters=rest), len(rest) < len(sig.parameters)


def _check(kind: str, builder_id: str, params: dict, partial: bool = False):
    """Builder ``builder_id``'s settable signature and a call of it with ``params``
    and the harness's value, once ``params`` bind to it (in part, with ``partial``)."""
    builders, supplied = _BUILDERS[kind]
    if builder_id not in builders:
        raise ParameterError(f"unknown {kind} {builder_id!r}; known: {sorted(builders)}")
    sig, takes_supplied = _settable(builders[builder_id], supplied)
    try:
        (sig.bind_partial if partial else sig.bind)(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {kind} {builder_id!r}: {exc}") from None
    return sig, lambda value: builders[builder_id](**params, **({supplied: value} if takes_supplied else {}))


def make_estimator(estimator_id: str, metric: str = "tv", params: dict | None = None) -> Estimator:
    _, build = _check("estimator", estimator_id, params or {})
    # the neighbor and kernel estimators ignore the metric; a misspelt one is still an error
    _check_metric(metric)
    return build(metric)


def make_concept_pair(dataset_id: str, rng, params: dict | None = None, noise_dims: int = 0):
    _, build = _check("dataset", dataset_id, params or {})
    before, after = build(rng)
    if noise_dims:
        before, after = with_noise(before, noise_dims), with_noise(after, noise_dims)
    return before, after


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid run: datasets x estimators at fixed window settings.

    Every value is checked here, before any cell runs, except what only a
    drawn window shows: a split position that maps before the window's
    first sample fails its cell with ``InvalidSplitError``, and the run goes
    on (``bench run`` exits 0, the error in the cell's row).
    """

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

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "split_positions", tuple(float(p) for p in self.split_positions))
        for name, low in (("n", 4), ("repetitions", 1), ("noise_dims", 0), ("seed", None)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), low))
        if not self.datasets or not self.estimators:
            raise ParameterError("datasets and estimators must each list at least one id")
        # derive_seed keeps 32 bits, so any other seed would alias one of these
        if not 0 <= self.seed < 2**32:
            raise ParameterError(f"bad seed {self.seed!r}: must lie in [0, 2**32)")
        # a bad id or parameter fails here, before any cell: a dataset by its
        # signature (building it may read a file), an estimator by construction
        for dataset_id in dict.fromkeys([*self.datasets, *self.dataset_params]):
            _check("dataset", dataset_id, self.dataset_params.get(dataset_id, {}))
        for estimator_id in dict.fromkeys([*self.estimators, *self.estimator_params]):
            make_estimator(estimator_id, self.metric, self.estimator_params.get(estimator_id))
        if DRIFT_POSITION not in self.split_positions:
            raise ParameterError(f"split_positions must include the drift position {DRIFT_POSITION}")
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


def _pa_deltas(positions) -> list[float]:
    """The displacements ``p_pa`` is reported at: each position after the
    drift point less the drift point, rounded so that float noise cannot
    split one delta in two."""
    return sorted({round(p - DRIFT_POSITION, 9) for p in positions if p > DRIFT_POSITION})


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
        deltas = _pa_deltas(self.config.split_positions)
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
    return (np.asarray(positions, dtype=float) - offset) / (1.0 - offset)


def collect_records(cfg: ExperimentConfig, dataset_id: str, estimator_id: str, params: dict | None = None) -> EvalRecords:
    """Run all repetitions of one (dataset, estimator) cell with estimator
    ``params`` (default: the configured ones).

    Repetitions run in blocks of REPETITION_BLOCK.  Each repetition draws its
    window pair, then its drift window's fit, then its permuted window's fit
    from its own generator, so blocking changes no draw.  A block draws all
    its pairs, fits the drift windows, then the permuted windows, and each
    descriptor is evaluated at every position and dropped before the next.
    """
    if params is None:
        params = cfg.estimator_params.get(estimator_id)
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
        for out, windows in ((drift, [pw.drifting for pw in pairs]), (perm, [pw.permuted for pw in pairs])):
            for rep, descriptor in zip(block, estimator.fit_each(windows, rngs)):
                out[rep] = descriptor.statistics_at(eff_positions)
    return EvalRecords(cfg.split_positions, drift, perm)


def run_cell(cfg: ExperimentConfig, dataset_id: str, estimator_id: str, sweep: bool = False) -> CellResult:
    """Run one (dataset, estimator) cell, or with ``sweep`` each of its
    ``SWEEP_GRIDS`` sets merged over the configured parameters; an
    incompatible cell is recorded as failed, not raised."""
    configured = cfg.estimator_params.get(estimator_id, {})
    sets = [{**configured, **p} for p in SWEEP_GRIDS.get(estimator_id, [{}])] if sweep else [dict(configured)]
    deltas = _pa_deltas(cfg.split_positions)
    cells = []
    for params in sets:
        try:
            records = collect_records(cfg, dataset_id, estimator_id, params)
            cells.append(CellResult(
                dataset_id, estimator_id, p_perm(records), p_thre(records), {d: p_pa(records, d) for d in deltas},
                cfg.repetitions, params=params, selected_from_sweep=sweep,
            ))
        except DriftBenchError as exc:  # incompatible cells are recorded, not fatal
            cells.append(CellResult(
                dataset_id, estimator_id, None, None, {}, cfg.repetitions,
                status="failed", error=f"{type(exc).__name__}: {exc}", params=params,
            ))
    # the first set with the highest p_thre; when every set fails, the first set's failure
    return max((c for c in cells if c.status == "ok"), key=lambda c: c.p_thre, default=cells[0])


def run_grid(cfg: ExperimentConfig, threads: int = 1, sweep: bool = False, progress=None) -> ResultTable:
    """Run every (dataset, estimator) cell; deterministic given cfg.seed.

    ``threads`` > 1 distributes cells across processes; results are
    identical to a serial run because every repetition derives its own seed.
    ``progress(dataset, estimator, cell)`` is called once per cell, in task
    order.
    """
    datasets = [d for d in cfg.datasets for _ in cfg.estimators]
    estimators = [e for _ in cfg.datasets for e in cfg.estimators]
    run = functools.partial(run_cell, cfg, sweep=sweep)
    started = time.perf_counter()
    cells = []
    with contextlib.ExitStack() as stack:
        if threads > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=threads))
            results = pool.map(run, datasets, estimators)
        else:
            results = map(run, datasets, estimators)
        for cell in results:
            cells.append(cell)
            if progress:
                progress(cell.dataset, cell.estimator, cell)
    metadata = {
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "sweep": sweep,
        "drift_position": DRIFT_POSITION,
        # the estimator parameters each cell ran with (a sweep picks them per cell)
        "cells": {
            f"{c.dataset}/{c.estimator}": {"params": c.params, "selected_from_sweep": c.selected_from_sweep}
            for c in cells
        },
    }
    return ResultTable(tuple(cells), cfg, metadata)


def _parse(text: str, param: inspect.Parameter):
    """Config text as ``param``'s type: its annotation, else its default's.
    A tuple is a comma list of its element type; a union takes the first
    member the text parses as."""
    kind = param.annotation if param.annotation is not param.empty else type(param.default)
    if getattr(kind, "__origin__", None) is tuple:
        return tuple(_parse(v.strip(), param.replace(annotation=kind.__args__[0])) for v in text.split(",") if v.strip())
    for member in getattr(kind, "__args__", (kind,)):
        if member is not type(None):
            with contextlib.suppress(ValueError):
                return member(text)
    raise ValueError(f"{text!r} is not {getattr(kind, '__name__', kind)}")


def load_config(path) -> ExperimentConfig:
    """Parse a plain-text ``key = value`` config file.

    Lists are comma separated; estimator/dataset parameter overrides use
    dotted keys, e.g. ``estimator.rf.n_trees = 64`` or
    ``dataset.rhp.rotation_angle = 0.7854``; a value takes its field's or
    parameter's type.  A bad line, name or type, an empty list, or a key set
    a second time raises ``ParameterError`` naming ``path:line``.
    """
    kwargs: dict = {}
    seen: dict = {}
    overrides: dict = {"estimator": {}, "dataset": {}}
    fields = _settable(ExperimentConfig, "estimator_params", "dataset_params")[0].parameters
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
        try:
            if key in seen:
                raise ParameterError(f"{key!r} is already set on line {seen[key]}")
            seen[key] = lineno
            if dotted and kind in overrides:
                target, _, name = rest.partition(".")
                if not target or not name:
                    raise ParameterError(f"expected '{kind}.<id>.<parameter> = value', got {key!r}")
                sig, _ = _check(kind, target, {name: value}, partial=True)
                overrides[kind].setdefault(target, {})[name] = _parse(value, sig.parameters[name])
            elif key in fields:
                kwargs[key] = _parse(value, fields[key])
                if kwargs[key] == ():
                    raise ParameterError(f"empty list for {key!r}")
            else:
                raise ParameterError(f"unknown config key {key!r}; known: {sorted(fields)}")
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(estimator_params=overrides["estimator"], dataset_params=overrides["dataset"], **kwargs)
