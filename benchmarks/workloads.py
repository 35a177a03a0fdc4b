"""The benchmark's three workloads: seeded inputs, a fixed list of calls into
driftbench, and an output check for every call.

Each workload is a closed loop with one caller.  A *call* is one invocation
of the public API; it completes one or more *items* (the unit of
``items_per_s``).  A *pass* runs every call of the workload once, in a fixed
order.  Checks recompute results by a route that does not share the fast
path under test (prefix counts, cached block sums, neighbor orderings).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from driftbench import cli, detector, harness, histograms, neighbor_kernel
from driftbench.generators import rbf_pair, sea_pair
from driftbench.windows import make_paired, window_from_csv


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


@dataclass
class Call:
    """One timed call into driftbench plus its output check.

    ``check`` returns the number of failed items in the output (raising
    ``CheckFailed`` fails them all); it runs on the first pass.  Later
    passes must reproduce the first pass's output exactly (``same``).
    """

    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], int]
    same: Callable[[object, object], bool]


@dataclass(frozen=True)
class Size:
    """Input sizes of all workloads; ``TINY`` is for the benchmark's own tests."""

    detect_n: int = 150
    detect_perms: int = 99
    grid_n: int = 150
    grid_reps: int = 30
    large_n: int = 2000
    knn_kl_n: int = 1000
    large_checks: int = 3


FULL = Size()
TINY = Size(detect_n=60, detect_perms=19, grid_n=60, grid_reps=1, large_n=200, knn_kl_n=120, large_checks=2)

ESTIMATORS = tuple(sorted(harness.ESTIMATOR_BUILDERS))
LARGE_WINDOW_ESTIMATORS = ("marg", "rnd_tree", "kdq", "rf", "mmd", "ldd", "knn_kl")
#: partition estimators whose binning is deterministic, so a refit gives the
#: cells the CLI used
RECOUNT_ESTIMATORS = ("marg", "grid", "kdq", "pca")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _drift_window(before, after, n, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_paired(before, after, n, 0.5, seed=rng).drifting


def _min_side(n: int) -> int:
    # the documented default margin of candidate_split_times
    return max(25, math.ceil(0.05 * n))


# ---------------------------------------------------------------------------
# independent recomputations


def _tv(before: np.ndarray, after: np.ndarray) -> float:
    return 0.5 * float(np.abs(before / before.sum() - after / after.sum()).sum())


def _recount_statistics(estimator, w, seed, split_ts) -> list[float]:
    """Partition statistic at each split from a from-scratch recount of the
    cells of a refitted descriptor (max over binnings, mean over trees)."""
    desc = estimator.fit(w, seed)
    if hasattr(desc, "forest"):
        parts, aggregate = desc.forest.trees, np.mean
    else:
        parts, aggregate = desc.partitions, np.max
    cells = [(p.cell_of(w.x), p.n_cells) for p in parts]
    out = []
    for s in split_ts:
        values = [_tv(*histograms.recount_histograms(c, w.t, n_cells, float(s))) for c, n_cells in cells]
        out.append(float(aggregate(values)))
    return out


def _row_blocks(n: int, size: int = 256):
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def _median_distance(x: np.ndarray) -> float:
    """Median distance over pairs i < j (the median-heuristic bandwidth)."""
    vals = []
    for lo, hi in _row_blocks(len(x)):
        upper = np.arange(len(x))[None, :] > np.arange(lo, hi)[:, None]
        vals.append(_distances(x[lo:hi], x)[upper])
    return float(np.median(np.concatenate(vals)))


def _mmd_blocks(x: np.ndarray, ranks, sigma: float) -> list[float]:
    """Biased MMD at each before-side size in ``ranks``, from kernel sums
    accumulated over row blocks."""
    n = len(x)
    bb = np.zeros(len(ranks))
    cross = np.zeros(len(ranks))
    aa = np.zeros(len(ranks))
    for lo, hi in _row_blocks(n):
        K = np.exp(-(_distances(x[lo:hi], x) ** 2) / (2.0 * sigma**2))
        rows = np.arange(lo, hi)
        for j, m in enumerate(ranks):
            top, bottom = K[rows < m], K[rows >= m]
            bb[j] += top[:, :m].sum()
            cross[j] += top[:, m:].sum()
            aa[j] += bottom[:, m:].sum()
    out = []
    for j, m in enumerate(ranks):
        mmd2 = bb[j] / m**2 + aa[j] / (n - m) ** 2 - 2.0 * cross[j] / (m * (n - m))
        out.append(math.sqrt(max(mmd2, 0.0)))
    return out


def _ldd(x: np.ndarray, t: np.ndarray, k: int, split_ts) -> list[float]:
    n = len(x)
    neighbors = np.empty((n, k), dtype=np.int64)
    for lo, hi in _row_blocks(n):
        d = _distances(x[lo:hi], x)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        neighbors[lo:hi] = np.argsort(d, axis=1, kind="stable")[:, :k]
    out = []
    for s in split_ts:
        before = t <= s
        n_b = int(before.sum())
        k_b = before[neighbors].sum(axis=1)
        delta = (n_b / (n - n_b)) * ((k - k_b) / np.maximum(k_b, 1)) - 1.0
        out.append(float(np.minimum(np.abs(delta), neighbor_kernel.LDD_CAP).mean()))
    return out


def _knn_kl(x: np.ndarray, t: np.ndarray, k: int, split_ts) -> list[float]:
    floor = neighbor_kernel.DISTANCE_FLOOR
    out = []
    for s in split_ts:
        before = t <= s
        xb, xa = x[before], x[~before]
        n_b, n_a = len(xb), len(xa)
        same = _distances(xb, xb)
        np.fill_diagonal(same, np.inf)
        rho = np.maximum(np.partition(same, k - 1, axis=1)[:, k - 1], floor)
        nu = np.maximum(np.partition(_distances(xb, xa), k - 1, axis=1)[:, k - 1], floor)
        est = (x.shape[1] / n_b) * np.log(nu / rho).sum() + math.log(n_a / (n_b - 1))
        out.append(max(float(est), 0.0))
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# detect: the CLI on two CSV windows, every estimator, P = 99 permutations

_OUT_T = re.compile(r"estimated change : t=([0-9.]+) \(after sample (\d+) of (\d+)\)")
_OUT_STAT = re.compile(r"max statistic    : ([0-9.eE+-]+)")
_OUT_P = re.compile(r"permutation p    : ([0-9.]+) \((\d+) permutations\)")


def _write_csv(path: Path, w, feature_names) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([*feature_names, "t"])
        for row, t in zip(w.x, w.t):
            cells = [repr(float(v)) for v in row]
            if w.label_feature_appended:
                cells[-1] = str(int(row[-1]))
            out.writerow([*cells, repr(float(t))])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_detect(output, w, estimator_id: str, cli_seed: int, perms: int) -> int:
    code, text = output
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    m_t, m_stat, m_p = _OUT_T.search(text), _OUT_STAT.search(text), _OUT_P.search(text)
    if not (m_t and m_stat and m_p):
        raise CheckFailed(f"unparsable output: {text!r}")
    p, printed_perms = float(m_p.group(1)), int(m_p.group(2))
    b = round(p * (perms + 1)) - 1
    if printed_perms != perms or not 0 <= b <= perms or abs(p - (1 + b) / (perms + 1)) > 5e-5:
        raise CheckFailed(f"p={p} is not on the (1+b)/{perms + 1} lattice")
    rank, n = int(m_t.group(2)), int(m_t.group(3))
    margin = _min_side(n)
    if n != len(w) or not margin <= rank <= n - margin or w.t[rank - 1] >= w.t[rank]:
        raise CheckFailed(f"split after sample {rank} is not a candidate split")
    t_hat = float(w.t[rank - 1])
    if abs(t_hat - float(m_t.group(1))) > 5e-5:
        raise CheckFailed(f"printed t={m_t.group(1)} is not the time of sample {rank}")
    max_stat = float(m_stat.group(1))
    if estimator_id in RECOUNT_ESTIMATORS:
        expected = _recount_statistics(harness.make_estimator(estimator_id), w, cli_seed, [t_hat])[0]
    elif estimator_id == "mmd":
        expected = neighbor_kernel.mmd_biased_reference(w.x[:rank], w.x[rank:], _median_distance(w.x))
    else:
        return 0
    if abs(expected - max_stat) > 5e-7 + 1e-9 * abs(expected):
        raise CheckFailed(f"max statistic {max_stat} != recomputed {expected:.9f}")
    return 0


def detect_setup(seed: int, workdir: Path, size: Size = FULL):
    """Write the two CSV windows and return the 22 CLI calls."""
    rng = _rng(seed, 1)
    drift = _drift_window(*rbf_pair(2, 5, rng), size.detect_n, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        null = _drift_window(*sea_pair(0, 0), size.detect_n, rng)
    sources = {
        "drift_rbf": (drift, ["x0", "x1"]),
        "null_sea": (null, ["f0", "f1", "f2", "label"]),
    }
    calls = []
    for name, (w, columns) in sources.items():
        path = workdir / f"{name}.csv"
        _write_csv(path, w, columns)
        ingested = window_from_csv(path)
        for estimator_id in ESTIMATORS:
            cli_seed = seed * 1000 + len(calls)
            argv = ["detect", "--csv", str(path), "--estimator", estimator_id,
                    "--perms", str(size.detect_perms), "--seed", str(cli_seed)]
            calls.append(Call(
                label=f"{estimator_id}@{name}",
                items=1,
                run=lambda argv=argv: _run_cli(argv),
                check=lambda out, w=ingested, e=estimator_id, s=cli_seed: _check_detect(out, w, e, s, size.detect_perms),
                same=lambda a, b: a == b,
            ))
    return calls


def detect_warm_up(workdir: Path) -> None:
    """Fit and scan every estimator once on a small window, and run the CLI
    once on it."""
    rng = _rng(0, 99)
    w = _drift_window(*rbf_pair(2, 5, rng), 60, rng)
    for estimator_id in ESTIMATORS:
        detector.scan_splits(harness.make_estimator(estimator_id), w, 0)
    path = workdir / "warm_up.csv"
    _write_csv(path, w, ["x0", "x1"])
    code, _ = _run_cli(["detect", "--csv", str(path), "--estimator", "marg", "--perms", "19"])
    if code != 0:
        raise RuntimeError(f"warm-up detect exited with {code}")


# ---------------------------------------------------------------------------
# grid: the desk grid of the tables at 30 repetitions, one run_grid per cell


def _grid_config(seed: int, n: int, reps: int, datasets=harness.TABLE_DATASETS, estimators=harness.TABLE_ESTIMATORS):
    return harness.ExperimentConfig(
        datasets=datasets,
        estimators=estimators,
        n=n,
        split_positions=harness.GRID_POSITIONS,
        repetitions=reps,
        seed=seed,
    )


def _check_grid(table, reps: int) -> int:
    failed = 0
    for cell in table.cells:
        values = [cell.p_perm, cell.p_thre, *cell.p_pa.values()]
        ok = cell.status == "ok" and all(v is not None and 0.0 <= v <= 1.0 for v in values)
        failed += 0 if ok else reps
    return failed


def grid_setup(seed: int, workdir: Path, size: Size = FULL):
    """One call per (dataset, estimator) cell of the table grid.

    Repetition seeds derive from (seed, dataset, estimator, repetition), so
    a one-cell run_grid computes exactly that cell of the full grid.
    """
    calls = []
    for dataset in harness.TABLE_DATASETS:
        for estimator_id in harness.TABLE_ESTIMATORS:
            cfg = _grid_config(seed, size.grid_n, size.grid_reps, (dataset,), (estimator_id,))
            calls.append(Call(
                label=f"{estimator_id}@{dataset}",
                items=cfg.repetitions,
                run=lambda cfg=cfg: harness.run_grid(cfg, threads=1),
                check=lambda table, reps=cfg.repetitions: _check_grid(table, reps),
                same=lambda a, b: a.cells == b.cells,
            ))
    return calls


def grid_warm_up(workdir: Path) -> None:
    table = harness.run_grid(_grid_config(0, 60, 1), threads=1)
    if any(cell.status != "ok" for cell in table.cells):
        raise RuntimeError("warm-up grid has failed cells")


# ---------------------------------------------------------------------------
# large_window: scans over every margin-safe split of one large window


def _check_scan(verdict, estimator, w, seed: int, n_checks: int) -> int:
    ts = verdict.split_times
    picks = np.unique(np.linspace(0, len(ts) - 1, n_checks + 2).round().astype(int)[1:-1])
    picks = np.append(picks, int(np.argmax(verdict.statistics)))
    split_ts = ts[picks]
    if estimator.name == "mmd":
        ranks = [int(np.searchsorted(w.t, s, side="right")) for s in split_ts]
        expected = _mmd_blocks(w.x, ranks, _median_distance(w.x))
    elif estimator.name == "ldd":
        expected = _ldd(w.x, w.t, estimator.k, split_ts)
    elif estimator.name == "knn_kl":
        expected = _knn_kl(w.x, w.t, estimator.k, split_ts)
    else:
        expected = _recount_statistics(estimator, w, seed, split_ts)
    got = verdict.statistics[picks]
    bad = [(float(s), g, e) for s, g, e in zip(split_ts, got, expected) if not _close(float(g), e)]
    if bad:
        raise CheckFailed(f"{estimator.name}: statistic != recomputation at {bad}")
    if verdict.t_hat != ts[np.argmax(verdict.statistics)] or verdict.max_stat != verdict.statistics.max():
        raise CheckFailed(f"{estimator.name}: t_hat/max_stat is not the arg-max of the trace")
    return 0


def _same_verdict(a, b) -> bool:
    return (a.t_hat == b.t_hat and a.max_stat == b.max_stat
            and np.array_equal(a.statistics, b.statistics) and np.array_equal(a.split_times, b.split_times))


def large_window_setup(seed: int, workdir: Path, size: Size = FULL):
    rng = _rng(seed, 3)
    concepts = rbf_pair(4, 5, rng)
    large = _drift_window(*concepts, size.large_n, rng)
    small = _drift_window(*concepts, size.knn_kl_n, rng)
    calls = []
    for estimator_id in LARGE_WINDOW_ESTIMATORS:
        w = small if estimator_id == "knn_kl" else large
        est = harness.make_estimator(estimator_id)
        scan_seed = seed * 1000 + len(calls)
        calls.append(Call(
            label=f"{estimator_id}@n={len(w)}",
            items=1,
            run=lambda est=est, w=w, s=scan_seed: detector.scan_splits(est, w, s),
            check=lambda v, est=est, w=w, s=scan_seed: _check_scan(v, est, w, s, size.large_checks),
            same=_same_verdict,
        ))
    return calls


def large_window_warm_up(workdir: Path) -> None:
    rng = _rng(0, 99)
    w = _drift_window(*rbf_pair(4, 5, rng), 200, rng)
    for estimator_id in LARGE_WINDOW_ESTIMATORS:
        detector.scan_splits(harness.make_estimator(estimator_id), w, 0)


@dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir, size)`` makes the inputs and returns the calls;
    ``warm_up(workdir)`` runs before timing."""

    setup: Callable
    warm_up: Callable


WORKLOADS = {
    "detect": Workload(detect_setup, detect_warm_up),
    "grid": Workload(grid_setup, grid_warm_up),
    "large_window": Workload(large_window_setup, large_window_warm_up),
}
