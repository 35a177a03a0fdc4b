"""Command-line interface.

Subcommands:
  bench run     -- run an experiment grid from a config file
  bench detect  -- one-shot drift detection on a CSV stream
  bench tables  -- regenerate the benchmark tables for the synthetic datasets
  bench oracle  -- brute-force verification suites

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import DataError, ParameterError
from .detector import KnnKlEstimator, LddEstimator, classifier_tv_oracle, detect_drift, scan_splits
from .harness import (
    DESK_REPETITIONS,
    ESTIMATOR_BUILDERS,
    ExperimentConfig,
    load_config,
    make_estimator,
    run_grid,
)
from .histograms import CumulativeHistogram, recount_histograms
from .neighbor_kernel import (
    build_kernel_gram,
    knn_kl_reference,
    ldd_reference,
    mmd_biased_reference,
    mmds_from_gram,
)
from .partitions import build_random_tree
from .seeding import as_generator
from .windows import Window, window_from_csv

USAGE_ERROR, DATA_ERROR, INVARIANT_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _count(text: str) -> int:
    """A count of worker processes or trials: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench", description="Drift detection estimator benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid from a config file")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--reps", type=int, default=None, help="override repetition count")
    run.add_argument("--threads", type=_count, default=1, help="parallel worker processes")
    run.add_argument("--sweep", action="store_true", help="coarse hyperparameter sweep, keep best p_thre")

    detect = sub.add_parser("detect", help="one-shot drift detection on a CSV stream")
    detect.add_argument("--csv", required=True, help="CSV file (header required)")
    detect.add_argument("--estimator", required=True, choices=sorted(ESTIMATOR_BUILDERS))
    detect.add_argument("--perms", type=int, default=99, help="permutation replicates")
    detect.add_argument("--metric", default="tv", help="histogram metric for binning/tree estimators")
    detect.add_argument("--alpha", type=float, default=0.05)
    detect.add_argument("--seed", type=int, default=0)

    tables = sub.add_parser("tables", help="regenerate benchmark tables on the synthetic datasets")
    tables.add_argument("--out", required=True, help="output directory")
    tables.add_argument("--reps", type=int, default=DESK_REPETITIONS)
    tables.add_argument("--threads", type=_count, default=1)
    tables.add_argument("--seed", type=int, default=0)

    oracle = sub.add_parser("oracle", help="run the brute-force verification suites")
    oracle.add_argument("--trials", type=_count, default=100)
    oracle.add_argument("--seed", type=int, default=0)
    return parser


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    table = run_grid(cfg, threads=args.threads, sweep=args.sweep, progress=_print_cell)
    table.write(args.out)
    print(f"wrote {args.out}/results.csv ({len(table.cells)} cells)")
    return 0


def _print_cell(dataset, estimator, cell):
    if cell.status == "ok":
        print(f"{dataset:>10} {estimator:>8}  p_perm={cell.p_perm:.3f}  p_thre={cell.p_thre:.3f}")
    else:
        print(f"{dataset:>10} {estimator:>8}  FAILED: {cell.error}")


def cmd_detect(args) -> int:
    w = window_from_csv(args.csv)
    estimator = make_estimator(args.estimator, args.metric)
    verdict = detect_drift(estimator, w, n_perms=args.perms, alpha=args.alpha, seed=args.seed)
    drift_index = w.rank_of(verdict.t_hat)
    print(f"estimator        : {estimator.name}")
    print(f"samples          : {len(w)} (dim {w.dim})")
    print(f"estimated change : t={verdict.t_hat:.4f} (after sample {drift_index} of {len(w)})")
    print(f"max statistic    : {verdict.max_stat:.6f}")
    print(f"permutation p    : {verdict.p_value:.4f} ({args.perms} permutations)")
    print(f"drift detected   : {'yes' if verdict.detected else 'no'} (alpha={args.alpha})")
    return 0


def cmd_tables(args) -> int:
    cfg = ExperimentConfig(repetitions=args.reps, seed=args.seed)
    table = run_grid(cfg, threads=args.threads, progress=_print_cell)
    table.write(args.out)
    print(f"wrote {args.out}/results.csv and metadata.json")
    return 0


def cmd_oracle(args) -> int:
    rng = as_generator(args.seed)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(30, 200))
        w = Window(rng.normal(size=(n, 2)), np.sort(rng.uniform(0, 1, n)))
        tree = build_random_tree(w, n_leaves=int(rng.integers(2, 9)), seed=rng, min_leaf=2)
        t = float(np.quantile(w.t, rng.uniform(0.2, 0.8)))
        cells = tree.cell_of(w.x)
        after = w.t > t
        if after.sum() == 0 or (~after).sum() == 0:
            continue
        hb = np.bincount(cells[~after], minlength=tree.n_cells) / (~after).sum()
        ha = np.bincount(cells[after], minlength=tree.n_cells) / after.sum()
        tv = 0.5 * np.abs(hb - ha).sum()
        adv = classifier_tv_oracle(tree, w, t)
        worst = max(worst, abs(adv - 0.5 * tv))
    report("classifier advantage equals TV/2", worst <= 1e-12, f"max |diff| = {worst:.2e}")

    worst = 0.0
    for _ in range(max(args.trials // 5, 10)):
        nb, na = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        x = rng.normal(size=(nb + na, int(rng.integers(1, 4))))
        t = np.sort(rng.uniform(0, 1, nb + na))
        gram = build_kernel_gram(Window(x, t))
        fast = mmds_from_gram(gram, [nb])[0]
        slow = mmd_biased_reference(x[:nb], x[nb:], gram.sigma)
        worst = max(worst, abs(fast - slow))
    report("MMD block sums equal double loop", worst <= 1e-10, f"max |diff| = {worst:.2e}")

    worst = 0.0
    for _ in range(max(args.trials // 5, 10)):
        n = int(rng.integers(60, 160))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        x[n // 2 :] += rng.uniform(0.5, 2.0)
        w = Window(x, np.sort(rng.uniform(0, 1, n)))
        k = int(rng.integers(1, 6))
        verdict = scan_splits(KnnKlEstimator(k), w)
        for t, fast in zip(verdict.split_times, verdict.statistics):
            i = w.rank_of(t)
            slow = knn_kl_reference(w.x[:i], w.x[i:], k)
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1.0))
    # the graph's Gram-expansion distances lose digits on close pairs,
    # about 3e-9 on 1-D windows of this size
    report("kNN-KL sweep equals per-side distances", worst <= 1e-7, f"max diff / max(1, |ref|) = {worst:.2e}")

    worst = 0.0
    for _ in range(max(args.trials // 5, 10)):
        n = int(rng.integers(60, 160))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        x[n // 2 :] += rng.uniform(0.5, 2.0)
        w = Window(x, np.sort(rng.uniform(0, 1, n)))
        k = int(rng.integers(1, 11))
        verdict = scan_splits(LddEstimator(k), w)
        for j in rng.choice(len(verdict.split_times), 5):
            i = w.rank_of(verdict.split_times[j])
            worst = max(worst, abs(verdict.statistics[j] - ldd_reference(w.x[:i], w.x[i:], k)))
    report("LDD top-k lists equal direct recount", worst <= 1e-12, f"max |diff| = {worst:.2e}")

    exact = True
    for _ in range(max(args.trials // 5, 10)):
        n = int(rng.integers(10, 120))
        n_cells = int(rng.integers(2, 17))
        cells = rng.integers(0, n_cells, n)
        times = np.sort(rng.uniform(0, 1, n))
        ch = CumulativeHistogram(cells, times, n_cells)
        for t in np.unique(times)[:-1]:
            before, after = ch.counts_at(t)
            rb, ra = recount_histograms(cells, times, n_cells, float(t))
            if not (np.array_equal(before, rb) and np.array_equal(after, ra)):
                exact = False
    report("prefix counts equal recount", exact)

    if failures:
        print(f"{failures} oracle check(s) failed")
        return INVARIANT_ERROR
    print("all oracle checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "detect": cmd_detect, "tables": cmd_tables, "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
