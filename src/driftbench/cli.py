"""Command-line interface.

Subcommands:
  bench run     -- run an experiment grid from a config file
  bench detect  -- one-shot drift detection on a CSV stream
  bench tables  -- regenerate the benchmark tables for the synthetic datasets

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import DataError, ParameterError
from .detector import detect_drift
from .harness import (
    DESK_REPETITIONS,
    ESTIMATOR_BUILDERS,
    ExperimentConfig,
    load_config,
    make_estimator,
    run_grid,
)
from .windows import window_from_csv

USAGE_ERROR, DATA_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _count(text: str) -> int:
    """A count of worker processes: an integer of at least 1."""
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "detect": cmd_detect, "tables": cmd_tables}
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
