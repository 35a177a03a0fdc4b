#!/usr/bin/env python3
"""driftbench benchmark.

    python3 benchmarks/run.py --workload detect --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 7          # every workload

Runs one workload (see README.md) in this process, single-threaded: set-up
(a fresh-interpreter import, input generation and warm-up, repeated
SETUP_REPEATS times), then whole passes over the workload's calls until the
next pass would end after ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Results
and spans are also written under .bench_build/driftbench/.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS; must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "driftbench"
WORKLOAD_NAMES = ("detect", "grid", "large_window")
SETUP_REPEATS = 5

#: Median of reference_seconds() on the machine the benchmark was defined on
#: (2 vCPUs, x86-64 at 2.0 GHz, Python 3.11.7, numpy 2.4.6 with OpenBLAS).
REFERENCE_NOMINAL_S = 0.030
_REFERENCE_ARRAY = np.random.default_rng(0).normal(size=(500, 500))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """Commit of a checkout that is a git repository, else None (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "driftbench").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# machine speed


def reference_seconds() -> float:
    """Time of a fixed computation that does not touch driftbench.

    Half of it is an interpreter-bound Python loop, half sorts of a 2 MB
    array already in cache.  It runs before every call, and after the last,
    so that each call is bracketed by two samples; their mean over
    REFERENCE_NOMINAL_S is the machine's slowdown during the call.
    """
    _REFERENCE_ARRAY.sum()  # bring the array into cache: the previous call may have evicted it
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(3):
        np.argsort(_REFERENCE_ARRAY, axis=1)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up and timed passes


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing driftbench."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import driftbench", str(SRC)],
        check=True, stdin=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - start


def at_nominal_speed(seconds: list[float], references: list[float]) -> list[float]:
    """Each time divided by the slowdown measured around it: ``references``
    holds one sample before each time and one after the last."""
    return [s * 2.0 * REFERENCE_NOMINAL_S / (references[i] + references[i + 1]) for i, s in enumerate(seconds)]


def set_up(workload, seed: int, workdir: Path, size):
    """Times of SETUP_REPEATS set-ups, the reference samples around them,
    and the calls of the last set-up."""
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        import_s = _import_seconds()
        start = time.perf_counter()
        calls = workload.setup(seed, workdir, size)
        workload.warm_up(workdir)
        times.append(import_s + time.perf_counter() - start)
    references.append(reference_seconds())
    return times, references, calls


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.busy = 0.0
        self.wall = 0.0
        self.items = 0
        self.failed = 0
        self.call_s: list[float] = []
        self.reference_s: list[float] = []

    @property
    def raw_rate(self) -> float:
        return self.items / self.busy

    @property
    def calibrated_rate(self) -> float:
        """Items per second at the nominal machine speed."""
        return self.items / sum(at_nominal_speed(self.call_s, self.reference_s))

    @property
    def slowdown(self) -> float:
        return self.calibrated_rate / self.raw_rate


def run_pass(calls, first, tracer, index: int) -> Pass:
    """One pass over every call.  ``first[i]`` holds call i's first output and
    its failed-item count; later outputs must equal it."""
    from workloads import CheckFailed

    gc.collect()
    result = Pass(traced=tracer is not None)
    wall_start = time.perf_counter()
    for i, call in enumerate(calls):
        result.reference_s.append(reference_seconds())
        if tracer is not None:
            tracer.item = [index, i]
        start = time.perf_counter()
        try:
            output = call.run()
        except Exception:  # a failing item is counted and the run goes on
            output = None
            print(f"item {call.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        result.call_s.append(time.perf_counter() - start)
        result.busy += result.call_s[-1]
        result.items += call.items
        if output is None:
            result.failed += call.items
            continue
        if first[i] is None:
            try:
                failed = call.check(output)
            except CheckFailed as exc:
                failed = call.items
                print(f"item {call.label} failed its check: {exc}", file=sys.stderr)
            first[i] = (output, failed)
            result.failed += failed
        elif call.same(output, first[i][0]):
            result.failed += first[i][1]
        else:
            result.failed += call.items
            print(f"item {call.label} differs from its first output (pass {index})", file=sys.stderr)
    if tracer is not None:
        tracer.item = None
    result.reference_s.append(reference_seconds())
    result.wall = time.perf_counter() - wall_start
    return result


def measure(calls, seconds: float, tracer) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``.  With a
    tracer, passes alternate untraced / traced, starting untraced."""
    first = [None] * len(calls)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer:
                passes.append(run_pass(calls, first, tracer, len(passes)))
        else:
            passes.append(run_pass(calls, first, None, len(passes)))
        need_traced = tracer is not None and not any(p.traced for p in passes)
        if not need_traced and time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, layer_metrics

    load_start = os.getloadavg()
    size = workloads.TINY if args.tiny else workloads.FULL
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    workdir.mkdir(parents=True, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]
    setup_times, setup_references, calls = set_up(workload, args.seed, workdir, size)
    raw_setup_s = statistics.median(setup_times)
    setup_s = statistics.median(at_nominal_speed(setup_times, setup_references))
    tracer = Tracer() if args.trace else None
    passes = measure(calls, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    items_per_s = statistics.median(p.calibrated_rate for p in untraced)
    counts = {}
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), sum(p.items for p in traced), workloads.ESTIMATORS)
        metrics["trace.overhead_ratio"] = (statistics.median(p.calibrated_rate for p in traced) / items_per_s, "ratio")
        counts = {name: len(traced) for name in metrics}
    else:
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        counts = {"items_per_s": len(untraced), "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    error_rate = failed / attempted

    env = environment(args.seed)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "env": env,
        "raw": {
            "items_per_s": statistics.median(p.raw_rate for p in untraced),
            "setup_s": raw_setup_s,
            "setup_reference_s": setup_references,
        },
        "passes": [{"traced": p.traced, "items": p.items, "failed": p.failed, "busy_s": p.busy, "wall_s": p.wall,
                    "slowdown": p.slowdown, "reference_s": p.reference_s,
                    "call_s": dict(zip((c.label for c in calls), p.call_s))}
                   for p in passes],
        "error_rate": error_rate,
        "metrics": {name: {"value": v, "unit": u, "n": counts[name]} for name, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["traced_functions"] = tracer.patched
        with open(workdir / "trace.json", "w") as fh:
            json.dump({"item_fields": ["pass", "call"], "calls": [c.label for c in calls], **tracer.dump()}, fh)
    with open(workdir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  attempted {attempted} items")
    pass_s = statistics.median(p.busy for p in traced) if traced else None
    for name, (value, unit) in metrics.items():
        share = f"  ({value / pass_s:6.1%} of a traced pass)" if pass_s and unit == "s" else ""
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={counts[name]}{share}")
    print(f"  {'error_rate':32s} {error_rate:14.6g} {'ratio':6s} n={attempted} ({failed} failed)")
    print("  machine slowdown per pass " + " ".join(f"{p.slowdown:.3f}" for p in passes)
          + f"; raw items_per_s {report['raw']['items_per_s']:.6g}, raw setup_s {raw_setup_s:.6g}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftbench" / "__init__.py").is_file():
        print(f"error: driftbench sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
