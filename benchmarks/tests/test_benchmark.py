"""Tests of the benchmark itself: every workload runs at a tiny size and
reports every declared metric, and tracing changes no output.

    python3 -m pytest benchmarks/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads
from conftest import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, stdin=subprocess.DEVNULL,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, "--workload", "detect", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings():
    """id of every attribute of the driftbench modules and of their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "driftbench" and not name.startswith("driftbench."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_keeps_outputs_and_removes_every_wrapper(workload, tmp_path):
    from driftbench import detector, neighbor_kernel

    calls = workloads.WORKLOADS[workload].setup(5, tmp_path, workloads.TINY)
    plain = [call.run() for call in calls]
    before = _bindings()
    original = neighbor_kernel.build_neighbor_graph

    with tracing.Tracer() as tracer:
        # patched where it is looked up, not only where it is defined
        assert detector.build_neighbor_graph is not original
        assert detector.build_neighbor_graph is neighbor_kernel.build_neighbor_graph
        traced = [call.run() for call in calls]

    with tracer:  # a second install, as on every traced pass of a run
        calls[0].run()

    assert _bindings() == before
    assert detector.build_neighbor_graph is original
    assert tracer.spans and all(span[2] >= span[1] for span in tracer.spans)
    assert len(tracer.names) == len(set(tracer.names)) and len(tracer.patched) == len(set(tracer.patched))
    for call, a, b in zip(calls, plain, traced):
        assert call.same(a, b), call.label
