"""Mutation check: every listed mutant must make the fast tests fail.

A mutant is one exact text of one source file replaced by another, with the
reason a test must catch it.  For each mutant this script copies ``src``,
``tests``, ``pyproject.toml`` and ``README.md`` into a temporary directory, applies the
mutant there and runs the fast tests (every test module except
``test_acceptance.py``) with ``-x``, the mutant's own modules first so that
a kill comes early.  The mutant is killed when a test fails (pytest exit
code 1); any other outcome, a pass or a collection, usage or internal error,
counts against it.  The script exits 1 unless every mutant is killed, and a
mutant whose old text does not occur exactly once is reported, not skipped.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/driftbench
    old: str
    new: str
    reason: str
    first: tuple[str, ...]  # test modules to run before the rest


MUTANTS = (
    Mutant(
        "p_thre_tie", "harness.py",
        "(drift > b) & (perm <= b)",
        "(drift > b) & (perm < b)",
        "a permuted statistic equal to the threshold counts as below it",
        ("test_golden.py", "test_harness.py"),
    ),
    Mutant(
        "p_perm_tie", "harness.py",
        "records.drift[:, i] > records.perm[:, i]",
        "records.drift[:, i] >= records.perm[:, i]",
        "a tie between drifting and permuted is not a win",
        ("test_golden.py", "test_harness.py"),
    ),
    Mutant(
        "p_pa_tie", "harness.py",
        "records.drift[:, i] > records.drift[:, j]",
        "records.drift[:, i] >= records.drift[:, j]",
        "a tie between positions is not a win",
        ("test_golden.py", "test_harness.py"),
    ),
    Mutant(
        "exceedance_tie", "detector.py",
        ".max_stat >= verdict.max_stat",
        ".max_stat > verdict.max_stat",
        "a replicate equal to the observed maximum counts towards the p-value",
        ("test_golden.py", "test_detector.py"),
    ),
    Mutant(
        "min_side", "windows.py",
        "math.ceil(0.05 * n)",
        "math.ceil(0.06 * n)",
        "the split margin is 5% of the window",
        ("test_golden.py", "test_windows.py"),
    ),
    Mutant(
        "zero_median_bandwidth", "neighbor_kernel.py",
        "med if med > 0 else 1.0",
        "med if med > 0 else 2.0",
        "a zero median distance falls back to bandwidth 1",
        ("test_golden.py", "test_neighbor_kernel.py"),
    ),
    Mutant(
        "kl_smoothing", "histograms.py",
        "KL_SMOOTHING = 0.5",
        "KL_SMOOTHING = 0.25",
        "KL adds half a count to every cell",
        ("test_golden.py", "test_histograms.py"),
    ),
    Mutant(
        "preorder_right_first", "moment_tree.py",
        "if right:\n            stack.append((right, lc + 1))\n        if left:\n            stack.append((left, lc))",
        "if left:\n            stack.append((left, lc))\n        if right:\n            stack.append((right, lc + 1))",
        "moment-tree nodes are numbered in preorder, left child first",
        ("test_golden.py", "test_moment_tree.py"),
    ),
    Mutant(
        "drawing_nodes_breadth_first", "moment_tree.py",
        "nodes = [open_nodes.pop()]",
        "nodes = [open_nodes.pop(0)]",
        "where nodes draw features they grow depth-first, so the draws keep their order",
        ("test_golden.py", "test_moment_tree.py"),
    ),
    Mutant(
        "thinning_floor", "moment_tree.py",
        "positions = np.round(np.arange(MAX_CANDIDATES)",
        "positions = np.floor(np.arange(MAX_CANDIDATES)",
        "candidate cuts are thinned at np.linspace's rounded positions",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "one_tree_at_a_time", "moment_tree.py",
        "for _ in range(1 if draws else n_trees):",
        "for _ in range(1):",
        "where no node draws, every tree of a forest grows in the same rounds",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "random_tree_children_swapped", "partitions.py",
        "open_leaves.append((lc, rows, left))",
        "open_leaves.append((lc, rows, ~left))",
        "the left child of a random-tree split holds the rows at or below the threshold",
        ("test_golden.py", "test_partitions.py"),
    ),
    Mutant(
        "column_edges_underflow", "partitions.py",
        "np.where(step == 0, i / bins * delta, i * step) + lo",
        "i * step + lo",
        "equidistant edges divide first where the step underflows, as np.linspace does",
        ("test_partitions.py", "test_golden.py"),
    ),
    Mutant(
        "permute_quicksort", "windows.py",
        'np.argsort(t_new, kind="stable")',
        'np.argsort(t_new, kind="quicksort")',
        "rows that share a timestamp keep their arrival order after a permutation",
        ("test_golden.py", "test_windows.py"),
    ),
    Mutant(
        "after_side_total", "histograms.py",
        "np.concatenate([ranks, self.n - ranks])",
        "np.concatenate([ranks, self.n - ranks + 1])",
        "a partition's after side holds the n - r samples past rank r",
        ("test_histograms.py", "test_golden.py"),
    ),
    Mutant(
        "kl_divisor_cells", "histograms.py",
        "smoothing * np.repeat(self.sizes, self.sizes)",
        "smoothing * self.n_cells",
        "KL smooths each partition's total by that partition's own cell count",
        ("test_histograms.py", "test_detector.py"),
    ),
    Mutant(
        "median_lower_index", "neighbor_kernel.py",
        "h = count // 2",
        "h = (count - 1) // 2",
        "an even pair count's median averages the values at ranks h - 1 and h, not h - 2 and h - 1",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "median_min_below", "neighbor_kernel.py",
        "kept[:i].max()",
        "kept[:i].min()",
        "the lower middle value is the largest gathered entry below the partition index",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "median_bracket_even_rank", "neighbor_kernel.py",
        "first = h - (count % 2 == 0)",
        "first = h",
        "for an even pair count the bracket must hold rank h - 1 as well as h",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "median_no_widening", "neighbor_kernel.py",
        "if lo_missed or hi_missed or kept is None:",
        "if kept is None:",
        "a bracket that misses a rank the median reads widens and gathers again",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "median_overflow_kept", "neighbor_kernel.py",
        "out[:inside] if inside <= room else None",
        "out[: min(inside, room)]",
        "a bracket holding more values than its room gathers them all in a second pass",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "surplus_fill_short", "neighbor_kernel.py",
        "<= missing[:, None]",
        "< missing[:, None]",
        "a row with surplus ties takes exactly the ties it is missing, lowest index first",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "empty_window", "windows.py",
        "if x.shape[0] == 0:",
        "if x.shape[0] < 0:",
        "a window holds at least one sample, the one check every consumer relies on",
        ("test_windows.py",),
    ),
    Mutant(
        "lone_sample_distances", "neighbor_kernel.py",
        "if n < 2:",
        "if n < 1:",
        "every O(n^2) fit refuses a window of one sample in _pairwise_distances",
        ("test_detector.py", "test_neighbor_kernel.py"),
    ),
    Mutant(
        "walk_on_threshold_right", "partitions.py",
        "(x[offset + feature[node]] > threshold[node])",
        "(x[offset + feature[node]] >= threshold[node])",
        "a point on a tree threshold goes to the left child",
        ("test_golden.py", "test_partitions.py"),
    ),
    Mutant(
        "scan_carry_second_last", "windows.py",
        "body[g - 1, -1]",
        "body[g - 1, -2]",
        "a group of the two-level scan carries the last row of the group before it",
        ("test_windows.py", "test_golden.py"),
    ),
    Mutant(
        "knn_kl_right_pass_short", "neighbor_kernel.py",
        "g.dist[block, : block.start : -1]",
        "g.dist[block, : block.start + 1 : -1]",
        "the right pass of a row block covers every column past the block's first row",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "flat_offset_block_rows", "neighbor_kernel.py",
        "(np.arange(len(block)) * n)",
        "(np.arange(len(block)) * len(block))",
        "a flat index into a row block of the distance matrix steps n per row",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
    Mutant(
        "short_node_unbounded", "moment_tree.py",
        "ok &= np.arange(float(min_leaf), hi + 1) <= m[:, None] - min_leaf",
        "ok &= True",
        "a node shorter than its block takes no cut that leaves fewer than min_leaf samples on its right",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "padding_column_zero", "moment_tree.py",
        "np.full((len(features), width), xt.shape[1] - 1)",
        "np.full((len(features), width), 0)",
        "a block pads its shorter nodes with the sentinel column, whose time powers are zero",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "cut_size_off_by_one", "moment_tree.py",
        "col + float(min_leaf)",
        "col + float(min_leaf - 1)",
        "the cut after column col of the candidate band leaves col + min_leaf samples on its left",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "left_sum_one_row_late", "moment_tree.py",
        "prefix[:, :, lo:hi][:, ok]",
        "prefix[:, :, lo + 1 : hi + 1][:, ok]",
        "a cut's left-side sum is the prefix through its own last row, read in nonzero's row-major order",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "ragged_block_as_full", "moment_tree.py",
        "ragged = min(sizes) < width",
        "ragged = False",
        "a block holding a node shorter than its width scores that node with its own size",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "neighbour_answers", "moment_tree.py",
        "answers[start : start + len(own)]",
        "answers[start + 1 : start + 1 + len(own)]",
        "each grower receives the answers to its own requests, not its neighbour's",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "answer_offset_per_grower", "moment_tree.py",
        "start += len(own)",
        "start += 1",
        "a grower that asked several requests in a round moves the next grower's answers past all of them",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "fitting_round_drops_request", "moment_tree.py",
        "_best_splits(xt, t_pows, requests, min_leaf) if requests",
        "_best_splits(xt, t_pows, requests[:-1], min_leaf) if requests",
        "a round that fits one block scores every one of its requests",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "fitting_round_scattered", "moment_tree.py",
        "<= _BLOCK_ELEMENTS:\n        return None",
        "<= _BLOCK_ELEMENTS:\n        return [range(len(requests))]",
        "_blocks reports a round that fits one block, which the lockstep scores in one call with no scatter",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "last_best_cut", "moment_tree.py",
        "best = first + int(scores[first:end].argmax())",
        "best = end - 1 - int(scores[first:end][::-1].argmax())",
        "a node's answer is the first highest cut in drawn-feature order, not the last",
        ("test_moment_tree.py", "test_golden.py"),
    ),
    Mutant(
        "t0_fraction_zero", "windows.py",
        "if not 0.0 < t0_fraction < 1.0:",
        "if not 0.0 <= t0_fraction < 1.0:",
        "make_paired refuses a drift time of 0",
        ("test_windows.py",),
    ),
    Mutant(
        "t0_fraction_one", "windows.py",
        "if not 0.0 < t0_fraction < 1.0:",
        "if not 0.0 < t0_fraction <= 1.0:",
        "make_paired refuses a drift time of 1",
        ("test_windows.py",),
    ),
    Mutant(
        "offset_at_t0", "windows.py",
        "if not 0.0 <= offset_fraction < t0_fraction:",
        "if not 0.0 <= offset_fraction <= t0_fraction:",
        "make_paired refuses an offset equal to the drift time",
        ("test_windows.py",),
    ),
    Mutant(
        "paired_one_sample", "windows.py",
        'if n < 2:\n        raise ParameterError("n must be at least 2")',
        'if n < 1:\n        raise ParameterError("n must be at least 2")',
        "make_paired refuses a window of one sample",
        ("test_windows.py",),
    ),
    Mutant(
        "paired_two_samples", "windows.py",
        'if n < 2:\n        raise ParameterError("n must be at least 2")',
        'if n <= 2:\n        raise ParameterError("n must be at least 2")',
        "make_paired accepts a window of two samples",
        ("test_windows.py",),
    ),
    Mutant(
        "offset_one_survivor", "windows.py",
        "if keep.sum() < 2:",
        "if keep.sum() < 1:",
        "make_paired refuses an offset that leaves one sample",
        ("test_windows.py",),
    ),
    Mutant(
        "offset_two_survivors", "windows.py",
        "if keep.sum() < 2:",
        "if keep.sum() <= 2:",
        "make_paired keeps the two samples an offset leaves",
        ("test_windows.py",),
    ),
    Mutant(
        "ingest_one_timestamped_row", "windows.py",
        "elif n > 1:",
        "elif n >= 1:",
        "one row with an explicit timestamp is ingested at t = 0, not refused as constant",
        ("test_windows.py",),
    ),
    Mutant(
        "oracle_twenty_cells", "detector.py",
        "if L > 20:",
        "if L >= 20:",
        "the classifier oracle brute-forces a partition of 20 cells",
        ("test_detector.py",),
    ),
    Mutant(
        "median_bracket_one_short", "neighbor_kernel.py",
        "below + inside <= h",
        "below + inside < h",
        "a bracket holding exactly the h lowest ranks misses rank h and widens",
        ("test_neighbor_kernel.py", "test_golden.py"),
    ),
)


def _test_order(first) -> list[str]:
    rest = sorted(p.name for p in (ROOT / "tests").glob("test_*.py") if p.name != "test_acceptance.py")
    return [f"tests/{name}" for name in first] + [f"tests/{name}" for name in rest if name not in first]


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, what happened) for one mutant, run on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp)
        target = tmp / "src" / "driftbench" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.path}, not once"
        target.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *_test_order(mutant.first)]
        done = subprocess.run(command, cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
                              capture_output=True, text=True)
        lines = done.stdout.splitlines()
        failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
        if done.returncode == 1:
            return True, failed[0] if failed else "pytest exit code 1"
        # an internal error's traceback ends with the exception that stopped pytest
        internal = [line for line in lines if line.startswith("INTERNALERROR")][-1:]
        return False, "; ".join([f"pytest exit code {done.returncode}", *internal, *failed[:1]])


def main() -> int:
    missed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed, detail = run(mutant)
        missed += not killed
        seconds = time.perf_counter() - start
        print(f"{'killed' if killed else 'NOT KILLED'} {mutant.name} in {seconds:.0f} s: {detail}", flush=True)
        if not killed:
            print(f"  {mutant.path}: {mutant.reason}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
