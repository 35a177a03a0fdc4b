"""Acceptance suite: desk-scale reproduction targets and correctness oracles.

Every test prints one [PASS]/[FAIL] line; run with ``pytest -s`` to see them
on success.  Desk scale: 200 repetitions, window length 150, drift at 50%,
no offset, total variation metric (LDD for the kNN estimator).
"""

import time
import warnings

import numpy as np
import pytest

from driftbench.detector import classifier_tv_oracle, permutation_normalize
from driftbench.generators import SeaConcept
from driftbench.harness import (
    TABLE_DATASETS,
    TABLE_ESTIMATORS,
    ExperimentConfig,
    make_estimator,
    run_grid,
)
from driftbench.histograms import CumulativeHistogram, recount_histograms, to_distribution, total_variation
from driftbench.neighbor_kernel import (
    build_kernel_gram,
    build_neighbor_graph,
    knn_kls,
    mmd_biased_reference,
    mmds_from_gram,
)
from driftbench.partitions import build_random_tree
from driftbench.seeding import as_generator, derive_seed
from driftbench.windows import Window, make_paired

SEED = 20240801
REPS = 200
WINDOW = 150


def check(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid():
    cfg = ExperimentConfig(
        datasets=TABLE_DATASETS,
        estimators=TABLE_ESTIMATORS,
        n=WINDOW,
        repetitions=REPS,
        seed=SEED,
    )
    table = run_grid(cfg)
    for cell in table.cells:
        assert cell.status == "ok", f"{cell.dataset}/{cell.estimator}: {cell.error}"
    return table


def test_criterion_1_stagger_reproduction(grid):
    perm_targets = {"rf": 0.95, "rnd_pj": 0.95, "rnd_tree": 0.95, "marg": 0.95, "mmd": 0.95}
    values = {e: grid.cell("stagger", e).p_perm for e in perm_targets}
    ok = all(values[e] >= t for e, t in perm_targets.items())
    thre = {e: grid.cell("stagger", e).p_thre for e in ("rf", "rnd_tree")}
    ok = ok and all(v >= 0.85 for v in thre.values())
    detail = (
        "p_perm " + " ".join(f"{e}={v:.2f}" for e, v in values.items())
        + " (need >=0.95); p_thre " + " ".join(f"{e}={v:.2f}" for e, v in thre.items())
        + " (need >=0.85)"
    )
    check("criterion 1 stagger reproduction", ok, detail)


def test_criterion_2_rhp_marginal_blindness(grid):
    marg = grid.cell("rhp", "marg").p_perm
    rnd_pj = grid.cell("rhp", "rnd_pj").p_perm
    rnd_tree = grid.cell("rhp", "rnd_tree").p_perm
    ok = 0.38 <= marg <= 0.62 and rnd_pj >= 0.90 and rnd_tree >= 0.90
    check(
        "criterion 2 rhp marginal blindness",
        ok,
        f"marg={marg:.2f} (need in [0.38,0.62]), rnd_pj={rnd_pj:.2f}, rnd_tree={rnd_tree:.2f} (need >=0.90)",
    )


def test_criterion_3_sea_hardness(grid):
    values = {e: grid.cell("sea", e).p_perm for e in TABLE_ESTIMATORS}
    ok = all(v <= 0.75 for v in values.values())
    ok = ok and values["rnd_tree"] >= 0.50 and values["marg"] >= 0.50
    detail = " ".join(f"{e}={v:.2f}" for e, v in values.items()) + " (all <=0.75; rnd_tree, marg >=0.50)"
    check("criterion 3 sea hardness", ok, detail)


def test_criterion_4_precision_accuracy(grid):
    rt = grid.cell("stagger", "rnd_tree").p_pa[0.12]
    rf = grid.cell("stagger", "rf").p_pa[0.12]
    ok = rt >= 0.90 and rf >= 0.90
    # monotonicity p_pa(12%) >= p_pa(3%) over the cells where the estimator
    # actually detects the drift (precision is conditional on detection;
    # at chance level the small far side inflates the displaced statistic)
    detecting = [c for c in grid.cells if c.p_perm >= 0.80]
    violations = [c for c in detecting if c.p_pa[0.12] < c.p_pa[0.03]]
    ok = ok and len(violations) <= 0.05 * len(detecting)
    detail = (
        f"stagger p_pa(12%) rnd_tree={rt:.2f} rf={rf:.2f} (need >=0.90); "
        f"monotonicity violations {len(violations)}/{len(detecting)} detecting cells (allowed <=5%)"
    )
    check("criterion 4 precision accuracy", ok, detail)


def test_criterion_5_classifier_tv_equality():
    rng = as_generator(derive_seed(SEED, "criterion5"))
    worst = 0.0
    done = 0
    while done < 500:
        n = int(rng.integers(30, 301))
        d = int(rng.integers(1, 4))
        w = Window(rng.normal(size=(n, d)), np.sort(rng.uniform(0, 1, n)))
        tree = build_random_tree(w, n_leaves=int(rng.integers(2, 11)), seed=rng, min_leaf=2)
        t = float(np.quantile(w.t, rng.uniform(0.15, 0.85)))
        after = w.t > t
        if after.sum() == 0 or (~after).sum() == 0:
            continue
        cells = tree.cell_of(w.x)
        hb = np.bincount(cells[~after], minlength=tree.n_cells)
        ha = np.bincount(cells[after], minlength=tree.n_cells)
        tv = float(total_variation(to_distribution(hb), to_distribution(ha)))
        advantage = classifier_tv_oracle(tree, w, t)
        worst = max(worst, abs(advantage - 0.5 * tv))
        done += 1
    check(
        "criterion 5 classifier/TV equality",
        worst <= 1e-12,
        f"max |1/2 - min loss - TV/2| = {worst:.2e} over 500 triples (tol 1e-12)",
    )


def test_criterion_6_estimator_oracles():
    rng = as_generator(derive_seed(SEED, "criterion6"))

    worst_mmd = 0.0
    for _ in range(100):
        nb, na = int(rng.integers(4, 30)), int(rng.integers(4, 30))
        d = int(rng.integers(1, 4))
        x = np.vstack([rng.normal(size=(nb, d)), rng.normal(1.0, 1.0, (na, d))])
        t = np.concatenate([np.linspace(0, 0.5, nb), np.linspace(0.51, 1, na)])
        w = Window(x, t)
        gram = build_kernel_gram(w)
        worst_mmd = max(worst_mmd, abs(mmds_from_gram(gram, [nb])[0] - mmd_biased_reference(x[:nb], x[nb:], gram.sigma)))
    ok_mmd = worst_mmd <= 1e-10

    exact = True
    for _ in range(100):
        n = int(rng.integers(5, 300))
        n_cells = int(rng.integers(1, 33))
        cells = rng.integers(0, n_cells, n)
        times = np.sort(rng.uniform(0, 1, n))
        ch = CumulativeHistogram(cells, times, n_cells)
        for t in np.unique(times)[:-1]:
            before, after = ch.counts_at(float(t))
            rb, ra = recount_histograms(cells, times, n_cells, float(t))
            exact = exact and np.array_equal(before, rb) and np.array_equal(after, ra)

    n_side = 1000
    x = np.vstack([rng.normal(0, 1, (n_side, 1)), rng.normal(3, 1, (n_side, 1))])
    t = np.concatenate([np.linspace(0, 0.5, n_side), np.linspace(0.50001, 1, n_side)])
    w = Window(x, t)
    est = knn_kls(build_neighbor_graph(w, k=2), [n_side])[0]
    ok_kl = abs(est - 4.5) <= 0.25 * 4.5

    check(
        "criterion 6 estimator correctness oracles",
        ok_mmd and exact and ok_kl,
        f"MMD max diff {worst_mmd:.2e} (tol 1e-10); prefix recount exact={exact}; "
        f"kNN-KL={est:.2f} vs 4.5 +-25%",
    )


NULL_ESTIMATORS = ("marg", "rnd_pj", "rnd_tree", "kdq", "dt", "rf", "mmd", "ldd", "knn_kl")


def test_criterion_7_null_calibration():
    results = {}
    concept = SeaConcept(0)
    for eid in NULL_ESTIMATORS:
        est = make_estimator(eid)
        hits = 0
        for rep in range(REPS):
            rng = as_generator(derive_seed(SEED, "null", eid, rep))
            pw = make_paired(concept, concept, WINDOW, seed=rng)
            p = permutation_normalize(est, pw.drifting, n_perms=19, seed=rng)
            hits += p <= 0.05
        results[eid] = hits / REPS
    ok = all(v <= 0.10 for v in results.values())
    detail = " ".join(f"{e}={v:.3f}" for e, v in results.items()) + " (false-alarm rate, need <=0.10)"
    check("criterion 7 null calibration", ok, detail)


COMPLEXITY_CONFIGS = {
    "marg": {},
    "rnd_pj": {},
    "rnd_tree": {},
    "kdq": {"min_side": 0.25},
    "rf": {"n_trees": 4, "max_depth": 6},
}


def test_criterion_8_per_split_cost_flat_in_n():
    def per_split_seconds(estimator, n):
        rng = np.random.default_rng(0)
        w = Window(rng.uniform(0, 1, (n, 3)), np.sort(rng.uniform(0, 1, n)))
        descriptor = estimator.fit(w, seed=1)
        queries = np.quantile(w.t, np.linspace(0.1, 0.9, 150))
        best = np.inf
        for _ in range(7):
            start = time.perf_counter()
            descriptor.statistics_at(queries)
            best = min(best, time.perf_counter() - start)
        return best / len(queries)

    ratios = {}
    for eid, params in COMPLEXITY_CONFIGS.items():
        est = make_estimator(eid, "tv", params)
        times = [per_split_seconds(est, n) for n in (200, 2000, 20000)]
        ratios[eid] = max(times) / min(times)
    ok = all(r < 3.0 for r in ratios.values())
    detail = " ".join(f"{e}={r:.2f}x" for e, r in ratios.items()) + " across n in {200, 2000, 20000} (need <3x)"
    check("criterion 8 per-split cost", ok, detail)


def test_criterion_9_arrival_time_witness():
    from driftbench.moment_tree import MomentTreeConfig, fit_moment_tree
    from driftbench.partitions import build_kdq_tree, build_marginal

    from test_moment_tree import arrival_time_witness_windows

    w_orig, w_swapped = arrival_time_witness_windows()
    config = MomentTreeConfig(degree=1, min_leaf=4, max_depth=1)
    tree_orig = fit_moment_tree(w_orig, config, seed=0)
    tree_swapped = fit_moment_tree(w_swapped, config, seed=0)
    moment_changed = tree_orig.partition.to_dict() != tree_swapped.partition.to_dict()

    partitions_stable = True
    for build in (
        lambda w: build_marginal(w, 4)[0].to_dict(),
        lambda w: build_random_tree(w, n_leaves=3, seed=7, min_leaf=2).to_dict(),
        lambda w: build_kdq_tree(w, min_side=0.2, min_count=4).to_dict(),
    ):
        partitions_stable = partitions_stable and build(w_orig) == build(w_swapped)

    check(
        "criterion 9 arrival-time witness",
        moment_changed and partitions_stable,
        f"moment tree changed={moment_changed} (thresholds "
        f"{tree_orig.partition.threshold[0]:.2f} vs {tree_swapped.partition.threshold[0]:.2f}); "
        f"partition descriptors unchanged={partitions_stable}",
    )
