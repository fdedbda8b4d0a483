"""Acceptance suite: one test per shipping criterion, each printing a
single ``criterion N: PASS/FAIL`` line (visible even under pytest's
output capture).

Criteria 7, 8 and 10 read desk-scale sweeps on the Segmentation dataset.
Criterion 7 runs its sweep afresh into a temporary directory on every
invocation (about two minutes on two workers), so it scores the records
the current code writes. Criterion 10 recomputes two of those runs in
this process (the one-worker path) and requires the same records.
Criteria 8 and 10 also read the committed records under
``tests/_acceptance_cache`` and never write there; the ten rank-geodesic
runs of criterion 8 would take up to about half an hour.
The criterion-8 canary recomputes one of those records, ``amt_gp`` k=2
run000 (about 15 s), and requires it equal to the committed one.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from gpdr.baselines import pca_fit
from gpdr.dataset import load_csv
from gpdr.distances import geodesic, pairwise_euclidean
from gpdr.evaluation import mann_whitney_u
from gpdr.evolution import GpRunConfig, evolve
from gpdr.experiment import (
    ExperimentConfig,
    ResultStore,
    run_experiment,
    run_single,
)
from gpdr.fitness import FitnessSpec, RankSweep, RankTargetCache, \
    SammonTarget
from gpdr.gp_core import MultiTree, Tree, depth, op, variable
from gpdr.neural import _init_mlp
from gpdr.variation import MAX_DEPTH
from support import grad_check, output

REPO = Path(__file__).resolve().parents[1]
SEGMENTATION = REPO / "data" / "segmentation.csv"
CACHE = Path(__file__).resolve().parent / "_acceptance_cache"

pytestmark = pytest.mark.acceptance


def _report(criterion: int, passed: bool, detail: str = ""):
    tail = f" - {detail}" if detail else ""
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}{tail}"
    print(line, flush=True)
    try:
        import conftest

        conftest.ACCEPTANCE_LINES.append(line)
    except ImportError:  # running outside pytest's path setup
        pass
    assert passed, line


def _desk_config(methods, k, out_dir, runs=10) -> ExperimentConfig:
    cfg = ExperimentConfig(
        dataset_path=str(SEGMENTATION),
        label_column="target",
        k_list=[k],
        methods=list(methods),
        master_seed=1,
        output_dir=str(out_dir),
    )
    cfg.apply_desk_scale()
    cfg.runs = runs
    return cfg


# -- criterion 1: rank-correlation oracle equivalence -----------------------


def _weighted_tau_oracle(d, t):
    n = d.size
    ranks = np.empty(n)
    ranks[np.argsort(d)] = np.arange(n)
    w = 1.0 / (ranks + 1.0)
    num = den = 0.0
    for j in range(n):
        for l in range(j + 1, n):
            pw = w[j] + w[l]
            den += pw
            num += pw * np.sign(d[j] - d[l]) * np.sign(t[j] - t[l])
    return num / den


def test_criterion_1_rank_correlation_oracles():
    """The kernels that score records, against the loop oracle: the
    sweep's tau of every row, and the pair cache's mean over the rows, of
    distance matrices whose rows hold 3 to 50 distances."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    rows = 0
    # one matrix per row length m = 3, 7, ..., 47 and 50
    for m in (*range(3, 50, 4), 50):
        D = pairwise_euclidean(rng.normal(size=(m + 1, 4)))
        Dt = pairwise_euclidean(rng.normal(size=(m + 1, 2)))
        off = ~np.eye(m + 1, dtype=bool)
        d, t = D[off].reshape(m + 1, m), Dt[off].reshape(m + 1, m)
        want = np.array([_weighted_tau_oracle(a, b) for a, b in zip(d, t)])
        got = RankSweep(D).tau_per_row(Dt)
        worst = max(worst, float(np.abs(got - want).max()),
                    abs(RankTargetCache(D).mean_tau(Dt) - want.mean()))
        rows += m + 1
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-12 and elapsed < 5.0,
            f"max deviation {worst:.2e} over {rows} rows, {elapsed:.1f}s")


# -- criterion 2: Sammon stress closed forms ---------------------------------


def _sammon_oracle(D, Dt):
    n = D.shape[0]
    num = den = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            den += D[i, j]
            num += (D[i, j] - Dt[i, j]) ** 2 / D[i, j]
    return num / den


def test_criterion_2_sammon_closed_forms():
    rng = np.random.default_rng(102)
    D = pairwise_euclidean(rng.normal(size=(8, 3)))
    exact_zero = SammonTarget(D).stress(D) == 0.0
    two = np.array([[0.0, 2.0], [2.0, 0.0]])
    one = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact_quarter = SammonTarget(two).stress(one) == 0.25
    worst = 0.0
    for _ in range(100):
        D = pairwise_euclidean(rng.normal(size=(6, 3)))
        Dt = pairwise_euclidean(rng.normal(size=(6, 2)))
        worst = max(worst, abs(SammonTarget(D).stress(Dt)
                               - _sammon_oracle(D, Dt)))
    _report(2, exact_zero and exact_quarter and worst < 1e-12,
            f"identity=0: {exact_zero}, pair=0.25: {exact_quarter}, "
            f"max oracle deviation {worst:.2e}")


# -- criterion 3: geodesic geometry ------------------------------------------


def test_criterion_3_geodesic_geometry():
    ang = 2.0 * np.pi * np.arange(40) / 40
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    G = geodesic(circle, n_neighbors=2)
    expected = 20.0 * 2.0 * np.sin(np.pi / 40.0)
    antipodal = G[0, 20]
    circle_ok = abs(antipodal - expected) <= 0.02 * expected

    rng = np.random.default_rng(103)
    dominated = True
    for _ in range(50):
        X = rng.normal(size=(int(rng.integers(10, 30)), 3))
        E = pairwise_euclidean(X)
        G = geodesic(X, n_neighbors=4)
        dominated = dominated and bool(np.all(G >= E - 1e-9))
    _report(3, circle_ok and dominated,
            f"antipodal {antipodal:.4f} vs {expected:.4f}, "
            f"geodesic >= euclidean on 50 point sets: {dominated}")


# -- criterion 4: PCA correctness --------------------------------------------


def test_criterion_4_pca_correctness():
    rng = np.random.default_rng(104)
    X = rng.normal(size=(50, 6))
    m = pca_fit(X, 6)
    recon = np.max(np.abs(m.inverse_transform(m.transform(X)) - X))
    ortho = np.max(np.abs(m.components.T @ m.components - np.eye(6)))
    lam = np.linalg.eigvalsh(np.cov(X.T, bias=True))[::-1]
    var_dev = np.max(np.abs(m.explained_variance - lam))
    _report(4, recon < 1e-8 and ortho < 1e-8 and var_dev < 1e-8,
            f"recon {recon:.2e}, orthonormality {ortho:.2e}, "
            f"variance deviation {var_dev:.2e}")


# -- criterion 5: neural gradient check --------------------------------------


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        m = _init_mlp([3, 2, 3], ["tanh", "linear"], None, rng)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 3))
        worst = max(worst, grad_check(m, X, Y))
    _report(5, worst < 1e-4, f"max relative error {worst:.2e} over 10 nets")


# -- criterion 6: planted-genome recovery ------------------------------------


def _planted_genome() -> MultiTree:
    t1 = op("+", op("+", op("+", variable(0), variable(1)), variable(2)),
            variable(3))
    t2 = op("-", op("+", op("-", variable(4), variable(1)), variable(3)),
            variable(0))
    return MultiTree((Tree(t1, 5), Tree(t2, 5)))


def test_criterion_6_planted_genome_recovery():
    t0 = time.perf_counter()
    planted = _planted_genome()
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 5))
    L = output(planted, X)
    threshold = 0.1 * L.var()
    spec = FitnessSpec(objective="teacher", inputs=X, target=L,
                       teacher_latent=L)
    wins = 0
    for seed in range(10):
        cfg = GpRunConfig(population=200, generations=30, k=2, seed=seed)
        result = evolve(spec, cfg)
        wins += result.best_fitness <= threshold
    elapsed = time.perf_counter() - t0
    _report(6, wins >= 8 and elapsed < 120.0,
            f"{wins}/10 runs reached fitness <= {threshold:.3f}, "
            f"{elapsed:.0f}s")


# -- criteria 7 and 10: desk-scale sweep band, and its determinism -----------


def _cell_values(store, method, k, key):
    return [r[key] for r in store.cell(method, k) if "error" not in r]


@pytest.fixture(scope="module")
def c7_store(tmp_path_factory):
    """A fresh sweep of the criterion-7 cell, written by the current code."""
    cfg = _desk_config(["mt_dist_euclidean"], 3,
                       tmp_path_factory.mktemp("c7"))
    cfg.workers = 2
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def c7_cached():
    """The same sweep's committed records."""
    return ResultStore.load(CACHE / "c7")


def test_criterion_7_desk_scale_accuracy_band(c7_store):
    accs = _cell_values(c7_store, "mt_dist_euclidean", 3,
                        "balanced_accuracy")
    mean = float(np.mean(accs))
    ok = len(accs) == 10 and 0.70 <= mean <= 0.92
    _report(7, ok,
            f"mean balanced accuracy {mean:.3f} over {len(accs)} runs "
            f"(band [0.70, 0.92])")


def _stripped_records(store):
    out = {}
    for r in store.records:
        r = dict(r)
        r.pop("wall_time", None)  # the only timing-dependent field
        out[(r["method"], r["k"], r["run"])] = json.dumps(r, sort_keys=True)
    return out


def test_criterion_10_sweep_determinism(c7_cached, c7_store, tmp_path):
    first = _stripped_records(c7_cached)
    second = _stripped_records(ResultStore.load(CACHE / "c7_repeat"))
    same = len(first) == len(second) == 10 and first == second
    # runs 0 and 9 again, in this process (the workers=1 path), must write
    # what criterion 7's fresh workers=2 sweep wrote
    swept = _stripped_records(c7_store)
    cfg = _desk_config(["mt_dist_euclidean"], 3, tmp_path)
    data = load_csv(cfg.dataset_path, label_column=cfg.label_column)
    # each through a JSON round trip, as a record file makes
    serial = _stripped_records(ResultStore(tmp_path, [
        json.loads(json.dumps(run_single(data, "mt_dist_euclidean", 3, run,
                                         cfg)))
        for run in (0, 9)]))
    fresh = len(swept) == 10 and all(swept.get(key) == serial[key]
                                     for key in serial)
    _report(10, same and fresh,
            f"{len(first)} and {len(second)} cached records, byte-identical "
            f"across sweeps: {first == second}; fresh runs 0 and 9 with 1 "
            f"and 2 workers equal: {fresh}")


# -- criterion 8: reconstruction ordering, autoencoder vs rank-geodesic ------


def test_criterion_8_reconstruction_ordering():
    store = ResultStore.load(CACHE / "c8")
    amt = np.array(_cell_values(store, "amt_gp", 2, "reconstruction_error"))
    rank = np.array(_cell_values(store, "mt_rank_geodesic", 2,
                                 "reconstruction_error"))
    pooled = np.sqrt(
        ((amt.size - 1) * amt.var(ddof=1) + (rank.size - 1) * rank.var(ddof=1))
        / (amt.size + rank.size - 2)
    )
    ok = (len(store.records) == 20 and amt.size == 10 and rank.size == 10
          and amt.mean() <= rank.mean() + pooled)
    _report(8, ok,
            f"autoencoder {amt.mean():.3f} vs rank-geodesic {rank.mean():.3f} "
            f"(+1 pooled std {pooled:.3f})")


def test_criterion_8_canary_recomputes_a_cached_record(tmp_path):
    """The current code must still write the committed c8 records: run000
    of the autoencoder cell, recomputed, equals its cached record minus
    wall_time."""
    cfg = _desk_config(["amt_gp"], 2, tmp_path, runs=1)
    fresh = _stripped_records(run_experiment(cfg))
    cached = _stripped_records(ResultStore.load(CACHE / "c8"))
    key = ("amt_gp", 2, 0)
    same = list(fresh) == [key] and fresh[key] == cached[key]
    _report(8, same, f"canary: amt_gp k=2 run000 recomputed equals the "
                     f"cached record minus wall_time: {same}")


# -- criterion 9: invariant audit over a full desk-scale run ------------------


def test_criterion_9_invariant_audit():
    data = load_csv(str(SEGMENTATION), label_column="target")
    rng = np.random.default_rng(109)
    idx = rng.choice(data.features.shape[0], size=400, replace=False)
    X = data.features[idx]
    X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) == 0, 1, X.std(axis=0))
    spec = FitnessSpec(objective="dist", inputs=X, target=X,
                       metric="euclidean")

    violations = []

    def audit_hook(gen, pop, fits):
        if len(pop) != 200:
            violations.append(f"gen {gen}: population size {len(pop)}")
        for g in pop:
            if max(depth(t) for t in g.trees) > MAX_DEPTH:
                violations.append(f"gen {gen}: depth > {MAX_DEPTH}")
        for f in fits:
            if np.isnan(f):
                violations.append(f"gen {gen}: NaN fitness")

    cfg = GpRunConfig(population=200, generations=30, k=3, seed=1)
    evolve(spec, cfg, audit_hook=audit_hook)
    _report(9, not violations,
            "no violations over 30 generations x 200 genomes"
            if not violations else "; ".join(violations[:3]))


# -- criterion 11: Mann-Whitney p-value accuracy ------------------------------


def test_criterion_11_mann_whitney_accuracy():
    """Every tie-free arrangement of every (n1, n2) with n1, n2 in 3..6 is
    checked against an exact-enumeration oracle computed here."""
    worst = 0.0
    for n1 in range(3, 7):
        for n2 in range(3, 7):
            ranks = np.arange(1, n1 + n2 + 1, dtype=float)
            all_u = np.array([
                sum(c) - n1 * (n1 + 1) / 2.0
                for c in itertools.combinations(ranks, n1)
            ])
            mean = n1 * n2 / 2.0
            for combo in itertools.combinations(range(n1 + n2), n1):
                in_a = np.zeros(n1 + n2, dtype=bool)
                in_a[list(combo)] = True
                a, b = ranks[in_a], ranks[~in_a]
                u_obs, p = mann_whitney_u(a, b)
                exact = min(1.0, float(np.mean(
                    np.abs(all_u - mean) >= abs(u_obs - mean))))
                worst = max(worst, abs(p - exact))
    _report(11, worst <= 0.03,
            f"max |p - exact| = {worst:.4f} over every arrangement, "
            f"n1,n2 in 3..6")
