import gc
import logging
import re
import weakref

import numpy as np
import pytest

from gpdr.distances import pairwise_euclidean
from gpdr import evolution
from gpdr.evolution import GpRunConfig, evolve
from gpdr.fitness import (
    BatchContext,
    FitnessError,
    FitnessSpec,
    SammonTarget,
    linear_scaling,
)
from gpdr.gp_core import (
    AutoencoderMultiTree,
    MultiTree,
    depth,
    op,
    variable,
)
from gpdr.variation import MAX_DEPTH
from support import output, parse_infix, record_generations, tree_rows
from test_fitness import weighted_kendall_tau_row


def _teacher_spec(rng, n=60, p=4, k=2):
    X = rng.normal(size=(n, p))
    L = np.column_stack([X[:, 0] + X[:, 1], X[:, 2]])
    return FitnessSpec(objective="teacher", inputs=X, target=X,
                       teacher_latent=L)


def test_config_validation():
    with pytest.raises(ValueError):
        GpRunConfig(population=1)
    with pytest.raises(ValueError):
        GpRunConfig(generations=0)


def test_batch_size_must_be_positive():
    # the batch size is the constant evolution.BATCH_SIZE, not a setting
    assert isinstance(evolution.BATCH_SIZE, int) and evolution.BATCH_SIZE > 0
    for bad in (0, -3, 100):
        with pytest.raises(TypeError, match="batch_size"):
            GpRunConfig(batch_size=bad)


def test_rank_objective_rejects_batches_under_three_rows(monkeypatch):
    # a 2-row batch has no weighted pair, so every genome scored NaN and
    # evolution selected blindly: history == [inf, inf, inf, inf]
    X = np.random.default_rng(0).normal(size=(40, 3))
    spec = FitnessSpec("rank", X, X, metric="euclidean")
    cfg = GpRunConfig(population=20, generations=4)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 2)
    with pytest.raises(ValueError, match="'rank'"):
        evolve(spec, cfg)
    # the effective batch is min(BATCH_SIZE, rows)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 100)
    with pytest.raises(ValueError, match="'rank'"):
        evolve(FitnessSpec("rank", X[:2], X[:2], metric="euclidean"), cfg)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 3)
    res = evolve(spec, cfg)
    assert len(res.history) == 4 and np.isfinite(res.history).all()
    assert np.isfinite(res.best_fitness)


def test_evolve_learns_easy_teacher(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 40)
    rng = np.random.default_rng(0)
    spec = _teacher_spec(rng)
    res = evolve(spec, GpRunConfig(population=80, generations=15, k=2, seed=1))
    assert res.best_fitness < 0.5
    assert len(res.history) == 15
    assert isinstance(res.best_genome, MultiTree)


def test_evolve_is_deterministic(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 30)
    rng = np.random.default_rng(1)
    spec = _teacher_spec(rng)
    cfg = GpRunConfig(population=40, generations=5, k=2, seed=9)
    a = evolve(spec, cfg)
    b = evolve(spec, cfg)
    assert a.best_fitness == b.best_fitness
    assert a.history == b.history
    assert a.expressions == b.expressions
    c = evolve(spec, GpRunConfig(population=40, generations=5, k=2, seed=10))
    assert c.history != a.history


def test_evolve_audit_invariants_hold(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 30)
    rng = np.random.default_rng(2)
    teacher_spec = _teacher_spec(rng)
    X = rng.normal(size=(60, 4))
    amt_spec = FitnessSpec(objective="gp_autoencoder", inputs=X,
                           target=X[:, :3])
    seen = record_generations(monkeypatch)
    for spec in (teacher_spec, amt_spec):
        seen.clear()
        evolve(spec, GpRunConfig(population=50, generations=8, k=2, seed=3))
        assert len(seen) == 8
        for pop, fits in seen:
            assert len(pop) == 50
            for g in pop:
                # an autoencoder's encoder and decoder trees keep the bound
                trees = (g.encoder.trees + g.decoder.trees
                         if isinstance(g, AutoencoderMultiTree) else g.trees)
                assert all(depth(t) <= MAX_DEPTH for t in trees)
            assert not any(np.isnan(f) for f in fits)


def _full_split_oracle(spec, genome) -> float:
    """The objective on the whole split, computed directly from its
    definition: Sammon stress, the mean of the O(m^2) per-row weighted tau,
    the linearly scaled reconstruction MSE, or the teacher MSE."""
    if spec.objective == "gp_autoencoder":
        fit = linear_scaling(spec.target, output(genome, spec.inputs))
        return np.mean((fit.target_c - fit.fit_c) ** 2)
    lat = output(genome, spec.inputs)
    if spec.objective == "teacher":
        return np.mean((lat - spec.teacher_latent) ** 2)
    D, Dt = pairwise_euclidean(spec.target), pairwise_euclidean(lat)
    if spec.objective == "dist":
        return SammonTarget(D).stress(Dt)
    n = D.shape[0]
    off = ~np.eye(n, dtype=bool)
    rows_d, rows_t = D[off].reshape(n, n - 1), Dt[off].reshape(n, n - 1)
    return -np.mean([weighted_kendall_tau_row(rows_d[i], rows_t[i])
                     for i in range(n)])


@pytest.mark.parametrize("objective",
                         ["dist", "rank", "teacher", "gp_autoencoder"])
def test_evolve_best_fitness_is_full_split_value(objective, monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 20)
    rng = np.random.default_rng(3)
    if objective == "teacher":
        spec = _teacher_spec(rng)
    else:
        X = rng.normal(size=(60, 4))
        metric = None if objective == "gp_autoencoder" else "euclidean"
        spec = FitnessSpec(objective=objective, inputs=X, target=X[:, :3],
                           metric=metric)
    seen = record_generations(monkeypatch)
    res = evolve(spec, GpRunConfig(population=40, generations=5, k=2, seed=4))
    genome_types = {type(g) for pop, _ in seen for g in pop}
    expected = _full_split_oracle(spec, res.best_genome)
    assert abs(res.best_fitness - expected) <= 1e-12
    # the objective alone fixes the genome form
    form = (AutoencoderMultiTree if objective == "gp_autoencoder"
            else MultiTree)
    assert genome_types == {form} and type(res.best_genome) is form


@pytest.mark.parametrize("objective",
                         ["dist", "rank", "teacher", "gp_autoencoder"])
def test_one_pass_scoring_matches_scoring_genome_by_genome(objective,
                                                           monkeypatch):
    # evolve scores each generation and re-scores the candidates through
    # one genome_outputs pass over the population; the same run with each
    # genome evaluated in a pass of its own must agree, so an output handed
    # to the wrong genome fails here
    monkeypatch.setattr(evolution, "BATCH_SIZE", 20)
    rng = np.random.default_rng(10)
    if objective == "teacher":
        spec = _teacher_spec(rng)
    else:
        X = rng.normal(size=(50, 4))
        metric = None if objective == "gp_autoencoder" else "euclidean"
        spec = FitnessSpec(objective=objective, inputs=X, target=X[:, :3],
                           metric=metric)
    cfg = GpRunConfig(population=30, generations=4, k=2, seed=11)
    shipped = evolve(spec, cfg)
    monkeypatch.setattr(
        evolution, "genome_outputs",
        lambda genomes, X: [output(g, X) for g in genomes])
    alone = evolve(spec, cfg)
    assert shipped.history == alone.history
    assert shipped.best_fitness == alone.best_fitness
    assert shipped.expressions == alone.expressions


def test_expressions_reparse_to_best_genome(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 30)
    rng = np.random.default_rng(4)
    spec = _teacher_spec(rng)
    res = evolve(spec, GpRunConfig(population=40, generations=6, k=2, seed=5))
    X = spec.inputs[:10]
    for j, line in enumerate(res.expressions):
        lhs, rhs = line.split(" = ", 1)
        assert lhs == f"X~{j}"
        t = parse_infix(rhs, spec.inputs.shape[1])
        assert np.allclose(tree_rows(t, X),
                           tree_rows(res.best_genome.trees[j], X),
                           atol=1e-9)


def test_evolve_autoencoder_representation(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 25)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    target = X[:, :2]  # 2-column reconstruction target
    spec = FitnessSpec(objective="gp_autoencoder", inputs=X, target=target)
    res = evolve(spec, GpRunConfig(population=40, generations=6, k=2, seed=6))
    assert isinstance(res.best_genome, AutoencoderMultiTree)
    assert res.best_genome.decoder.k == 2
    # encoder lines then decoder lines, tagged distinctly
    assert res.expressions[0].startswith("X~0 = ")
    assert res.expressions[2].startswith("Xrec~0 = ")
    assert len(res.expressions) == 4


def test_exported_autoencoder_lines_reproduce_train_fitness(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 30)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    target = np.column_stack([X[:, 0] - X[:, 1], X[:, 2] * X[:, 3] + 3.0,
                              X[:, 3]])
    spec = FitnessSpec(objective="gp_autoencoder", inputs=X, target=target)
    res = evolve(spec, GpRunConfig(population=40, generations=6, k=2, seed=9))

    def evaluate_lines(prefix, count, arity, rows):
        lines = [e for e in res.expressions if e.startswith(prefix)]
        assert len(lines) == count
        cols = []
        for j, line in enumerate(lines):
            lhs, rhs = line.split(" = ", 1)
            assert lhs == f"{prefix}{j}"
            cols.append(tree_rows(parse_infix(rhs, arity), rows))
        return np.column_stack(cols)

    latent = evaluate_lines("X~", 2, 4, X)
    recon = evaluate_lines("Xrec~", 3, 2, latent)
    # the decoder lines carry the scaling fitted on the whole split
    assert abs(np.mean((target - recon) ** 2) - res.best_fitness) <= 1e-9


def test_evolve_rank_objective_small(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 20)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    spec = FitnessSpec(objective="rank", inputs=X, target=X,
                       metric="euclidean")
    res = evolve(spec, GpRunConfig(population=30, generations=5, k=2, seed=7))
    assert -1.0 <= res.best_fitness <= 1.0


def test_evolve_dist_objective_identity_is_optimal(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 40)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    spec = FitnessSpec(objective="dist", inputs=X, target=X,
                       metric="euclidean")
    res = evolve(spec, GpRunConfig(population=60, generations=10, k=2, seed=8))
    ident = MultiTree((variable(0), variable(1)), 2)
    best_possible = SammonTarget(pairwise_euclidean(X)).stress(
        pairwise_euclidean(output(ident, X)))
    assert best_possible == 0.0
    assert res.best_fitness < 0.5  # evolved stress is at least in range


def test_full_split_rescoring_logs_counts_at_debug(caplog):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    spec = FitnessSpec(objective="rank", inputs=X, target=X,
                       metric="euclidean")
    a = MultiTree((variable(0), variable(1)), 3)
    b = MultiTree((variable(0), variable(2)), 3)
    same_as_a = MultiTree((variable(0), variable(1)), 3)
    with caplog.at_level(logging.DEBUG, logger="gpdr.fitness"):
        fits = BatchContext(spec).score([a, b, same_as_a])
    assert fits[0] == fits[2]
    [record] = [r for r in caplog.records if r.name == "gpdr.fitness"]
    assert record.levelno == logging.DEBUG
    match = re.fullmatch(
        r"scored 3 genomes on 30 rows: 2 distinct outputs, "
        r"(\d+\.\d{3}) s", record.getMessage())
    assert match and float(match.group(1)) >= 0.0
    # an evolve logs each generation's batch and then the re-scoring
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gpdr.fitness"):
        evolve(spec, GpRunConfig(population=6, generations=3, seed=1))
    rows = [re.match(r"scored (\d+) genomes on (\d+) rows", r.getMessage())
            .groups() for r in caplog.records if r.name == "gpdr.fitness"]
    assert rows == [("6", "30")] * 3 + [("9", "30")]


def test_full_split_rescoring_refuses_a_genome_of_another_form():
    X = np.random.default_rng(10).normal(size=(20, 3))
    spec = FitnessSpec(objective="gp_autoencoder", inputs=X, target=X)
    with pytest.raises(FitnessError, match="AutoencoderMultiTree"):
        BatchContext(spec).score([MultiTree((variable(0),), 3)])


def test_batch_draws_distinct_sorted_indices(monkeypatch):
    """Each generation scores a fresh sorted batch of distinct rows, or
    every row when the split is smaller than BATCH_SIZE."""
    batches = []

    class Recorded(BatchContext):
        def __init__(self, spec, indices=None):
            super().__init__(spec, indices)
            batches.append(indices)

    monkeypatch.setattr(evolution, "BatchContext", Recorded)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 10)
    spec = _teacher_spec(np.random.default_rng(11), n=50)
    evolve(spec, GpRunConfig(population=6, generations=3, seed=2))
    *drawn, whole = batches
    assert whole is None and len(drawn) == 3
    for b in drawn:
        assert b.shape == (10,)
        assert len(np.unique(b)) == 10
        assert np.all(np.diff(b) > 0)
    assert not np.array_equal(drawn[0], drawn[1])
    # every row when the split is smaller than the batch
    batches.clear()
    spec = _teacher_spec(np.random.default_rng(11), n=7)
    evolve(spec, GpRunConfig(population=6, generations=2, seed=2))
    assert len(batches) == 3 and batches[-1] is None
    assert all(np.array_equal(b, np.arange(7)) for b in batches[:-1])


def test_one_batch_context_is_alive_at_a_time(monkeypatch):
    """Each context is freed by reference counting before the next one is
    built, so two rank pair caches are never held at once. The collector
    is off, so a context caught in a reference cycle would stay alive."""
    live, seen = [0], []

    def freed():
        live[0] -= 1

    class Counted(BatchContext):
        def __init__(self, spec, indices=None):
            super().__init__(spec, indices)
            live[0] += 1
            seen.append(live[0])
            weakref.finalize(self, freed)

    monkeypatch.setattr(evolution, "BatchContext", Counted)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 20)
    X = np.random.default_rng(12).normal(size=(40, 3))
    spec = FitnessSpec(objective="rank", inputs=X, target=X,
                       metric="euclidean")
    enabled = gc.isenabled()
    gc.disable()
    try:
        evolve(spec, GpRunConfig(population=10, generations=4, seed=3))
    finally:
        if enabled:
            gc.enable()
    assert seen == [1] * 5 and live[0] == 0
