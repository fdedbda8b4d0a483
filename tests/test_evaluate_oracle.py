"""Byte oracle for the one-pass tree evaluator.

``gp_core.evaluate_trees`` evaluates many trees together, one ufunc call
and one ``_clamp`` per (height, operator) group. The node-by-node walk it
replaced is kept as ``support._evaluate``, and every output of the pass
must have its bytes: on evolved populations, on decoders that read offset
columns, on single terminals and operator-free chunks, on operands at the
clamp and beyond it, and whatever the chunk budget.
"""

import numpy as np
import pytest

from gpdr import gp_core
from gpdr.gp_core import (
    CLAMP,
    EvalError,
    constant,
    evaluate_trees,
    genome_outputs,
    op,
    ramped_autoencoders,
    ramped_half_and_half,
    variable,
)
from gpdr.variation import next_generation
from support import _evaluate, output


def _oracle(trees, X, column_offsets=None) -> np.ndarray:
    """The walk, one tree at a time; variable j of tree t reads column
    j + column_offsets[t]."""
    offsets = column_offsets or [0] * len(trees)
    return np.array([_evaluate(t, X[:, offset:])
                     for t, offset in zip(trees, offsets)])


def _evolved(rng, count, arity, k, rounds, autoencoder=False):
    """A ramped population after ``rounds`` of variation on random fitness."""
    if autoencoder:
        pop = ramped_autoencoders(count, arity, k, 3, rng)
    else:
        pop = ramped_half_and_half(count, arity, k, rng)
    for _ in range(rounds):
        pop = next_generation(pop, list(rng.normal(size=count)), rng)
    return pop


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_evolved_populations_match_the_walk(k):
    rng = np.random.default_rng([11, k])
    pop = _evolved(rng, 40, 5, k, rounds=4)
    trees = [t for g in pop for t in g.trees]
    # wide scales drive products into the clamp
    for scale in (1.0, 1e4, 1e9):
        X = rng.normal(size=(50, 5)) * scale
        assert _same(evaluate_trees(trees, X), _oracle(trees, X))
    for g, out in zip(pop, genome_outputs(pop, X)):
        want = np.column_stack([_evaluate(t, X) for t in g.trees])
        assert _same(output(g, X), want)
        # the layout too: numpy sums F-ordered columns in another order
        assert _same(out, want) and out.flags.c_contiguous


def test_decoders_read_offset_columns():
    rng = np.random.default_rng(12)
    pop = _evolved(rng, 30, 4, 2, rounds=3, autoencoder=True)
    X = rng.normal(size=(40, 4)) * 100.0
    latents = evaluate_trees([t for g in pop for t in g.encoder.trees],
                             X)
    trees = [t for g in pop for t in g.decoder.trees]
    offsets = [2 * i for i, g in enumerate(pop) for _ in g.decoder.trees]
    got = evaluate_trees(trees, latents.T, offsets)
    assert _same(got, _oracle(trees, latents.T, offsets))
    for g, out in zip(pop, genome_outputs(pop, X)):
        lat = np.column_stack([_evaluate(t, X) for t in g.encoder.trees])
        want = np.column_stack([_evaluate(t, lat)
                                for t in g.decoder.trees])
        assert _same(out, want) and out.flags.c_contiguous
        assert _same(output(g, X), want)


def test_single_terminals_and_an_operator_free_chunk():
    X = np.random.default_rng(13).normal(size=(6, 3))
    terminals = [variable(2), constant(-1.5), variable(0), constant(0.0)]
    assert _same(evaluate_trees(terminals, X), _oracle(terminals, X))
    mixed = [variable(1), op("*", variable(0), constant(2.0)), constant(3.0)]
    assert _same(evaluate_trees(mixed, X), _oracle(mixed, X))
    assert evaluate_trees([], X).shape == (0, 6)


def test_operands_at_and_beyond_the_clamp():
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([np.inf, -np.inf, np.nan, CLAMP, -CLAMP,
                     np.nextafter(CLAMP, np.inf), -np.nextafter(CLAMP, np.inf),
                     1e300, -1e300, 0.0, -0.0, tiny, 1e6, -1e6])
    rng = np.random.default_rng(14)
    X = np.column_stack([edge, rng.permutation(edge), edge[::-1]])
    pop = _evolved(rng, 30, 3, 2, rounds=2)
    trees = [t for g in pop for t in g.trees]
    trees += [op(name, variable(a), variable(b))
              for name in gp_core.FUNCTION_SET for a in range(3)
              for b in range(3)]
    trees += [op("*", constant(1e11), op("*", variable(0), constant(1e11))),
              op("-", constant(-CLAMP), variable(1)),
              op("+", constant(np.inf), constant(-np.inf))]
    with np.errstate(all="ignore"):
        assert _same(evaluate_trees(trees, X), _oracle(trees, X))


@pytest.mark.parametrize("budget", [1, 10**12])
def test_any_chunk_budget_gives_the_same_bytes(budget, monkeypatch):
    rng = np.random.default_rng(15)
    pop = _evolved(rng, 40, 5, 3, rounds=3)
    trees = [t for g in pop for t in g.trees]
    X = rng.normal(size=(30, 5)) * 1e3
    want = _oracle(trees, X)
    monkeypatch.setattr(gp_core, "EVAL_BUDGET", budget)
    assert _same(evaluate_trees(trees, X), want)


def test_out_of_range_variables_are_refused():
    X = np.zeros((4, 2))
    with pytest.raises(EvalError):
        evaluate_trees([variable(2)], X)
    with pytest.raises(EvalError):
        evaluate_trees([variable(0), variable(1)], X, column_offsets=[0, 1])
    with pytest.raises(EvalError):
        evaluate_trees([variable(0)], np.zeros(4))
