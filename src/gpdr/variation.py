"""Tournament selection and the three genetic operators.

Operators apply per tree index (crossover only between trees at the same
index of the two parents). A tree is a preorder tuple of nodes, so each
operator picks a preorder index and splices slices: offspring are fresh
tuples and parents are untouched. Depth-7 violations from crossover are
repaired by rejecting the swap at that index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gp_core import (
    FUNCTION_SET,
    MAX_DEPTH,
    AutoencoderMultiTree,
    MultiTree,
    _random_operator,
    _random_terminal,
    depth,
    grow_tree,
    node_depths,
    subtree_end,
)

P_C = 0.8            # per-tree crossover rate
P_S = 0.2            # per-tree subtree-mutation rate
P_O = 0.2            # per-tree one-point-mutation rate
TOURNAMENT_SIZE = 7
ELITISM = 1          # best genomes copied verbatim into the next generation


def tournament_select(pop: Sequence, fitnesses, size: int, rng: np.random.Generator):
    """Minimum-fitness winner among ``size`` uniform draws with replacement.

    Ties resolve to the lowest sampled index, so selection is deterministic
    given the random draws.
    """
    n = len(pop)
    draws = np.sort(rng.integers(n, size=size))
    best = draws[0]
    for i in draws[1:]:
        if fitnesses[i] < fitnesses[best]:
            best = i
    return pop[best]


def same_index_crossover(
    a: MultiTree,
    b: MultiTree,
    p_c: float,
    rng: np.random.Generator,
) -> tuple[MultiTree, MultiTree]:
    """Per index j, with probability p_c swap uniformly chosen subtrees
    between a.trees[j] and b.trees[j]. Swaps that would exceed MAX_DEPTH
    are rejected at that index; parents are untouched.
    """
    if a.k != b.k or a.input_arity != b.input_arity:
        raise ValueError("parents must share tree count and arity")
    out_a, out_b = [], []
    for ta, tb in zip(a.trees, b.trees):
        if rng.random() < p_c:
            ia, ib = int(rng.integers(len(ta))), int(rng.integers(len(tb)))
            ea, eb = subtree_end(ta, ia), subtree_end(tb, ib)
            child_a = ta[:ia] + tb[ib:eb] + ta[ea:]
            child_b = tb[:ib] + ta[ia:ea] + tb[eb:]
            if depth(child_a) <= MAX_DEPTH and depth(child_b) <= MAX_DEPTH:
                ta, tb = child_a, child_b
        out_a.append(ta)
        out_b.append(tb)
    return (MultiTree(tuple(out_a), a.input_arity),
            MultiTree(tuple(out_b), b.input_arity))


def subtree_mutation(
    mt: MultiTree, p_s: float, rng: np.random.Generator
) -> MultiTree:
    """Per tree with probability p_s, replace a uniformly chosen node's
    subtree by a fresh grow subtree bounded to the remaining depth budget.
    """
    out = []
    for t in mt.trees:
        if rng.random() >= p_s:
            out.append(t)
            continue
        idx = int(rng.integers(len(t)))
        fresh = grow_tree(mt.input_arity, MAX_DEPTH - node_depths(t)[idx], rng)
        out.append(t[:idx] + fresh + t[subtree_end(t, idx):])
    return MultiTree(tuple(out), mt.input_arity)


def one_point_mutation(
    mt: MultiTree, p_o: float, rng: np.random.Generator
) -> MultiTree:
    """Per tree with probability p_o, redraw one node's symbol: a terminal
    as a fresh terminal, an operator from the function set; tree shape is
    unchanged.
    """
    out = []
    for t in mt.trees:
        if rng.random() >= p_o:
            out.append(t)
            continue
        idx = int(rng.integers(len(t)))
        if t[idx][0] in FUNCTION_SET:
            replacement = _random_operator(rng)
        else:
            replacement = _random_terminal(mt.input_arity, rng)
        out.append(t[:idx] + (replacement,) + t[idx + 1:])
    return MultiTree(tuple(out), mt.input_arity)


def _vary_pair(pa, pb, rng: np.random.Generator):
    """Crossover -> subtree mutation -> one-point mutation on one parent pair.

    AMT genomes vary encoder-with-encoder and decoder-with-decoder.
    """
    if isinstance(pa, AutoencoderMultiTree):
        ea, eb = same_index_crossover(pa.encoder, pb.encoder, P_C, rng)
        da, db = same_index_crossover(pa.decoder, pb.decoder, P_C, rng)
        parts = []
        for enc, dec in ((ea, da), (eb, db)):
            enc = subtree_mutation(enc, P_S, rng)
            dec = subtree_mutation(dec, P_S, rng)
            enc = one_point_mutation(enc, P_O, rng)
            dec = one_point_mutation(dec, P_O, rng)
            parts.append(AutoencoderMultiTree(enc, dec))
        return parts
    ca, cb = same_index_crossover(pa, pb, P_C, rng)
    out = []
    for c in (ca, cb):
        c = subtree_mutation(c, P_S, rng)
        c = one_point_mutation(c, P_O, rng)
        out.append(c)
    return out


def next_generation(
    pop: Sequence, fitnesses, rng: np.random.Generator
) -> list:
    """Elites copied verbatim, the rest filled by varied tournament parents.

    Population size is preserved exactly.
    """
    n = len(pop)
    if n < 2:
        raise ValueError("population must have at least 2 genomes")
    order = np.argsort(fitnesses, kind="stable")
    new_pop = [pop[i] for i in order[:ELITISM]]
    while len(new_pop) < n:
        pa = tournament_select(pop, fitnesses, TOURNAMENT_SIZE, rng)
        pb = tournament_select(pop, fitnesses, TOURNAMENT_SIZE, rng)
        for child in _vary_pair(pa, pb, rng):
            if len(new_pop) < n:
                new_pop.append(child)
    return new_pop
