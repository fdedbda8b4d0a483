import numpy as np
import pytest

from gpdr.gp_core import (
    AutoencoderMultiTree,
    MultiTree,
    constant,
    depth,
    grow_tree,
    node_depths,
    op,
    ramped_autoencoders,
    ramped_half_and_half,
    subtree_end,
    variable,
)
from gpdr.variation import (
    MAX_DEPTH,
    next_generation,
    one_point_mutation,
    same_index_crossover,
    subtree_mutation,
    tournament_select,
)


def _mt(rng, arity=3, k=2, dmax=4):
    trees = tuple(grow_tree(arity, dmax, rng) for _ in range(k))
    return MultiTree(trees, arity)


def _full(arity, rng):
    """A full tree of depth MAX_DEPTH: every leaf at the depth cap."""
    return grow_tree(arity, MAX_DEPTH, rng, depth_min=MAX_DEPTH)


def test_tournament_select_prefers_low_fitness():
    pop = list("abcdef")
    fits = [5.0, 1.0, 3.0, 0.5, 2.0, 4.0]
    rng = np.random.default_rng(0)
    # with tournament size equal to the population, the best always wins
    for _ in range(10):
        assert tournament_select(pop, fits, 50, rng) == "d"


def test_tournament_select_tie_breaks_to_lowest_index():
    pop = ["first", "second"]
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert tournament_select(pop, [1.0, 1.0], 10, rng) == "first"


def test_node_depths_and_subtree_ends():
    nodes = op("+", variable(0), op("*", variable(1), constant(1.0)))
    assert nodes == (("+", None), ("var", 0), ("*", None), ("var", 1),
                     ("const", 1.0))
    assert node_depths(nodes) == [0, 1, 1, 2, 2]
    assert [subtree_end(nodes, i) for i in range(5)] == [5, 2, 5, 4, 5]
    assert node_depths(variable(3)) == [0] and subtree_end(variable(3), 0) == 1


def test_self_crossover_splices_by_index():
    # one object as both parents, with two equal subtrees under its root:
    # a swap is read off preorder indices, never off equality
    shared = op("-", variable(0), constant(2.0))
    parent = MultiTree((op("+", shared, shared),), 2)
    (nodes,) = parent.trees
    swaps = {}
    for seed in range(200):
        probe = np.random.default_rng(seed)
        probe.random()  # the rate draw; p_c=1 always swaps
        ia, ib = int(probe.integers(7)), int(probe.integers(7))
        ca, cb = same_index_crossover(parent, parent, p_c=1.0,
                                      rng=np.random.default_rng(seed))
        ea, eb = subtree_end(nodes, ia), subtree_end(nodes, ib)
        assert ca.trees[0] == nodes[:ia] + nodes[ib:eb] + nodes[ea:]
        assert cb.trees[0] == nodes[:ib] + nodes[ia:ea] + nodes[eb:]
        swaps[ia, ib] = (ca.trees[0], cb.trees[0])
    assert nodes == op("+", shared, shared)
    # the left subtree swapped with the variable inside the right one
    assert swaps[1, 5] == (op("+", variable(0), shared),
                           op("+", shared, op("-", shared, constant(2.0))))


def test_crossover_swaps_only_same_index():
    rng = np.random.default_rng(2)
    a = MultiTree((variable(0), variable(0)), 2)
    b = MultiTree((variable(1), variable(1)), 2)
    ca, cb = same_index_crossover(a, b, p_c=1.0, rng=rng)
    # single-node trees: the only possible swap exchanges whole trees
    assert ca.trees[0] == variable(1)
    assert cb.trees[0] == variable(0)


def test_crossover_zero_rate_copies_parents():
    rng = np.random.default_rng(3)
    a, b = _mt(rng), _mt(rng)
    ca, cb = same_index_crossover(a, b, p_c=0.0, rng=rng)
    assert ca == a and cb == b


def test_crossover_never_exceeds_depth_limit():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = MultiTree((_full(2, rng),), 2)
        b = MultiTree((_full(2, rng),), 2)
        ca, cb = same_index_crossover(a, b, p_c=1.0, rng=rng)
        assert depth(ca.trees[0]) <= MAX_DEPTH
        assert depth(cb.trees[0]) <= MAX_DEPTH


def test_crossover_rejects_mismatched_parents():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        same_index_crossover(_mt(rng, k=2), _mt(rng, k=3), 1.0, rng)


def test_subtree_mutation_respects_depth_budget():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mt = MultiTree((_full(3, rng),), 3)
        out = subtree_mutation(mt, p_s=1.0, rng=rng)
        assert depth(out.trees[0]) <= MAX_DEPTH
    mt = _mt(rng)
    assert subtree_mutation(mt, p_s=0.0, rng=rng) == mt


def test_one_point_mutation_preserves_shape():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mt = _mt(rng)
        out = one_point_mutation(mt, p_o=1.0, rng=rng)
        for t_in, t_out in zip(mt.trees, out.trees):
            assert len(t_in) == len(t_out)
            assert depth(t_in) == depth(t_out)


def test_next_generation_size_and_elitism():
    rng = np.random.default_rng(8)
    pop = ramped_half_and_half(30, input_arity=3, k_trees=2, rng=rng)
    fits = list(rng.normal(size=30))
    new = next_generation(pop, fits, rng)
    assert len(new) == 30
    assert new[0] == pop[int(np.argmin(fits))]  # elite survives verbatim
    for mt in new:
        assert all(depth(t) <= MAX_DEPTH for t in mt.trees)


def test_next_generation_autoencoder_genomes():
    rng = np.random.default_rng(9)
    pop = ramped_autoencoders(20, input_arity=4, k_trees=2,
                              decoder_outputs=3, rng=rng)
    fits = list(rng.normal(size=20))
    new = next_generation(pop, fits, rng)
    assert len(new) == 20
    for amt in new:
        assert isinstance(amt, AutoencoderMultiTree)
        assert amt.encoder.k == 2 and amt.decoder.k == 3
        assert amt.encoder.input_arity == 4 and amt.decoder.input_arity == 2
        trees = amt.encoder.trees + amt.decoder.trees
        assert all(depth(t) <= MAX_DEPTH for t in trees)
