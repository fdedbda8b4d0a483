import numpy as np
import pytest

from gpdr.gp_core import (
    CLAMP,
    AutoencoderMultiTree,
    EvalError,
    MultiTree,
    Tree,
    constant,
    depth,
    export_lines,
    genome_outputs,
    grow_tree,
    node_count,
    op,
    ramped_autoencoders,
    ramped_half_and_half,
    simplify,
    to_infix,
    variable,
)
from support import ParseError, output, parse_infix, tree_rows


def _rand_tree(rng, arity=3, dmax=5):
    return Tree(grow_tree(arity, dmax, rng), arity)


def test_eval_basic_arithmetic():
    t = Tree(op("+", op("*", variable(0), variable(1)), constant(2.0)), 2)
    assert tree_rows(t, np.array([[3.0, 4.0]]))[0] == 14.0
    X = np.array([[1.0, 2.0], [0.0, 5.0]])
    assert np.allclose(tree_rows(t, X), [4.0, 2.0])


def test_eval_clamps_blowups():
    big = constant(1e11)
    t = Tree(op("*", op("*", big, big), op("*", big, big)), 1)
    assert tree_rows(t, np.array([[0.0]]))[0] == CLAMP
    t = Tree(op("-", constant(0.0), op("*", op("*", big, big), big)), 1)
    assert tree_rows(t, np.array([[0.0]]))[0] == -CLAMP


def test_clamp_matches_nan_to_num_then_clip_bit_for_bit():
    from gpdr.gp_core import _clamp

    tiny = np.nextafter(0.0, 1.0)
    a = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1e300,
                  -1e300, tiny, -tiny, 2.2e-308, CLAMP, -CLAMP,
                  np.nextafter(CLAMP, np.inf), -np.nextafter(CLAMP, np.inf),
                  3.5, -7.25])
    want = np.clip(np.nan_to_num(a, nan=0.0, posinf=CLAMP, neginf=-CLAMP),
                   -CLAMP, CLAMP)
    before = a.tobytes()
    assert _clamp(a).tobytes() == want.tobytes()
    assert a.tobytes() == before  # the input, maybe a column of X, is kept


def test_eval_shape_errors():
    t = Tree(variable(0), 2)
    for X in (np.array([[1.0]]), np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(EvalError, match="arity"):
            tree_rows(t, X)
    # one genome of the wrong arity refuses the whole pass
    good = MultiTree((t,))
    with pytest.raises(EvalError, match="arity"):
        list(genome_outputs([good, MultiTree((Tree(variable(0), 3),))],
                            np.zeros((4, 2))))
    assert list(genome_outputs([], np.zeros((4, 2)))) == []


def test_node_count_and_depth():
    t = Tree(variable(0), 1)
    assert node_count(t) == 1 and depth(t) == 0
    t = Tree(op("+", variable(0), op("*", variable(0), constant(1.0))), 1)
    assert node_count(t) == 5 and depth(t) == 2


def test_multitree_encode_columns():
    mt = MultiTree((Tree(variable(0), 2), Tree(variable(1), 2)))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(output(mt, X), X)
    assert mt.k == 2 and mt.input_arity == 2


def test_autoencoder_multitree():
    enc = MultiTree((Tree(variable(0), 2),))
    dec = MultiTree((Tree(variable(0), 1), Tree(op("-", constant(0.0), variable(0)), 1)))
    amt = AutoencoderMultiTree(enc, dec)
    X = np.array([[2.0, 9.0]])
    assert np.allclose(output(enc, X), [[2.0]])
    assert np.allclose(output(amt, X), [[2.0, -2.0]])
    with pytest.raises(EvalError):
        AutoencoderMultiTree(enc, MultiTree((Tree(variable(1), 2),)))


def test_grow_and_full_respect_depth():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = Tree(grow_tree(4, 5, rng, depth_min=2), 4)
        assert depth(g) <= 5
        # depth_min == depth_max is the full method
        f = Tree(grow_tree(4, 3, rng, depth_min=3), 4)
        assert depth(f) == 3
        # full trees over binary-only operators are complete binary trees
        assert node_count(f) == 2**4 - 1


def test_grow_depth_min_forces_operators():
    rng = np.random.default_rng(8)
    for _ in range(50):
        t = Tree(grow_tree(3, 6, rng, depth_min=2), 3)
        assert depth(t) >= 2


def test_ramped_half_and_half_population():
    rng = np.random.default_rng(9)
    pop = ramped_half_and_half(60, input_arity=5, k_trees=3, rng=rng)
    assert len(pop) == 60
    depths = set()
    for mt in pop:
        assert mt.k == 3
        for t in mt.trees:
            assert t.input_arity == 5
            assert depth(t) <= 7
            depths.add(depth(t))
    assert max(depths) == 7  # the ramp reaches the cap


def test_ramped_autoencoders_shapes():
    rng = np.random.default_rng(10)
    pop = ramped_autoencoders(12, input_arity=6, k_trees=2,
                              decoder_outputs=4, rng=rng)
    for amt in pop:
        assert amt.encoder.k == 2 and amt.encoder.input_arity == 6
        assert amt.decoder.k == 4 and amt.decoder.input_arity == 2


def test_simplify_folds_constants_and_identities():
    t = Tree(op("+", constant(2.0), constant(3.0)), 1)
    assert simplify(t).nodes == constant(5.0)
    t = Tree(op("+", variable(0), constant(0.0)), 1)
    assert simplify(t).nodes == variable(0)
    t = Tree(op("*", constant(1.0), variable(0)), 1)
    assert simplify(t).nodes == variable(0)
    t = Tree(op("*", variable(0), constant(0.0)), 1)
    assert simplify(t).nodes == constant(0.0)
    t = Tree(op("-", variable(0), constant(0.0)), 1)
    assert simplify(t).nodes == variable(0)


def test_simplify_preserves_semantics():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3))
    for _ in range(40):
        t = _rand_tree(rng)
        s = simplify(t)
        assert np.allclose(tree_rows(t, X), tree_rows(s, X),
                           atol=1e-9)


def test_to_infix_formatting():
    t = Tree(op("*", op("+", variable(0), variable(1)), variable(2)), 3)
    assert to_infix(t) == "(x0 + x1) * x2"
    t = Tree(op("-", variable(0), op("-", variable(1), variable(2))), 3)
    assert to_infix(t) == "x0 - (x1 - x2)"
    t = Tree(op("+", constant(-1.5), variable(0)), 1)
    assert to_infix(t) == "(-1.5) + x0"
    # constants print at full precision, as repr does
    t = Tree(op("+", variable(0), constant(0.1 + 0.2)), 1)
    assert to_infix(t) == "x0 + 0.30000000000000004"


def test_infix_round_trip_random_trees():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 4))
    for _ in range(60):
        t = Tree(grow_tree(4, 5, rng), 4)
        text = to_infix(t)
        back = parse_infix(text, 4)
        assert np.allclose(tree_rows(t, X), tree_rows(back, X),
                           atol=1e-12)


def test_parse_infix_unary_minus_and_errors():
    t = parse_infix("-x0 + 2", 1)
    assert tree_rows(t, np.array([[3.0]]))[0] == -1.0
    t = parse_infix("-2.5", 1)
    assert tree_rows(t, np.array([[0.0]]))[0] == -2.5
    with pytest.raises(ParseError):
        parse_infix("x0 +", 1)
    with pytest.raises(ParseError):
        parse_infix("x9", 1)
    with pytest.raises(ParseError):
        parse_infix("cos x0", 1)
    with pytest.raises(ParseError):
        parse_infix("x0 ? x0", 1)


def test_export_lines_format():
    mt = MultiTree((Tree(variable(0), 2), Tree(op("+", variable(1), constant(1.0)), 2)))
    lines = export_lines(mt)
    assert lines == ["X~0 = x0", "X~1 = x1 + 1.0"]


def test_export_lines_with_scaling_keep_the_tree_grouped():
    mt = MultiTree((Tree(op("*", variable(0), variable(1)), 2),
                    Tree(variable(1), 2)))
    lines = export_lines(mt, scaling=([0.5, -1.0], [-2.0, 1e10]))
    assert lines == ["X~0 = 0.5 + (-2.0) * (x0 * x1)",
                     "X~1 = (-1.0) + 10000000000.0 * (x1)"]
    # b * (x0 * x1) stays below the clamp where (b * x0) * x1 would not
    wide = MultiTree((Tree(op("*", variable(0), variable(1)), 2),))
    (line,) = export_lines(wide, scaling=([0.0], [1e10]))
    X = np.array([[1e3, 1e-3]])
    got = tree_rows(parse_infix(line.split(" = ", 1)[1], 2), X)
    assert got[0] == 1e10
