"""Byte oracle for the preorder-tuple genomes.

``gp_core`` once stored a tree as linked ``Node`` objects, built, evaluated
and varied by recursion. That code is kept here as the reference: from the
same seeds the tuple code must draw the same trees, vary them the same way
and leave the generator in the same state, and the same trees must evaluate
to the same bytes and print the same text. An oracle genome is a tuple of
root ``Node``s plus its input arity (``Multi``), or two of them (``Auto``).
"""

from typing import NamedTuple

import numpy as np
import pytest

from gpdr.gp_core import (
    FUNCTION_SET,
    MAX_DEPTH,
    P_VARIABLE,
    AutoencoderMultiTree,
    MultiTree,
    Tree,
    _clamp,
    export_lines,
    genome_outputs,
    grow_tree,
    simplify,
    to_infix,
)
from gpdr.variation import (
    ELITISM,
    P_C,
    P_O,
    P_S,
    TOURNAMENT_SIZE,
    next_generation,
    one_point_mutation,
    same_index_crossover,
    subtree_mutation,
    tournament_select,
)

SEEDS = range(2000)


# ---------------------------------------------------------------------------
# the recursive representation


class Node:
    __slots__ = ("op", "value", "children")

    def __init__(self, op: str, value=None, children: tuple = ()):
        self.op = op
        self.value = value
        self.children = children

    def is_terminal(self) -> bool:
        return self.op in ("var", "const")


class Multi(NamedTuple):
    roots: tuple
    arity: int


class Auto(NamedTuple):
    encoder: Multi
    decoder: Multi


def _const(v: float) -> Node:
    return Node("const", float(v))


def _eval_node(node: Node, X: np.ndarray) -> np.ndarray:
    if node.op == "var":
        return X[:, node.value]
    if node.op == "const":
        return np.full(X.shape[0], node.value)
    left, right = node.children
    a, b = _eval_node(left, X), _eval_node(right, X)
    if node.op == "+":
        out = a + b
    elif node.op == "-":
        out = a - b
    else:
        out = a * b
    return _clamp(out)


def _depth(node: Node) -> int:
    if not node.children:
        return 0
    return 1 + max(_depth(c) for c in node.children)


def _terminal(input_arity: int, rng) -> Node:
    if rng.random() < P_VARIABLE:
        return Node("var", int(rng.integers(input_arity)))
    return _const(float(rng.normal()))


def _grow(input_arity: int, depth_max: int, rng, depth_min: int = 0) -> Node:
    def rec(d: int) -> Node:
        if d >= depth_max:
            return _terminal(input_arity, rng)
        if d >= depth_min and rng.random() < 0.5:
            return _terminal(input_arity, rng)
        name = FUNCTION_SET[int(rng.integers(len(FUNCTION_SET)))]
        left = rec(d + 1)
        return Node(name, None, (left, rec(d + 1)))

    return rec(0)


def _nodes_preorder(root: Node) -> list:
    out = []

    def rec(n: Node, d: int):
        out.append((n, d))
        for c in n.children:
            rec(c, d + 1)

    rec(root, 0)
    return out


def _iter_nodes(root: Node):
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.children)


def _replace_at(root: Node, index: int, replacement: Node) -> Node:
    counter = [0]

    def rec(n: Node) -> Node:
        i = counter[0]
        counter[0] += 1
        if i == index:
            counter[0] += sum(1 for _ in _iter_nodes(n)) - 1
            return replacement
        if not n.children:
            return n
        return Node(n.op, n.value, tuple(rec(c) for c in n.children))

    return rec(root)


def _crossover(a: Multi, b: Multi, p_c: float, rng):
    out_a, out_b = [], []
    for ra, rb in zip(a.roots, b.roots):
        if rng.random() >= p_c:
            out_a.append(ra)
            out_b.append(rb)
            continue
        nodes_a, nodes_b = _nodes_preorder(ra), _nodes_preorder(rb)
        ia = int(rng.integers(len(nodes_a)))
        ib = int(rng.integers(len(nodes_b)))
        child_a = _replace_at(ra, ia, nodes_b[ib][0])
        child_b = _replace_at(rb, ib, nodes_a[ia][0])
        if _depth(child_a) > MAX_DEPTH or _depth(child_b) > MAX_DEPTH:
            out_a.append(ra)
            out_b.append(rb)
        else:
            out_a.append(child_a)
            out_b.append(child_b)
    return Multi(tuple(out_a), a.arity), Multi(tuple(out_b), b.arity)


def _subtree_mutation(mt: Multi, p_s: float, rng) -> Multi:
    out = []
    for root in mt.roots:
        if rng.random() >= p_s:
            out.append(root)
            continue
        nodes = _nodes_preorder(root)
        idx = int(rng.integers(len(nodes)))
        fresh = _grow(mt.arity, MAX_DEPTH - nodes[idx][1], rng)
        out.append(_replace_at(root, idx, fresh))
    return Multi(tuple(out), mt.arity)


def _one_point_mutation(mt: Multi, p_o: float, rng) -> Multi:
    out = []
    for root in mt.roots:
        if rng.random() >= p_o:
            out.append(root)
            continue
        nodes = _nodes_preorder(root)
        idx = int(rng.integers(len(nodes)))
        target = nodes[idx][0]
        if target.is_terminal():
            replacement = _terminal(mt.arity, rng)
        else:
            name = FUNCTION_SET[int(rng.integers(len(FUNCTION_SET)))]
            replacement = Node(name, None, target.children)
        out.append(_replace_at(root, idx, replacement))
    return Multi(tuple(out), mt.arity)


def _vary_pair(pa, pb, rng):
    if isinstance(pa, Auto):
        ea, eb = _crossover(pa.encoder, pb.encoder, P_C, rng)
        da, db = _crossover(pa.decoder, pb.decoder, P_C, rng)
        parts = []
        for enc, dec in ((ea, da), (eb, db)):
            enc = _subtree_mutation(enc, P_S, rng)
            dec = _subtree_mutation(dec, P_S, rng)
            enc = _one_point_mutation(enc, P_O, rng)
            dec = _one_point_mutation(dec, P_O, rng)
            parts.append(Auto(enc, dec))
        return parts
    ca, cb = _crossover(pa, pb, P_C, rng)
    out = []
    for c in (ca, cb):
        c = _subtree_mutation(c, P_S, rng)
        c = _one_point_mutation(c, P_O, rng)
        out.append(c)
    return out


def _next_generation(pop, fitnesses, rng):
    n = len(pop)
    order = np.argsort(fitnesses, kind="stable")
    new_pop = [pop[i] for i in order[:ELITISM]]
    while len(new_pop) < n:
        pa = tournament_select(pop, fitnesses, TOURNAMENT_SIZE, rng)
        pb = tournament_select(pop, fitnesses, TOURNAMENT_SIZE, rng)
        for child in _vary_pair(pa, pb, rng):
            if len(new_pop) < n:
                new_pop.append(child)
    return new_pop


def _fold(node: Node) -> Node:
    if node.is_terminal():
        return node
    kids = tuple(_fold(c) for c in node.children)
    a, b = kids
    if a.op == "const" and b.op == "const":
        X = np.zeros((1, 1))
        return _const(float(_eval_node(Node(node.op, None, kids), X)[0]))
    if node.op == "+":
        if a.op == "const" and a.value == 0.0:
            return b
        if b.op == "const" and b.value == 0.0:
            return a
    elif node.op == "-":
        if b.op == "const" and b.value == 0.0:
            return a
    elif node.op == "*":
        for u, w in ((a, b), (b, a)):
            if u.op == "const":
                if u.value == 0.0:
                    return _const(0.0)
                if u.value == 1.0:
                    return w
    return Node(node.op, None, kids)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def _to_infix(node: Node) -> tuple:
    if node.op == "var":
        return f"x{node.value}", 99
    if node.op == "const":
        v = node.value
        return (f"({v!r})" if v < 0 else repr(v)), 99
    prec = _PRECEDENCE[node.op]
    lt, lp = _to_infix(node.children[0])
    rt, rp = _to_infix(node.children[1])
    if lp < prec:
        lt = f"({lt})"
    if rp < prec or (rp == prec and node.op == "-"):
        rt = f"({rt})"
    return f"{lt} {node.op} {rt}", prec


def _infix(root: Node) -> str:
    return _to_infix(_fold(root))[0]


def _export_lines(mt: Multi, scaling=None) -> list:
    lines = []
    for j, root in enumerate(mt.roots):
        text = _infix(root)
        if scaling is not None:
            a, b = (_to_infix(_const(v[j]))[0] for v in scaling)
            text = f"{a} + {b} * ({text})"
        lines.append(f"X~{j} = {text}")
    return lines


# ---------------------------------------------------------------------------
# conversion to the production genomes, for comparison only


def _flat(node: Node) -> tuple:
    return tuple((n.op, n.value) for n, _ in _nodes_preorder(node))


def _genome(g):
    if isinstance(g, Auto):
        return AutoencoderMultiTree(_genome(g.encoder), _genome(g.decoder))
    return MultiTree(tuple(Tree(_flat(r), g.arity) for r in g.roots))


def _random_multi(rng, k: int, arity: int, dmax: int = MAX_DEPTH) -> Multi:
    """k trees whose depth and method vary like the ramped population's."""
    roots = []
    for _ in range(k):
        d = int(rng.integers(2, dmax + 1))
        roots.append(_grow(arity, d, rng, d if rng.random() < 0.5 else 2))
    return Multi(tuple(roots), arity)


def _same_state(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ---------------------------------------------------------------------------
# the checks


@pytest.mark.parametrize("method", ["grow", "ramp", "full"])
def test_grow_tree_draws_like_the_node_oracle(method):
    for seed in SEEDS:
        arity, d = 1 + seed % 5, seed % (MAX_DEPTH + 1)
        depth_min = {"grow": 0, "ramp": min(2, d), "full": d}[method]
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert grow_tree(arity, d, new, depth_min) == _flat(
            _grow(arity, d, old, depth_min))
        assert _same_state(new, old)


@pytest.mark.parametrize("operator", ["crossover", "self_crossover",
                                      "subtree", "one_point"])
def test_operators_vary_like_the_node_oracle(operator):
    for seed in SEEDS:
        build = np.random.default_rng([seed, 1])
        k, arity = 1 + seed % 3, 1 + seed % 4
        a = _random_multi(build, k, arity)
        b = a if operator == "self_crossover" else _random_multi(build, k,
                                                                 arity)
        rate = (0.5, 1.0)[seed % 2]
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        if operator in ("crossover", "self_crossover"):
            got = same_index_crossover(_genome(a), _genome(b), rate, new)
            want = tuple(map(_genome, _crossover(a, b, rate, old)))
        elif operator == "subtree":
            got = subtree_mutation(_genome(a), rate, new)
            want = _genome(_subtree_mutation(a, rate, old))
        else:
            got = one_point_mutation(_genome(a), rate, new)
            want = _genome(_one_point_mutation(a, rate, old))
        assert got == want
        assert _same_state(new, old)


@pytest.mark.parametrize("form", ["multi_tree", "autoencoder"])
def test_next_generation_matches_the_node_oracle(form):
    for seed in SEEDS:
        build = np.random.default_rng([seed, 2])
        # shallow parents keep the run short; subtree mutation still grows
        # to the depth cap, and the crossover check covers deep parents
        if form == "autoencoder":
            pop = [Auto(_random_multi(build, 2, 3, 4),
                        _random_multi(build, 3, 2, 4)) for _ in range(4)]
        else:
            pop = [_random_multi(build, 2, 3, 4) for _ in range(4)]
        # rounded draws, so tournaments meet ties
        fits = list(np.round(build.normal(size=len(pop)), 1))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = next_generation([_genome(g) for g in pop], fits, new)
        assert got == [_genome(g) for g in _next_generation(pop, fits, old)]
        assert _same_state(new, old)


def test_encode_and_autoencode_bytes_match_the_node_oracle():
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 3])
        g = Auto(_random_multi(rng, 2, 3, 5), _random_multi(rng, 3, 2, 5))
        # wide scales drive products into the clamp
        X = rng.normal(size=(7, 3)) * 10.0 ** int(rng.integers(0, 9))
        lat = np.column_stack([_eval_node(r, X) for r in g.encoder.roots])
        rec = np.column_stack([_eval_node(r, lat) for r in g.decoder.roots])
        genome = _genome(g)
        (got_lat,) = genome_outputs([genome.encoder], X)
        assert got_lat.tobytes() == lat.tobytes()
        (got_rec,) = genome_outputs([genome], X)
        assert got_rec.tobytes() == rec.tobytes()


def _with_special_constants(node: Node, rng) -> Node:
    """The same shape with leaves redrawn among the constants the
    simplifier treats specially."""
    if node.children:
        return Node(node.op, None, tuple(_with_special_constants(c, rng)
                                         for c in node.children))
    if node.op == "var" and rng.random() < 0.5:
        return node
    # 1e7 carries a folded product of two or more to and past CLAMP, and
    # -1e200 to and past the float range
    return _const([0.0, -0.0, 1.0, -1.5, 2.25, 1e7, -1e200][
        int(rng.integers(7))])


@np.errstate(over="ignore")  # -1e200 * -1e200 overflows before the clamp
def test_simplify_and_export_text_match_the_node_oracle():
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 4])
        mt = _random_multi(rng, 2, 3, 5)
        mt = Multi(tuple(_with_special_constants(r, rng) for r in mt.roots),
                   mt.arity)
        genome = _genome(mt)
        for root, t in zip(mt.roots, genome.trees):
            assert simplify(t) == Tree(_flat(_fold(root)), 3)
            assert to_infix(t) == _infix(root)
        scaling = (rng.normal(size=2), rng.normal(size=2))
        assert export_lines(genome) == _export_lines(mt)
        assert export_lines(genome, scaling) == _export_lines(mt, scaling)
