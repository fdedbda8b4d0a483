"""Expression-tree genomes: construction, vectorized evaluation, size
accounting and human-readable export.

A tree is a recursive tuple of ``Node`` objects. Evaluation is vectorized
over the rows of a matrix; every operator output is clamped to +/-1e12 and
NaN is replaced by 0 so depth-7 polynomials cannot blow up on data tails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

CLAMP = 1e12

# the function set: binary polynomial operators only
FUNCTION_SET = ("-", "+", "*")

P_VARIABLE = 0.9  # terminal draw: variable vs ephemeral constant

# the initial population ramps tree depth over DEPTH_MIN..MAX_DEPTH, and
# variation keeps every tree within MAX_DEPTH
DEPTH_MIN = 2
MAX_DEPTH = 7


class EvalError(ValueError):
    pass


class Node:
    """One tree node: a variable, a constant, or an operator."""

    __slots__ = ("op", "value", "children")

    def __init__(self, op: str, value=None, children: tuple = ()):
        self.op = op            # 'var', 'const', or an operator name
        self.value = value      # variable index or constant value
        self.children = children

    def is_terminal(self) -> bool:
        return self.op in ("var", "const")

    def __eq__(self, other):
        return (
            isinstance(other, Node)
            and self.op == other.op
            and self.value == other.value
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.op, self.value, self.children))

    def __repr__(self):
        if self.op == "var":
            return f"x{self.value}"
        if self.op == "const":
            return f"{self.value!r}"
        return f"({self.op} {' '.join(map(repr, self.children))})"


def variable(j: int) -> Node:
    return Node("var", j)


def constant(v: float) -> Node:
    return Node("const", float(v))


def op(name: str, *children: Node) -> Node:
    if name not in FUNCTION_SET or len(children) != 2:
        raise EvalError(f"{name!r} is not a binary operator of {FUNCTION_SET}")
    return Node(name, None, tuple(children))


@dataclass(frozen=True)
class Tree:
    root: Node
    input_arity: int


@dataclass(frozen=True)
class MultiTree:
    """k trees over the same input; tree j produces latent dimension j."""

    trees: tuple[Tree, ...]

    @property
    def k(self) -> int:
        return len(self.trees)

    @property
    def input_arity(self) -> int:
        return self.trees[0].input_arity


@dataclass(frozen=True)
class AutoencoderMultiTree:
    """Encoder of k trees (arity p) plus decoder trees (arity k)."""

    encoder: MultiTree
    decoder: MultiTree

    def __post_init__(self):
        if self.decoder.input_arity != self.encoder.k:
            raise EvalError("decoder arity must equal encoder tree count")


def _clamp(a: np.ndarray) -> np.ndarray:
    # same bits as nan_to_num(nan=0, posinf=CLAMP, neginf=-CLAMP) then
    # clip: clip keeps NaN and maps +-inf to +-CLAMP
    a = np.clip(a, -CLAMP, CLAMP)
    a[np.isnan(a)] = 0.0
    return a


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
    elif node.op == "*":
        out = a * b
    else:
        raise EvalError(f"unknown operator {node.op!r}")
    return _clamp(out)


def eval_tree_rows(t: Tree, X: np.ndarray) -> np.ndarray:
    """Evaluate ``t`` on every row of ``X`` (n, arity) -> (n,)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != t.input_arity:
        raise EvalError(
            f"input width {X.shape} does not match arity {t.input_arity}"
        )
    return _eval_node(t.root, X)


def encode(mt: MultiTree, X: np.ndarray) -> np.ndarray:
    """Apply each tree row-wise; column j is tree j's output."""
    X = np.asarray(X, dtype=np.float64)
    return np.column_stack([eval_tree_rows(t, X) for t in mt.trees])


def autoencode(amt: AutoencoderMultiTree, X: np.ndarray):
    latent = encode(amt.encoder, X)
    reconstruction = encode(amt.decoder, latent)
    return latent, reconstruction


def node_count(t: Tree) -> int:
    def rec(n: Node) -> int:
        return 1 + sum(rec(c) for c in n.children)

    return rec(t.root)


def depth(t: Tree) -> int:
    def rec(n: Node) -> int:
        if not n.children:
            return 0
        return 1 + max(rec(c) for c in n.children)

    return rec(t.root)


# ---------------------------------------------------------------------------
# random generation


def _random_terminal(input_arity: int, rng: np.random.Generator) -> Node:
    if rng.random() < P_VARIABLE:
        return variable(int(rng.integers(input_arity)))
    return constant(float(rng.normal()))


def grow_tree(
    input_arity: int,
    depth_max: int,
    rng: np.random.Generator,
    depth_min: int = 0,
) -> Node:
    """Grow method: operators chosen freely, forced below ``depth_min``.
    With ``depth_min == depth_max`` this is the full method: every leaf
    sits at exactly ``depth_max``."""

    def rec(d: int) -> Node:
        if d >= depth_max:
            return _random_terminal(input_arity, rng)
        if d >= depth_min and rng.random() < 0.5:
            return _random_terminal(input_arity, rng)
        name = FUNCTION_SET[int(rng.integers(len(FUNCTION_SET)))]
        left = rec(d + 1)  # the left subtree draws first
        return Node(name, None, (left, rec(d + 1)))

    return rec(0)


def ramped_half_and_half(
    count: int,
    input_arity: int,
    k_trees: int,
    rng: np.random.Generator,
) -> list[MultiTree]:
    """Initial population: depths ramped over [DEPTH_MIN, MAX_DEPTH],
    half 'full' and half 'grow' per depth bucket.
    """
    if count < 1:
        raise EvalError("bad ramped-half-and-half arguments")
    depths = list(range(DEPTH_MIN, MAX_DEPTH + 1))
    pop = []
    for i in range(count):
        d = depths[i % len(depths)]
        use_full = (i // len(depths)) % 2 == 0
        depth_min = d if use_full else DEPTH_MIN
        pop.append(MultiTree(tuple(
            Tree(grow_tree(input_arity, d, rng, depth_min), input_arity)
            for _ in range(k_trees)
        )))
    return pop


def ramped_autoencoders(
    count: int,
    input_arity: int,
    k_trees: int,
    decoder_outputs: int,
    rng: np.random.Generator,
) -> list[AutoencoderMultiTree]:
    encoders = ramped_half_and_half(count, input_arity, k_trees, rng)
    decoders = ramped_half_and_half(count, k_trees, decoder_outputs, rng)
    return [AutoencoderMultiTree(e, d) for e, d in zip(encoders, decoders)]


# ---------------------------------------------------------------------------
# simplification and infix export


def _fold(node: Node) -> Node:
    if node.is_terminal():
        return node
    kids = tuple(_fold(c) for c in node.children)
    a, b = kids
    if a.op == "const" and b.op == "const":
        X = np.zeros((1, 1))
        v = float(_eval_node(Node(node.op, None, kids), X)[0])
        return constant(v)
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
                    return constant(0.0)
                if u.value == 1.0:
                    return w
    return Node(node.op, None, kids)


def simplify(t: Tree) -> Tree:
    """Semantics-preserving cleanup: constant folding plus +/-0 and *1/*0
    identity removal."""
    return Tree(_fold(t.root), t.input_arity)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def _fmt_const(v: float, precision: Optional[int]) -> str:
    if precision is None:
        return repr(v)
    return f"{v:.{precision}f}"


def _to_infix(node: Node, names, precision) -> tuple[str, int]:
    """Returns (text, precedence-of-this-node)."""
    if node.op == "var":
        return names[node.value], 99
    if node.op == "const":
        v = node.value
        if v < 0:
            return f"({_fmt_const(v, precision)})", 99
        return _fmt_const(v, precision), 99
    prec = _PRECEDENCE[node.op]
    lt, lp = _to_infix(node.children[0], names, precision)
    rt, rp = _to_infix(node.children[1], names, precision)
    if lp < prec:
        lt = f"({lt})"
    # only a right-hand "-" operand gets parentheses at equal precedence.
    # Known defect: with rounding and the 1e12 clamp, + and * are not
    # associative either, yet a right-nested a * (b * c) prints as
    # a * b * c, which parse_infix reads back as (a * b) * c and may
    # compute another value. Fixing it changes the exported expressions
    # of every record.
    if rp < prec or (rp == prec and node.op == "-"):
        rt = f"({rt})"
    return f"{lt} {node.op} {rt}", prec


def to_infix(
    t: Tree,
    feature_names: Optional[Sequence[str]] = None,
    constant_precision: Optional[int] = 3,
) -> str:
    """Parenthesized ASCII infix of the simplified tree.

    ``constant_precision=None`` prints constants at full (round-trip)
    precision; the default of 3 decimals matches the human-facing export.
    """
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(t.input_arity)]
    s = simplify(t)
    text, _ = _to_infix(s.root, feature_names, constant_precision)
    return text


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*()]))"
)


class ParseError(ValueError):
    pass


def parse_infix(
    text: str,
    input_arity: int,
    feature_names: Optional[Sequence[str]] = None,
) -> Tree:
    """Parse the output of :func:`to_infix` back into a tree.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := ['-'] (number | name | '(' expr ')').
    """
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(input_arity)]
    name_to_idx = {n: j for j, n in enumerate(feature_names)}

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad token at {text[pos:pos+12]!r}")
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))

    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        t = tokens[i]
        i += 1
        return t

    def expr() -> Node:
        node = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            _, o = take()
            node = Node(o, None, (node, term()))
        return node

    def term() -> Node:
        node = factor()
        while peek() == ("op", "*"):
            take()
            node = Node("*", None, (node, factor()))
        return node

    def factor() -> Node:
        kind, val = peek()
        if (kind, val) == ("op", "-"):
            take()
            inner = factor()
            if inner.op == "const":
                return constant(-inner.value)
            return Node("-", None, (constant(0.0), inner))
        if kind == "num":
            take()
            return constant(val)
        if kind == "name":
            take()
            if val in name_to_idx:
                return variable(name_to_idx[val])
            raise ParseError(f"unknown identifier {val!r}")
        if (kind, val) == ("op", "("):
            take()
            inner = expr()
            if take() != ("op", ")"):
                raise ParseError("expected ')'")
            return inner
        raise ParseError(f"unexpected token {val!r}")

    root = expr()
    if peek()[0] != "end":
        raise ParseError(f"trailing input: {tokens[i:]}")
    return Tree(root, input_arity)


def export_lines(
    mt: MultiTree,
    feature_names: Optional[Sequence[str]] = None,
    constant_precision: Optional[int] = 3,
    scaling: Optional[tuple[Sequence[float], Sequence[float]]] = None,
) -> list[str]:
    """One ``X~<j> = <infix>`` line per latent dimension.

    With ``scaling=(a, b)`` line j reads ``a_j + b_j * (<infix>)``. The
    tree keeps its parentheses, so re-parsing the line evaluates the tree
    first, as the scaled fitness did.
    """
    lines = []
    for j, t in enumerate(mt.trees):
        text = to_infix(t, feature_names, constant_precision)
        if scaling is not None:
            a, b = (
                _to_infix(constant(v[j]), (), constant_precision)[0]
                for v in scaling
            )
            text = f"{a} + {b} * ({text})"
        lines.append(f"X~{j} = {text}")
    return lines
