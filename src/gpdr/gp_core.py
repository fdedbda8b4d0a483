"""Expression-tree genomes: construction, vectorized evaluation, size
accounting and human-readable export.

A tree is a flat tuple of ``(symbol, value)`` node pairs in preorder:
``("var", j)`` reads input column j, ``("const", v)`` is the constant v,
and ``(op, None)`` is a binary operator, followed by its left subtree and
then its right subtree. So every subtree is a slice ``nodes[i:end]``, and
variation splices slices. Preorder is also draw order: ``grow_tree`` draws
a node, then its left subtree, then its right one, and appends each node as
it is drawn, so a preorder index names the same node the draws made.

Evaluation is vectorized over the rows of a matrix; every operator output
is clamped to +/-1e12 and NaN is replaced by 0 so depth-7 polynomials
cannot blow up on data tails. ``evaluate_trees`` evaluates many trees in
one pass, by node height, with the bytes of a node-by-node walk;
``genome_outputs``, the one genome evaluator, runs it over many genomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

CLAMP = 1e12

# the function set: binary polynomial operators only, in draw order
_UFUNCS = {"-": np.subtract, "+": np.add, "*": np.multiply}
FUNCTION_SET = tuple(_UFUNCS)

P_VARIABLE = 0.9  # terminal draw: variable vs ephemeral constant

# the initial population ramps tree depth over DEPTH_MIN..MAX_DEPTH, and
# variation keeps every tree within MAX_DEPTH
DEPTH_MIN = 2
MAX_DEPTH = 7


class EvalError(ValueError):
    pass


def variable(j: int) -> tuple:
    return (("var", j),)


def constant(v: float) -> tuple:
    return (("const", float(v)),)


def op(name: str, left: tuple, right: tuple) -> tuple:
    if name not in FUNCTION_SET:
        raise EvalError(f"{name!r} is not a binary operator of {FUNCTION_SET}")
    return ((name, None),) + left + right


@dataclass(frozen=True)
class Tree:
    nodes: tuple  # (symbol, value) pairs in preorder
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


def subtree_end(nodes: tuple, i: int) -> int:
    """One past the last node of the subtree that starts at index ``i``."""
    open_slots = 1
    while open_slots:
        open_slots += 1 if nodes[i][0] in FUNCTION_SET else -1
        i += 1
    return i


def node_depths(nodes: tuple) -> list[int]:
    """The depth of every node, in preorder; the root is at depth 0."""
    depths, pending = [], [0]
    for symbol, _ in nodes:
        d = pending.pop()
        depths.append(d)
        if symbol in FUNCTION_SET:
            pending += (d + 1, d + 1)
    return depths


def _reduce(nodes: tuple, leaf, combine):
    """Fold a tree bottom-up: ``leaf(symbol, value)`` at each terminal and
    ``combine(op, left, right)`` at each operator. Walking the preorder
    backwards meets both operands before their operator, left one on top."""
    stack = []
    for symbol, value in reversed(nodes):
        if symbol in FUNCTION_SET:
            left = stack.pop()
            stack.append(combine(symbol, left, stack.pop()))
        else:
            stack.append(leaf(symbol, value))
    return stack.pop()


def _clamp(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # same bits as nan_to_num(nan=0, posinf=CLAMP, neginf=-CLAMP) then
    # clip: clip keeps NaN and maps +-inf to +-CLAMP. Without ``out`` the
    # input is kept.
    a = np.clip(a, -CLAMP, CLAMP, out=out)
    a[np.isnan(a)] = 0.0
    return a


# node codes of the evaluation pass; an operator's code is its index in
# FUNCTION_SET
_VAR, _CONST = -2, -1
_CODES = {"var": _VAR, "const": _CONST,
          **{name: i for i, name in enumerate(FUNCTION_SET)}}
_OPERATORS = tuple(_UFUNCS.values())
_RUN_EDGES = np.arange(len(_OPERATORS) + 1)

# the most float64 elements (nodes x rows) one chunk's operand table holds
EVAL_BUDGET = 2**16


def _flatten(trees: Sequence[tuple]):
    """The node codes and values of the trees, one after another; an
    operator's value is 0."""
    symbols, values = zip(*chain.from_iterable(trees))
    code = np.fromiter(map(_CODES.__getitem__, symbols), np.int8, len(symbols))
    value = np.fromiter((0.0 if v is None else v for v in values), np.float64,
                        len(values))
    return code, value


def _links(code: np.ndarray):
    """The right child of every operator and the height of every node of
    whole preorder trees, one after another (the left child of operator i
    is node i + 1).

    Before each node, count the open slots: +1 per operator, -1 per
    terminal. Operator i's left subtree keeps the count above i's own, and
    the right child is the first later node back at it: i's successor in
    a stable sort of the counts."""
    is_op = code >= 0
    open_slots = np.concatenate(([0], np.cumsum(np.where(is_op, 1, -1))))
    by_count = np.argsort(open_slots, kind="stable")
    right = np.empty_like(by_count)
    right[by_count[:-1]] = by_count[1:]
    ops = np.flatnonzero(is_op)
    height = np.zeros(code.size, np.intp)
    while ops.size:
        h = 1 + np.maximum(height[ops + 1], height[right[ops]])
        if np.array_equal(h, height[ops]):
            break
        height[ops] = h
    return right, height


def _evaluate_chunk(trees: Sequence[tuple], sizes: np.ndarray,
                    offsets: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``evaluate_trees`` on a chunk of whole trees of ``sizes`` nodes,
    variable j of tree t reading column ``j + offsets[t]``."""
    code, value = _flatten(trees)
    right, height = _links(code)
    is_var = code == _VAR
    cols = value[is_var].astype(np.intp) + np.repeat(offsets, sizes)[is_var]
    if cols.size and (cols.min() < 0 or cols.max() >= X.shape[1]):
        raise EvalError(f"a variable reads beyond the {X.shape[1]} columns")
    # table rows: the columns [lo, lo + n_var) of X, the constants, then
    # the operators in (height, symbol) order, so that each height writes
    # one block and each symbol one run of it
    lo = cols.min() if cols.size else 0
    n_var = cols.max() + 1 - lo if cols.size else 0
    consts = np.flatnonzero(code == _CONST)
    ops = np.flatnonzero(code >= 0)
    ops = ops[np.lexsort((code[ops], height[ops]))]
    first_op = n_var + consts.size
    slot = np.empty(code.size, np.intp)
    slot[is_var] = cols - lo
    slot[consts] = n_var + np.arange(consts.size)
    slot[ops] = first_op + np.arange(ops.size)
    table = np.empty((first_op + ops.size, X.shape[0]))
    table[:n_var] = X.T[lo:lo + n_var]
    table[n_var:first_op] = value[consts, None]
    left_slot, right_slot = slot[ops + 1], slot[right[ops]]
    # a height reads only lower heights, all clamped by then: gather its
    # operands and clamp its outputs in one call each, and apply each
    # operator to its run of the height
    cuts = [0, *(np.flatnonzero(np.diff(height[ops])) + 1).tolist(), ops.size]
    for s, e in zip(cuts, cuts[1:]):
        lhs, rhs = table[left_slot[s:e]], table[right_slot[s:e]]
        block = table[first_op + s:first_op + e]
        runs = np.searchsorted(code[ops[s:e]], _RUN_EDGES).tolist()
        for symbol, (rs, re) in enumerate(zip(runs, runs[1:])):
            if rs < re:
                _OPERATORS[symbol](lhs[rs:re], rhs[rs:re], out=block[rs:re])
        _clamp(block, out=block)
    return table[slot[np.cumsum(sizes) - sizes]]


def evaluate_trees(
    trees: Sequence[tuple],
    X: np.ndarray,
    column_offsets: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Evaluate preorder trees on every row of ``X``: row t of the result is
    tree t's output. Variable j of tree t reads column
    ``j + column_offsets[t]`` (offset 0 by default).

    Every operator of the same height (0 at the terminals) and symbol, over
    all trees of a chunk, is one ufunc call on operands gathered from one
    table: the columns of X that the chunk reads, a row per constant, then
    the operator outputs in (height, symbol) order. Each height's outputs
    then get one ``_clamp`` before a higher height reads them. Each node so
    meets the IEEE operation, operands and clamp of a node-by-node walk,
    and the outputs are the walk's bytes. A chunk is a run of whole trees
    whose node count times the rows stays within ``EVAL_BUDGET`` (a larger
    tree is a chunk of its own), so the memory a call takes beyond its
    output does not grow with the number of trees.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise EvalError(f"expected a 2-D input, got shape {X.shape}")
    offsets = np.zeros(len(trees), np.intp)
    if column_offsets is not None:
        offsets[:] = column_offsets
    out = np.empty((len(trees), X.shape[0]))
    sizes = np.fromiter(map(len, trees), np.intp, len(trees))
    ends = np.cumsum(sizes)
    max_nodes = max(1, EVAL_BUDGET // max(X.shape[0], 1))
    t0 = 0
    while t0 < len(trees):
        limit = (ends[t0 - 1] if t0 else 0) + max_nodes
        t1 = max(t0 + 1, int(np.searchsorted(ends, limit, "right")))
        out[t0:t1] = _evaluate_chunk(trees[t0:t1], sizes[t0:t1],
                                     offsets[t0:t1], X)
        t0 = t1
    return out


def genome_outputs(genomes: Sequence, X: np.ndarray):
    """Yield each genome's (rows, k) output on the rows of ``X``: a
    MultiTree's latent, or an AutoencoderMultiTree's decoder output. The
    genomes share one form, and one ``evaluate_trees`` pass runs all their
    trees; an autoencoder's decoders get a second, over the stacked latents.
    """
    X = np.asarray(X, dtype=np.float64)
    amt = bool(genomes) and isinstance(genomes[0], AutoencoderMultiTree)
    mts = [g.encoder for g in genomes] if amt else genomes
    if X.ndim != 2 or any(mt.input_arity != X.shape[1] for mt in mts):
        raise EvalError(f"input shape {X.shape} does not match the arity")
    rows = evaluate_trees([t.nodes for mt in mts for t in mt.trees], X)
    if amt:
        # variable j of genome g's decoder reads latent row starts[g] + j
        starts = np.cumsum([0] + [mt.k for mt in mts[:-1]])
        mts = [g.decoder for g in genomes]
        rows = evaluate_trees([t.nodes for mt in mts for t in mt.trees],
                              rows.T, np.repeat(starts, [mt.k for mt in mts]))
    # C-ordered copies: numpy sums a column of an F-ordered array in another
    # order, so linear scaling's column means would change in the last bits
    ks = [mt.k for mt in mts]
    for end, k in zip(np.cumsum(ks), ks):
        yield rows[end - k:end].T.copy()


def node_count(t: Tree) -> int:
    return len(t.nodes)


def depth(t: Tree) -> int:
    return max(node_depths(t.nodes))


# ---------------------------------------------------------------------------
# random generation


def _random_terminal(input_arity: int, rng: np.random.Generator) -> tuple:
    if rng.random() < P_VARIABLE:
        return ("var", int(rng.integers(input_arity)))
    return ("const", float(rng.normal()))


def _random_operator(rng: np.random.Generator) -> tuple:
    return (FUNCTION_SET[int(rng.integers(len(FUNCTION_SET)))], None)


def grow_tree(
    input_arity: int,
    depth_max: int,
    rng: np.random.Generator,
    depth_min: int = 0,
) -> tuple:
    """Grow method: operators chosen freely, forced below ``depth_min``.
    With ``depth_min == depth_max`` this is the full method: every leaf
    sits at exactly ``depth_max``."""
    nodes, pending = [], [0]
    while pending:
        d = pending.pop()
        if d >= depth_max or (d >= depth_min and rng.random() < 0.5):
            nodes.append(_random_terminal(input_arity, rng))
        else:
            nodes.append(_random_operator(rng))
            pending += (d + 1, d + 1)
    return tuple(nodes)


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


def _fold(name: str, a: tuple, b: tuple) -> tuple:
    (sa, va), (sb, vb) = a[0], b[0]
    if sa == "const" and sb == "const":
        # the operation and clamp an evaluation applies, so the same bits
        return constant(float(_clamp(_UFUNCS[name](np.array([va]),
                                                   np.array([vb])))[0]))
    if name == "+":
        if sa == "const" and va == 0.0:
            return b
        if sb == "const" and vb == 0.0:
            return a
    elif name == "-":
        if sb == "const" and vb == 0.0:
            return a
    elif name == "*":
        for (su, vu), w in ((a[0], b), (b[0], a)):
            if su == "const":
                if vu == 0.0:
                    return constant(0.0)
                if vu == 1.0:
                    return w
    return op(name, a, b)


def simplify(t: Tree) -> Tree:
    """Semantics-preserving cleanup: constant folding plus +/-0 and *1/*0
    identity removal."""
    nodes = _reduce(t.nodes, lambda s, v: ((s, v),), _fold)
    return Tree(nodes, t.input_arity)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def _to_infix(nodes: tuple) -> tuple[str, int]:
    """Returns (text, precedence-of-the-root)."""

    def leaf(symbol, value):
        if symbol == "var":
            return f"x{value}", 99
        if value < 0:
            return f"({value!r})", 99
        return repr(value), 99

    def combine(name, left, right):
        prec = _PRECEDENCE[name]
        (lt, lp), (rt, rp) = left, right
        if lp < prec:
            lt = f"({lt})"
        # only a right-hand "-" operand gets parentheses at equal
        # precedence. Known defect: with rounding and the 1e12 clamp, + and
        # * are not associative either, yet a right-nested a * (b * c)
        # prints as a * b * c, which reads back as (a * b) * c (as the
        # test parser in tests/support.py reads it) and may compute another
        # value. Fixing it changes the exported expressions of every record.
        if rp < prec or (rp == prec and name == "-"):
            rt = f"({rt})"
        return f"{lt} {name} {rt}", prec

    return _reduce(nodes, leaf, combine)


def to_infix(t: Tree) -> str:
    """Parenthesized ASCII infix of the simplified tree. Input column j
    prints as ``xj``, and a constant at full (round-trip) precision, as
    ``repr`` prints it."""
    return _to_infix(simplify(t).nodes)[0]


def export_lines(
    mt: MultiTree,
    scaling: Optional[tuple[Sequence[float], Sequence[float]]] = None,
) -> list[str]:
    """One ``X~<j> = <infix>`` line per latent dimension.

    With ``scaling=(a, b)`` line j reads ``a_j + b_j * (<infix>)``. The
    tree keeps its parentheses, so reading the line back (the tests do, with
    the parser in tests/support.py) evaluates the tree first, as the scaled
    fitness did.
    """
    lines = []
    for j, t in enumerate(mt.trees):
        text = to_infix(t)
        if scaling is not None:
            a, b = (_to_infix(constant(v[j]))[0] for v in scaling)
            text = f"{a} + {b} * ({text})"
        lines.append(f"X~{j} = {text}")
    return lines
