"""Test instruments with no caller in the package: an infix parser that
reads ``gp_core.to_infix`` output back into a tree, the node-by-node tree
evaluator that ``gp_core.evaluate_trees`` replaced, one-genome and one-tree
shorthands for ``gp_core.genome_outputs``, a recorder of the generations
``evolution.evolve`` varies, and a gradient check of ``neural._backprop``
against central finite differences.

This is a helper module, not a test file: the round-trip tests read the
shipped ``to_infix`` and ``export_lines`` back with ``parse_infix``, the
evaluation tests compare the shipped pass with ``_evaluate`` byte for
byte, and the gradient tests check the shipped ``_backprop`` through
``gradients``.
"""

from __future__ import annotations

import re

import numpy as np

from gpdr import evolution
from gpdr.gp_core import (
    _UFUNCS,
    MultiTree,
    _clamp,
    constant,
    genome_outputs,
    op,
    variable,
)
from gpdr.neural import Mlp, _backprop
from gpdr.numerics import mse


def _evaluate(nodes: tuple, X: np.ndarray) -> np.ndarray:
    """One tree on every row of ``X``, one numpy call and one ``_clamp`` per
    operator node: the byte oracle of ``gp_core.evaluate_trees``."""
    stack = []
    for symbol, value in reversed(nodes):
        if symbol == "var":
            stack.append(X[:, value])
        elif symbol == "const":
            stack.append(np.full(X.shape[0], value))
        else:
            left = stack.pop()
            stack.append(_clamp(_UFUNCS[symbol](left, stack.pop())))
    return stack.pop()


def output(genome, X: np.ndarray) -> np.ndarray:
    """One genome's output on the rows of ``X``: its latent, or an
    autoencoder's decoder output."""
    (out,) = genome_outputs([genome], X)
    return out


def tree_rows(nodes: tuple, X: np.ndarray) -> np.ndarray:
    """One tree's output on the rows of ``X``, shape (rows,)."""
    return output(MultiTree((nodes,), X.shape[1]), X)[:, 0]


def record_generations(monkeypatch) -> list:
    """A list that gets each generation's ``(pop, fits)`` as ``evolve``
    hands them to ``next_generation``, which then runs as before."""
    seen = []
    vary = evolution.next_generation

    def recorded(pop, fits, rng):
        seen.append((pop, fits))
        return vary(pop, fits, rng)

    monkeypatch.setattr(evolution, "next_generation", recorded)
    return seen


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*()]))"
)


class ParseError(ValueError):
    pass


def parse_infix(text: str, input_arity: int) -> tuple:
    """Parse the output of ``gp_core.to_infix`` back into a preorder tree.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := ['-'] (number | name | '(' expr ')').
    """
    name_to_idx = {f"x{j}": j for j in range(input_arity)}

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

    def expr() -> tuple:
        nodes = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            _, o = take()
            nodes = op(o, nodes, term())
        return nodes

    def term() -> tuple:
        nodes = factor()
        while peek() == ("op", "*"):
            take()
            nodes = op("*", nodes, factor())
        return nodes

    def factor() -> tuple:
        kind, val = peek()
        if (kind, val) == ("op", "-"):
            take()
            inner = factor()
            if inner[0][0] == "const":
                return constant(-inner[0][1])
            return op("-", constant(0.0), inner)
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

    nodes = expr()
    if peek()[0] != "end":
        raise ParseError(f"trailing input: {tokens[i:]}")
    return nodes


def gradients(m: Mlp, X: np.ndarray, Y: np.ndarray):
    """Backprop gradients of the MSE loss w.r.t. every weight and bias."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    acts = m.forward_all(X)
    gw, gb = _backprop(m.weights, m.activations, X, Y, acts)
    return gw, [g[0] for g in gb]


def grad_check(m: Mlp, X: np.ndarray, Y: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences."""
    gw, gb = gradients(m, X, Y)
    worst = 0.0
    params = list(zip(m.weights, gw)) + list(zip(m.biases, gb))
    for arr, grad in params:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = mse(m.forward(X), Y)
            arr[idx] = orig - step
            down = mse(m.forward(X), Y)
            arr[idx] = orig
            numeric = (up - down) / (2.0 * step)
            denom = max(1e-8, abs(numeric) + abs(grad[idx]))
            worst = max(worst, abs(numeric - grad[idx]) / denom)
    return worst
