"""Small feed-forward networks trained by backpropagation.

Two roles: the autoencoder whose bottleneck supplies the teacher latent,
and the standalone decoders used as the reconstruction-error evaluation
model. Training is plain SGD with momentum, fully deterministic under each
network's seed. Every network trains with the same fixed settings:
mini-batches of ``BATCH_SIZE`` rows, learning rate ``LEARNING_RATE``
(halved once on divergence) and momentum ``MOMENTUM``.

Networks of one shape train as one stack: layer i of F networks is an
(F, fan_in, fan_out) array and every product is a stacked ``@``. numpy's
matmul computes each slice of a stacked product with the same kernel
call as the 2-D product of that slice, and every other step is
elementwise or reduces within one network, so each network of a stack
ends with the bits it would have trained to alone. A single network is
the stack of one; a network that steps alone does so on its 2-D slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import mse

BATCH_SIZE = 32
LEARNING_RATE = 0.01
MOMENTUM = 0.9


class TrainingError(RuntimeError):
    pass


@dataclass
class Mlp:
    weights: list        # W_i of shape (fan_in, fan_out)
    biases: list         # b_i of shape (fan_out,)
    activations: list    # 'tanh' or 'linear' per layer
    bottleneck_index: Optional[int] = None  # layer whose output is the latent
    final_loss: Optional[float] = None

    def forward_all(self, X: np.ndarray) -> list[np.ndarray]:
        """Activations after every layer (input excluded)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"input width {X.shape[1]} != layer size "
                f"{self.weights[0].shape[0]}"
            )
        return _forward(self.weights, self.biases, self.activations, X)

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_all(X)[-1]


def latent(m: Mlp, X: np.ndarray) -> np.ndarray:
    """Bottleneck activations."""
    if m.bottleneck_index is None:
        raise ValueError("model has no bottleneck layer")
    return m.forward_all(X)[m.bottleneck_index]


def _init_mlp(sizes, activations, bottleneck_index, rng) -> Mlp:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, list(activations), bottleneck_index)


def _forward(weights, biases, activations, X) -> list[np.ndarray]:
    """Activations after every layer (input excluded) of one network, with
    X (rows, fan_in), or of a stack of networks, with X (F, rows, fan_in),
    layer i's weights (F, fan_in, fan_out) and its biases (F, 1, fan_out)."""
    outs = []
    a = X
    for W, b, act in zip(weights, biases, activations):
        z = a @ W + b
        a = np.tanh(z) if act == "tanh" else z
        outs.append(a)
    return outs


def _backprop(weights, activations, X, Y, acts):
    """Gradients of each network's MSE loss w.r.t. its weights and biases;
    a bias gradient keeps its row axis."""
    n_total = Y.shape[-2] * Y.shape[-1]
    delta = 2.0 * (acts[-1] - Y) / n_total
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        if activations[i] == "tanh":
            delta = delta * (1.0 - acts[i] ** 2)
        prev = X if i == 0 else acts[i - 1]
        gw[i] = prev.swapaxes(-1, -2) @ delta
        gb[i] = delta.sum(axis=-2, keepdims=True)
        if i > 0:
            delta = delta @ weights[i].swapaxes(-1, -2)
    return gw, gb


def _padded(arrays, rows: int) -> np.ndarray:
    out = np.zeros((len(arrays), rows, arrays[0].shape[1]))
    for a, o in zip(arrays, out):
        o[:a.shape[0]] = a
    return out


def _epoch_plan(ns: np.ndarray, batch_size: int, X, Y):
    """The steps of one epoch of a stack sorted by row count, as (batch
    start, rows, networks, their slots as an index), and the full data of
    each run of equal row count for the loss, as (networks, X, Y).
    Networks whose batches at a step have the same row count step
    together; sorted by row count, they are a contiguous run of the stack,
    so ``networks`` is a slice, or the slot of a network alone."""

    def runs(sizes):
        edges = np.flatnonzero(np.diff(sizes)) + 1
        return [(int(sizes[lo]), slice(lo, hi)) for lo, hi in
                zip([0, *edges], [*edges, sizes.size])]

    def slots(sel):
        # a lone network steps on its 2-D slices, which spares the stacked
        # products their per-call overhead
        if sel.stop - sel.start == 1:
            return sel.start, sel.start
        return sel, np.arange(sel.start, sel.stop)[:, None]

    steps = [(start, rows, *slots(sel))
             for start in range(0, int(ns[-1]), batch_size)
             for rows, sel in runs(np.clip(ns - start, 0, batch_size))
             if rows > 0]
    full = [(sel, X[sel, :n], Y[sel, :n]) for n, sel in runs(ns)]
    return steps, full


def _train_stack(sizes, activations, Xs, Ys, epochs: int, seeds,
                 lr: float) -> list:
    """SGD with momentum for one network per (X, Y, seed), as one stack.

    Network f draws its init and each epoch's shuffle from its own
    ``default_rng(seeds[f])``. Per network the result is (weights, biases,
    loss after the last epoch), or None if its loss went non-finite: such
    a network leaves the stack after that epoch.
    """
    nets = [None] * len(Xs)
    # the stack runs in order of row count; ids[j] is the network in slot j
    ids = np.argsort([x.shape[0] for x in Xs], kind="stable")
    rngs = [np.random.default_rng(seeds[f]) for f in ids]
    inits = [_init_mlp(sizes, activations, None, rng) for rng in rngs]
    W = [np.stack(ws) for ws in zip(*(m.weights for m in inits))]
    B = [np.stack(bs)[:, None] for bs in zip(*(m.biases for m in inits))]
    vel_w = [np.zeros_like(w) for w in W]
    vel_b = [np.zeros_like(b) for b in B]
    ns = np.array([Xs[f].shape[0] for f in ids])
    X = _padded([Xs[f] for f in ids], ns[-1])
    Y = _padded([Ys[f] for f in ids], ns[-1])
    order = np.zeros((ids.size, ns[-1]), dtype=np.intp)
    loss = np.full(ids.size, math.inf)
    steps, full = _epoch_plan(ns, BATCH_SIZE, X, Y)
    for _ in range(epochs):
        for j, rng in enumerate(rngs):
            order[j, :ns[j]] = rng.permutation(int(ns[j]))
        for start, rows, sel, slots in steps:
            idx = order[sel, start:start + rows]
            _sgd_step(W, B, vel_w, vel_b, sel, activations,
                      X[slots, idx], Y[slots, idx], lr)
        for sel, Xn, Yn in full:
            pred = _forward([w[sel] for w in W], [b[sel] for b in B],
                            activations, Xn)[-1]
            loss[sel] = [mse(p, y) for p, y in zip(pred, Yn)]
        keep = np.isfinite(loss)
        if not keep.all():
            W, B, vel_w, vel_b = ([a[keep] for a in arrays]
                                  for arrays in (W, B, vel_w, vel_b))
            X, Y, order, ns, ids, loss = (a[keep] for a in
                                          (X, Y, order, ns, ids, loss))
            rngs = [rng for rng, k in zip(rngs, keep) if k]
            if not ids.size:
                break
            steps, full = _epoch_plan(ns, BATCH_SIZE, X, Y)
    for j, f in enumerate(ids):
        nets[f] = ([w[j].copy() for w in W], [b[j, 0].copy() for b in B],
                   float(loss[j]))
    return nets


def _sgd_step(W, B, vel_w, vel_b, sel, activations, Xb, Yb, lr):
    """One momentum step of the networks in slots ``sel`` on their batches;
    the stacks are updated in place."""
    weights, biases = [w[sel] for w in W], [b[sel] for b in B]
    acts = _forward(weights, biases, activations, Xb)
    gw, gb = _backprop(weights, activations, Xb, Yb, acts)
    for params, vels, grads in ((weights, vel_w, gw), (biases, vel_b, gb)):
        for p, v, g in zip(params, vels, grads):
            v = v[sel]
            v *= MOMENTUM
            v -= lr * g
            p += v


def _fit(sizes, activations, bottleneck_index, Xs, Ys, epochs: int,
         seeds) -> list[Mlp]:
    """One network per (X, Y, seed), trained for ``epochs`` epochs; the
    networks that diverge are retrained once from scratch at half the
    learning rate, as one stack."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    nets = [None] * len(Xs)
    todo = list(range(len(Xs)))
    lr = LEARNING_RATE
    for _ in range(2):
        trained = _train_stack(
            sizes, activations, [Xs[f] for f in todo], [Ys[f] for f in todo],
            epochs, [seeds[f] for f in todo], lr,
        )
        for f, net in zip(todo, trained):
            if net is not None:
                nets[f] = Mlp(net[0], net[1], list(activations),
                              bottleneck_index, net[2])
        todo = [f for f in todo if nets[f] is None]
        if not todo:
            return nets
        lr /= 2.0  # one-time retry on divergence
    raise TrainingError("training diverged even after halving the learning rate")


def hidden_width(k: int, p_out: int) -> int:
    return max(2 * k, math.ceil(p_out / 2))


def train_autoencoder(X: np.ndarray, k: int, epochs: int, seed: int) -> Mlp:
    """Encoder-decoder p' -> h -> k -> h -> p' minimizing reconstruction MSE.

    Hidden layers are tanh; the bottleneck and the output are linear.
    """
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[1]
    if not 0 < k < p:
        raise ValueError(f"need 0 < k < p, got k={k}, p={p}")
    h = hidden_width(k, p)
    return _fit(
        [p, h, k, h, p],
        ["tanh", "linear", "tanh", "linear"],
        bottleneck_index=1,
        Xs=[X], Ys=[X], epochs=epochs, seeds=[seed],
    )[0]


def train_decoders(latents, targets, epochs: int, seeds) -> list[Mlp]:
    """Decoders k -> h -> p', one per (latent, target, seed), each
    minimizing MSE against its target features. They train as one stack;
    decoder f is bit for bit the decoder trained alone,
    ``train_decoders([latents[f]], [targets[f]], epochs, [seeds[f]])[0]``.
    """
    Ls = [np.asarray(L, dtype=np.float64) for L in latents]
    Ys = [np.asarray(Y, dtype=np.float64) for Y in targets]
    if not len(Ls) == len(Ys) == len(seeds) or not Ls:
        raise ValueError("need as many latents, targets and seeds, "
                         "at least one")
    if any(L.shape[0] != Y.shape[0] for L, Y in zip(Ls, Ys)):
        raise ValueError("latent and target row counts differ")
    k, p = Ls[0].shape[1], Ys[0].shape[1]
    if any(L.shape[1] != k for L in Ls) or any(Y.shape[1] != p for Y in Ys):
        raise ValueError("decoders of one stack need equal widths")
    return _fit(
        [k, hidden_width(k, p), p],
        ["tanh", "linear"],
        bottleneck_index=None,
        Xs=Ls, Ys=Ys, epochs=epochs, seeds=list(seeds),
    )
