import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gpdr.neural import (
    Mlp,
    TrainConfig,
    TrainingError,
    _init_mlp,
    grad_check,
    gradients,
    hidden_width,
    latent,
    train_autoencoder,
    train_decoder,
    train_decoders,
)


# The per-network trainer as it stood before networks trained as one stack,
# kept as the byte-level reference: 2-D products, one network at a time,
# and a one-time retry at half the learning rate on divergence.


def _oracle_forward_all(weights, biases, activations, X):
    outs = []
    a = X
    for W, b, act in zip(weights, biases, activations):
        z = a @ W + b
        a = np.tanh(z) if act == "tanh" else z
        outs.append(a)
    return outs


def _oracle_gradients(m, X, Y):
    acts = _oracle_forward_all(m.weights, m.biases, m.activations, X)
    n_total = Y.size
    delta = 2.0 * (acts[-1] - Y) / n_total
    gw = [None] * len(m.weights)
    gb = [None] * len(m.biases)
    for i in range(len(m.weights) - 1, -1, -1):
        if m.activations[i] == "tanh":
            delta = delta * (1.0 - acts[i] ** 2)
        prev = X if i == 0 else acts[i - 1]
        gw[i] = prev.T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ m.weights[i].T
    return gw, gb


def _oracle_mse(m, X, Y):
    pred = _oracle_forward_all(m.weights, m.biases, m.activations, X)[-1]
    return float(np.mean((pred - Y) ** 2))


def _oracle_train(m, X, Y, cfg, lr, rng):
    vel_w = [np.zeros_like(w) for w in m.weights]
    vel_b = [np.zeros_like(b) for b in m.biases]
    n = X.shape[0]
    loss = math.inf
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            gw, gb = _oracle_gradients(m, X[idx], Y[idx])
            for i in range(len(m.weights)):
                vel_w[i] = cfg.momentum * vel_w[i] - lr * gw[i]
                vel_b[i] = cfg.momentum * vel_b[i] - lr * gb[i]
                m.weights[i] += vel_w[i]
                m.biases[i] += vel_b[i]
        loss = _oracle_mse(m, X, Y)
        if not math.isfinite(loss):
            return loss
    return loss


def _oracle_fit(sizes, activations, X, Y, cfg, attempts=2):
    """The trained network, or None if every attempt diverged."""
    lr = cfg.learning_rate
    for _ in range(attempts):
        rng = np.random.default_rng(cfg.seed)
        m = _init_mlp(sizes, activations, None, rng)
        loss = _oracle_train(m, X, Y, cfg, lr, rng)
        if math.isfinite(loss):
            m.final_loss = loss
            return m
        lr /= 2.0
    return None


def oracle_decoder(L, Y, cfg, attempts=2):
    k, p = L.shape[1], Y.shape[1]
    return _oracle_fit([k, hidden_width(k, p), p], ["tanh", "linear"], L, Y,
                       cfg, attempts)


def _assert_same_network(got, want):
    assert got.layer_sizes == want.layer_sizes
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.final_loss == want.final_loss


def _fold_data(rows, k=3, p=12, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    for n in rows:
        L = rng.normal(size=(n, k)) * scale
        out.append((L, np.tanh(L @ rng.normal(size=(k, p))) +
                    0.1 * rng.normal(size=(n, p))))
    return out


def _check_stack_against_oracle(data, cfgs):
    got = train_decoders([L for L, _ in data], [Y for _, Y in data], cfgs)
    assert len(got) == len(data)
    for net, (L, Y), cfg in zip(got, data, cfgs):
        _assert_same_network(net, oracle_decoder(L, Y, cfg))
    return got


def _seeded(cfg, n):
    return [replace(cfg, seed=cfg.seed + 104729 * f) for f in range(n)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_hidden_width():
    assert hidden_width(2, 10) == 5
    assert hidden_width(3, 4) == 6
    assert hidden_width(2, 5) == 4


def test_forward_shapes_and_input_check():
    rng = np.random.default_rng(0)
    m = _init_mlp([3, 4, 2], ["tanh", "linear"], None, rng)
    out = m.forward(rng.normal(size=(7, 3)))
    assert out.shape == (7, 2)
    assert m.layer_sizes == [3, 4, 2]
    with pytest.raises(ValueError):
        m.forward(np.zeros((2, 5)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for trial in range(10):
        m = _init_mlp([3, 2, 3], ["tanh", "linear"], 0,
                      np.random.default_rng(trial))
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 3))
        assert grad_check(m, X, Y) < 1e-4


def test_gradients_deeper_network():
    rng = np.random.default_rng(2)
    m = _init_mlp([4, 3, 2, 3, 4], ["tanh", "linear", "tanh", "linear"],
                  1, rng)
    X = rng.normal(size=(5, 4))
    assert grad_check(m, X, X) < 1e-4


def test_autoencoder_learns_low_rank_data():
    rng = np.random.default_rng(3)
    # rank-2 data in 5 dimensions: a 2-bottleneck can reconstruct it
    Z = rng.normal(size=(80, 2))
    W = rng.normal(size=(2, 5))
    X = Z @ W
    m = train_autoencoder(X, 2, TrainConfig(epochs=300, seed=0))
    base = float(np.mean((X - X.mean(axis=0)) ** 2))
    assert m.final_loss < 0.1 * base
    lat = latent(m, X)
    assert lat.shape == (80, 2)


def test_autoencoder_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    cfg = TrainConfig(epochs=20, seed=5)
    a = train_autoencoder(X, 2, cfg)
    b = train_autoencoder(X, 2, TrainConfig(epochs=20, seed=5))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.final_loss == b.final_loss


def test_autoencoder_rejects_bad_k():
    X = np.zeros((10, 3))
    with pytest.raises(ValueError):
        train_autoencoder(X, 3, TrainConfig())
    with pytest.raises(ValueError):
        train_autoencoder(X, 0, TrainConfig())


def test_decoder_fits_linear_map():
    rng = np.random.default_rng(6)
    L = rng.normal(size=(60, 2))
    Y = L @ rng.normal(size=(2, 3)) * 0.3
    m = train_decoder(L, Y, TrainConfig(epochs=300, seed=0))
    base = float(np.mean((Y - Y.mean(axis=0)) ** 2))
    assert m.final_loss < 0.1 * base
    with pytest.raises(ValueError):
        train_decoder(L, Y[:10], TrainConfig())


def test_latent_requires_bottleneck():
    rng = np.random.default_rng(7)
    m = _init_mlp([2, 2, 1], ["tanh", "linear"], None, rng)
    with pytest.raises(ValueError):
        latent(m, np.zeros((3, 2)))


def test_divergence_retries_then_raises():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3)) * 1e6
    # a learning rate this large overflows the weights to inf at lr and lr/2
    with pytest.raises(TrainingError), np.errstate(over="ignore"):
        train_decoder(X[:, :2], X, TrainConfig(epochs=5, learning_rate=1e200))


def test_stacked_decoders_match_oracle_on_equal_folds():
    data = _fold_data([57] * 10, seed=1)
    nets = _check_stack_against_oracle(
        data, _seeded(TrainConfig(epochs=15, seed=3), 10))
    probe = np.random.default_rng(2).normal(size=(7, 3))
    for net, (L, Y), cfg in zip(nets, data,
                                _seeded(TrainConfig(epochs=15, seed=3), 10)):
        want = oracle_decoder(L, Y, cfg)
        assert net.forward(probe).tobytes() == _oracle_forward_all(
            want.weights, want.biases, want.activations, probe)[-1].tobytes()


def test_stacked_decoders_match_oracle_when_last_batches_differ():
    # 1039 rows end each epoch on a 15-row batch, 1040 on a 16-row one
    data = _fold_data([1039, 1040, 1040, 1039], k=2, seed=4)
    _check_stack_against_oracle(
        data, _seeded(TrainConfig(epochs=2, seed=5), 4))


def test_stacked_decoders_match_oracle_with_different_batch_counts():
    # 64 rows take two batches of 32, 65 rows a third batch of one row
    data = _fold_data([65, 64, 65, 33, 1], k=2, p=5, seed=6)
    _check_stack_against_oracle(
        data, _seeded(TrainConfig(epochs=6, seed=7), 5))


def test_stacked_decoders_match_oracle_on_a_one_wide_latent():
    data = _fold_data([40, 41, 70], k=1, p=4, seed=8)
    _check_stack_against_oracle(
        data, _seeded(TrainConfig(epochs=8, batch_size=16, seed=9), 3))


def test_one_diverging_fold_is_retried_alone_at_half_rate():
    # at this learning rate a latent of scale 0.01 diverges (in epoch 17)
    # and one of scale 3 does not; at half the rate both converge. The
    # other folds train on for 13 epochs after the diverged one leaves.
    data = _fold_data([41, 40, 39, 40], k=2, p=3, seed=10, scale=3.0)
    data.insert(2, _fold_data([40], k=2, p=3, seed=20, scale=0.01)[0])
    cfgs = _seeded(TrainConfig(epochs=30, batch_size=4, learning_rate=3.0,
                               seed=12), 5)
    with np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        diverged = [oracle_decoder(L, Y, c, attempts=1) is None
                    for (L, Y), c in zip(data, cfgs)]
        assert diverged == [False, False, True, False, False]
        nets = _check_stack_against_oracle(data, cfgs)
    assert all(math.isfinite(net.final_loss) for net in nets)


def test_every_fold_diverging_twice_raises():
    rng = np.random.default_rng(13)
    Xs = [rng.normal(size=(n, 3)) * 1e6 for n in (20, 21, 40)]
    cfgs = _seeded(TrainConfig(epochs=5, learning_rate=1e200), 3)
    with pytest.raises(TrainingError), np.errstate(over="ignore",
                                                   invalid="ignore"):
        train_decoders([X[:, :2] for X in Xs], Xs, cfgs)


def test_stacked_decoders_reject_mismatched_stacks():
    data = _fold_data([20, 20], k=2, p=3)
    Ls, Ys = [L for L, _ in data], [Y for _, Y in data]
    with pytest.raises(ValueError, match="only in seed"):
        train_decoders(Ls, Ys, [TrainConfig(epochs=2),
                                TrainConfig(epochs=3, seed=1)])
    with pytest.raises(ValueError, match="widths"):
        train_decoders([Ls[0], Ls[1][:, :1]], Ys, _seeded(TrainConfig(), 2))
    with pytest.raises(ValueError, match="row counts"):
        train_decoders(Ls, [Ys[0], Ys[1][:5]], _seeded(TrainConfig(), 2))
    with pytest.raises(ValueError):
        train_decoders([], [], [])


def test_autoencoder_matches_oracle():
    rng = np.random.default_rng(14)
    X = np.tanh(rng.normal(size=(90, 2)) @ rng.normal(size=(2, 6))) + \
        0.05 * rng.normal(size=(90, 6))
    cfg = TrainConfig(epochs=12, seed=15)
    h = hidden_width(2, 6)
    want = _oracle_fit([6, h, 2, h, 6], ["tanh", "linear", "tanh", "linear"],
                       X, X, cfg)
    got = train_autoencoder(X, 2, cfg)
    _assert_same_network(got, want)
    assert got.bottleneck_index == 1
    assert latent(got, X).tobytes() == _oracle_forward_all(
        want.weights, want.biases, want.activations, X)[1].tobytes()


def test_gradients_match_oracle_bytes():
    rng = np.random.default_rng(16)
    m = _init_mlp([4, 3, 2, 3, 4], ["tanh", "linear", "tanh", "linear"], 1,
                  rng)
    X = rng.normal(size=(9, 4))
    gw, gb = gradients(m, X, X)
    ow, ob = _oracle_gradients(m, X, X)
    for a, b in zip(gw + gb, ow + ob):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
