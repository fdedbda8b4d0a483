import numpy as np
import pytest

from gpdr import evaluation
from gpdr.baselines import pca_fit
from gpdr.evaluation import (
    _exact_two_sided_p,
    _stratified_folds,
    evaluate,
    mann_whitney_u,
    significance_stars,
)
from gpdr.forest import balanced_accuracy


def test_mann_whitney_separated_samples():
    u, p = mann_whitney_u([1, 2, 3], [10, 11, 12])
    assert u == 0.0
    # exact two-sided p for complete separation at n1=n2=3: 2/20
    assert np.isclose(p, 0.1)


def test_mann_whitney_identical_samples():
    u, p = mann_whitney_u([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert p == 1.0
    assert u == 4.5  # all midranks equal


def test_mann_whitney_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=8), rng.normal(size=11)
    u1, p1 = mann_whitney_u(a, b)
    u2, p2 = mann_whitney_u(b, a)
    assert np.isclose(u1 + u2, 8 * 11)
    assert np.isclose(p1, p2)


def test_mann_whitney_rejects_tiny_samples():
    with pytest.raises(ValueError):
        mann_whitney_u([1, 2], [3, 4, 5])


def test_exact_enumeration_against_direct_count():
    from itertools import combinations

    for n1, n2 in ((3, 3), (4, 3), (5, 4)):
        ranks = range(1, n1 + n2 + 1)
        us = [sum(c) - n1 * (n1 + 1) / 2 for c in combinations(ranks, n1)]
        mean = n1 * n2 / 2
        for u_obs in range(n1 * n2 + 1):
            direct = np.mean([abs(u - mean) >= abs(u_obs - mean) for u in us])
            assert np.isclose(_exact_two_sided_p(n1, n2, u_obs),
                              min(1.0, direct))


def test_large_sample_normal_approximation():
    rng = np.random.default_rng(1)
    # clearly shifted distributions: p must be small
    a = rng.normal(size=40)
    b = rng.normal(size=40) + 2.0
    _, p = mann_whitney_u(a, b)
    assert p < 1e-6
    # same distribution: p should usually be comfortably large
    _, p = mann_whitney_u(rng.normal(size=40), rng.normal(size=40))
    assert p > 0.01


def test_significance_stars():
    assert significance_stars(0.5) == ""
    assert significance_stars(0.09) == "*"
    assert significance_stars(0.04) == "**"
    assert significance_stars(0.005) == "***"


def test_stratified_folds_cover_everything():
    rng = np.random.default_rng(2)
    labels = np.repeat([0, 1, 2], [30, 20, 10])
    folds = _stratified_folds(labels, 10, rng)
    assert len(folds) == 10
    all_idx = np.sort(np.concatenate(folds))
    assert np.array_equal(all_idx, np.arange(60))
    for f in folds:
        # class proportions survive in each fold
        assert np.sum(labels[f] == 0) == 3
        assert np.sum(labels[f] == 1) == 2
        assert np.sum(labels[f] == 2) == 1


def _toy_problem(seed=3, n=120):
    rng = np.random.default_rng(seed)
    labels = rng.integers(3, size=n)
    X = rng.normal(size=(n, 4)) * 0.3
    X[:, 0] += labels * 3.0  # classes separated along one feature
    target = X[:, :2]
    return X, labels, target


def test_evaluate_end_to_end():
    X, labels, target = _toy_problem()
    latent = pca_fit(X, 2).transform(X)
    res = evaluate(latent, labels, target, seed=0, decoder_epochs=30)
    assert len(res.fold_accuracies) == 10
    assert len(res.fold_errors) == 10
    assert np.isclose(res.balanced_accuracy, np.mean(res.fold_accuracies))
    assert np.isclose(res.reconstruction_error, np.mean(res.fold_errors))
    # classes are linearly separated: the forest should do very well
    assert res.balanced_accuracy > 0.8
    assert res.reconstruction_error >= 0


def test_evaluate_is_deterministic():
    X, labels, target = _toy_problem(seed=4)
    latent = pca_fit(X, 2).transform(X)
    a = evaluate(latent, labels, target, seed=5, decoder_epochs=10)
    b = evaluate(latent, labels, target, seed=5, decoder_epochs=10)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.fold_errors == b.fold_errors


def test_evaluate_reduces_folds_for_rare_classes():
    X, labels, target = _toy_problem(seed=6, n=60)
    labels = labels.copy()
    labels[:] = 0
    labels[:4] = 1  # only four rows of class 1
    latent = pca_fit(X, 2).transform(X)
    with pytest.warns(UserWarning, match="reducing folds"):
        res = evaluate(latent, labels, target, seed=0, decoder_epochs=5)
    assert len(res.fold_accuracies) == 4


def _oracle_fold_accuracies(latent, labels, seed, n_folds, rf_trees):
    """Each fold's balanced accuracy from the recursive oracle forest, one
    fold after another, with evaluate's folds and seeds."""
    from test_forest import _oracle_proba

    folds = _stratified_folds(labels, n_folds, np.random.default_rng(seed))
    accs = []
    for f, test_idx in enumerate(folds):
        train = np.setdiff1d(np.arange(len(labels)), test_idx)
        proba = _oracle_proba(latent[train], labels[train], latent[test_idx],
                              rf_trees, seed + 7919 * f)
        accs.append(balanced_accuracy(labels[test_idx], proba.argmax(axis=1)))
    return accs


def _oracle_fold_errors(latent, labels, target, seed, n_folds, epochs):
    """Each fold's reconstruction error from the per-network oracle
    decoder, one fold after another, with evaluate's folds and seeds."""
    from test_neural import _oracle_forward_all, oracle_decoder

    folds = _stratified_folds(labels, n_folds, np.random.default_rng(seed))
    errs = []
    for f, test_idx in enumerate(folds):
        train = np.setdiff1d(np.arange(len(labels)), test_idx)
        dec = oracle_decoder(latent[train], target[train], epochs,
                             seed + 104729 * f)
        recon = _oracle_forward_all(dec.weights, dec.biases, dec.activations,
                                    latent[test_idx])[-1]
        errs.append(float(np.mean((recon - target[test_idx]) ** 2)))
    return errs


def test_evaluate_fold_accuracies_match_per_fold_oracle(monkeypatch):
    X, labels, target = _toy_problem(seed=8)
    X[:, 0] += np.random.default_rng(8).normal(size=len(labels))  # overlap
    latent = pca_fit(X, 2).transform(X)
    monkeypatch.setattr(evaluation, "RF_TREES", 12)
    res = evaluate(latent, labels, target, seed=3, decoder_epochs=4)
    assert len(res.fold_accuracies) == 10
    assert res.fold_accuracies == _oracle_fold_accuracies(
        latent, labels, seed=3, n_folds=10, rf_trees=12)
    assert res.fold_errors == _oracle_fold_errors(
        latent, labels, target, seed=3, n_folds=10, epochs=4)


def test_evaluate_reduced_folds_match_per_fold_oracle(monkeypatch):
    X, labels, target = _toy_problem(seed=6, n=60)
    labels = labels.copy()
    labels[:] = 0
    labels[:4] = 1
    latent = pca_fit(X, 2).transform(X)
    monkeypatch.setattr(evaluation, "RF_TREES", 12)
    with pytest.warns(UserWarning, match="reducing folds"):
        res = evaluate(latent, labels, target, seed=0, decoder_epochs=4)
    assert len(res.fold_accuracies) == 4
    assert res.fold_accuracies == _oracle_fold_accuracies(
        latent, labels, seed=0, n_folds=4, rf_trees=12)
    assert res.fold_errors == _oracle_fold_errors(
        latent, labels, target, seed=0, n_folds=4, epochs=4)
