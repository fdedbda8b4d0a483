"""Second-stage evaluation of the held-out split's latent rows: 10-fold
cross-validate a random forest (balanced accuracy) and a neural decoder
(reconstruction error). Also the Mann-Whitney U test used to compare
methods.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .forest import balanced_accuracy, rf_fold_proba
from .neural import train_decoders
from .numerics import mse

SIGNIFICANCE_LEVELS = (0.1, 0.05, 0.01)
# the fixed protocol: N_FOLDS folds, a forest of RF_TREES trees per fold
N_FOLDS = 10
RF_TREES = 100


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Rank-sum U and its two-sided p-value.

    Small tie-free samples (n1 + n2 <= 14) get the exact permutation
    distribution; everything else uses the tie-corrected, continuity-
    corrected normal approximation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    if n1 < 3 or n2 < 3:
        raise ValueError("both samples must have size >= 3")
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(combined.size)
    # midranks for ties
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    r1 = ranks[:n1].sum()
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mean = n1 * n2 / 2.0
    n = n1 + n2
    if n <= 14 and np.unique(combined).size == n:
        return float(u1), _exact_two_sided_p(n1, n2, u1)
    _, tie_counts = np.unique(combined, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / (n * (n - 1))
    var = n1 * n2 / 12.0 * (n + 1 - tie_term)
    if var <= 0:
        return float(u1), 1.0
    z = (u1 - mean - 0.5 * np.sign(u1 - mean)) / math.sqrt(var)
    p = 2.0 * (1.0 - _phi(abs(z)))
    return float(u1), float(min(1.0, p))


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _u_counts(n1: int, n2: int) -> np.ndarray:
    """Counts of each U value over all tie-free rank assignments."""
    from itertools import combinations

    counts = np.zeros(n1 * n2 + 1)
    offset = n1 * (n1 + 1) // 2
    for chosen in combinations(range(1, n1 + n2 + 1), n1):
        counts[sum(chosen) - offset] += 1
    return counts


def _exact_two_sided_p(n1: int, n2: int, u_obs: float) -> float:
    counts = _u_counts(n1, n2)
    us = np.arange(counts.size, dtype=np.float64)
    mean = n1 * n2 / 2.0
    mask = np.abs(us - mean) >= abs(u_obs - mean) - 1e-12
    return float(min(1.0, counts[mask].sum() / counts.sum()))


def significance_stars(p: float) -> str:
    stars = ""
    for alpha, mark in zip(SIGNIFICANCE_LEVELS, ("*", "**", "***")):
        if p < alpha:
            stars = mark
    return stars


def _stratified_folds(labels: np.ndarray, n_folds: int, rng) -> list[np.ndarray]:
    """Seeded class-stratified fold assignment."""
    folds = [[] for _ in range(n_folds)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % n_folds].append(i)
    return [np.sort(np.array(f, dtype=np.intp)) for f in folds]


@dataclass
class EvaluationResult:
    balanced_accuracy: float
    reconstruction_error: float
    fold_accuracies: list[float]
    fold_errors: list[float]


def evaluate(
    latent: np.ndarray,
    heldout_labels: np.ndarray,
    heldout_target: np.ndarray,
    seed: int,
    decoder_epochs: int,
) -> EvaluationResult:
    """Fig.-2 second stage on the held-out rows.

    ``latent`` are the held-out rows embedded by the fitted DR model;
    ``heldout_target`` are their PCA-space coordinates, the reconstruction
    target. Per fold: forest on 9/10 of the latent rows scored on the
    remaining 1/10, and a decoder latent->target trained likewise for
    ``decoder_epochs`` epochs. The fold forests grow in lockstep and the
    fold decoders train as one stack.
    """
    labels = np.asarray(heldout_labels, dtype=np.intp)
    n = latent.shape[0]

    min_class = min(np.bincount(labels)[np.bincount(labels) > 0])
    folds_used = N_FOLDS
    if min_class < N_FOLDS:
        folds_used = max(2, int(min_class))
        warnings.warn(
            f"reducing folds from {N_FOLDS} to {folds_used}: smallest class "
            f"has {min_class} latent rows"
        )
    rng = np.random.default_rng(seed)
    folds = _stratified_folds(labels, folds_used, rng)

    trains = [np.delete(np.arange(n), test_idx) for test_idx in folds]
    probas = rf_fold_proba(latent, labels, list(zip(trains, folds)),
                           [seed + 7919 * f for f in range(len(folds))],
                           trees=RF_TREES)

    decoders = train_decoders(
        [latent[train_idx] for train_idx in trains],
        [heldout_target[train_idx] for train_idx in trains],
        decoder_epochs,
        [seed + 104729 * f for f in range(len(folds))],
    )

    accs, errs = [], []
    for test_idx, proba, dec in zip(folds, probas, decoders):
        accs.append(balanced_accuracy(labels[test_idx], proba.argmax(axis=1)))
        recon = dec.forward(latent[test_idx])
        errs.append(mse(recon, heldout_target[test_idx]))

    return EvaluationResult(
        balanced_accuracy=float(np.mean(accs)),
        reconstruction_error=float(np.mean(errs)),
        fold_accuracies=accs,
        fold_errors=errs,
    )
