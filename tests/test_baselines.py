import numpy as np
import pytest

from gpdr.baselines import (
    FitError,
    IsomapModel,
    isomap_fit,
    pca_fit,
)
from gpdr.distances import pairwise_euclidean


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 6))
    m = pca_fit(X, 6)
    recon = m.inverse_transform(m.transform(X))
    assert np.max(np.abs(recon - X)) < 1e-8
    assert np.allclose(m.components.T @ m.components, np.eye(6), atol=1e-8)


def test_pca_explained_variance_matches_eigen_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 5)) * [5.0, 3.0, 1.0, 0.5, 0.1]
    m = pca_fit(X, 3)
    lam = np.linalg.eigvalsh(np.cov(X.T, bias=True))[::-1]
    assert np.allclose(m.explained_variance, lam[:3], atol=1e-9)
    # latent variance equals explained variance
    lat = m.transform(X)
    assert np.allclose(lat.var(axis=0), lam[:3], atol=1e-9)


def test_pca_rejects_k_above_rank():
    rng = np.random.default_rng(2)
    low_rank = np.outer(rng.normal(size=30), rng.normal(size=4))
    with pytest.raises(FitError):
        pca_fit(low_rank, 3)


def test_isomap_self_consistent_on_training_rows():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    m = isomap_fit(X, 2, n_neighbors=5)
    assert m.embedding.shape == (40, 2)
    back = m.transform(X)
    # the out-of-sample extension must reproduce training embeddings
    assert np.allclose(back, m.embedding, atol=1e-8)


def test_isomap_unrolls_a_circle_better_than_pca():
    n = 60
    ang = 1.5 * np.pi * np.arange(n) / n  # an open arc
    X = np.column_stack([np.cos(ang), np.sin(ang)])
    iso = isomap_fit(X, 1, n_neighbors=2)
    lat = iso.embedding[:, 0]
    # the 1-D isomap coordinate should order points along the arc
    order = np.argsort(lat)
    assert (np.array_equal(order, np.arange(n))
            or np.array_equal(order, np.arange(n)[::-1]))


def test_isomap_nystrom_places_new_points_near_neighbors():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    m = isomap_fit(X, 2, n_neighbors=6)
    probe = X[:5] + 1e-6  # barely perturbed training points
    emb = m.transform(probe)
    assert np.max(np.abs(emb - m.embedding[:5])) < 1e-3


def test_isomap_rejects_k_above_embedding_rank():
    # the arc-length metric of a circle is not Euclidean-embeddable, so
    # its double-centered matrix has negative eigenvalues at high k
    n = 12
    ang = 2 * np.pi * np.arange(n) / n
    X = np.column_stack([np.cos(ang), np.sin(ang)])
    with pytest.raises(FitError):
        isomap_fit(X, 11, n_neighbors=2)
