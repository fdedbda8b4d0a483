"""PCA and isomap baseline models.

PCA serves twice: as the ``pca`` method (``pca_fit``) and as the space
every fitness objective and the reconstruction error are measured in
(``pca_target``). Both fit the same ``PcaModel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import IngestionError
from .distances import geodesic
from .numerics import SymmetricEigen, sym_eigen


class FitError(ValueError):
    pass


@dataclass
class PcaModel:
    """Projection onto the ``k`` leading principal components of the rows
    it was fitted on."""

    mean: np.ndarray
    components: np.ndarray        # (p, k), orthonormal columns
    explained_variance: np.ndarray
    k: int

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return (rows - self.mean) @ self.components

    def inverse_transform(self, latent: np.ndarray) -> np.ndarray:
        latent = np.atleast_2d(np.asarray(latent, dtype=np.float64))
        return latent @ self.components.T + self.mean


def _pca(X: np.ndarray) -> tuple[np.ndarray, SymmetricEigen]:
    """Column means and the eigenpairs of the population covariance of
    ``X`` (rows are observations)."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    Xc = X - mean
    return mean, sym_eigen((Xc.T @ Xc) / X.shape[0])


def pca_fit(X: np.ndarray, k: int) -> PcaModel:
    mean, eig = _pca(X)
    rank = int(np.sum(eig.eigenvalues > 1e-12 * max(1.0, eig.eigenvalues[0])))
    if k > rank:
        raise FitError(f"k={k} exceeds data rank {rank}")
    return PcaModel(mean, eig.eigenvectors[:, :k], eig.eigenvalues[:k], k)


def pca_target(X: np.ndarray, variance_fraction: float) -> PcaModel:
    """The PCA keeping the fewest leading components that hold at least
    ``variance_fraction`` of the variance; its ``k`` is that count, p'."""
    mean, eig = _pca(X)
    lam = np.clip(eig.eigenvalues, 0.0, None)
    total = lam.sum()
    if total <= 0:
        raise IngestionError("degenerate dataset: zero total variance")
    cum = np.cumsum(lam / total)
    k = min(int(np.searchsorted(cum, variance_fraction - 1e-12)) + 1, len(lam))
    return PcaModel(mean, eig.eigenvectors[:, :k], eig.eigenvalues[:k], k)


@dataclass
class IsomapModel:
    train_X: np.ndarray
    geodesic_matrix: np.ndarray   # (n, n)
    embedding: np.ndarray         # (n, k)
    eigenvalues: np.ndarray       # top-k of the double-centered matrix
    eigenvectors: np.ndarray      # (n, k)
    n_neighbors: int
    k: int
    _col_mean_sq: np.ndarray = None

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Out-of-sample embedding: connect each row to its nearest training
        points, take shortest paths through the training graph, then apply
        the landmark (Nystroem) projection."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        G = self.geodesic_matrix
        out = np.empty((rows.shape[0], self.k))
        scale = 1.0 / (2.0 * np.sqrt(self.eigenvalues))
        for r, x in enumerate(rows):
            e = np.sqrt(np.sum((self.train_X - x) ** 2, axis=1))
            nn = np.argsort(e, kind="stable")[: self.n_neighbors]
            d_new = np.min(e[nn][:, None] + G[nn, :], axis=0)
            out[r] = scale * (
                self.eigenvectors.T @ (self._col_mean_sq - d_new**2)
            )
        return out


def isomap_fit(X: np.ndarray, k: int, n_neighbors: int) -> IsomapModel:
    """Classical MDS on the geodesic matrix of the kNN graph."""
    X = np.asarray(X, dtype=np.float64)
    G = geodesic(X, n_neighbors)
    G2 = G**2
    row_mean = G2.mean(axis=1)
    total_mean = G2.mean()
    B = -0.5 * (G2 - row_mean[:, None] - row_mean[None, :] + total_mean)
    eig = sym_eigen(B)
    lam = eig.eigenvalues[:k]
    if np.any(lam <= 0):
        usable = int(np.sum(eig.eigenvalues > 0))
        raise FitError(
            f"embedding rank too low: only {usable} positive eigenvalues, "
            f"requested k={k}"
        )
    V = eig.eigenvectors[:, :k]
    return IsomapModel(
        train_X=X,
        geodesic_matrix=G,
        embedding=V * np.sqrt(lam),
        eigenvalues=lam,
        eigenvectors=V,
        n_neighbors=n_neighbors,
        k=k,
        _col_mean_sq=G2.mean(axis=0),
    )

