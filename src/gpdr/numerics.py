"""Dense matrix helpers, the mean squared error, and the symmetric
eigendecomposition used by PCA/isomap.

Matrices are plain 2-D float64 numpy arrays; ``check_matrix`` is the
construction gate that enforces finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest |m - m.T| entry sym_eigen accepts, relative to max(1, max |m|)
SYMMETRY_TOL = 1e-10


class NumericsError(ValueError):
    """Rejected input or failed numeric contract."""


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise NumericsError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericsError(f"{name} contains non-finite entries")
    return m


def mse(a, b) -> float:
    """Mean squared difference of two arrays of the same shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise NumericsError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray   # shape (n,)
    eigenvectors: np.ndarray  # shape (n, n), columns are eigenvectors


def sym_eigen(m) -> SymmetricEigen:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues come out in descending order and each eigenvector's
    largest-magnitude component is made nonnegative, so downstream PCA
    outputs are run-to-run deterministic.
    """
    m = check_matrix(m, "m")
    n, nc = m.shape
    if n != nc:
        raise NumericsError(f"matrix must be square, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYMMETRY_TOL * scale:
        raise NumericsError("matrix is not symmetric within tolerance")

    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    # sign convention: largest-|component| of each eigenvector nonnegative
    pivot = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[pivot, np.arange(n)])
    signs[signs == 0] = 1.0
    v = v * signs
    return SymmetricEigen(eigenvalues=w, eigenvectors=v)
