"""Pairwise Euclidean and geodesic distance matrices.

Geodesic distances are shortest paths on a symmetrized k-nearest-neighbor
graph with Euclidean edge weights. Disconnected graphs are repaired by
adding the minimum-weight Euclidean edges joining components (a minimum
spanning forest over the component graph), so every distance is finite.

scipy is imported inside the graph functions, so it loads on the first
geodesic objective or isomap call and never for the Euclidean methods.
"""

from __future__ import annotations

import numpy as np


def pairwise_euclidean(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D point matrix")
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0


def knn_graph(d: np.ndarray, n_neighbors: int):
    """Symmetrized k-NN graph of the points whose pairwise distance matrix
    is ``d``, edge weight = that distance.

    The returned sparse matrix is symmetric; absent edges are structural
    zeros (a stored zero only appears for exact-duplicate points, which
    dijkstra treats as a zero-weight edge, as intended).
    """
    from scipy.sparse import csr_matrix

    n = d.shape[0]
    if n < n_neighbors + 1:
        raise ValueError(
            f"need at least n_neighbors+1={n_neighbors + 1} points, got {n}"
        )
    # nearest neighbors excluding self: each row of order holds i once
    order = np.argsort(d, axis=1, kind="stable")
    ids = np.arange(n)
    others = order[order != ids[:, None]].reshape(n, n - 1)
    cols = others[:, :n_neighbors].ravel()
    rows = np.repeat(ids, n_neighbors)
    # floor keeps duplicate-point edges stored in the sparse structure
    w = np.maximum(d[rows, cols], 1e-300)
    g = csr_matrix((w, (rows, cols)), shape=(n, n))
    return g.maximum(g.T)


def _repair_connectivity(g, d: np.ndarray):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(g, directed=False)
    if n_comp == 1:
        return g
    # greedily join components by their minimum-weight Euclidean edge
    extra_r, extra_c, extra_w = [], [], []
    comp_of = labels.copy()
    while True:
        comps = np.unique(comp_of)
        if len(comps) == 1:
            break
        base = comps[0]
        in_base = comp_of == base
        sub = d[np.ix_(in_base, ~in_base)]
        i_loc, j_loc = np.unravel_index(np.argmin(sub), sub.shape)
        i = np.flatnonzero(in_base)[i_loc]
        j = np.flatnonzero(~in_base)[j_loc]
        extra_r += [i, j]
        extra_c += [j, i]
        extra_w += [max(d[i, j], 1e-300)] * 2
        comp_of[comp_of == comp_of[j]] = base
    extra = csr_matrix((extra_w, (extra_r, extra_c)), shape=g.shape)
    return g.maximum(extra)


def geodesic(X: np.ndarray, n_neighbors: int) -> np.ndarray:
    """All-pairs shortest-path distances on the symmetrized k-NN graph."""
    from scipy.sparse.csgraph import dijkstra

    d = pairwise_euclidean(X)
    g = _repair_connectivity(knn_graph(d, n_neighbors), d)
    out = dijkstra(g, directed=False)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("geodesic matrix has unreachable pairs after repair")
    np.fill_diagonal(out, 0.0)
    return (out + out.T) / 2.0
