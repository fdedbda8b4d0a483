import numpy as np
import pytest

from gpdr.distances import (
    geodesic,
    knn_graph,
    pairwise_euclidean,
)


def test_pairwise_euclidean_against_loops():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(15, 4))
    D = pairwise_euclidean(X)
    for i in range(15):
        for j in range(15):
            assert np.isclose(D[i, j], np.linalg.norm(X[i] - X[j]), atol=1e-9)
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0)
    with pytest.raises(ValueError):
        pairwise_euclidean(np.zeros(3))


def test_knn_graph_symmetric_with_expected_degree():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    d = pairwise_euclidean(X)
    g = knn_graph(d, 4)
    dense = g.toarray()
    assert np.allclose(dense, dense.T)
    # symmetrization can only add edges on top of the k outgoing ones
    assert np.all((dense > 0).sum(axis=1) >= 4)
    with pytest.raises(ValueError):
        knn_graph(d[:4, :4], 4)


def test_knn_graph_keeps_duplicate_point_edges():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 1.0]])
    g = knn_graph(pairwise_euclidean(X), 1)
    assert g[0, 1] > 0 and g[1, 0] > 0  # stored, not a structural zero
    D = geodesic(X, 1)
    assert np.isfinite(D).all()
    assert D[0, 1] <= 1e-12  # duplicates sit at geodesic distance ~0


def test_repair_makes_disconnected_graph_connected():
    # two clusters far apart with k=1 neighbors -> disconnected graph
    X = np.vstack([np.random.default_rng(2).normal(size=(5, 2)),
                   np.random.default_rng(3).normal(size=(5, 2)) + 100.0])
    D = geodesic(X, 1)
    assert np.isfinite(D).all()
    # the repair edge is the single shortest inter-cluster Euclidean link
    d = pairwise_euclidean(X)
    bridge = d[:5, 5:].min()
    assert np.all(D[:5, 5:] >= bridge - 1e-9)


def test_geodesic_on_circle_follows_the_arc():
    # classic swiss-roll-style check: on a circle the geodesic must follow
    # the perimeter while the Euclidean distance cuts across
    n = 40
    ang = 2 * np.pi * np.arange(n) / n
    X = np.column_stack([np.cos(ang), np.sin(ang)])
    D = geodesic(X, 2)
    antipodal = D[0, n // 2]
    expected = (n // 2) * 2 * np.sin(np.pi / n)  # 20 chord steps
    assert abs(antipodal - expected) / expected < 0.02
    assert np.isclose(pairwise_euclidean(X)[0, n // 2], 2.0)


def test_geodesic_dominates_euclidean():
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = rng.normal(size=(25, 3))
        G = geodesic(X, 3)
        E = pairwise_euclidean(X)
        assert np.all(G >= E - 1e-9)
