"""Byte oracle for the k-NN graph, and the cold start of the package.

``knn_graph`` once picked each row's neighbors with a Python scan of its
argsort order. That loop is kept here as the reference: the vectorized
selection must give the same CSR arrays, and ``geodesic`` the same matrix,
with duplicate points, tied distances and a graph that needs repair.

scipy is imported only inside the graph functions, so importing the
pipeline must not load it, and loading it late must not change a geodesic.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gpdr import distances
from gpdr.distances import geodesic, knn_graph, pairwise_euclidean

SRC = Path(__file__).resolve().parents[1] / "src"


def _loop_knn_graph(d, n_neighbors):
    n = d.shape[0]
    order = np.argsort(d, axis=1, kind="stable")
    rows, cols = [], []
    for i in range(n):
        picked = [j for j in order[i] if j != i][:n_neighbors]
        rows.extend([i] * len(picked))
        cols.extend(picked)
    w = np.maximum(d[rows, cols], 1e-300)
    g = csr_matrix((w, (rows, cols)), shape=(n, n))
    return g.maximum(g.T)


def _cases():
    rng = np.random.default_rng(0)
    for seed in range(12):
        r = np.random.default_rng(seed)
        yield f"normal{seed}", r.normal(size=(40, 3)), 1 + seed % 5
    # rounded points: many exactly tied distances
    yield "ties", np.round(rng.normal(size=(50, 2)) * 2.0), 4
    # exact duplicates, several of them per point
    base = rng.normal(size=(10, 3))
    yield "duplicates", np.vstack([base, base, base[:4]]), 3
    # two far clusters at k=1: the graph is disconnected before repair
    yield "disconnected", np.vstack([rng.normal(size=(6, 2)),
                                     rng.normal(size=(7, 2)) + 100.0]), 1


CASES = list(_cases())


@pytest.mark.parametrize("name, X, k", CASES, ids=[c[0] for c in CASES])
def test_knn_graph_and_geodesic_match_the_loop(name, X, k, monkeypatch):
    d = pairwise_euclidean(X)
    got, want = knn_graph(d, k), _loop_knn_graph(d, k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    fast = geodesic(X, k)
    monkeypatch.setattr(distances, "knn_graph", _loop_knn_graph)
    assert fast.tobytes() == geodesic(X, k).tobytes()


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_GEODESIC = """
import numpy as np
from gpdr.distances import geodesic
X = np.random.default_rng(5).normal(size=(30, 3))
np.save({out!r}, geodesic(X, 3))
"""


def test_pipeline_import_leaves_scipy_unloaded(tmp_path):
    late, early = tmp_path / "late.npy", tmp_path / "early.npy"
    _run("import sys\n"
         "import gpdr.experiment, gpdr.cli\n"
         "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
         "assert not loaded, loaded\n"
         + _GEODESIC.format(out=str(late))
         + "assert 'scipy.sparse.csgraph' in sys.modules\n")
    _run("import scipy.sparse.csgraph\n" + _GEODESIC.format(out=str(early)))
    assert np.load(late).tobytes() == np.load(early).tobytes()
