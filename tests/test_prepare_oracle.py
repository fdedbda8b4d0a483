"""Byte oracle for the cell-run's preparation.

``run_single`` once prepared a cell-run through ``Dataset`` objects: it
rebuilt the DR-train rows as a ``Dataset``, standardized that into another,
and fitted a ``PcaTarget`` (its own PCA, apart from the ``pca`` baseline's)
that stored the projected training rows. That code is kept here as the
reference: on the same rows and seed the array-based preparation must give
the same standardized rows, standardizer, training and held-out targets,
retained component count p' and ``pca`` baseline latent, byte for byte.

The inputs are row subsamples of the bundled segmentation data, whose
region-pixel-count column is constant (so its covariance is rank-deficient),
and a synthetic matrix of rank 3.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gpdr import experiment
from gpdr.dataset import Dataset, load_csv
from gpdr.evaluation import EvaluationResult
from gpdr.evolution import RunResult
from gpdr.experiment import ExperimentConfig, derive_seed, run_single
from gpdr.gp_core import MultiTree, variable
from gpdr.numerics import sym_eigen

SEGMENTATION = Path(__file__).resolve().parents[1] / "data" / "segmentation.csv"


# ---------------------------------------------------------------------------
# the Dataset-based preparation


def _covariance_eigen(X):
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    Xc = X - mean
    return mean, Xc, sym_eigen((Xc.T @ Xc) / X.shape[0])


@dataclass(frozen=True)
class PcaTarget:
    transformed: np.ndarray
    components_retained: int
    mean: np.ndarray
    components: np.ndarray

    def project(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return (rows - self.mean) @ self.components


def _pca_target(d: Dataset, variance_fraction: float) -> PcaTarget:
    X = d.features
    mean, Xc, eig = _covariance_eigen(X)
    lam = np.clip(eig.eigenvalues, 0.0, None)
    ratios = lam / lam.sum()
    cum = np.cumsum(ratios)
    p_prime = int(np.searchsorted(cum, variance_fraction - 1e-12) + 1)
    p_prime = min(p_prime, X.shape[1])
    comps = eig.eigenvectors[:, :p_prime]
    return PcaTarget(transformed=Xc @ comps, components_retained=p_prime,
                     mean=mean, components=comps)


def _pca_fit_transform(X, k, rows):
    mean, _, eig = _covariance_eigen(X)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return (rows - mean) @ eig.eigenvectors[:, :k]


class _Standardizer:
    def __init__(self, mean, std):
        self.mean, self.std = mean, std
        self._safe_std = np.where(std > 0, std, 1.0)

    def transform(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        z = (rows - self.mean) / self._safe_std
        return np.where(self.std > 0, z, 0.0)

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def _standardize(d: Dataset):
    rec = _Standardizer(d.features.mean(axis=0), d.features.std(axis=0))
    out = Dataset(features=rec.transform(d.features), labels=d.labels,
                  feature_names=list(d.feature_names),
                  class_count=d.class_count)
    return out, rec


def _split(d: Dataset, dr_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    train_parts, held_parts = [], []
    for c in range(d.class_count):
        idx = np.flatnonzero(d.labels == c)
        rng.shuffle(idx)
        n_tr = int(round(dr_fraction * len(idx)))
        train_parts.append(idx[:n_tr])
        held_parts.append(idx[n_tr:])
    return (np.sort(np.concatenate(train_parts)),
            np.sort(np.concatenate(held_parts)))


def _reference(data: Dataset, cfg, seed: int, k: int,
               variance_fraction: float) -> dict:
    train, held = _split(data, cfg.dr_fraction, seed)
    train_raw = Dataset(features=data.features[train],
                        labels=data.labels[train],
                        feature_names=list(data.feature_names),
                        class_count=data.class_count)
    train_std, scaler = _standardize(train_raw)
    target = _pca_target(train_std, variance_fraction)
    held_X = scaler.transform(data.features[held])
    return {
        "train_X": train_std.features,
        "standardizer": scaler.to_dict(),
        "train_target": target.transformed,
        "held_target": target.project(held_X),
        "p_prime": target.components_retained,
        "latent": _pca_fit_transform(train_std.features, k, held_X),
    }


# ---------------------------------------------------------------------------
# the preparation that ships, read from inside run_single


def _prepared(data: Dataset, method: str, k: int, cfg, monkeypatch) -> dict:
    seen = {}

    def evaluate_spy(latent, labels, target, **kwargs):
        seen["latent"], seen["held_target"] = latent, target
        return EvaluationResult(0.5, 1.0, [0.5], [1.0])

    def evolve_spy(spec, gp_cfg):
        seen["train_X"], seen["train_target"] = spec.inputs, spec.target
        genome = MultiTree(tuple(variable(j) for j in range(k)), data.p)
        return RunResult(genome, 0.0, [0.0], [])

    monkeypatch.setattr(experiment, "evaluate", evaluate_spy)
    monkeypatch.setattr(experiment, "evolve", evolve_spy)
    rec = run_single(data, method, k, 0, cfg)
    seen["standardizer"] = rec["standardizer"]
    seen["p_prime"] = rec["pca_components_retained"]
    return seen


def _subsample(data: Dataset, seed: int, rows: int) -> Dataset:
    pick = np.sort(np.random.default_rng(seed).choice(data.n, rows,
                                                      replace=False))
    return Dataset(features=data.features[pick], labels=data.labels[pick],
                   feature_names=list(data.feature_names),
                   class_count=data.class_count)


def _low_rank() -> Dataset:
    rng = np.random.default_rng(7)
    features = rng.normal(size=(150, 3)) @ rng.normal(size=(3, 8)) + 2.0
    return Dataset(features=features, labels=np.arange(150) % 3)


def _datasets():
    seg = load_csv(SEGMENTATION, label_column="target")
    assert np.ptp(seg.features, axis=0).min() == 0.0  # a constant column
    for seed in range(4):
        yield f"segmentation{seed}", _subsample(seg, seed, 231)
    yield "low_rank", _low_rank()


DATASETS = list(_datasets())


# the arrays each method hands on: the pca baseline's latent, and the GP
# objectives' inputs and target
CHECKED = {"pca": ("held_target", "latent"),
           "mt_dist_euclidean": ("held_target", "train_X", "train_target")}


@pytest.mark.parametrize("variance_fraction", [0.5, 0.99, 1.0])
@pytest.mark.parametrize("name, data", DATASETS,
                         ids=[name for name, _ in DATASETS])
def test_preparation_matches_the_dataset_pipeline(name, data,
                                                  variance_fraction,
                                                  monkeypatch, tmp_path):
    monkeypatch.setattr(experiment, "VARIANCE_FRACTION", variance_fraction)
    cfg = ExperimentConfig(dataset_path=str(SEGMENTATION),
                           output_dir=str(tmp_path), dr_fraction=0.7,
                           master_seed=5)
    for k in (2, 3):
        for method, keys in CHECKED.items():
            got = _prepared(data, method, k, cfg, monkeypatch)
            want = _reference(data, cfg, derive_seed(5, method, k, 0), k,
                              variance_fraction)
            assert got["standardizer"] == want["standardizer"]
            assert got["p_prime"] == want["p_prime"]
            for key in keys:
                a, b = got[key], want[key]
                assert a.dtype == b.dtype and a.shape == b.shape, key
                assert a.tobytes() == b.tobytes(), key
