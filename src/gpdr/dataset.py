"""CSV ingestion, standardization and stratified splitting."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numerics import check_matrix


class IngestionError(ValueError):
    """Unreadable, ragged or empty input data."""


@dataclass
class Dataset:
    features: np.ndarray                 # (n, p) float64
    labels: Optional[np.ndarray] = None  # (n,) int, values in [0, class_count)
    feature_names: Sequence[str] = ()
    class_count: int = 0

    def __post_init__(self):
        self.features = check_matrix(self.features, "features")
        n, p = self.features.shape
        if n < 2 or p < 1:
            raise IngestionError(f"dataset too small: n={n}, p={p}")
        if not self.feature_names:
            self.feature_names = [f"x{j}" for j in range(p)]
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.intp)
            if self.labels.shape != (n,):
                raise IngestionError("label vector length mismatch")
            if self.class_count == 0:
                self.class_count = int(self.labels.max()) + 1
            if self.labels.min() < 0 or self.labels.max() >= self.class_count:
                raise IngestionError("label values out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def _parse_column(values: Sequence[str]) -> Optional[list[float]]:
    """The column's cells as floats, or None if any cell is not a number."""
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def load_csv(path, label_column=None) -> Dataset:
    """Load a comma-separated dataset whose first row names the columns.

    Non-numeric columns other than the label column are dropped (only
    continuous attributes are kept). Labels are factorized to 0..c-1 in
    order of first appearance. ``label_column`` may be a header name or a
    0-based column index, given as an int or as a string of decimal digits
    that names no column.
    """
    try:
        with open(path, newline="") as f:
            rows = [r for r in csv.reader(f) if r]
    except (OSError, UnicodeDecodeError) as e:
        raise IngestionError(f"cannot read {path}: {e}") from e
    if not rows:
        raise IngestionError(f"{path}: empty file")

    names, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(names)
    for i, r in enumerate(data_rows):
        if len(r) != width:
            raise IngestionError(
                f"{path}: ragged row {i + 2} ({len(r)} cells, expected {width})"
            )

    label_idx = None
    if label_column is not None:
        if type(label_column) is int:  # a bool is an int, yet no index
            label_idx = label_column
        elif label_column in names:
            label_idx = names.index(label_column)
        elif re.fullmatch("[0-9]+", str(label_column)):
            label_idx = int(label_column)
        else:
            raise IngestionError(f"{path}: no column named {label_column!r}")
        if not 0 <= label_idx < width:
            raise IngestionError(f"{path}: label column {label_idx} out of range")

    columns = list(zip(*data_rows))
    feat_idx, parsed = [], []
    for j in range(width):
        values = None if j == label_idx else _parse_column(columns[j])
        if values is not None:
            feat_idx.append(j)
            parsed.append(values)
    if not feat_idx:
        raise IngestionError(f"{path}: no numeric feature columns")

    # parsed is column-major; the copy of its transpose is C-contiguous
    features = np.array(parsed, dtype=np.float64).T.copy()
    if not np.all(np.isfinite(features)):
        bad = np.argwhere(~np.isfinite(features))[0]
        raise IngestionError(
            f"{path}: non-finite value at row {bad[0]}, column {feat_idx[bad[1]]}"
        )

    labels = None
    class_count = 0
    if label_idx is not None:
        raw = columns[label_idx]
        seen: dict[str, int] = {}
        labels = np.array([seen.setdefault(v, len(seen)) for v in raw], dtype=np.intp)
        class_count = len(seen)

    return Dataset(
        features=features,
        labels=labels,
        feature_names=[names[j] for j in feat_idx],
        class_count=class_count,
    )


@dataclass(frozen=True)
class Standardizer:
    """Affine per-feature map fitted on one split, reusable on unseen rows.

    Constant features (std 0) are mapped to 0.
    """

    mean: np.ndarray
    std: np.ndarray       # population std; 0 where constant
    _safe_std: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        safe = np.where(self.std > 0, self.std, 1.0)
        object.__setattr__(self, "_safe_std", safe)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        z = (rows - self.mean) / self._safe_std
        return np.where(self.std > 0, z, 0.0)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def standardize(X: np.ndarray) -> tuple[np.ndarray, Standardizer]:
    """Z-score every column of ``X`` (population std); constant columns
    go to 0."""
    rec = Standardizer(mean=X.mean(axis=0), std=X.std(axis=0))
    return rec.transform(X), rec


def split(labels: np.ndarray, dr_fraction: float,
          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified shuffle split of the rows with class ``labels`` into
    sorted DR-train and held-out row indices."""
    if not 0.0 < dr_fraction < 1.0:
        raise IngestionError(f"dr_fraction must be in (0, 1), got {dr_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, held_parts = [], []
    for c in range(int(labels.max()) + 1):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_tr = int(round(dr_fraction * len(idx)))
        train_parts.append(idx[:n_tr])
        held_parts.append(idx[n_tr:])
    train = np.sort(np.concatenate(train_parts))
    held = np.sort(np.concatenate(held_parts))
    if len(train) == 0 or len(held) == 0:
        raise IngestionError(
            f"dr_fraction {dr_fraction} leaves an empty side for "
            f"n={len(labels)}"
        )
    return train, held
