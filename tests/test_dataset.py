import csv
from pathlib import Path

import numpy as np
import pytest

from gpdr.baselines import pca_target
from gpdr.dataset import (
    Dataset,
    IngestionError,
    Standardizer,
    load_csv,
    split,
    standardize,
)


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "a,b,label\n1,2,cat\n3,4,dog\n5,6,cat\n")
    d = load_csv(p, label_column="label")
    assert d.n == 3 and d.p == 2
    assert list(d.feature_names) == ["a", "b"]
    # labels factorized in first-appearance order
    assert d.labels.tolist() == [0, 1, 0]
    assert d.class_count == 2


def test_load_csv_drops_non_numeric_columns(tmp_path):
    p = _write(tmp_path, "a,junk,b,y\n1,foo,2,0\n3,bar,4,1\n")
    d = load_csv(p, label_column="y")
    assert list(d.feature_names) == ["a", "b"]
    assert d.features.shape == (2, 2)


def test_load_csv_label_by_index(tmp_path):
    p = _write(tmp_path, "a,b\n1,u\n2,v\n", name="i.csv")
    d = load_csv(p, label_column=1)
    assert d.p == 1 and d.class_count == 2


def test_load_csv_label_index_given_as_digits(tmp_path):
    p = _write(tmp_path, "a,b,c\n1,2,x\n3,4,y\n5,6,x\n")
    d = load_csv(p, label_column="2")
    assert list(d.feature_names) == ["a", "b"] and d.class_count == 2
    assert d.labels.tolist() == load_csv(p, label_column=2).labels.tolist()
    # a column named by digits resolves by name first
    p = _write(tmp_path, "a,0,b\n1,u,7\n2,v,8\n3,w,9\n", name="n.csv")
    d = load_csv(p, label_column="0")
    assert list(d.feature_names) == ["a", "b"] and d.class_count == 3
    with pytest.raises(IngestionError, match="out of range"):
        load_csv(p, label_column="3")
    for bad in ("-1", "1.0", " 1", "\u0661"):
        with pytest.raises(IngestionError, match="no column named"):
            load_csv(p, label_column=bad)


def test_load_csv_takes_no_bool_as_a_label_index(tmp_path):
    # a bool is an int to isinstance: True once read column 1 as the label
    p = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,5,3\n")
    for bad in (True, False):
        with pytest.raises(IngestionError, match="no column named"):
            load_csv(p, label_column=bad)


def test_load_csv_errors(tmp_path):
    with pytest.raises(IngestionError):
        load_csv(tmp_path / "missing.csv")
    with pytest.raises(IngestionError):
        load_csv(_write(tmp_path, "", name="e1.csv"))
    with pytest.raises(IngestionError):
        load_csv(_write(tmp_path, "a,b\n1,2\n3\n", name="e2.csv"))
    with pytest.raises(IngestionError):
        load_csv(_write(tmp_path, "a,b\n1,2\n3,4\n", name="e3.csv"),
                 label_column="nope")
    with pytest.raises(IngestionError):
        load_csv(_write(tmp_path, "a\nfoo\nbar\n", name="e4.csv"))
    with pytest.raises(IngestionError):
        load_csv(_write(tmp_path, "a,b\n1,nan\n3,4\n", name="e5.csv"))


BUNDLED_CSV = Path(__file__).resolve().parents[1] / "data" / "segmentation.csv"


def _two_pass_load_csv(path, label_column=None):
    """``load_csv`` as it was when it parsed every cell twice: once to test
    each column, once more to fill the matrix. Kept as the reference."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
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
        if isinstance(label_column, int):
            label_idx = label_column
        else:
            try:
                label_idx = names.index(label_column)
            except ValueError:
                raise IngestionError(
                    f"{path}: no column named {label_column!r}"
                ) from None
        if not 0 <= label_idx < width:
            raise IngestionError(f"{path}: label column {label_idx} out of range")

    def is_numeric(values):
        try:
            for v in values:
                float(v)
        except ValueError:
            return False
        return True

    columns = [[r[j] for r in data_rows] for j in range(width)]
    feat_idx = [j for j in range(width)
                if j != label_idx and is_numeric(columns[j])]
    if not feat_idx:
        raise IngestionError(f"{path}: no numeric feature columns")
    features = np.array(
        [[float(r[j]) for j in feat_idx] for r in data_rows], dtype=np.float64
    )
    if not np.all(np.isfinite(features)):
        bad = np.argwhere(~np.isfinite(features))[0]
        raise IngestionError(
            f"{path}: non-finite value at row {bad[0]}, column {feat_idx[bad[1]]}"
        )
    labels = None
    class_count = 0
    if label_idx is not None:
        seen = {}
        labels = np.array([seen.setdefault(v, len(seen))
                           for v in columns[label_idx]], dtype=np.intp)
        class_count = len(seen)
    return Dataset(features=features, labels=labels,
                   feature_names=[names[j] for j in feat_idx],
                   class_count=class_count)


def _assert_same_load(path, **kwargs):
    try:
        want = _two_pass_load_csv(path, **kwargs)
    except IngestionError as e:
        with pytest.raises(IngestionError) as got:
            load_csv(path, **kwargs)
        assert str(got.value) == str(e)
        return
    got = load_csv(path, **kwargs)
    assert got.features.flags.c_contiguous
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert list(got.feature_names) == list(want.feature_names)
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.tobytes() == want.labels.tobytes()
    assert got.class_count == want.class_count


def test_load_csv_matches_two_pass_parser_on_bundled_csv():
    _assert_same_load(BUNDLED_CSV, label_column="target")
    _assert_same_load(BUNDLED_CSV)


@pytest.mark.parametrize("text, kwargs", [
    ("a,b,label\n1,2,cat\n3,4,dog\n5,6,cat\n", {"label_column": "label"}),
    # a text column is dropped, wherever it first fails to parse
    ("a,junk,b,y\n1,foo,2,0\n3,bar,4,1\n", {"label_column": "y"}),
    ("a,late,b,y\n1,2,2,0\n3,4,4,1\n5,x,6,0\n", {"label_column": "y"}),
    ("a,b\n1,u\n2,v\n", {"label_column": 1}),
    ("u,a,b\nq,1,2\nr,3,4\nq,5,6\n", {"label_column": 0}),
    # a header row is required: a numeric first row names the columns
    ("1.5,2,3\n4,5e3,-6\n", {}),
    ("a,b\n1,nan\n3,4\n", {}),
    ("a,b\n1,2\ninf,4\n", {}),
    ("a,b,c\n1,2,3\n4,-inf,nan\n", {}),
    # the first non-finite cell in row-major order is the one reported
    ("a,b\n1,nan\ninf,4\n", {}),
    ("a,b,c\n1,2,3\n4,5,6\n", {"label_column": 2}),
    ("a,b\n1,2\n3\n", {}),
    ("a,b\n1,2\n3,4,5\n", {}),
    ("a,b\n1,2\n3,4\n", {"label_column": "nope"}),
    ("a\nfoo\nbar\n", {}),
    ("a,y\nfoo,0\nbar,1\n", {"label_column": "y"}),
])
def test_load_csv_matches_two_pass_parser(tmp_path, text, kwargs):
    p = _write(tmp_path, text)
    _assert_same_load(p, **kwargs)


def test_dataset_validates_labels():
    with pytest.raises(IngestionError):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]))
    with pytest.raises(IngestionError):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1, 5]),
                class_count=2)


def test_standardize_zscores_and_zeroes_constant_feature():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3)) * [2.0, 5.0, 1.0] + [1.0, -2.0, 0.0]
    X[:, 2] = 7.0  # constant feature
    std, rec = standardize(X)
    assert np.allclose(std[:, :2].mean(axis=0), 0, atol=1e-12)
    assert np.allclose(std[:, :2].std(axis=0), 1, atol=1e-12)
    assert np.all(std[:, 2] == 0.0)
    assert rec.transform(X).tobytes() == std.tobytes()


def test_standardizer_dict_round_trip():
    rec = Standardizer(mean=np.array([1.0, 2.0]), std=np.array([3.0, 0.0]))
    d = rec.to_dict()
    assert d == {"mean": [1.0, 2.0], "std": [3.0, 0.0]}
    rec2 = Standardizer(mean=np.array(d["mean"]), std=np.array(d["std"]))
    rows = np.array([[4.0, 9.0]])
    assert np.allclose(rec.transform(rows), rec2.transform(rows))


def test_split_is_stratified_and_deterministic():
    labels = np.repeat([0, 1, 2], [30, 20, 10])
    tr, he = split(labels, 0.5, seed=11)
    assert np.array_equal(tr, split(labels, 0.5, seed=11)[0])
    assert len(np.intersect1d(tr, he)) == 0
    assert len(tr) + len(he) == 60
    for c, size in ((0, 30), (1, 20), (2, 10)):
        assert np.sum(labels[tr] == c) == size // 2
    assert not np.array_equal(tr, split(labels, 0.5, seed=12)[0])


def test_split_rejects_bad_fraction():
    labels = np.arange(4) % 2
    with pytest.raises(IngestionError):
        split(labels, 0.0, seed=0)
    with pytest.raises(IngestionError):
        split(labels, 1.0, seed=0)


def test_pca_target_retains_requested_variance():
    rng = np.random.default_rng(5)
    # three dominant directions out of six
    basis = rng.normal(size=(6, 6))
    scales = np.array([10.0, 5.0, 3.0, 0.1, 0.05, 0.01])
    X = rng.normal(size=(200, 6)) * scales @ basis
    t = pca_target(X, 0.99)
    lam = np.linalg.eigvalsh(np.cov(X.T, bias=True))[::-1]
    expected = int(np.searchsorted(np.cumsum(lam / lam.sum()), 0.99 - 1e-12) + 1)
    assert t.k == expected
    assert t.transform(X).shape == (200, expected)
    # the projection of the training rows is the centred rows on the basis
    assert np.allclose(t.transform(X), (X - X.mean(axis=0)) @ t.components)
    # components orthonormal, explained variance nonincreasing
    assert np.allclose(t.components.T @ t.components,
                       np.eye(expected), atol=1e-9)
    assert np.all(np.diff(t.explained_variance) <= 1e-12)


def test_pca_target_rejects_zero_variance():
    with pytest.raises(IngestionError):
        pca_target(np.ones((5, 3)), 0.99)
