import numpy as np
import pytest

from gpdr.forest import balanced_accuracy, rf_fold_proba


def _forest_proba(X, y, probe, trees, seed):
    """Class probabilities at the probe rows of one forest grown on X, y:
    the one-fold call of the lockstep grower."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    probe = np.atleast_2d(np.asarray(probe, dtype=np.float64))
    n, m = len(X), len(probe)
    return rf_fold_proba(np.vstack([X, probe]),
                         np.concatenate([y, np.zeros(m, dtype=int)]),
                         [(np.arange(n), np.arange(n, n + m))], [seed],
                         trees)[0]


def _forest_predict(X, y, probe, trees, seed):
    return np.argmax(_forest_proba(X, y, probe, trees, seed), axis=1)


def test_forest_memorizes_small_dataset():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 2, 3])
    assert np.array_equal(_forest_predict(X, y, X, trees=25, seed=0), y)


def test_forest_learns_separable_classes():
    rng = np.random.default_rng(0)
    X0 = rng.normal(size=(40, 2)) - 3.0
    X1 = rng.normal(size=(40, 2)) + 3.0
    X = np.vstack([X0, X1])
    y = np.repeat([0, 1], 40)
    grid = rng.normal(size=(30, 2)) - 3.0
    assert np.mean(_forest_predict(X, y, grid, trees=30, seed=1) == 0) > 0.9


def test_forest_is_seeded():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(int)
    probe = rng.normal(size=(20, 3))
    a = _forest_proba(X, y, probe, trees=10, seed=7)
    b = _forest_proba(X, y, probe, trees=10, seed=7)
    assert np.array_equal(a, b)


def test_predict_proba_is_distribution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = rng.integers(3, size=30)
    proba = _forest_proba(X, y, rng.normal(size=(10, 2)), trees=10, seed=0)
    assert proba.shape == (10, 3)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert np.all(proba >= 0)


def test_single_class_degenerates_to_constant():
    X = np.arange(10, dtype=float).reshape(5, 2)
    assert np.all(_forest_predict(X, np.full(5, 2), X, trees=5, seed=0) == 2)


def test_rf_fit_input_checks():
    with pytest.raises(ValueError):
        _forest_proba(np.zeros((1, 2)), np.zeros(1, dtype=int),
                      np.zeros((1, 2)), trees=100, seed=0)


def test_balanced_accuracy_oracle():
    y = np.array([0, 0, 0, 0, 1, 1])
    pred = np.array([0, 0, 0, 0, 1, 0])
    # recall: class 0 = 1.0, class 1 = 0.5
    assert balanced_accuracy(y, pred) == 0.75
    assert balanced_accuracy(y, y) == 1.0
    with pytest.raises(ValueError):
        balanced_accuracy(y, pred[:3])


def test_balanced_accuracy_ignores_class_imbalance():
    # a majority-class predictor scores 0.5 no matter the imbalance
    y = np.array([0] * 99 + [1])
    pred = np.zeros(100, dtype=int)
    assert balanced_accuracy(y, pred) == 0.5


# --- the recursive forest this module replaced, kept as the oracle -------
# The flat builder must make the same draws in the same order and the same
# Gini arithmetic, so every vote below is compared as bytes.


def _oracle_best_split(X, y, feat_candidates, n_classes):
    n = y.size
    counts_total = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_gini = 1.0 - np.sum((counts_total / n) ** 2)
    best = (None, 0.0, 0.0)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for f in feat_candidates:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        prefix = np.cumsum(onehot[order], axis=0)
        valid = np.flatnonzero(xs[:-1] < xs[1:])
        if valid.size == 0:
            continue
        nl = (valid + 1).astype(np.float64)
        nr = n - nl
        left_counts = prefix[valid]
        right_counts = counts_total - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        score = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(score))
        gain = parent_gini - score[i]
        if gain > best[2] + 1e-15:
            thr = 0.5 * (xs[valid[i]] + xs[valid[i] + 1])
            best = (f, thr, gain)
    return best


def _build_tree(X, y, n_classes, max_features, rng):
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    if y.size < 2 or np.count_nonzero(counts) == 1:
        return counts
    feats = rng.choice(X.shape[1], size=max_features, replace=False)
    f, thr, gain = _oracle_best_split(X, y, feats, n_classes)
    if f is None or gain <= 0.0:
        return counts
    mask = X[:, f] <= thr
    return (int(f), float(thr),
            _build_tree(X[mask], y[mask], n_classes, max_features, rng),
            _build_tree(X[~mask], y[~mask], n_classes, max_features, rng))


def _predict_tree(node, X):
    if isinstance(node, np.ndarray):
        return np.tile(node / node.sum(), (X.shape[0], 1))
    f, thr, left, right = node
    mask = X[:, f] <= thr
    lo = _predict_tree(left, X[mask])
    hi = _predict_tree(right, X[~mask])
    out = np.empty((X.shape[0], lo.shape[1]))
    out[mask] = lo
    out[~mask] = hi
    return out


def _oracle_proba(X, y, probe, trees, seed):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    n_classes = int(y.max()) + 1
    if len(np.unique(y)) == 1:
        forest = [np.bincount(y, minlength=n_classes).astype(np.float64)]
    else:
        rng = np.random.default_rng(seed)
        max_features = max(1, int(np.sqrt(X.shape[1])))
        forest = []
        for _ in range(trees):
            boot = rng.integers(X.shape[0], size=X.shape[0])
            forest.append(
                _build_tree(X[boot], y[boot], n_classes, max_features, rng))
    probe = np.atleast_2d(np.asarray(probe, dtype=np.float64))
    votes = np.zeros((probe.shape[0], n_classes))
    for t in forest:
        votes += _predict_tree(t, probe)
    return votes / len(forest)


def _assert_same_votes(X, y, probe, trees, seed):
    with np.errstate(invalid="ignore"):
        want = _oracle_proba(X, y, probe, trees, seed)
        got = _forest_proba(X, y, probe, trees, seed)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_forest_matches_recursive_oracle(p, seed):
    rng = np.random.default_rng(100 * p + seed)
    n = int(rng.integers(20, 120))
    X = rng.normal(size=(n, p))
    y = rng.integers(4, size=n)
    y[: n // 2] = X[: n // 2, 0] > 0  # half the labels follow feature 0
    probe = np.vstack([X, rng.normal(scale=2.0, size=(40, p))])
    _assert_same_votes(X, y, probe, trees=15, seed=seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_flat_forest_matches_oracle_on_ties_and_duplicates(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(3, size=(90, 3)).astype(float)  # few distinct values
    X[60:] = X[:30]  # duplicate rows, often with another label
    y = rng.integers(3, size=90)
    _assert_same_votes(X, y, rng.integers(-1, 4, size=(30, 3)), 20, seed)


def test_flat_forest_matches_oracle_on_single_class():
    X = np.arange(12, dtype=float).reshape(6, 2)
    _assert_same_votes(X, np.full(6, 2), X + 0.5, trees=5, seed=0)


def test_flat_forest_keeps_the_empty_leaf_of_adjacent_doubles():
    # 0.5 * (a + b) rounds up to b for these adjacent doubles, so the split
    # sends every row left and its right leaf is empty: it votes NaN
    a, b = -1.0514722790917788, -1.0514722790917785
    assert np.nextafter(a, 0.0) == b and 0.5 * (a + b) == b
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=40)
    X = np.column_stack([np.where(np.arange(40) % 2, b, a), x1])
    y = (np.arange(40) % 2) ^ (x1 > 1.0)
    probe = np.column_stack([np.linspace(-1.06, -1.04, 9), np.zeros(9)])
    with np.errstate(invalid="ignore"):
        proba = _forest_proba(X, y, probe, trees=10, seed=0)
    assert np.isnan(proba[-1]).all()
    _assert_same_votes(X, y, probe, trees=10, seed=0)


@pytest.mark.parametrize("p", [1, 2])
def test_endless_all_left_splits_raise_like_the_recursion(p):
    # every feature splits between adjacent doubles whose midpoint is the
    # upper one, so each left child is its parent again
    a, b = -1.0514722790917788, -1.0514722790917785
    X = np.array([[a] * p, [b] * p] * 5)
    y = np.arange(10) % 2
    with pytest.raises(RecursionError):
        _oracle_proba(X, y, X, trees=1, seed=0)
    with pytest.raises(RecursionError):
        _forest_proba(X, y, X, trees=1, seed=0)


# --- lockstep forests: fold by fold, the forest grown alone -------------


def _folds(n, n_folds, seed):
    perm = np.random.default_rng(seed).permutation(n)
    return [(np.setdiff1d(np.arange(n), held), np.sort(held))
            for held in np.array_split(perm, n_folds)]


def _assert_lockstep_matches_oracle(X, y, folds, trees):
    seeds = [11 + 7919 * f for f in range(len(folds))]
    with np.errstate(invalid="ignore"):
        got = rf_fold_proba(X, y, folds, seeds, trees=trees)
        assert len(got) == len(folds)
        for (train, held), seed, proba in zip(folds, seeds, got):
            want = _oracle_proba(X[train], y[train], X[held], trees, seed)
            alone = _forest_proba(X[train], y[train], X[held], trees, seed)
            assert proba.shape == want.shape
            assert proba.tobytes() == want.tobytes()
            assert proba.tobytes() == alone.tobytes()
    return got


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_lockstep_forests_match_oracle_fold_by_fold(p):
    # 71 rows in 10 folds: training sets of 63 and 64 rows; p=5 draws two
    # candidates per split through rng.choice
    rng = np.random.default_rng(40 + p)
    X = np.round(rng.normal(size=(71, p)), 1)  # ties within columns
    y = rng.integers(4, size=71)
    y[:35] = X[:35, 0] > 0
    folds = _folds(71, 10, p)
    assert {train.size for train, _ in folds} == {63, 64}
    _assert_lockstep_matches_oracle(X, y, folds, trees=8)


def test_lockstep_forests_with_different_class_counts():
    # 9 classes in all; leaving out the rows of classes 7 and 8 gives
    # forests of 7, 8 and 9 classes, whose Gini sums have other lengths.
    # On this data, summing the 7-class Gini over a zero-padded 9-class
    # axis rounds one split's score differently and grows another forest
    rng = np.random.default_rng(15)
    X = np.round(rng.normal(size=(90, 2)), 1)
    y = rng.integers(7, size=90)
    y[:4], y[4:8] = 8, 7
    rest = np.arange(8, 90)
    folds = [(rest, np.arange(8)), (np.arange(4, 80), np.arange(80, 90)),
             (np.arange(60), np.arange(60, 90)),
             (np.arange(70), np.arange(70, 90))]
    got = _assert_lockstep_matches_oracle(X, y, folds, trees=10)
    assert [proba.shape[1] for proba in got] == [7, 8, 9, 9]


def test_lockstep_forests_with_a_single_class_fold():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 2))
    y = np.zeros(60, dtype=int)
    y[:5], y[30:40] = 1, 2
    folds = [(np.arange(5, 30), np.arange(5))] + _folds(60, 4, 8)
    got = _assert_lockstep_matches_oracle(X, y, folds, trees=6)
    assert got[0].shape == (5, 1) and (got[0] == 1.0).all()


def test_lockstep_forests_keep_the_empty_leaf_of_adjacent_doubles():
    a, b = -1.0514722790917788, -1.0514722790917785
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=40)
    X = np.column_stack([np.where(np.arange(40) % 2, b, a), x1])
    y = (np.arange(40) % 2) ^ (x1 > 1.0)
    probe = np.column_stack([np.linspace(-1.06, -1.04, 9), np.zeros(9)])
    X, y = np.vstack([X, probe]), np.concatenate([y, np.zeros(9, int)])
    held = np.arange(40, 49)
    folds = [(np.arange(40), held)] + [
        (np.setdiff1d(np.arange(40), np.arange(f, 40, 4)), held)
        for f in range(3)]
    got = _assert_lockstep_matches_oracle(X, y, folds, trees=10)
    assert np.isnan(got[0][-1]).all()


def test_lockstep_endless_all_left_split_raises():
    a, b = -1.0514722790917788, -1.0514722790917785
    rng = np.random.default_rng(9)
    X = np.vstack([np.array([[a, a], [b, b]] * 5), rng.normal(size=(30, 2))])
    y = np.concatenate([np.arange(10) % 2, rng.integers(2, size=30)])
    folds = [(np.arange(10, 40), np.arange(5)), (np.arange(10), np.arange(5))]
    with pytest.raises(RecursionError):
        _oracle_proba(X[:10], y[:10], X[:5], trees=1, seed=0)
    with pytest.raises(RecursionError):
        rf_fold_proba(X, y, folds, [0, 0], trees=1)


def test_lockstep_rejects_tiny_training_sets():
    X = np.arange(8, dtype=float).reshape(4, 2)
    with pytest.raises(ValueError):
        rf_fold_proba(X, [0, 1, 0, 1], [(np.arange(3), [3]), ([0], [3])],
                      [0, 1])
    with pytest.raises(ValueError, match="2 folds but 1 seeds"):
        rf_fold_proba(X, [0, 1, 0, 1], [(np.arange(3), [3])] * 2, [0])


@pytest.mark.parametrize("p", [2, 3])
def test_integers_block_draws_like_scalar_draws(p):
    # the builder draws a tree's candidate features as one block
    # integers(p, size=K) after its bootstrap draw, then puts back the
    # state from before the block and re-draws the count it used
    for seed in range(300):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        n = 20 + seed % 50
        assert np.array_equal(a.integers(n, size=n), b.integers(n, size=n))
        K = 1 + seed % 97
        saved = a.bit_generator.state
        assert a.integers(p, size=K).tolist() == [
            b.integers(p) for _ in range(K)]
        assert a.bit_generator.state == b.bit_generator.state
        used = seed % (K + 1)
        a.bit_generator.state = saved
        a.integers(p, size=used)
        c = np.random.default_rng(seed)
        c.integers(n, size=n)
        for _ in range(used):
            c.integers(p)
        assert a.bit_generator.state == c.bit_generator.state


@pytest.mark.parametrize("p", [1, 2, 3])
def test_integers_draws_like_choice_of_one(p):
    # the builder draws one candidate feature with rng.integers(p); this is
    # only the same forest while it equals choice(p, 1, replace=False)
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert a.integers(p) == b.choice(p, size=1, replace=False)[0]
        assert a.bit_generator.state == b.bit_generator.state
