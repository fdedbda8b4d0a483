"""From-scratch random forest classifier (axis-aligned splits, Gini
impurity, bootstrap sampling, sqrt-p feature subsets, grown to purity)
and balanced accuracy.

The forest is one set of flat node arrays. Trees are grown from an
explicit stack in preorder (node, left subtree, right subtree), the order
in which splits draw their features from the one generator: another
order grows other trees, and so writes other records.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

MIN_SPLIT = 2


def _gini_best_split(XT, onehot, rows, feat_candidates, counts_total):
    """Best (feature, threshold, left class counts, left rows, right rows)
    for ``rows`` of ``XT`` (p, n) and labels ``onehot`` (n, c), or None.
    Class-count prefix sums over the sorted column: O(n log n) a feature."""
    n = rows.size
    parent_gini = 1.0 - ((counts_total / n) ** 2).sum()
    best, best_gain = None, 0.0
    for f in feat_candidates:
        col = XT[f][rows]
        order = col.argsort(kind="stable")
        xs = col[order]
        ranked = rows[order]
        prefix = onehot[ranked].cumsum(axis=0)  # (n, c)
        # split after position i (left = first i+1 rows); need distinct values
        valid = (xs[:-1] < xs[1:]).nonzero()[0]
        if valid.size == 0:
            continue
        nl = valid + 1.0
        nr = n - nl
        left_counts = prefix[valid]
        right_counts = counts_total - left_counts
        gini_l = 1.0 - ((left_counts / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right_counts / nr[:, None]) ** 2).sum(axis=1)
        score = (nl * gini_l + nr * gini_r) / n
        i = score.argmin()
        gain = parent_gini - score[i]
        if gain > best_gain + 1e-15:
            thr = 0.5 * (xs[valid[i]] + xs[valid[i] + 1])
            # the midpoint of adjacent doubles can round up to the upper
            # one, so `x <= thr` may take more rows left than were scored
            n_left = xs.searchsorted(thr, side="right")
            best_gain = gain
            best = (f, thr, prefix[n_left - 1].copy(), ranked[:n_left],
                    ranked[n_left:])
    return best


def _grow(X, y, n_classes, max_features, rng):
    """One tree as node arrays (feature, threshold, left, right, class
    distribution) in preorder; a leaf is its own left and right child."""
    XT, onehot = np.ascontiguousarray(X.T), np.eye(n_classes)[y]
    p, nodes = X.shape[1], []
    # (rows, class counts, parent whose right child this is or -1, depth)
    stack = [(np.arange(y.size),
              np.bincount(y, minlength=n_classes).astype(np.float64), -1, 0)]
    while stack:
        rows, counts, parent, depth = stack.pop()
        if depth >= sys.getrecursionlimit():  # endless all-left splits
            raise RecursionError("tree deeper than the recursion limit")
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        nodes.append([0, 0.0, node, node, counts])
        if rows.size < MIN_SPLIT or np.count_nonzero(counts) == 1:
            continue
        # integers(p) draws what choice(p, 1, replace=False) draws, faster
        feats = ([rng.integers(p)] if max_features == 1
                 else rng.choice(p, size=max_features, replace=False))
        split = _gini_best_split(XT, onehot, rows, feats, counts)
        if split is None:
            continue
        f, thr, left_counts, rows_l, rows_r = split
        nodes[node][:3] = int(f), float(thr), node + 1
        stack.append((rows_r, counts - left_counts, node, depth + 1))
        stack.append((rows_l, left_counts, -1, depth + 1))
    feature, threshold, left, right, counts = map(np.array, zip(*nodes))
    # an empty leaf (see the adjacent-doubles note above) votes NaN
    value = counts / counts.sum(axis=1, keepdims=True)
    return feature, threshold, left, right, value


@dataclass
class RandomForest:
    """All trees' nodes in flat arrays; ``roots[t]`` is tree t's root."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # (nodes, c) class distribution, read at the leaves
    roots: np.ndarray
    n_classes: int
    seed: int

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        cols = np.arange(rows.shape[0])
        node = np.repeat(self.roots[:, None], rows.shape[0], axis=1)
        while True:  # every tree x row one level down; leaves stay put
            go_left = rows[cols, self.feature[node]] <= self.threshold[node]
            step = np.where(go_left, self.left[node], self.right[node])
            if np.array_equal(step, node):
                break
            node = step
        votes = np.zeros((rows.shape[0], self.n_classes))
        for leaves in node:  # in tree order, so the sums keep their bits
            votes += self.value[leaves]
        return votes / len(self.roots)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(rows), axis=1)


def rf_fit(X, y, trees: int = 100, seed: int = 0) -> RandomForest:
    """Bootstrap-sampled trees with sqrt(p) feature candidates per split."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    n_classes = int(y.max()) + 1
    if len(np.unique(y)) == 1:
        trees = 1  # a constant predictor: one tree of one pure leaf
    rng = np.random.default_rng(seed)
    max_features = max(1, int(math.sqrt(X.shape[1])))
    n = X.shape[0]
    grown = []
    for _ in range(trees):
        boot = rng.integers(n, size=n)
        grown.append(_grow(X[boot], y[boot], n_classes, max_features, rng))
    sizes = [len(tree[0]) for tree in grown]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = map(np.concatenate, zip(*grown))
    offset = np.repeat(roots, sizes)
    return RandomForest(feature, threshold, left + offset, right + offset,
                        value, roots, n_classes, seed)


def rf_predict(rf: RandomForest, rows: np.ndarray) -> np.ndarray:
    return rf.predict(rows)


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean per-class recall."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ValueError("length mismatch")
    recalls = []
    for c in np.unique(y_true):
        mask = y_true == c
        recalls.append(float(np.mean(y_pred[mask] == c)))
    if not recalls:
        raise ValueError("no classes present in y_true")
    return float(np.mean(recalls))
