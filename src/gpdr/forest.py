"""From-scratch random forest classifier (axis-aligned splits, Gini
impurity, bootstrap sampling, sqrt-p feature subsets, grown to purity)
and balanced accuracy.

Each forest has its own generator, and grows its trees one after
another from an explicit stack in preorder (node, left subtree, right
subtree), the order in which its splits draw their candidate features:
another order grows other trees, and so writes other records.
Independent forests (one per fold of a cross-validation) grow in
lockstep: each round pops the next node to split from every forest's
own stack and scores all those nodes in one vectorized pass, so each
forest grows exactly the trees it grows alone. A forest is never held
whole: its finished trees vote on its held-out rows and are dropped.
"""

from __future__ import annotations

import math
import sys

import numpy as np

MIN_SPLIT = 2
# finished trees a held-out forest keeps before voting: more trees per
# descent, but more small objects alive (peak RSS)
VOTE_EVERY = 2


def _gini(counts, n):
    return 1.0 - ((counts / n) ** 2).sum()


def _leaves(feature, threshold, left, right, roots, rows):
    """(trees, rows) leaf reached by each row in each tree: every tree x
    row moves one level down per vectorized step; leaves stay put."""
    cols = np.arange(rows.shape[0])
    node = np.repeat(roots[:, None], rows.shape[0], axis=1)
    while True:
        go_left = rows[cols, feature[node]] <= threshold[node]
        step = np.where(go_left, left[node], right[node])
        if np.array_equal(step, node):
            return node
        node = step


class _Grower:
    """One forest in growth: its generator, its bootstrap samples and the
    preorder stack of its tree in progress. Node rows are row ids of the
    X shared by every forest of a lockstep call.

    Nodes go to flat lists, one tree after another; every VOTE_EVERY
    finished trees vote on the probe rows, in tree order, and are dropped.
    """

    def __init__(self, y, train, trees, seed, p, probe):
        if train.size < 2:
            raise ValueError("need at least 2 training rows")
        self.y, self.train, self.p, self.probe = y, train, p, probe
        self.n_classes = int(y[train].max()) + 1
        # a single class makes a constant predictor: one tree of one leaf
        self.trees_left = 1 if np.unique(y[train]).size == 1 else trees
        self.max_features = max(1, int(math.sqrt(p)))
        self.rng = np.random.default_rng(seed)
        self.limit = sys.getrecursionlimit()
        self.stack, self.grown = [], 0
        self._clear()
        self.votes = np.zeros((probe.shape[0], self.n_classes))

    def _clear(self):
        self.feature, self.threshold, self.left, self.right = [], [], [], []
        self.counts, self.roots = [], []

    def next_split(self):
        """Pop nodes in preorder until one needs a split and return its
        rows, Gini impurity and candidate features; None once every tree
        is grown."""
        stack = self.stack
        while True:
            if not stack:
                if self.roots:
                    self._finish_tree()
                if not self.trees_left:
                    return None
                self._start_tree()
            parent, depth, rows, counts, gini, splittable = stack.pop()
            if depth >= self.limit:  # endless all-left splits
                raise RecursionError("tree deeper than the recursion limit")
            node = len(self.feature)
            if parent >= 0:
                self.right[parent] = node
            self.feature.append(0)
            self.threshold.append(0.0)
            self.left.append(node)  # a leaf is its own left and right child
            self.right.append(node)
            self.counts.append(counts)
            if splittable:
                self.node, self.depth = node, depth
                return rows, gini, self._draw()

    def split(self, f, thr, rows_l, counts_l, gini_l, ok_l,
              rows_r, counts_r, gini_r, ok_r):
        """Make the node of the last next_split a split on ``x[f] <= thr``
        and push its children (rows, class counts, Gini impurity, whether
        to split it); right first, so the left subtree comes next."""
        node, depth = self.node, self.depth + 1
        self.feature[node], self.threshold[node] = f, thr
        self.left[node] = node + 1
        self.stack.append((node, depth, rows_r, counts_r, gini_r, ok_r))
        self.stack.append((-1, depth, rows_l, counts_l, gini_l, ok_l))

    def _start_tree(self):
        n = self.train.size
        rows = self.train[self.rng.integers(n, size=n)]
        counts = np.bincount(self.y[rows], minlength=self.n_classes)
        counts = counts.astype(np.float64)
        splittable = n >= MIN_SPLIT and np.count_nonzero(counts) != 1
        self.stack.append((-1, 0, rows, counts, _gini(counts, n), splittable))
        self.roots.append(len(self.feature))
        self.trees_left -= 1
        self.block, self.used = [], 0

    def _draw(self):
        if self.max_features > 1:
            feats = self.rng.choice(self.p, size=self.max_features,
                                    replace=False)
            return feats.tolist()
        # integers(p) draws what choice(p, 1, replace=False) draws, and a
        # block integers(p, size=K) is K such draws; _finish_tree rewinds
        # the ones the tree did not use
        if self.used == len(self.block):
            self.saved = self.rng.bit_generator.state
            self.block = self.rng.integers(self.p, size=self.train.size)
            self.block, self.used = self.block.tolist(), 0
        self.used += 1
        return self.block[self.used - 1:self.used]

    def _finish_tree(self):
        if self.used < len(self.block):
            self.rng.bit_generator.state = self.saved
            self.rng.integers(self.p, size=self.used)
        self.grown += 1
        if len(self.roots) == VOTE_EVERY:
            self._vote()

    def _vote(self):
        """Add the class distributions the probe rows reach in each tree of
        the lists, in tree order, and empty the lists."""
        if self.roots:
            counts = np.concatenate(self.counts).reshape(len(self.counts), -1)
            # an empty leaf (see the adjacent-doubles note in _split_nodes)
            # votes NaN
            value = counts / counts.sum(axis=1, keepdims=True)
            node = _leaves(np.array(self.feature), np.array(self.threshold),
                           np.array(self.left), np.array(self.right),
                           np.array(self.roots), self.probe)
            for leaves in node:  # tree by tree, so the sums keep their bits
                self.votes += value[leaves]
            self._clear()

    def proba(self) -> np.ndarray:
        """Class probabilities of the probe rows over all trees."""
        self._vote()
        return self.votes / self.grown


class _Columns:
    """Every column of X sorted once. A code f*n + i names the i-th row of
    column f in ascending order (ties by row id), so sorting codes sorts
    rows by value; ``code[f*n + row]`` is the code of a row."""

    def __init__(self, X, y):
        n, p = X.shape
        order = np.argsort(X, axis=0, kind="stable").T  # (p, n)
        self.n, self.stride = n, p * n
        self.row = order.ravel()
        self.value = np.take_along_axis(X.T, order, axis=1).ravel()
        self.code = np.empty(p * n, dtype=np.intp)
        self.code[(order + n * np.arange(p)[:, None]).ravel()] = np.arange(
            p * n)
        self.label = y[self.row]
        self._onehot = {}

    def onehot(self, c):
        """(p*n, c) class indicators by code, for forests of c classes;
        rows with a higher label never reach their nodes."""
        if c not in self._onehot:
            eye = np.eye(max(c, int(self.label.max()) + 1))[:, :c]
            self._onehot[c] = eye[self.label]
        return self._onehot[c]


def _split_nodes(cols, jobs):
    """Split the node of every job ``(grower, rows, Gini impurity,
    candidate features)`` in one pass, as each forest's own search would.

    Every (node, candidate) pair is one segment of a concatenated array,
    sorted by (segment, value), with class-count prefix sums across all
    segments. Each split gets its Gini score on the same (m, c) shapes as
    a one-node search, so the bits agree; ties may sit in any order, since
    a split falls only between distinct values. A segment keeps its first
    minimum; a node keeps the first candidate that beats the best gain so
    far by 1e-15.
    """
    n_cand = len(jobs[0][3])
    seg_rows = [rows for _, rows, _, feats in jobs for _ in feats]
    feats = [f for _, _, _, fs in jobs for f in fs]
    lens = np.array([rows.size for rows in seg_rows])
    ends = lens.cumsum()
    starts = ends - lens
    column, segment = np.array([[f * cols.n for f in feats], cols.stride
                                * np.arange(lens.size)]).repeat(lens, axis=1)
    code = cols.code[column + np.concatenate(seg_rows)] + segment
    code.sort()  # by segment, then by value
    code -= segment
    rows, xs = cols.row[code], cols.value[code]
    cum = np.zeros((rows.size + 1, jobs[0][0].n_classes))
    cols.onehot(cum.shape[1]).take(code, axis=0).cumsum(axis=0, out=cum[1:])

    # split after sorted position v of a segment: needs distinct values
    valid = xs[:-1] < xs[1:]
    valid[ends[:-1] - 1] = False
    v = valid.nonzero()[0]
    sv = ends.searchsorted(v, side="right")
    at = np.array([starts[sv], v + 1, ends[sv]])
    parts = cum.take(at, axis=0)
    counts = parts[1:] - parts[:-1]  # left and right class counts
    sizes = (at[1:] - at[:-1]).astype(np.float64)
    gini = 1.0 - ((counts / sizes[:, :, None]) ** 2).sum(axis=2)
    weighted = sizes * gini
    score = np.empty(rows.size)  # by position; inf: no split there
    score.fill(np.inf)
    score[v] = (weighted[0] + weighted[1]) / (sizes[0] + sizes[1])
    low = np.minimum.reduceat(score, starts)
    first = (score == low.repeat(lens)).nonzero()[0]
    cut = first[first.searchsorted(starts)] + 1  # at the first minimum
    gain = np.array([job[2] for job in jobs]).repeat(n_cand) - low

    if n_cand == 1:
        s = (gain > 0.0 + 1e-15).nonzero()[0]
    else:
        s = _first_better(gain.reshape(len(jobs), n_cand))
    at = np.array([starts[s], cut[s], ends[s]])
    gini = gini[:, v.searchsorted(at[1] - 1)]  # the children's, as scored
    thr = 0.5 * (xs[at[1] - 1] + xs[at[1]])
    # the midpoint of adjacent doubles can round up to the upper one, so
    # `x <= thr` takes more rows left than were scored, and may take all
    up = (thr == xs[at[1]]).nonzero()[0]
    for k in up:
        at[1, k] = at[0, k] + np.count_nonzero(xs[at[0, k]:at[2, k]] <= thr[k])
    parts = cum.take(at, axis=0)
    counts = parts[1:] - parts[:-1]
    sizes = at[1:] - at[:-1]
    for k in up:  # its children are not the scored ones
        for side in (0, 1):
            if sizes[side, k]:  # an empty child is a leaf: no Gini needed
                gini[side, k] = _gini(counts[side, k], sizes[side, k])
    # a pure node's impurity is exactly 1 - 1.0 = 0; a mixed node of n
    # rows has a squared-share sum at most 1 - 2(n-1)/n^2, so its
    # impurity stays above 0 for any n below about 1e15 rows
    splittable = (sizes >= MIN_SPLIT) & (gini > 0.0)
    for seg, t, lo, mid, hi, c_l, c_r, g_l, g_r, ok_l, ok_r in zip(
            s.tolist(), thr.tolist(), *at.tolist(), *counts, *gini.tolist(),
            *splittable.tolist()):
        jobs[seg // n_cand][0].split(feats[seg], t, rows[lo:mid], c_l, g_l,
                                     ok_l, rows[mid:hi], c_r, g_r, ok_r)


def _first_better(gain):
    """Segment of each node's first candidate whose gain beats the best so
    far (from 0) by 1e-15; nodes without one are left out."""
    best_gain, pick = np.zeros(len(gain)), np.full(len(gain), -1)
    for j in range(gain.shape[1]):
        better = gain[:, j] > best_gain + 1e-15
        best_gain[better] = gain[better, j]
        pick[better] = j
    nodes = (pick >= 0).nonzero()[0]
    return nodes * gain.shape[1] + pick[nodes]


def _grow_lockstep(X, y, growers):
    """Grow every forest in lockstep, one node of each per round."""
    cols = _Columns(X, y)
    active = growers
    while active:
        by_classes, still = {}, []
        for g in active:
            job = g.next_split()
            if job is not None:
                by_classes.setdefault(g.n_classes, []).append((g,) + job)
                still.append(g)
        for jobs in by_classes.values():
            _split_nodes(cols, jobs)
        active = still


def rf_fold_proba(X, y, folds, seeds, trees: int = 100) -> list[np.ndarray]:
    """Held-out class probabilities of one forest per fold.

    ``folds`` holds (training rows, held-out rows) index pairs into X and
    y; fold f's forest grows from its training rows alone, seeded with
    ``seeds[f]``, and result f is the mean over its trees of the class
    distribution at the leaf each held-out row reaches. The forests grow
    in lockstep, and none is kept whole: every VOTE_EVERY finished trees
    add their held-out votes in tree order and are dropped.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    if len(folds) != len(seeds):
        raise ValueError(f"{len(folds)} folds but {len(seeds)} seeds")
    growers = [
        _Grower(y, np.asarray(train, dtype=np.intp), trees, seed, X.shape[1],
                probe=X[held])
        for (train, held), seed in zip(folds, seeds)
    ]
    _grow_lockstep(X, y, growers)
    return [g.proba() for g in growers]


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
