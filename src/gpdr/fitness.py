"""The four fitness objectives: distance preservation (Sammon stress),
rank preservation (hyperbolically weighted Kendall's tau, the only rank
weighting; Vigna, "A weighted correlation index for rankings with ties",
WWW 2015), neural-teacher distillation, and GP-autoencoder
reconstruction (after linear scaling of the decoder outputs).

All objectives are minimized. The comparison target is always the
PCA-space data; the genome's input is always the raw standardized data.
Latent-side distances are always Euclidean.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .distances import geodesic, pairwise_euclidean
from .gp_core import AutoencoderMultiTree, MultiTree, genome_outputs
from .numerics import mse

log = logging.getLogger(__name__)

ZERO_DISTANCE_TOL = 1e-12
WORST_FITNESS = float("inf")


class FitnessError(ValueError):
    pass


class SammonTarget:
    """Target side of Sammon stress, built once per distance matrix D: the
    pairs i<j that are kept, their distances d and the normalizer sum d.

    Near-zero original distances (duplicate points) are skipped in both
    sums so they cannot blow up the normalizer.
    """

    def __init__(self, D: np.ndarray):
        D = np.asarray(D, dtype=np.float64)
        self.shape = D.shape
        # kept pairs as a mask, which selects them in row-major order, the
        # order of np.triu_indices
        self.keep = np.triu(D > ZERO_DISTANCE_TOL, 1)
        self.d = D[self.keep]
        self.total = np.sum(self.d)

    def stress(self, D_tilde: np.ndarray) -> float:
        """(1/sum d_ij) * sum (d_ij - d~_ij)^2 / d_ij over the kept pairs."""
        D_tilde = np.asarray(D_tilde, dtype=np.float64)
        if D_tilde.shape != self.shape:
            raise FitnessError(f"shape mismatch: {self.shape} vs "
                               f"{D_tilde.shape}")
        if self.d.size == 0:
            raise FitnessError("degenerate target: no positive distances")
        dt = D_tilde[self.keep]
        return float(np.sum((self.d - dt) ** 2 / self.d) / self.total)


def _rank_weights(R: np.ndarray) -> np.ndarray:
    """Hyperbolic weight 1 / (r + 1) of each entry of each row of R, where
    r is its ascending rank in the row: 0 is the shortest distance, and
    ties are ranked by position."""
    ranks = np.argsort(np.argsort(R, axis=1, kind="stable"), axis=1)
    return 1.0 / (ranks + 1.0)


def _strip_diagonal(D: np.ndarray) -> np.ndarray:
    n = D.shape[0]
    return D[~np.eye(n, dtype=bool)].reshape(n, n - 1)


# the most (pair, row) elements a pair-cache temporary holds
RANK_CHUNK_ELEMENTS = 2**16


def _pair_runs(m: int, most: int) -> list[range]:
    """The first members j of the pairs (j, l), l > j, of a row of m
    entries, cut into runs of consecutive j. A run's pairs fill consecutive
    slots in ``np.triu_indices`` order, and there are at most ``most`` of
    them unless one j alone has more."""
    starts, size = [], most
    for j in range(m - 1):
        if size + m - 1 - j > most:
            starts.append(j)
            size = 0
        size += m - 1 - j
    return [range(a, b) for a, b in zip(starts, starts[1:] + [m - 1])]


def _pairs(op, AT: np.ndarray, run: range, out: np.ndarray) -> np.ndarray:
    """``op(AT[j], AT[l])`` for the pairs (j, l > j) whose first member is
    in ``run``, one pair per row in ``np.triu_indices`` order, written to
    the leading rows of ``out``; returns those rows."""
    m = AT.shape[0]
    p = 0
    for j in run:
        op(AT[j], AT[j + 1:], out=out[p:p + m - 1 - j])
        p += m - 1 - j
    return out[:p]


def _add_rows(acc: np.ndarray, buf: np.ndarray, rows: int) -> np.ndarray:
    """``acc`` plus rows 1..rows of ``buf``, added one row after another:
    row 0 takes ``acc``, so summing over axis 0 continues the running sum."""
    buf[0] = acc
    return buf[:rows + 1].sum(axis=0)


class RankTargetCache:
    """Per-batch precomputation shared by every genome in a generation.

    Caches ``signed_w``, each original-distance pair weight times its pair
    sign, as one C-ordered (pairs, rows) array, so scoring a genome only
    needs the latent-side pair signs. Both are formed in chunks of pairs,
    a first member j at a time from the contiguous rows of the transposed
    distances, so no (rows, pairs) temporary is made.

    The order of the floating-point operations fixes the records: each
    row's pair products, and its pair weights, are summed one pair after
    another in ``np.triu_indices`` order, from 0.0. That is how numpy sums
    the F-ordered (rows, pairs) arrays that ``R[:, j]`` returns, and how
    it sums a C-ordered (pairs, rows) chunk over axis 0, whose first row
    here carries the running sum. A C-ordered (rows, pairs) array summed
    over axis 1 would be summed pairwise, and the records would change.
    """

    def __init__(self, D: np.ndarray):
        R = _strip_diagonal(np.asarray(D, dtype=np.float64))
        n, m = R.shape
        RT = np.ascontiguousarray(R.T)
        wT = np.ascontiguousarray(_rank_weights(R).T)
        most = max(1, RANK_CHUNK_ELEMENTS // n)
        self.runs = _pair_runs(m, most)
        # the largest run's pairs after the running-sum row
        self.buf_shape = (1 + max(most, m - 1), n)
        self.signed_w = np.empty((m * (m - 1) // 2, n))
        self.total_w = np.zeros(n)
        buf = np.empty(self.buf_shape)
        p = 0
        for run in self.runs:
            signed = _pairs(np.subtract, RT, run, self.signed_w[p:])
            np.sign(signed, out=signed)
            pair_w = _pairs(np.add, wT, run, buf[1:])
            self.total_w = _add_rows(self.total_w, buf, len(pair_w))
            signed *= pair_w
            p += len(signed)

    def mean_tau(self, D_tilde: np.ndarray) -> float:
        RtT = np.ascontiguousarray(
            _strip_diagonal(np.asarray(D_tilde, dtype=np.float64)).T)
        buf = np.empty(self.buf_shape)
        num = np.zeros(self.total_w.size)
        p = 0
        for run in self.runs:
            s = _pairs(np.subtract, RtT, run, buf[1:])
            np.sign(s, out=s)
            s *= self.signed_w[p:p + len(s)]
            num = _add_rows(num, buf, len(s))
            p += len(s)
        return float((num / self.total_w).mean())


def _latent_slots(T: np.ndarray):
    """Per element of each row of ``T``, in element-major layout so that
    step i of the sweep reads one contiguous block: the strict bounds
    ``[lo, hi)`` of its equal-value run in the row's latent-distance sort,
    shape (m, n, 2), and its 1-based tree position, shape (m, n)."""
    n, m = T.shape
    ord_t = np.argsort(T, axis=1, kind="stable")
    sv = np.take_along_axis(T, ord_t, axis=1)
    # differs[:, s]: sorted slots s and s + 1 hold different values
    differs = sv[:, 1:] != sv[:, :-1]
    del sv
    idx = np.arange(m)
    bounds = np.empty((m, n, 2), dtype=np.intp)
    pos = np.empty((m, n), dtype=np.intp)
    ord_e = ord_t.T
    lanes = np.arange(n)
    # one (n, m) buffer, in sorted slots, holds each bound in turn: the
    # last run start at or before the slot, then the first run end after it
    run = np.empty((n, m), dtype=np.intp)
    run[:, :1] = 0
    np.multiply(differs, idx[1:], out=run[:, 1:])
    np.maximum.accumulate(run, axis=1, out=run)
    bounds[ord_e, lanes, 0] = run.T
    run.fill(m)
    np.copyto(run[:, :-1], idx[1:], where=differs)
    np.minimum.accumulate(run[:, ::-1], axis=1, out=run[:, ::-1])
    bounds[ord_e, lanes, 1] = run.T
    pos[ord_e, lanes] = idx[:, None] + 1
    return bounds, pos


class RankSweep:
    """Target-side precomputation for scoring many latent embeddings
    against one (possibly full-split) distance matrix.

    Per row the weighted concordance
    ``sum over pairs (w_j + w_l) * sign(d_j - d_l) * sign(t_j - t_l)``
    equals a sum over ordered pairs taken in ascending target-distance
    order, which a Fenwick (binary indexed) tree over latent-distance
    ranks accumulates in O(m log m) per row instead of O(m^2). The trees
    for all rows are swept simultaneously as numpy lanes. Pairs tied on
    the target side are counted by the sweep and subtracted exactly
    afterwards; pairs tied on the latent side contribute zero because the
    tree is queried with strict (below-group / above-group) bounds.

    The per-element order of the floating-point operations fixes the
    records: elements are inserted in target order, each prefix sum adds
    its tree nodes lowest bit first, and the tie corrections of a row are
    subtracted in group order.
    """

    def __init__(self, D: np.ndarray):
        R = _strip_diagonal(np.asarray(D, dtype=np.float64))
        n, m = R.shape
        self.n, self.m = n, m
        w = _rank_weights(R)
        self.total_w = (m - 1) * w.sum(axis=1)
        # processing order: ascending target distance, stable
        self.order = np.argsort(R, axis=1, kind="stable")
        self.w_sorted = np.take_along_axis(w, self.order, axis=1)
        cw = np.cumsum(self.w_sorted, axis=1)
        self.cum_w = np.concatenate([np.zeros((n, 1)), cw[:, :-1]], axis=1)
        # runs of equal target distance within a row, as (row, start, end)
        # in slots of the target order, by row and then by start; pairs
        # inside them carry sign 0 and must be backed out of the sweep
        # totals. Real splits have tens of thousands of them, nearly all
        # pairs.
        R_sorted = np.take_along_axis(R, self.order, axis=1)
        same = R_sorted[:, 1:] == R_sorted[:, :-1]
        edges = np.diff(np.pad(same, ((0, 0), (1, 1))).view(np.int8), axis=1)
        starts = np.flatnonzero(edges == 1)
        self.tie_rows = starts // m
        self.tie_starts = starts % m
        self.tie_ends = np.flatnonzero(edges == -1) % m + 1
        # Fenwick node j holds the sum over slots (j - lowbit(j), j]. Queries
        # never pass slot m, so a lane's tree is nodes 0..m, where 0 is a
        # zero sentinel that ends every query walk, plus a spill node m + 1
        # that ends every update walk and is never read. Slots up to m have
        # at most m.bit_length() set bits, and no walk visits more nodes.
        slots = np.arange(m + 1)
        query, update = [slots], [slots]
        for _ in range(1, m.bit_length()):
            q, p = query[-1], update[-1]
            query.append(q & (q - 1))
            update.append(np.minimum(p + (p & -p), m + 1))
        # query_paths[:, q]: the nodes whose sum is the prefix up to slot q
        self.query_paths = np.stack(query)
        # update_paths[p]: the nodes that cover slot p
        self.update_paths = np.stack(update, axis=1)

    def tau_per_row(self, D_tilde: np.ndarray) -> np.ndarray:
        n, m = self.n, self.m
        T = np.take_along_axis(_strip_diagonal(D_tilde), self.order, axis=1)
        bounds, pos = _latent_slots(T)
        # every tree node holds (count, weight) as one complex128, so one
        # gather and one add serve both; complex addition and subtraction
        # are componentwise, so each count and weight sees the same IEEE
        # operations as with two real arrays. Lane r owns the nodes
        # [r * (m + 2), (r + 1) * (m + 2)).
        nodes = np.zeros(n * (m + 2), dtype=np.complex128)
        base = np.arange(n)[:, None] * (m + 2)
        # what an insertion adds to each node on its path: a count of one
        # and the element's weight
        step = np.empty((n, 1), dtype=np.complex128)
        step.real = 1.0
        # what the upper query is taken from: the count and the weight of
        # the elements inserted before this one
        seen = np.empty(n, dtype=np.complex128)
        num = np.zeros(n)
        for i in range(m):
            step.imag[:, 0] = self.w_sorted[:, i]
            seen.real = i
            seen.imag = self.cum_w[:, i]
            # prefix sums below the element's value run (strictly smaller
            # latent distance) and up to its end (smaller or equal), added
            # node by node in path order
            part = nodes.take(self.query_paths.take(bounds[i], axis=1) + base)
            s = part[0].copy()
            for b in range(1, len(part)):
                s += part[b]
            # the upper side becomes the count and weight above the run
            s[:, 1] = seen - s[:, 1]
            cw = s.view(np.float64)
            t = cw[:, 1::2] + step.imag * cw[:, 0::2]
            num += t[:, 0] - t[:, 1]
            nodes[self.update_paths.take(pos[i], axis=0) + base] += step
        corr = self._tie_corrections(T)
        np.subtract.at(num, self.tie_rows, corr)
        return num / self.total_w

    def _tie_corrections(self, T: np.ndarray) -> np.ndarray:
        """Concordance the sweep counted inside each target tie group, in
        group order."""
        rows, a, b = self.tie_rows, self.tie_starts, self.tie_ends
        corr = np.empty(rows.size)
        pair = b - a == 2
        r2, a2 = rows[pair], a[pair]
        wv = self.w_sorted[r2, a2] + self.w_sorted[r2, a2 + 1]
        corr[pair] = wv * np.sign(T[r2, a2 + 1] - T[r2, a2])
        for g in np.flatnonzero(~pair):
            r = rows[g]
            t = T[r, a[g]:b[g]]
            wv = self.w_sorted[r, a[g]:b[g]]
            ju, lu = np.triu_indices(b[g] - a[g], 1)
            s = np.sign(t[lu] - t[ju])
            corr[g] = np.sum((wv[ju] + wv[lu]) * s)
        return corr

    def mean_tau(self, D_tilde: np.ndarray) -> float:
        return float(self.tau_per_row(D_tilde).mean())


class LinearFit(NamedTuple):
    """Per-column affine fit ``target ~ a + b * output`` and its centered
    residual pair: ``mse(target_c, fit_c)`` is the mean squared error left
    after the fit."""

    a: np.ndarray
    b: np.ndarray
    target_c: np.ndarray
    fit_c: np.ndarray


def linear_scaling(X_target: np.ndarray, X_hat: np.ndarray) -> LinearFit:
    """Least-squares intercept and slope of each decoder output column
    against its target column (Keijzer, "Improving symbolic regression with
    interval arithmetic and linear scaling", EuroGP 2003).

    With scaling, a decoder is judged by the shape of its outputs, not by
    their offset and scale, so a varying latent no longer costs more than
    a constant one. A column with zero variance gets slope 0 and so
    predicts the target mean.
    """
    X_target = np.asarray(X_target, dtype=np.float64)
    X_hat = np.asarray(X_hat, dtype=np.float64)
    if X_target.shape != X_hat.shape:
        raise FitnessError(
            f"shape mismatch: {X_target.shape} vs {X_hat.shape}"
        )
    y_mean = X_target.mean(axis=0)
    f_mean = X_hat.mean(axis=0)
    y_c = X_target - y_mean
    f_c = X_hat - f_mean
    var = np.mean(f_c * f_c, axis=0)
    cov = np.mean(f_c * y_c, axis=0)
    b = np.divide(cov, var, out=np.zeros_like(var), where=var > 0)
    return LinearFit(y_mean - b * f_mean, b, y_c, b * f_c)


OBJECTIVES = ("dist", "rank", "teacher", "gp_autoencoder")


@dataclass
class FitnessSpec:
    """Which objective scores a genome, its metric and its target space.

    ``target`` is the PCA-space data over the DR-train split; ``inputs``
    is the raw standardized data the genomes consume.
    """

    objective: str
    inputs: np.ndarray                      # (n, p) standardized features
    target: np.ndarray                      # (n, p') PCA-space data
    metric: Optional[str] = None            # dist/rank only
    teacher_latent: Optional[np.ndarray] = None
    n_neighbors: Optional[int] = None       # geodesic only
    _D_full: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise FitnessError(f"unknown objective {self.objective!r}")
        if self.objective in ("dist", "rank"):
            if self.metric not in ("euclidean", "geodesic"):
                raise FitnessError("dist/rank require a metric")
            if self.metric == "geodesic" and self.n_neighbors is None:
                raise FitnessError("the geodesic metric requires n_neighbors")
        elif self.metric is not None:
            raise FitnessError(f"{self.objective} takes no metric")
        if self.objective == "teacher" and self.teacher_latent is None:
            raise FitnessError("teacher objective requires teacher_latent")

    def full_distance_matrix(self) -> np.ndarray:
        """Target-space distances over the whole DR-train split, computed
        once per run and sliced per batch."""
        if self._D_full is None:
            if self.metric == "geodesic":
                self._D_full = geodesic(self.target, self.n_neighbors)
            else:
                self._D_full = pairwise_euclidean(self.target)
        return self._D_full


class BatchContext:
    """The one scorer of genome outputs, on a set of DR-train rows: a
    mini-batch, or the whole split when ``indices`` is None.

    The constructor builds the objective's target side, ``target``, once.
    The scoring closure holds that local, never the context, so a context
    is freed by reference counting as soon as its caller drops it.
    """

    def __init__(self, spec: FitnessSpec, indices=None):
        whole = indices is None
        rows = slice(None) if whole else np.asarray(indices)
        self.X = spec.inputs[rows]
        self.objective = spec.objective
        self.form = (AutoencoderMultiTree if spec.objective == "gp_autoencoder"
                     else MultiTree)
        if spec.objective in ("dist", "rank"):
            D = spec.full_distance_matrix()
            if not whole:
                D = D[np.ix_(rows, rows)]
        if spec.objective == "dist":
            target = SammonTarget(D)

            def objective(out):
                return target.stress(pairwise_euclidean(out))
        elif spec.objective == "rank":
            if len(D) < 3:
                # 2 rows have no pair weight: every output would score NaN
                raise FitnessError(
                    f"objective 'rank' needs at least 3 rows, got {len(D)}")
            # a batch (at most evolution.BATCH_SIZE rows) fits the pair
            # cache, which holds rows x pairs arrays; the whole split takes
            # the Fenwick sweep. The two kernels round differently, so this
            # rule fixes the records.
            target = RankSweep(D) if whole else RankTargetCache(D)

            def objective(out):
                return -target.mean_tau(pairwise_euclidean(out))
        elif spec.objective == "teacher":
            target = spec.teacher_latent[rows]

            def objective(out):
                return mse(target, out)
        else:
            target = spec.target[rows]

            def objective(out):
                fit = linear_scaling(target, out)
                return mse(fit.target_c, fit.fit_c)
        self.target = target
        self._objective = objective

    def value(self, out: np.ndarray) -> float:
        """Objective value of one genome output on the rows; non-finite
        outcomes collapse to the worst-possible sentinel instead of
        aborting the run."""
        try:
            value = self._objective(out)
        except FloatingPointError:
            return WORST_FITNESS
        return value if np.isfinite(value) else WORST_FITNESS

    def score(self, genomes) -> list[float]:
        """``value`` of each genome's output, once per distinct output:
        converged populations are full of repeats, and the whole-split rank
        sweep costs O(n^2 log n) per output. The objective fixes the genome
        form, so a genome of another form is refused."""
        if not all(isinstance(g, self.form) for g in genomes):
            raise FitnessError(
                f"{self.objective} requires {self.form.__name__}s")
        t0 = time.perf_counter()
        by_output: dict = {}
        fits = []
        for out in genome_outputs(genomes, self.X):
            key = out.tobytes()
            if key not in by_output:
                by_output[key] = self.value(out)
            fits.append(by_output[key])
        log.debug("scored %d genomes on %d rows: %d distinct outputs, "
                  "%.3f s", len(genomes), len(self.X), len(by_output),
                  time.perf_counter() - t0)
        return fits
