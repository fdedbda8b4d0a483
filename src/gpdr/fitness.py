"""The four fitness objectives: distance preservation (Sammon stress),
weighted rank preservation (Kendall's tau), neural-teacher distillation,
and GP-autoencoder reconstruction (after linear scaling of the decoder
outputs).

All objectives are minimized. The comparison target is always the
PCA-space data; the genome's input is always the raw standardized data.
Latent-side distances are always Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .distances import geodesic, pairwise_euclidean
from .gp_core import AutoencoderMultiTree, MultiTree, autoencode, encode

ZERO_DISTANCE_TOL = 1e-12
WORST_FITNESS = float("inf")
# above this many cached pair entries, rank scoring avoids the pair cache
RANK_CACHE_MAX_ELEMENTS = 50_000_000


class FitnessError(ValueError):
    pass


@dataclass(frozen=True)
class WeightScheme:
    """Rank-based pair weighting; rank 0 is the shortest distance."""

    kind: str = "hyperbolic"

    def weight(self, ranks: np.ndarray) -> np.ndarray:
        if self.kind == "hyperbolic":
            return 1.0 / (ranks + 1.0)
        if self.kind == "uniform":
            return np.ones_like(ranks, dtype=np.float64)
        raise FitnessError(f"unknown weight scheme {self.kind!r}")


HYPERBOLIC = WeightScheme("hyperbolic")


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


def sammon_stress(D: np.ndarray, D_tilde: np.ndarray) -> float:
    """(1/sum d_ij) * sum (d_ij - d~_ij)^2 / d_ij over pairs i<j, skipping
    near-zero d_ij; see ``SammonTarget``."""
    return SammonTarget(D).stress(D_tilde)


def _pair_indices(m: int):
    return np.triu_indices(m, 1)


def kendall_tau_row(d_row, dt_row) -> float:
    """Kendall tau-a over all unordered pairs of one distance row.

    Ties count as neither concordant nor discordant; the denominator is the
    full pair count N(N-1)/2.
    """
    d = np.asarray(d_row, dtype=np.float64)
    dt = np.asarray(dt_row, dtype=np.float64)
    if d.shape != dt.shape or d.ndim != 1 or d.size < 2:
        raise FitnessError("rows must be equal-length vectors of size >= 2")
    j, l = _pair_indices(d.size)
    s = np.sign(d[j] - d[l]) * np.sign(dt[j] - dt[l])
    return float(s.sum() / j.size)


def _row_ranks(d: np.ndarray) -> np.ndarray:
    """Ascending ranks, 0 = shortest; ties broken by position (stable)."""
    order = np.argsort(d, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(d.size)
    return ranks


def weighted_kendall_tau_row(
    d_row, dt_row, scheme: WeightScheme = HYPERBOLIC
) -> float:
    """Weighted tau: pair (j,l) carries weight w(r_j) + w(r_l), with ranks
    taken from the original-distance row. Result is the weighted concordant
    minus discordant mass over the total pair weight, in [-1, 1].
    """
    d = np.asarray(d_row, dtype=np.float64)
    dt = np.asarray(dt_row, dtype=np.float64)
    if d.shape != dt.shape or d.ndim != 1 or d.size < 2:
        raise FitnessError("rows must be equal-length vectors of size >= 2")
    w = scheme.weight(_row_ranks(d).astype(np.float64))
    j, l = _pair_indices(d.size)
    pair_w = w[j] + w[l]
    s = np.sign(d[j] - d[l]) * np.sign(dt[j] - dt[l])
    return float(np.sum(pair_w * s) / np.sum(pair_w))


def _strip_diagonal(D: np.ndarray) -> np.ndarray:
    n = D.shape[0]
    return D[~np.eye(n, dtype=bool)].reshape(n, n - 1)


class RankTargetCache:
    """Per-batch precomputation shared by every genome in a generation.

    Caches the original-distance pair signs and pair weights, so scoring a
    genome only needs the latent-side pair signs.
    """

    def __init__(self, D: np.ndarray, scheme: Optional[WeightScheme]):
        R = _strip_diagonal(np.asarray(D, dtype=np.float64))
        m = R.shape[1]
        self.j, self.l = _pair_indices(m)
        self.sign_d = np.sign(R[:, self.j] - R[:, self.l])
        if scheme is None:
            self.pair_w = None
            self.total_w = float(self.j.size)
        else:
            ranks = np.argsort(np.argsort(R, axis=1, kind="stable"), axis=1)
            w = scheme.weight(ranks.astype(np.float64))
            self.pair_w = w[:, self.j] + w[:, self.l]
            self.total_w = self.pair_w.sum(axis=1)

    def mean_tau(self, D_tilde: np.ndarray) -> float:
        Rt = _strip_diagonal(np.asarray(D_tilde, dtype=np.float64))
        s = np.sign(Rt[:, self.j] - Rt[:, self.l])
        if self.pair_w is None:
            taus = (self.sign_d * s).sum(axis=1) / self.total_w
        else:
            taus = (self.pair_w * self.sign_d * s).sum(axis=1) / self.total_w
        return float(taus.mean())


def _latent_slots(T: np.ndarray):
    """Per element of each row of ``T``, in element-major layout so that
    step i of the sweep reads one contiguous block: the strict bounds
    ``[lo, hi)`` of its equal-value run in the row's latent-distance sort,
    shape (m, n, 2), and its 1-based tree position, shape (m, n)."""
    n, m = T.shape
    ord_t = np.argsort(T, axis=1, kind="stable")
    sv = np.take_along_axis(T, ord_t, axis=1)
    idx = np.arange(m)
    differs = sv[:, 1:] != sv[:, :-1]
    first = np.concatenate([np.ones((n, 1), bool), differs], axis=1)
    last = np.concatenate([differs, np.ones((n, 1), bool)], axis=1)
    lo_sorted = np.maximum.accumulate(np.where(first, idx, 0), axis=1)
    hi_sorted = np.where(last, idx + 1, m)
    hi_sorted = np.minimum.accumulate(hi_sorted[:, ::-1], axis=1)[:, ::-1]
    bounds = np.empty((m, n, 2), dtype=np.intp)
    pos = np.empty((m, n), dtype=np.intp)
    ord_e = ord_t.T
    lanes = np.arange(n)
    bounds[ord_e, lanes, 0] = lo_sorted.T
    bounds[ord_e, lanes, 1] = hi_sorted.T
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

    def __init__(self, D: np.ndarray, scheme: Optional[WeightScheme]):
        R = _strip_diagonal(np.asarray(D, dtype=np.float64))
        n, m = R.shape
        self.n, self.m = n, m
        if scheme is None:
            # plain tau: every pair weighs 1, i.e. half-weights of 0.5
            w = np.full((n, m), 0.5)
        else:
            ranks = np.argsort(np.argsort(R, axis=1, kind="stable"), axis=1)
            w = scheme.weight(ranks.astype(np.float64))
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
        step = np.empty((m, n, 1), dtype=np.complex128)
        step.real = 1.0
        step.imag = self.w_sorted.T[:, :, None]
        # what the upper query is taken from: the count and the weight of
        # the elements inserted before this one
        seen = np.empty((m, n), dtype=np.complex128)
        seen.real = np.arange(m)[:, None]
        seen.imag = self.cum_w.T
        num = np.zeros(n)
        for i in range(m):
            # prefix sums below the element's value run (strictly smaller
            # latent distance) and up to its end (smaller or equal), added
            # node by node in path order
            part = nodes.take(self.query_paths.take(bounds[i], axis=1) + base)
            s = part[0].copy()
            for b in range(1, len(part)):
                s += part[b]
            # the upper side becomes the count and weight above the run
            s[:, 1] = seen[i] - s[:, 1]
            cw = s.view(np.float64)
            t = cw[:, 1::2] + step[i].imag * cw[:, 0::2]
            num += t[:, 0] - t[:, 1]
            nodes[self.update_paths.take(pos[i], axis=0) + base] += step[i]
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


def teacher_fitness(L: np.ndarray, X_tilde: np.ndarray) -> float:
    """Mean squared difference between teacher latent and genome latent."""
    L = np.asarray(L, dtype=np.float64)
    X_tilde = np.asarray(X_tilde, dtype=np.float64)
    if L.shape != X_tilde.shape:
        raise FitnessError(f"shape mismatch: {L.shape} vs {X_tilde.shape}")
    return float(np.mean((L - X_tilde) ** 2))


def gp_autoencoder_fitness(X_target: np.ndarray, X_hat: np.ndarray) -> float:
    """Mean squared reconstruction error of the decoder output."""
    X_target = np.asarray(X_target, dtype=np.float64)
    X_hat = np.asarray(X_hat, dtype=np.float64)
    if X_target.shape != X_hat.shape:
        raise FitnessError(
            f"shape mismatch: {X_target.shape} vs {X_hat.shape}"
        )
    return float(np.mean((X_target - X_hat) ** 2))


class LinearFit(NamedTuple):
    """Per-column affine fit ``target ~ a + b * output`` and its centered
    residual pair: ``gp_autoencoder_fitness(target_c, fit_c)`` is the mean
    squared error left after the fit."""

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
    weight_scheme: Optional[WeightScheme] = HYPERBOLIC
    n_neighbors: int = 10
    _D_full: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise FitnessError(f"unknown objective {self.objective!r}")
        if self.objective in ("dist", "rank"):
            if self.metric not in ("euclidean", "geodesic"):
                raise FitnessError("dist/rank require a metric")
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
    """Target-side state for scoring genome outputs on a set of DR-train
    rows: a mini-batch, or the whole split when ``indices`` is None."""

    def __init__(self, spec: FitnessSpec, indices=None):
        whole = indices is None
        rows = slice(None) if whole else np.asarray(indices)
        self.X = spec.inputs[rows]
        self.target = spec.target[rows]
        self.D = None
        self.sammon = None
        self.rank = None
        self.teacher = None
        if spec.objective in ("dist", "rank"):
            self.D = spec.full_distance_matrix()
            if not whole:
                self.D = self.D[np.ix_(rows, rows)]
        if spec.objective == "dist":
            self.sammon = SammonTarget(self.D)
        if spec.objective == "rank":
            m = self.D.shape[0]
            cache_size = m * (m - 1) * (m - 2) // 2
            # the pair cache holds n_rows x n_pairs arrays, so it serves
            # only batches within the memory cap; the whole split and
            # larger batches use the Fenwick sweep
            if not whole and cache_size <= RANK_CACHE_MAX_ELEMENTS:
                self.rank = RankTargetCache(self.D, spec.weight_scheme)
            else:
                self.rank = RankSweep(self.D, spec.weight_scheme)
        if spec.objective == "teacher":
            self.teacher = spec.teacher_latent[rows]


def genome_output(genome, spec: FitnessSpec, X: np.ndarray) -> np.ndarray:
    """What the objective scores: the decoder output of an AMT genome for
    ``gp_autoencoder``, the latent of a MultiTree for the others."""
    if spec.objective == "gp_autoencoder":
        if not isinstance(genome, AutoencoderMultiTree):
            raise FitnessError("gp_autoencoder requires an AMT genome")
        return autoencode(genome, X)[1]
    if not isinstance(genome, MultiTree):
        raise FitnessError(f"{spec.objective} requires a MultiTree")
    return encode(genome, X)


def score_output(spec: FitnessSpec, ctx: BatchContext, out) -> float:
    """Objective value of a genome output on the rows of ``ctx``;
    non-finite outcomes collapse to the worst-possible sentinel instead of
    aborting the run."""
    try:
        if spec.objective == "dist":
            value = ctx.sammon.stress(pairwise_euclidean(out))
        elif spec.objective == "rank":
            value = -ctx.rank.mean_tau(pairwise_euclidean(out))
        elif spec.objective == "teacher":
            value = teacher_fitness(ctx.teacher, out)
        else:
            fit = linear_scaling(ctx.target, out)
            value = gp_autoencoder_fitness(fit.target_c, fit.fit_c)
    except FloatingPointError:
        return WORST_FITNESS
    if not np.isfinite(value):
        return WORST_FITNESS
    return value


def score(genome, spec: FitnessSpec, ctx: BatchContext) -> float:
    """Fitness of a genome on the rows of ``ctx``."""
    return score_output(spec, ctx, genome_output(genome, spec, ctx.X))
