import tracemalloc

import numpy as np
import pytest

from gpdr import fitness
from gpdr.distances import pairwise_euclidean
from gpdr.evolution import BATCH_SIZE
from gpdr.fitness import (
    WORST_FITNESS,
    BatchContext,
    FitnessError,
    FitnessSpec,
    RankSweep,
    RankTargetCache,
    SammonTarget,
    _latent_slots,
    _rank_weights,
    linear_scaling,
)
from gpdr.gp_core import (
    AutoencoderMultiTree,
    MultiTree,
    Tree,
    constant,
    op,
    ramped_autoencoders,
    ramped_half_and_half,
    variable,
)
from gpdr.numerics import NumericsError, mse
from support import output


def weighted_kendall_tau_row(d_row, dt_row) -> float:
    """Weighted tau of one distance row, vectorized over its pairs: pair
    (j,l) carries weight w_j + w_l, the hyperbolic weights of their ranks
    in the original-distance row. The result is the weighted concordant
    minus discordant mass over the total pair weight, in [-1, 1]. The
    reference the rank kernels are checked against."""
    d = np.asarray(d_row, dtype=np.float64)
    dt = np.asarray(dt_row, dtype=np.float64)
    w = _rank_weights(d[None])[0]
    j, l = np.triu_indices(d.size, 1)
    pair_w = w[j] + w[l]
    s = np.sign(d[j] - d[l]) * np.sign(dt[j] - dt[l])
    return float(np.sum(pair_w * s) / np.sum(pair_w))


def _rows_as_matrix(rows):
    """The n x n matrix whose row i, with its diagonal entry dropped, is
    rows[i]: how the rank kernels read an arbitrary distance row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    D = np.zeros((n, n))
    D[~np.eye(n, dtype=bool)] = rows.ravel()
    return D


def _kernel_taus(d_rows, dt_rows):
    """Per-row tau from the sweep and the mean tau from the pair cache."""
    D, Dt = _rows_as_matrix(d_rows), _rows_as_matrix(dt_rows)
    return RankSweep(D).tau_per_row(Dt), RankTargetCache(D).mean_tau(Dt)


def _weighted_tau_oracle(d, dt):
    """Exhaustive weighted tau with hyperbolic rank weights."""
    n = len(d)
    ranks = np.empty(n)
    ranks[np.argsort(d, kind="stable")] = np.arange(n)
    w = 1.0 / (ranks + 1.0)
    num = den = 0.0
    for j in range(n):
        for l in range(j + 1, n):
            pw = w[j] + w[l]
            num += pw * np.sign(d[j] - d[l]) * np.sign(dt[j] - dt[l])
            den += pw
    return num / den


def test_kendall_tau_known_values():
    for d, dt, want in (
        # weights 1, 1/2, 1/3, 1/4 give a total pair weight of 6.25;
        # swapping the first two latent distances turns pair (0, 1), of
        # weight 1.5, discordant: (6.25 - 2 * 1.5) / 6.25
        ([1, 2, 3, 4], [2, 1, 3, 4], 0.52),
        # a target tie contributes zero concordance but keeps its weight
        # in the denominator: weights 1, 1/2, 1/3 give (4/3 + 5/6) / (11/3)
        ([1, 1, 2], [1, 2, 3], 13 / 22),
    ):
        # every row of the (m + 1) x (m + 1) matrix is the same row
        n = len(d) + 1
        rows, cache = _kernel_taus([d] * n, [dt] * n)
        assert np.allclose(rows, want, atol=1e-12)
        assert np.isclose(cache, want, atol=1e-12)
        assert np.isclose(weighted_kendall_tau_row(d, dt), want, atol=1e-12)


def test_weighted_tau_limits():
    d = [0.5, 1.5, 2.5, 3.5]
    for dt, want in ((d, 1.0), (d[::-1], -1.0)):
        rows, cache = _kernel_taus([d] * 5, [dt] * 5)
        assert np.allclose(rows, want, atol=1e-12)
        assert np.isclose(cache, want, atol=1e-12)
        assert np.isclose(weighted_kendall_tau_row(d, dt), want, atol=1e-12)


def test_tau_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(3, 30))
        d = rng.normal(size=(m + 1, m))
        dt = rng.normal(size=(m + 1, m))
        want = [_weighted_tau_oracle(a, b) for a, b in zip(d, dt)]
        rows, cache = _kernel_taus(d, dt)
        assert np.allclose(rows, want, atol=1e-12)
        assert np.isclose(cache, np.mean(want), atol=1e-12)
        assert np.allclose([weighted_kendall_tau_row(a, b)
                            for a, b in zip(d, dt)], want, atol=1e-12)


def test_sammon_closed_forms():
    rng = np.random.default_rng(1)
    D = pairwise_euclidean(rng.normal(size=(8, 3)))
    assert SammonTarget(D).stress(D) == 0.0
    # single pair with d=2, d_tilde=1: ((2-1)^2/2)/2 = 0.25
    two = np.array([[0.0, 2.0], [2.0, 0.0]])
    one = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert SammonTarget(two).stress(one) == 0.25


def test_sammon_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        D = pairwise_euclidean(rng.normal(size=(6, 2)))
        Dt = pairwise_euclidean(rng.normal(size=(6, 2)))
        num = den = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                num += (D[i, j] - Dt[i, j]) ** 2 / D[i, j]
                den += D[i, j]
        assert np.isclose(SammonTarget(D).stress(Dt), num / den, atol=1e-12)


def test_sammon_skips_duplicate_rows():
    X = np.array([[0.0], [0.0], [1.0]])
    D = pairwise_euclidean(X)
    assert np.isfinite(SammonTarget(D).stress(D))
    with pytest.raises(FitnessError):
        SammonTarget(np.zeros((3, 3))).stress(np.zeros((3, 3)))


def _sammon_stress_oracle(D, D_tilde):
    """Sammon stress as it was computed before its target side was built
    once per context, kept as the byte-level reference."""
    D = np.asarray(D, dtype=np.float64)
    D_tilde = np.asarray(D_tilde, dtype=np.float64)
    if D.shape != D_tilde.shape:
        raise FitnessError(f"shape mismatch: {D.shape} vs {D_tilde.shape}")
    iu = np.triu_indices(D.shape[0], 1)
    d = D[iu]
    dt = D_tilde[iu]
    keep = d > 1e-12
    d = d[keep]
    dt = dt[keep]
    if d.size == 0:
        raise FitnessError("degenerate target: no positive distances")
    return float(np.sum((d - dt) ** 2 / d) / np.sum(d))


def _duplicated_rows(seed, n=40, p=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[5] = X[3]  # duplicate rows: zero target distances
    X[17] = X[3]
    X[30] = X[8]
    return X


@pytest.mark.parametrize("batch", [np.array([3, 5, 8, 17, 30, 1, 2, 29]),
                                   np.arange(0, 40, 3), None])
def test_sammon_through_context_matches_oracle_bytes(batch):
    X = _duplicated_rows(17)
    spec = FitnessSpec(objective="dist", inputs=X, target=X @ np.eye(4)[:, :3],
                       metric="euclidean")
    ctx = BatchContext(spec, batch)
    D = spec.full_distance_matrix()
    if batch is not None:
        D = D[np.ix_(batch, batch)]
    rng = np.random.default_rng(18)
    for _ in range(20):
        out = rng.normal(size=(ctx.X.shape[0], 2))
        got = ctx.value(out)
        want = _sammon_stress_oracle(D, pairwise_euclidean(out))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert SammonTarget(D).stress(pairwise_euclidean(out)) == want
    # a constant latent scores too
    out = np.zeros((ctx.X.shape[0], 2))
    assert ctx.value(out) == _sammon_stress_oracle(D, pairwise_euclidean(out))


def test_sammon_keeps_its_errors():
    X = np.zeros((4, 2))
    spec = FitnessSpec(objective="dist", inputs=X, target=X,
                       metric="euclidean")
    ctx = BatchContext(spec, np.arange(4))
    with pytest.raises(FitnessError, match="degenerate target"):
        ctx.value(np.ones((4, 1)))
    with pytest.raises(FitnessError, match="degenerate target"):
        SammonTarget(np.zeros((4, 4))).stress(np.zeros((4, 4)))
    D = pairwise_euclidean(_duplicated_rows(19)[:6])
    with pytest.raises(FitnessError, match="shape mismatch"):
        SammonTarget(D).stress(D[:5, :5])
    # a mismatch is reported before a degenerate target, as it always was
    with pytest.raises(FitnessError, match="shape mismatch"):
        SammonTarget(np.zeros((4, 4))).stress(np.zeros((3, 3)))


def _mean_row_tau(D, Dt, tau_row):
    """Mean over rows of a per-row tau oracle, diagonal excluded."""
    n = D.shape[0]
    mask = ~np.eye(n, dtype=bool)
    rows_d = D[mask].reshape(n, n - 1)
    rows_t = Dt[mask].reshape(n, n - 1)
    return np.mean([tau_row(rows_d[i], rows_t[i]) for i in range(n)])


def test_rank_fitness_equals_mean_row_tau():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    L = rng.normal(size=(12, 2))
    D, Dt = pairwise_euclidean(X), pairwise_euclidean(L)
    expected = _mean_row_tau(D, Dt, weighted_kendall_tau_row)
    for kernel in (RankTargetCache, RankSweep):
        assert np.isclose(kernel(D).mean_tau(Dt), expected, atol=1e-12)


def test_rank_fitness_many_matches_single_path():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        D = pairwise_euclidean(rng.normal(size=(n, 3)))
        lats = [rng.normal(size=(n, 2)) for _ in range(3)]
        cache, sweep = RankTargetCache(D), RankSweep(D)
        for L in lats:
            Dt = pairwise_euclidean(L)
            assert np.isclose(sweep.mean_tau(Dt), cache.mean_tau(Dt),
                              atol=1e-12)


def test_rank_fitness_many_handles_ties_on_both_sides():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 16))
        # integer coordinates force ties in both target and latent distances
        X = rng.integers(0, 3, size=(n, 2)).astype(float)
        D = pairwise_euclidean(X)
        lats = [rng.integers(0, 3, size=(n, 2)).astype(float)
                for _ in range(3)]
        cache, sweep = RankTargetCache(D), RankSweep(D)
        for L in lats:
            Dt = pairwise_euclidean(L)
            assert np.isclose(sweep.mean_tau(Dt), cache.mean_tau(Dt),
                              atol=1e-12)


def test_rank_cache_matches_direct_computation():
    rng = np.random.default_rng(5)
    D = pairwise_euclidean(rng.normal(size=(9, 3)))
    Dt = pairwise_euclidean(rng.normal(size=(9, 2)))
    cache = RankTargetCache(D)
    assert np.isclose(cache.mean_tau(Dt),
                      _mean_row_tau(D, Dt, weighted_kendall_tau_row),
                      atol=1e-12)


def test_pointwise_objectives():
    """The teacher and autoencoder objectives are the mean squared error."""
    L = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mse(L, L) == 0.0
    assert mse(L, L + 1.0) == 1.0
    assert mse(L, L + 2.0) == 4.0
    with pytest.raises(NumericsError):
        mse(L, L[:1])
    spec = FitnessSpec(objective="teacher", inputs=L, target=L,
                       teacher_latent=L)
    assert BatchContext(spec).value(L + 1.0) == 1.0


def test_fitness_spec_validation():
    X = np.zeros((4, 2))
    with pytest.raises(FitnessError):
        FitnessSpec(objective="nope", inputs=X, target=X)
    with pytest.raises(FitnessError):
        FitnessSpec(objective="dist", inputs=X, target=X)  # missing metric
    with pytest.raises(FitnessError, match="n_neighbors"):
        FitnessSpec(objective="rank", inputs=X, target=X, metric="geodesic")
    with pytest.raises(FitnessError):
        FitnessSpec(objective="teacher", inputs=X, target=X, metric="euclidean")
    with pytest.raises(FitnessError):
        FitnessSpec(objective="teacher", inputs=X, target=X)


def _identity_genome(p, k):
    return MultiTree(tuple(Tree(variable(j), p) for j in range(k)))


def _score(genome, ctx):
    """A genome's fitness on the rows of ``ctx``, from its output alone."""
    return ctx.value(output(genome, ctx.X))


def test_score_dist_objective_perfect_genome():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 2))
    spec = FitnessSpec(objective="dist", inputs=X, target=X, metric="euclidean")
    ctx = BatchContext(spec, np.arange(20))
    # identity mapping preserves every distance exactly
    assert _score(_identity_genome(2, 2), ctx) == 0.0


def test_score_rank_objective_and_batch_slicing():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    spec = FitnessSpec(objective="rank", inputs=X, target=X, metric="euclidean")
    batch = np.arange(0, 30, 2)
    ctx = BatchContext(spec, batch)
    got = _score(_identity_genome(3, 3), ctx)
    D = pairwise_euclidean(X[batch])
    assert np.isclose(got, -_mean_row_tau(D, D, weighted_kendall_tau_row),
                      atol=1e-12)
    assert np.isclose(got, -1.0, atol=1e-12)


def test_rank_kernel_is_chosen_by_batch_or_whole_split():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(BATCH_SIZE + 20, 3))
    spec = FitnessSpec(objective="rank", inputs=X, target=X, metric="euclidean")
    g = _identity_genome(3, 2)
    # a batch takes the pair cache, also a batch of every row; one of
    # BATCH_SIZE rows holds m (m - 1) (m - 2) / 2 signed weights, m = 100
    every_row = BatchContext(spec, np.arange(X.shape[0]))
    assert isinstance(every_row.target, RankTargetCache)
    full_batch = BatchContext(spec, np.arange(BATCH_SIZE))
    assert isinstance(full_batch.target, RankTargetCache)
    assert full_batch.target.signed_w.size == 100 * 99 * 98 // 2
    # the whole split takes the sweep, whatever its size
    whole = BatchContext(spec)
    assert isinstance(whole.target, RankSweep)
    assert isinstance(BatchContext(FitnessSpec(
        objective="rank", inputs=X[:5], target=X[:5], metric="euclidean")
    ).target, RankSweep)
    # the two kernels agree up to rounding
    assert np.isclose(_score(g, whole), _score(g, every_row),
                      atol=1e-12)


def test_score_teacher_and_autoencoder_objectives():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 2))
    spec = FitnessSpec(objective="teacher", inputs=X, target=X,
                       teacher_latent=X[:, :1])
    ctx = BatchContext(spec, np.arange(15))
    assert _score(_identity_genome(2, 1), ctx) == 0.0

    amt = AutoencoderMultiTree(
        _identity_genome(2, 2), _identity_genome(2, 2)
    )
    spec = FitnessSpec(objective="gp_autoencoder", inputs=X, target=X)
    ctx = BatchContext(spec, np.arange(15))
    assert _score(amt, ctx) == 0.0
    # the objective fixes the genome form
    assert ctx.score([amt, amt]) == [0.0, 0.0]
    with pytest.raises(FitnessError, match="AutoencoderMultiTree"):
        ctx.score([amt, _identity_genome(2, 2)])
    teacher = FitnessSpec(objective="teacher", inputs=X, target=X,
                          teacher_latent=X[:, :1])
    with pytest.raises(FitnessError, match="MultiTree"):
        BatchContext(teacher, np.arange(15)).score([amt])


def _decoder_of(roots, k):
    return MultiTree(tuple(Tree(r, k) for r in roots))


def test_score_autoencoder_scales_decoder_outputs():
    rng = np.random.default_rng(10)
    X = rng.normal(loc=1.5, scale=2.0, size=(30, 3))
    spec = FitnessSpec(objective="gp_autoencoder", inputs=X, target=X)
    batch = np.arange(1, 30, 3)
    ctx = BatchContext(spec, batch)
    # a constant decoder predicts each column's batch mean, so it scores
    # the mean per-column variance of the batch target, not its raw MSE
    flat = AutoencoderMultiTree(
        _identity_genome(3, 3), _decoder_of([constant(0.7)] * 3, 3)
    )
    assert np.isclose(_score(flat, ctx), X[batch].var(axis=0).mean(),
                      rtol=0.0, atol=1e-12)
    # an affine image of the target is scaled back onto it exactly
    affine = AutoencoderMultiTree(
        _identity_genome(3, 3),
        _decoder_of([op("+", op("*", constant(3.0), variable(j)),
                        constant(2.0)) for j in range(3)], 3),
    )
    assert np.isclose(_score(affine, ctx), 0.0, rtol=0.0, atol=1e-12)


def test_linear_scaling_is_the_least_squares_fit():
    rng = np.random.default_rng(11)
    Y = rng.normal(size=(40, 2))
    F = np.column_stack([-0.5 * Y[:, 0] + rng.normal(size=40),
                         np.full(40, 4.0)])
    fit = linear_scaling(Y, F)
    for j in range(2):
        A = np.column_stack([np.ones(40), F[:, j]])
        coef, *_ = np.linalg.lstsq(A, Y[:, j], rcond=None)
        best = np.mean((Y[:, j] - A @ coef) ** 2)
        assert np.isclose(np.mean((fit.target_c[:, j] - fit.fit_c[:, j]) ** 2),
                          best, rtol=0.0, atol=1e-12)
        assert np.allclose(fit.a[j] + fit.b[j] * F[:, j], A @ coef,
                           rtol=0.0, atol=1e-12)
    assert fit.b[1] == 0.0  # a constant column predicts the target mean
    with pytest.raises(FitnessError):
        linear_scaling(Y, F[:, :1])


def test_score_geodesic_metric_uses_geodesic_target():
    n = 40
    ang = 2 * np.pi * np.arange(n) / n
    X = np.column_stack([np.cos(ang), np.sin(ang)])
    spec_g = FitnessSpec(objective="dist", inputs=X, target=X,
                         metric="geodesic", n_neighbors=2)
    spec_e = FitnessSpec(objective="dist", inputs=X, target=X,
                         metric="euclidean")
    g = _identity_genome(2, 2)
    ctx_g = BatchContext(spec_g, np.arange(n))
    ctx_e = BatchContext(spec_e, np.arange(n))
    # identity genome matches Euclidean distances exactly but not geodesics
    assert _score(g, ctx_e) == 0.0
    assert _score(g, ctx_g) > 0.01


def test_score_collapses_nonfinite_to_sentinel():
    X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    # constant trees make every latent distance 0 and sammon finite, but a
    # degenerate 1-point latent on teacher stays finite too; force inf via
    # a fitness whose target has zero distances instead
    spec = FitnessSpec(objective="dist", inputs=X, target=X, metric="euclidean")
    ctx = BatchContext(spec, np.arange(3))
    const_genome = MultiTree((Tree(constant(0.0), 2),))
    assert np.isfinite(_score(const_genome, ctx))
    # the sentinel is used when the objective itself is non-finite
    bad = FitnessSpec(objective="teacher", inputs=X, target=X,
                      teacher_latent=np.full((3, 1), np.inf))
    ctx = BatchContext(bad, np.arange(3))
    genome = MultiTree((Tree(variable(0), 2),))
    assert _score(genome, ctx) == WORST_FITNESS


@pytest.mark.parametrize("whole", [False, True], ids=["batch", "whole"])
@pytest.mark.parametrize("objective, metric", [
    ("dist", "euclidean"), ("dist", "geodesic"), ("rank", "euclidean"),
    ("rank", "geodesic"), ("teacher", None), ("gp_autoencoder", None)])
def test_score_equals_each_output_scored_alone(objective, metric, whole):
    """Scoring a distinct output once gives every genome the bits its own
    output scores, repeats included."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 4))
    spec = FitnessSpec(objective, X, X[:, :3], metric=metric,
                       teacher_latent=X[:, :2] if objective == "teacher"
                       else None, n_neighbors=5)
    if objective == "gp_autoencoder":
        base = ramped_autoencoders(12, 4, 2, 3, rng)
    else:
        base = ramped_half_and_half(12, 4, 2, rng)
    pop = base + base[::2] + [base[0]]
    pop = [pop[i] for i in rng.permutation(len(pop))]
    ctx = BatchContext(spec, None if whole else
                       np.sort(rng.choice(40, size=15, replace=False)))
    want = [ctx.value(output(g, ctx.X)) for g in pop]
    assert np.array(ctx.score(pop)).tobytes() == np.array(want).tobytes()


def _oracle_strip_diagonal(D):
    n = D.shape[0]
    return D[~np.eye(n, dtype=bool)].reshape(n, n - 1)


class _OracleSweep:
    """The lane-by-lane Fenwick sweep as it stood before the fused kernel,
    kept verbatim as the byte-level reference for ``RankSweep``: the
    per-element operation order of this code is what the records hold."""

    def __init__(self, D):
        R = _oracle_strip_diagonal(np.asarray(D, dtype=np.float64))
        n, m = R.shape
        self.n, self.m = n, m
        ranks = np.argsort(np.argsort(R, axis=1, kind="stable"), axis=1)
        w = 1.0 / (ranks.astype(np.float64) + 1.0)
        self.total_w = (m - 1) * w.sum(axis=1)
        self.order = np.argsort(R, axis=1, kind="stable")
        self.w_sorted = np.take_along_axis(w, self.order, axis=1)
        cw = np.cumsum(self.w_sorted, axis=1)
        self.cum_w = np.concatenate([np.zeros((n, 1)), cw[:, :-1]], axis=1)
        R_sorted = np.take_along_axis(R, self.order, axis=1)
        same = R_sorted[:, 1:] == R_sorted[:, :-1]
        self.tie_groups = []
        for r in np.nonzero(same.any(axis=1))[0]:
            i = 0
            while i < m - 1:
                if same[r, i]:
                    j = i
                    while j < m - 1 and same[r, j]:
                        j += 1
                    self.tie_groups.append((int(r), i, j + 1))
                    i = j + 1
                else:
                    i += 1
        size = 1
        while size < m + 1:
            size *= 2
        self.tree_size = size
        self.tree_bits = size.bit_length()

    def tau_per_row(self, D_tilde):
        n, m = self.n, self.m
        T = np.take_along_axis(_oracle_strip_diagonal(D_tilde), self.order,
                               axis=1)
        ord_t = np.argsort(T, axis=1, kind="stable")
        sv = np.take_along_axis(T, ord_t, axis=1)
        idx = np.arange(m)
        differs = sv[:, 1:] != sv[:, :-1]
        first = np.concatenate([np.ones((n, 1), bool), differs], axis=1)
        last = np.concatenate([differs, np.ones((n, 1), bool)], axis=1)
        lo_sorted = np.maximum.accumulate(np.where(first, idx, 0), axis=1)
        hi_sorted = np.where(last, idx + 1, m)
        hi_sorted = np.minimum.accumulate(hi_sorted[:, ::-1], axis=1)[:, ::-1]
        broadcast_idx = np.broadcast_to(idx, (n, m))
        slot = np.empty((n, m), dtype=np.int64)
        lo = np.empty((n, m), dtype=np.int64)
        hi = np.empty((n, m), dtype=np.int64)
        np.put_along_axis(slot, ord_t, broadcast_idx, axis=1)
        np.put_along_axis(lo, ord_t, lo_sorted, axis=1)
        np.put_along_axis(hi, ord_t, hi_sorted, axis=1)

        lanes = np.arange(n)
        tree_c = np.zeros((n, self.tree_size + 1))
        tree_w = np.zeros((n, self.tree_size + 1))
        num = np.zeros(n)
        for i in range(m):
            ql = lo[:, i].copy()
            qh = hi[:, i].copy()
            c_lo = np.zeros(n)
            w_lo = np.zeros(n)
            c_hi = np.zeros(n)
            w_hi = np.zeros(n)
            for _ in range(self.tree_bits):
                c_lo += tree_c[lanes, ql]
                w_lo += tree_w[lanes, ql]
                c_hi += tree_c[lanes, qh]
                w_hi += tree_w[lanes, qh]
                ql &= ql - 1
                qh &= qh - 1
            wi = self.w_sorted[:, i]
            c_gt = i - c_hi
            w_gt = self.cum_w[:, i] - w_hi
            num += (w_lo + wi * c_lo) - (w_gt + wi * c_gt)
            pos = slot[:, i] + 1
            for _ in range(self.tree_bits):
                tree_c[lanes, pos] += 1.0
                tree_w[lanes, pos] += wi
                pos = np.minimum(pos + (pos & -pos), self.tree_size)
        for r, a, b in self.tie_groups:
            t = T[r, a:b]
            wv = self.w_sorted[r, a:b]
            ju, lu = np.triu_indices(b - a, 1)
            s = np.sign(t[lu] - t[ju])
            num[r] -= np.sum((wv[ju] + wv[lu]) * s)
        return num / self.total_w


def _rank_inputs(rng, data, n):
    """A target sample and three latents of ``n`` rows."""
    if data == "continuous":
        return rng.normal(size=(n, 4)), [rng.normal(size=(n, 2))
                                         for _ in range(3)]
    if data == "grid":
        # ties on both sides, with target tie groups of more than two
        return (rng.integers(0, 3, size=(n, 2)).astype(float),
                [rng.integers(0, 3, size=(n, 2)).astype(float)
                 for _ in range(3)])
    # duplicate rows: zero target distances, mapped to equal latents
    X = rng.normal(size=(n, 4))
    copies = rng.integers(0, n, size=n // 3)
    X[rng.permutation(n)[:copies.size]] = X[copies]
    return X, [np.tanh(X[:, :2] * rng.normal(size=2)) for _ in range(3)]


# the ids name the weighting, hyperbolic, the only one the sweep has
@pytest.mark.parametrize("data", ["continuous", "grid", "duplicates"],
                         ids=lambda data: f"hyperbolic-{data}")
def test_rank_sweep_matches_oracle_bytes(data):
    rng = np.random.default_rng(11)
    large_groups = 0
    # m + 1 = n rows per lane, on both sides of the power-of-two edges;
    # at n = 200 the prefix sums add eight nodes, where numpy's pairwise
    # summation would start to reorder them
    for n in (7, 8, 9, 15, 16, 17, 32, 33, 200):
        X, latents = _rank_inputs(rng, data, n)
        D = pairwise_euclidean(X)
        sweep, oracle = RankSweep(D), _OracleSweep(D)
        groups = zip(sweep.tie_rows, sweep.tie_starts, sweep.tie_ends)
        assert list(groups) == oracle.tie_groups
        large_groups += sum(b - a > 2 for _, a, b in oracle.tie_groups)
        for L in latents:
            Dt = pairwise_euclidean(L)
            assert (sweep.tau_per_row(Dt).tobytes()
                    == oracle.tau_per_row(Dt).tobytes())
    if data == "grid":
        assert large_groups > 0


class _OracleRankCache:
    """The pair cache as it stood before it was built and scored in chunks
    of pairs, kept verbatim as the byte-level reference for
    ``RankTargetCache``: ``R[:, j]`` gives F-ordered (rows, pairs) arrays,
    so each row's pairs are summed one after another."""

    def __init__(self, D):
        R = _oracle_strip_diagonal(np.asarray(D, dtype=np.float64))
        m = R.shape[1]
        self.j, self.l = np.triu_indices(m, 1)
        self.sign_d = np.sign(R[:, self.j] - R[:, self.l])
        w = _rank_weights(R)
        self.pair_w = w[:, self.j] + w[:, self.l]
        self.total_w = self.pair_w.sum(axis=1)

    def mean_tau(self, D_tilde):
        Rt = _oracle_strip_diagonal(np.asarray(D_tilde, dtype=np.float64))
        s = np.sign(Rt[:, self.j] - Rt[:, self.l])
        taus = (self.pair_w * self.sign_d * s).sum(axis=1) / self.total_w
        return float(taus.mean())


@pytest.mark.parametrize("data", ["continuous", "grid", "duplicates"])
@pytest.mark.parametrize("chunk", [fitness.RANK_CHUNK_ELEMENTS, 1],
                         ids=["chunk-default", "chunk-one-member"])
def test_rank_cache_matches_oracle_bytes(data, chunk, monkeypatch):
    # a chunk of one element puts each first member j in a run of its own,
    # as a j with more pairs than the default chunk holds would be
    monkeypatch.setattr(fitness, "RANK_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(12)
    # one run of pairs (3, 7, 26 rows), and several: a batch of BATCH_SIZE
    # rows and one above it
    for n in (3, 7, 26, 100, 120):
        X, latents = _rank_inputs(rng, data, n)
        D = pairwise_euclidean(X)
        cache, oracle = RankTargetCache(D), _OracleRankCache(D)
        assert cache.total_w.tobytes() == oracle.total_w.tobytes()
        for L in latents:
            Dt = pairwise_euclidean(L)
            got, want = cache.mean_tau(Dt), oracle.mean_tau(Dt)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _oracle_latent_slots(T):
    """``_latent_slots`` as it stood before its run bounds shared one
    buffer, kept verbatim as the integer reference."""
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


def test_latent_slots_match_oracle():
    rng = np.random.default_rng(13)
    for n in range(3, 201):
        # rounded latent distances make long runs of equal values
        L = rng.normal(size=(n, 2)) * rng.uniform(0.1, 3.0)
        T = _oracle_strip_diagonal(np.round(pairwise_euclidean(L)))
        # and some rows are one run
        T[rng.random(n) < 0.2] = 1.0
        bounds, pos = _latent_slots(T)
        want_bounds, want_pos = _oracle_latent_slots(T)
        assert np.array_equal(bounds, want_bounds)
        assert np.array_equal(pos, want_pos)


def _traced(fn):
    """Bytes ``fn()`` leaves allocated and its peak, both above what was
    allocated when it was called, as numpy reports them to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


def test_rank_cache_memory():
    # A: one (pairs, rows) float64 array for a batch of 100 rows
    A = 99 * 98 // 2 * 100 * 8
    rng = np.random.default_rng(14)
    D = pairwise_euclidean(rng.normal(size=(100, 4)))
    Dt = pairwise_euclidean(rng.normal(size=(100, 2)))
    cache, held, peak = _traced(lambda: RankTargetCache(D))
    assert held <= 1.1 * A
    assert peak < 2 * A
    _, _, peak = _traced(lambda: cache.mean_tau(Dt))
    assert peak < 0.75 * A


def test_rank_sweep_memory():
    # n = 315, the DR-train rows of the rank bench workload
    rng = np.random.default_rng(15)
    D = pairwise_euclidean(rng.normal(size=(315, 4)))
    Dt = pairwise_euclidean(rng.normal(size=(315, 2)))
    sweep = RankSweep(D)
    _, _, peak = _traced(lambda: sweep.tau_per_row(Dt))
    assert peak < 6 * 2**20
