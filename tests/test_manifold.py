import numpy as np
import pytest

from conftest import rand_invertible, rand_orthogonal, rand_psd_rank, rand_spd
from spdreg import (
    DimensionMismatch,
    NonPositiveDiagonal,
    NotPSD,
    RankMismatch,
    SingularMatrix,
    SymMat,
    dist_geometric,
    dist_wasserstein,
    eigh,
    factorize,
    no_affine_invariance_witness,
    sym_func,
)
from spdreg import manifold
from spdreg.manifold import WITNESS_EPSILONS, Embedding, embed, fit_embedding


def upper(a):
    """Reference row-major upper triangle with sqrt(2) off-diagonal weights."""
    p = a.shape[0]
    return np.array(
        [a[i, j] * (1.0 if i == j else np.sqrt(2.0)) for i in range(p) for j in range(i, p)]
    )


def eigen_factor(m, r):
    """Reference single-matrix factor: top-r eigenpairs of ``eigh``."""
    ep = eigh(m)
    return ep.vectors[:, :r] * np.sqrt(ep.values[:r])


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; element 0 of the result counts calls."""
    count, fn = [0], getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


def procrustes_log(y, f):
    """Reference single-sample Wasserstein log map from factor y to factor f."""
    u, _, vh = np.linalg.svd(y.T @ f)
    return f @ (vh.T @ u.T) - y


def geometric_rows(base, mats):
    return embed(Embedding("geometric", reference=base), mats)


def wasserstein_rows(base, mats, r):
    return embed(Embedding("wasserstein", reference=base, rank=r), mats)


def plain_rows(kind, mats):
    return embed(Embedding(kind), mats)


def gram(y):
    y = np.asarray(y, dtype=float)
    return SymMat(y @ y.T)


class TestDistGeometric:
    def test_zero_at_equal_arguments(self):
        rng = np.random.default_rng(0)
        s = rand_spd(rng, 3)
        assert dist_geometric(s, s) <= 1e-7

    def test_scaled_identity(self):
        # eigenvalues of s^-1 t are (e^2, e^2), so d = sqrt(4 + 4).
        s = SymMat(np.eye(2))
        t = SymMat(np.diag([np.e**2, np.e**2]))
        assert dist_geometric(s, t) == pytest.approx(2.8284271247461903, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        s, t = rand_spd(rng, 4), rand_spd(rng, 4)
        d = dist_geometric(s, t)
        for _ in range(10):
            w = rand_invertible(rng, 4)
            dw = dist_geometric(SymMat(w.T @ s.data @ w), SymMat(w.T @ t.data @ w))
            assert abs(dw - d) <= 1e-8 * (1.0 + d)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        s, t = rand_spd(rng, 4), rand_spd(rng, 4)
        assert abs(dist_geometric(s, t) - dist_geometric(t, s)) <= 1e-10

    def test_rank_deficient_raises(self):
        full = SymMat(np.eye(2))
        flat = SymMat(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix):
            dist_geometric(flat, full)
        with pytest.raises(SingularMatrix):
            dist_geometric(full, flat)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b, c = (rand_spd(rng, 3) for _ in range(3))
            assert dist_geometric(a, c) <= dist_geometric(a, b) + dist_geometric(b, c) + 1e-8


class TestDistWasserstein:
    def test_zero_at_equal_arguments(self):
        rng = np.random.default_rng(1)
        s = rand_spd(rng, 4)
        assert dist_wasserstein(s, s) <= 1e-7

    def test_commuting_scalars(self):
        # commuting case: d^2 = sum (sqrt(a) - sqrt(b))^2
        assert dist_wasserstein(SymMat([[4.0]]), SymMat([[1.0]])) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_rank_deficient_pair(self):
        a = SymMat(np.diag([4.0, 0.0]))
        b = SymMat(np.diag([1.0, 0.0]))
        assert dist_wasserstein(a, b) == pytest.approx(1.0, abs=1e-7)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        s, t = rand_spd(rng, 4), rand_psd_rank(rng, 4, 2)
        assert abs(dist_wasserstein(s, t) - dist_wasserstein(t, s)) <= 1e-8

    def test_matches_literal_trace_formula(self):
        # oracle: tr(s) + tr(t) - 2 tr((s^1/2 t s^1/2)^1/2) assembled directly
        rng = np.random.default_rng(22)
        for _ in range(10):
            s, t = rand_spd(rng, 4), rand_spd(rng, 4)
            s12 = sym_func(s, "sqrt").data
            w = np.linalg.eigvalsh(s12 @ t.data @ s12)
            d2 = np.trace(s.data) + np.trace(t.data) - 2 * np.sum(
                np.sqrt(np.clip(w, 0.0, None))
            )
            assert dist_wasserstein(s, t) == pytest.approx(np.sqrt(d2), abs=1e-8)

    def test_orthogonal_invariance_including_rank_deficient(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rand_psd_rank(rng, 4, 2)
            t = rand_psd_rank(rng, 4, 3)
            d = dist_wasserstein(s, t)
            q = rand_orthogonal(rng, 4)
            dq = dist_wasserstein(SymMat(q.T @ s.data @ q), SymMat(q.T @ t.data @ q))
            assert abs(dq - d) <= 1e-8 * (1.0 + d)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b, c = (rand_psd_rank(rng, 3, 2) for _ in range(3))
            assert dist_wasserstein(a, c) <= (
                dist_wasserstein(a, b) + dist_wasserstein(b, c) + 1e-8
            )


class TestLogGeometric:
    def test_zero_at_base(self):
        rng = np.random.default_rng(4)
        s = rand_spd(rng, 3)
        np.testing.assert_allclose(geometric_rows(s, [s]), np.zeros((1, 6)), atol=1e-10)

    def test_diagonal_case(self):
        rows = geometric_rows(SymMat(np.eye(2)), [SymMat(np.diag([np.e, np.e**2]))])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 2.0]], atol=1e-12)

    def test_exp_map_round_trip(self):
        rng = np.random.default_rng(6)
        base, s = rand_spd(rng, 5), rand_spd(rng, 5)
        row = geometric_rows(base, [s])[0]
        iu, ju = np.triu_indices(5)
        inner = np.zeros((5, 5))
        inner[iu, ju] = inner[ju, iu] = row / np.where(iu == ju, 1.0, np.sqrt(2.0))
        sq = sym_func(base, "sqrt").data
        back = sq @ sym_func(SymMat(inner), "exp").data @ sq
        assert np.linalg.norm(back - s.data) / np.linalg.norm(s.data) <= 1e-8


class TestVecGeometric:
    def test_zero_at_base(self):
        rows = geometric_rows(SymMat(np.eye(2)), [SymMat(np.eye(2))])
        np.testing.assert_allclose(rows, np.zeros((1, 3)), atol=1e-12)

    def test_diagonal_ordering(self):
        # row-major upper triangle: (0,0), (0,1), (1,1)
        rows = geometric_rows(SymMat(np.eye(2)), [SymMat(np.diag([np.e, 1.0]))])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_norm_equals_distance(self):
        rng = np.random.default_rng(7)
        base, s = rand_spd(rng, 4), rand_spd(rng, 4)
        d = dist_geometric(base, s)
        assert abs(np.linalg.norm(geometric_rows(base, [s])) - d) <= 1e-8 * (1.0 + d)


class TestVecEuclidean:
    def test_zero_matrix(self):
        rows = plain_rows("euclidean", [SymMat(np.zeros((2, 2)))])
        np.testing.assert_allclose(rows, np.zeros((1, 3)))

    def test_diagonal_case(self):
        rows = plain_rows("euclidean", [SymMat(np.diag([1.0, 2.0]))])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 2.0]])

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(9)
        s, t = rand_spd(rng, 5), rand_spd(rng, 5)
        rows = plain_rows("euclidean", [s, t])
        gap = np.linalg.norm(rows[0] - rows[1])
        assert abs(gap - np.linalg.norm(s.data - t.data)) <= 1e-10


class TestVecLogdiag:
    def test_identity(self):
        np.testing.assert_allclose(plain_rows("logdiag", [SymMat(np.eye(4))]), np.zeros((1, 4)))

    def test_diagonal_values(self):
        rows = plain_rows("logdiag", [SymMat(np.diag([np.e, np.e**2]))])
        np.testing.assert_allclose(rows, [[1.0, 2.0]], atol=1e-14)

    def test_matches_scalar_log(self):
        rng = np.random.default_rng(10)
        s = rand_spd(rng, 4)
        np.testing.assert_allclose(plain_rows("logdiag", [s])[0], np.log(np.diag(s.data)))

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(NonPositiveDiagonal):
            plain_rows("logdiag", [SymMat(np.eye(2)), SymMat(np.diag([1.0, 0.0]))])


class TestFactorize:
    def test_rank_one_diagonal(self):
        y = factorize(np.diag([4.0, 0.0])[None], 1)
        np.testing.assert_allclose(y, [[[2.0], [0.0]]], atol=1e-12)

    def test_identity_full_rank(self):
        y = factorize(np.eye(3)[None], 3)
        np.testing.assert_allclose(y, [np.eye(3)], atol=1e-12)

    def test_random_rank_two_reconstruction(self):
        rng = np.random.default_rng(9)
        mats = [rand_psd_rank(rng, 5, 2) for _ in range(4)]
        ys = factorize(np.stack([s.data for s in mats]), 2)
        assert ys.shape == (4, 5, 2)
        for s, y in zip(mats, ys):
            err = np.linalg.norm(y @ y.T - s.data) / np.linalg.norm(s.data)
            assert err <= 1e-8

    def test_matches_single_matrix_eigen_factor(self):
        # Order and signs of the factor columns fix the feature coordinates.
        rng = np.random.default_rng(11)
        mats = [rand_psd_rank(rng, 5, 3) for _ in range(6)]
        ys = factorize(np.stack([s.data for s in mats]), 3)
        for s, y in zip(mats, ys):
            np.testing.assert_allclose(y, eigen_factor(s, 3), rtol=0, atol=1e-12)

    def test_rank_mismatch_raises(self):
        with pytest.raises(RankMismatch):
            factorize(np.eye(3)[None], 2)

    def test_rank_mismatch_names_the_sample(self):
        rng = np.random.default_rng(12)
        mats = [rand_psd_rank(rng, 4, 2) for _ in range(4)]
        mats[2] = rand_psd_rank(rng, 4, 3)
        with pytest.raises(RankMismatch, match="sample 2"):
            factorize(np.stack([s.data for s in mats]), 2)

    def test_indefinite_slice_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPSD, match="sample 1"):
            factorize(stack, 2)

    def test_zero_slice_raises(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))])
        with pytest.raises(RankMismatch, match="sample 1"):
            factorize(stack, 1)

    def test_round_off_negative_eigenvalue_accepted(self):
        q = rand_orthogonal(np.random.default_rng(13), 3)
        s = (q * [2.0, 1.0, -1e-14]) @ q.T
        y = factorize(s[None], 2)[0]
        expected = (q[:, :2] * [2.0, 1.0]) @ q[:, :2].T
        np.testing.assert_allclose(y @ y.T, expected, atol=1e-12)


class TestLogWasserstein:
    def test_zero_at_same_factor(self):
        s = gram([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        np.testing.assert_allclose(wasserstein_rows(s, [s], 2), np.zeros((1, 6)), atol=1e-12)

    def test_collinear_rank_one(self):
        base, other = gram([[1.0], [0.0]]), gram([[2.0], [0.0]])
        rows = wasserstein_rows(base, [other], 1)
        np.testing.assert_allclose(rows, [[1.0, 0.0]], atol=1e-12)
        assert abs(np.linalg.norm(rows) - dist_wasserstein(base, other)) <= 1e-10

    def test_norm_matches_distance_full_rank(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s, t = rand_spd(rng, 3), rand_spd(rng, 3)
            log = wasserstein_rows(s, [t], 3)
            d = dist_wasserstein(s, t)
            assert abs(np.linalg.norm(log) - d) <= 1e-6

    def test_norm_bounds_distance_low_rank(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s, t = rand_psd_rank(rng, 5, 2), rand_psd_rank(rng, 5, 2)
            log = wasserstein_rows(s, [t], 2)
            assert np.linalg.norm(log) >= dist_wasserstein(s, t) - 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            wasserstein_rows(gram(np.ones((3, 1))), [gram(np.ones((2, 1)))], 1)


class TestVecWasserstein:
    def test_identical_inputs(self):
        s = gram([[1.0], [2.0]])
        np.testing.assert_allclose(wasserstein_rows(s, [s], 1), np.zeros((1, 2)), atol=1e-12)

    def test_rank_one_case(self):
        rows = wasserstein_rows(gram([[1.0], [0.0]]), [gram([[2.0], [0.0]])], 1)
        np.testing.assert_allclose(rows, [[1.0, 0.0]], atol=1e-12)

    def test_length_contract(self):
        rng = np.random.default_rng(18)
        s = rand_psd_rank(rng, 5, 3)
        mats = [rand_psd_rank(rng, 5, 3) for _ in range(2)]
        assert wasserstein_rows(s, mats, 3).shape == (2, 15)


class TestWitness:
    def test_base_pair_is_distinct(self):
        a, b, _ = no_affine_invariance_witness()
        assert dist_wasserstein(a, b) > 0.1

    def test_sequence_strictly_decreasing(self):
        _, _, dists = no_affine_invariance_witness()
        assert len(dists) == len(WITNESS_EPSILONS)
        assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))

    def test_limit_below_threshold(self):
        _, _, dists = no_affine_invariance_witness()
        assert dists[-1] < 1e-2


class TestEmbedding:
    def test_feature_dims(self):
        rng = np.random.default_rng(19)
        spd = [rand_spd(rng, 5) for _ in range(3)]
        low = [rand_psd_rank(rng, 5, 3) for _ in range(3)]
        assert embed(fit_embedding(spd, "euclidean")[0], spd).shape == (3, 15)
        assert embed(fit_embedding(spd, "geometric")[0], spd).shape == (3, 15)
        assert embed(fit_embedding(low, "wasserstein", rank=3)[0], low).shape == (3, 15)
        assert embed(fit_embedding(spd, "logdiag")[0], spd).shape == (3, 5)

    @pytest.mark.parametrize(
        ("kind", "rank", "scale"),
        [("euclidean", None, 1.0), ("geometric", None, 1.0), ("wasserstein", 5, 1.0),
         ("wasserstein", 3, 1.0), ("logdiag", None, 1.0), ("wasserstein", 5, 1e-24),
         ("wasserstein", 3, 1e-24)],
        ids=["euclidean-None", "geometric-None", "wasserstein-5", "wasserstein-3",
             "logdiag-None", "wasserstein-5-1e-24", "wasserstein-3-1e-24"],
    )
    def test_training_rows_equal_embed(self, kind, rank, scale, monkeypatch):
        # fit_embedding takes the training rows from the mean's solver
        # state; they must be exactly the rows embed gives at the reference,
        # also after several steps (counted for the unscaled Wasserstein
        # cases) and in physical units (1e-24 T^2).
        rng = np.random.default_rng(21)
        if rank == 3:
            mats = [rand_psd_rank(rng, 5, 3) for _ in range(12)]
        else:
            mats = [rand_spd(rng, 5, spread=2.0) for _ in range(12)]
        mats = [SymMat(scale * m.data) for m in mats]
        states = count_calls(monkeypatch, manifold, "_wass_state")
        emb, rows = fit_embedding(mats, kind, rank=rank)
        if kind == "wasserstein" and scale == 1.0:
            assert states[0] >= 3
        assert np.array_equal(rows, embed(emb, mats))

    def test_wasserstein_fit_runs_one_log_map_pass_per_state(self, monkeypatch):
        # Each state the solver evaluates runs one batched SVD over the
        # training factors (_wass_logs), and the training rows are those of
        # the last accepted state: no pass after the mean returns.
        rng = np.random.default_rng(22)
        mats = [rand_psd_rank(rng, 5, 3) for _ in range(12)]
        states = count_calls(monkeypatch, manifold, "_wass_state")
        logs = count_calls(monkeypatch, manifold, "_wass_logs")
        mean = manifold.mean_wasserstein
        after = []

        def mean_then_mark(*args, **kwargs):
            fit = mean(*args, **kwargs)
            after.append(logs[0])
            return fit

        monkeypatch.setattr(manifold, "mean_wasserstein", mean_then_mark)
        fit_embedding(mats, "wasserstein", rank=3)
        assert states[0] >= 3
        assert after == [states[0]]
        assert logs[0] == states[0]

    def test_wasserstein_iterate_losing_rank_raises(self):
        # Inputs of rank 1 declared (and factored) as rank 2: the start is
        # the top-2 eigenpairs of their rank-1 arithmetic mean, so the
        # first iterate has numerical rank 1. The mean stops there with the
        # error an Embedding at that point raises, naming no sample.
        f = np.zeros((4, 3, 2))
        f[:, :, 0] = np.outer(np.arange(1.0, 5.0), [1.0, 2.0, 2.0]) / 3.0
        stack = f @ f.swapaxes(1, 2)
        samples = manifold.Samples("wasserstein", stack, f, rank=2)
        with pytest.raises(RankMismatch, match="rank is 1, expected 2") as info:
            manifold.mean_wasserstein(samples, 2)
        assert info.value.sample is None

    def test_geometric_requires_full_rank_reference(self):
        with pytest.raises(SingularMatrix):
            Embedding(kind="geometric", reference=SymMat(np.diag([1.0, 0.0])))

    def test_wasserstein_reference_rank_checked(self):
        with pytest.raises(RankMismatch):
            Embedding(kind="wasserstein", reference=SymMat(np.eye(3)), rank=2)

    def test_embed_matches_single_sample_ops(self):
        rng = np.random.default_rng(20)
        mats = [rand_spd(rng, 4) for _ in range(6)]

        emb = fit_embedding(mats, "euclidean")[0]
        rows = embed(emb, mats)
        for i, m in enumerate(mats):
            np.testing.assert_allclose(rows[i], upper(m.data), atol=1e-12)

        emb = fit_embedding(mats, "geometric")[0]
        rows = embed(emb, mats)
        isq = sym_func(emb.reference, "inv_sqrt").data
        for i, m in enumerate(mats):
            log = sym_func(SymMat(isq @ m.data @ isq), "log").data
            np.testing.assert_allclose(rows[i], upper(log), atol=1e-10)

        for r, stack in ((4, mats), (2, [rand_psd_rank(rng, 4, 2) for _ in range(6)])):
            emb = fit_embedding(stack, "wasserstein", rank=r)[0]
            base = eigen_factor(emb.reference, r)
            rows = embed(emb, stack)
            for i, m in enumerate(stack):
                log = procrustes_log(base, eigen_factor(m, r))
                np.testing.assert_allclose(rows[i], log.reshape(-1), atol=1e-10)

        emb = fit_embedding(mats, "logdiag")[0]
        rows = embed(emb, mats)
        for i, m in enumerate(mats):
            np.testing.assert_allclose(rows[i], np.log(np.diag(m.data)), atol=1e-12)
