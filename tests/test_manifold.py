import numpy as np
import pytest

from conftest import rand_invertible, rand_orthogonal, rand_psd_rank, rand_spd
from spdreg import (
    DimensionMismatch,
    NonPositiveDiagonal,
    NotPSD,
    NumericalFailure,
    RankMismatch,
    SingularMatrix,
    dist_geometric,
    dist_wasserstein,
    eigh,
    factorize,
    no_affine_invariance_witness,
    numerical_rank,
    sym_func,
)
from spdreg import manifold, symmat
from spdreg.manifold import WITNESS_EPSILONS, Embedding, embed, fit_embedding
from spdreg.symmat import SymMat


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: dist_geometric(np.eye(3), 2 * np.eye(3)), np.sqrt(3) * np.log(2)),
        (lambda: dist_wasserstein(np.eye(3), 2 * np.eye(3)), np.sqrt(3) * (np.sqrt(2) - 1)),
        (lambda: Embedding("geometric", 2 * np.eye(3)).reference, 2 * np.eye(3)),
        (lambda: embed(Embedding("geometric", np.eye(3)), 2 * np.eye(3)[None]),
         [[np.log(2), 0, 0, np.log(2), 0, np.log(2)]]),
        (lambda: eigh(np.diag([1.0, 3.0, 2.0]))[0], [3.0, 2.0, 1.0]),
        (lambda: sym_func(2 * np.eye(3), "log"), np.log(2) * np.eye(3)),
        (lambda: symmat.numerical_rank(np.diag([1.0, 2.0, 0.0])), 2),
    ],
    ids=["dist_geometric", "dist_wasserstein", "Embedding", "embed", "eigh", "sym_func",
         "numerical_rank"],
)
def test_public_functions_take_plain_arrays(call, want):
    np.testing.assert_allclose(call(), want, atol=1e-14)


def upper(a):
    """Reference row-major upper triangle with sqrt(2) off-diagonal weights."""
    p = a.shape[0]
    return np.array(
        [a[i, j] * (1.0 if i == j else np.sqrt(2.0)) for i in range(p) for j in range(i, p)]
    )


def eigen_factor(m, r):
    """Reference single-matrix factor: top-r eigenpairs of ``eigh``."""
    w, v = eigh(m)
    return v[:, :r] * np.sqrt(w[:r])


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


def wasserstein_rows(base, mats):
    return embed(Embedding("wasserstein", reference=base), mats)


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
        s = np.eye(2)
        t = np.diag([np.e**2, np.e**2])
        assert dist_geometric(s, t) == pytest.approx(2.8284271247461903, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        s, t = rand_spd(rng, 4), rand_spd(rng, 4)
        d = dist_geometric(s, t)
        for _ in range(10):
            w = rand_invertible(rng, 4)
            dw = dist_geometric(w.T @ s @ w, w.T @ t @ w)
            assert abs(dw - d) <= 1e-8 * (1.0 + d)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        s, t = rand_spd(rng, 4), rand_spd(rng, 4)
        assert abs(dist_geometric(s, t) - dist_geometric(t, s)) <= 1e-10

    def test_rank_deficient_raises(self):
        full = np.eye(2)
        flat = np.diag([1.0, 0.0])
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
        assert dist_wasserstein([[4.0]], [[1.0]]) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_rank_deficient_pair(self):
        a = np.diag([4.0, 0.0])
        b = np.diag([1.0, 0.0])
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
            s12 = sym_func(s, "sqrt")
            w = np.linalg.eigvalsh(s12 @ t @ s12)
            d2 = np.trace(s) + np.trace(t) - 2 * np.sum(
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
            dq = dist_wasserstein(q.T @ s @ q, q.T @ t @ q)
            assert abs(dq - d) <= 1e-8 * (1.0 + d)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_indefinite_argument_raises(self, which):
        good, bad = np.eye(3), np.diag([1.0, 1.0, -0.5])
        args = (bad, good) if which == "first" else (good, bad)
        with pytest.raises(NotPSD, match=f"^{which} argument: .*not PSD"):
            dist_wasserstein(*args)

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
        rows = geometric_rows(np.eye(2), [np.diag([np.e, np.e**2])])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 2.0]], atol=1e-12)

    def test_exp_map_round_trip(self):
        rng = np.random.default_rng(6)
        base, s = rand_spd(rng, 5), rand_spd(rng, 5)
        row = geometric_rows(base, [s])[0]
        iu, ju = np.triu_indices(5)
        inner = np.zeros((5, 5))
        inner[iu, ju] = inner[ju, iu] = row / np.where(iu == ju, 1.0, np.sqrt(2.0))
        sq = sym_func(base, "sqrt")
        back = sq @ sym_func(inner, "exp") @ sq
        assert np.linalg.norm(back - s) / np.linalg.norm(s) <= 1e-8


class TestVecGeometric:
    def test_zero_at_base(self):
        rows = geometric_rows(np.eye(2), [np.eye(2)])
        np.testing.assert_allclose(rows, np.zeros((1, 3)), atol=1e-12)

    def test_diagonal_ordering(self):
        # row-major upper triangle: (0,0), (0,1), (1,1)
        rows = geometric_rows(np.eye(2), [np.diag([np.e, 1.0])])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_norm_equals_distance(self):
        # The distance is the norm of the row embed gives, bit for bit.
        rng = np.random.default_rng(7)
        for p in rng.integers(2, 8, size=200):
            base, s = rand_spd(rng, p), rand_spd(rng, p)
            assert np.linalg.norm(geometric_rows(base, [s])) == dist_geometric(base, s)


class TestVecEuclidean:
    def test_zero_matrix(self):
        rows = plain_rows("euclidean", [np.zeros((2, 2))])
        np.testing.assert_allclose(rows, np.zeros((1, 3)))

    def test_diagonal_case(self):
        rows = plain_rows("euclidean", [np.diag([1.0, 2.0])])
        np.testing.assert_allclose(rows, [[1.0, 0.0, 2.0]])

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(9)
        s, t = rand_spd(rng, 5), rand_spd(rng, 5)
        rows = plain_rows("euclidean", [s, t])
        gap = np.linalg.norm(rows[0] - rows[1])
        assert abs(gap - np.linalg.norm(s - t)) <= 1e-10


class TestVecLogdiag:
    def test_identity(self):
        np.testing.assert_allclose(plain_rows("logdiag", [np.eye(4)]), np.zeros((1, 4)))

    def test_diagonal_values(self):
        rows = plain_rows("logdiag", [np.diag([np.e, np.e**2])])
        np.testing.assert_allclose(rows, [[1.0, 2.0]], atol=1e-14)

    def test_matches_scalar_log(self):
        rng = np.random.default_rng(10)
        s = rand_spd(rng, 4)
        np.testing.assert_allclose(plain_rows("logdiag", [s])[0], np.log(np.diag(s)))

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(NonPositiveDiagonal):
            plain_rows("logdiag", [np.eye(2), np.diag([1.0, 0.0])])


class TestSolverFailure:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: dist_geometric(s[0], s[1]),
            lambda s: dist_wasserstein(s[0], s[1]),
            lambda s: factorize(np.asarray(s)),
            lambda s: manifold.mean_geometric(s),
            lambda s: geometric_rows(s[0], s),
        ],
        ids=["dist_geometric", "dist_wasserstein", "factorize", "mean_geometric", "embed"],
    )
    def test_eigensolver_error_is_numerical_failure(self, monkeypatch, call):
        # A LinAlgError is a ValueError, which the CLI reports as bad input
        # (exit 2); every decomposition reports it as a numerical one.
        mats = [rand_spd(np.random.default_rng(23), 4) for _ in range(3)]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailure, match="did not converge"):
            call(mats)


@pytest.mark.parametrize(
    "call, error, match",
    [(lambda: dist_geometric(np.eye(2)[None], np.eye(2)), ValueError, "expected a .p, p. matrix"),
     (lambda: dist_wasserstein(np.eye(2), np.ones(2)), ValueError, "expected a .p, p. matrix"),
     (lambda: dist_geometric(np.eye(2), np.eye(3)), DimensionMismatch, "dimensions differ"),
     (lambda: dist_wasserstein(np.eye(3), np.eye(2)), DimensionMismatch, "dimensions differ"),
     (lambda: embed(Embedding("geometric", np.eye(3)),
                    manifold.prepare_samples(np.eye(2)[None], "geometric")),
      DimensionMismatch, "reference dim 3 vs matrices dim 2"),
     (lambda: embed(Embedding("wasserstein", np.diag([1.0, 1.0, 1.0, 0.0])),
                    manifold.prepare_samples(np.eye(3)[None], "wasserstein")),
      DimensionMismatch, "reference dim 4 vs matrices dim 3"),
     (lambda: manifold.prepare_samples(manifold.prepare_samples(np.eye(2)[None], "euclidean"),
                                       "wasserstein"),
      ValueError, "samples prepared for euclidean do not fit wasserstein")],
    ids=["dist_geometric-3d", "dist_wasserstein-1d", "dist_geometric-dims",
         "dist_wasserstein-dims", "embed-geometric-samples-dims",
         "embed-wasserstein-samples-dims", "samples-of-another-kind"],
)
def test_rejects_outside_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestFactorize:
    def test_rank_one_diagonal(self):
        y = factorize(np.diag([4.0, 0.0])[None])
        np.testing.assert_allclose(y, [[[2.0], [0.0]]], atol=1e-12)

    def test_identity_full_rank(self):
        y = factorize(np.eye(3)[None])
        np.testing.assert_allclose(y, [np.eye(3)], atol=1e-12)

    def test_random_rank_two_reconstruction(self):
        rng = np.random.default_rng(9)
        mats = [rand_psd_rank(rng, 5, 2) for _ in range(4)]
        ys = factorize(np.stack(mats))
        assert ys.shape == (4, 5, 2)
        for s, y in zip(mats, ys):
            err = np.linalg.norm(y @ y.T - s) / np.linalg.norm(s)
            assert err <= 1e-8

    def test_matches_single_matrix_eigen_factor(self):
        # Order and signs of the factor columns fix the feature coordinates.
        rng = np.random.default_rng(11)
        mats = [rand_psd_rank(rng, 5, 3) for _ in range(6)]
        ys = factorize(np.stack(mats))
        for s, y in zip(mats, ys):
            assert np.array_equal(y, eigen_factor(s, 3))

    def test_lower_rank_slices_pad_with_zero_columns(self):
        # Each row is bit for bit the slice's own factor, then exactly zero
        # (+0.0) columns up to the largest rank.
        rng = np.random.default_rng(12)
        ranks = (2, 2, 3, 1, 0)
        mats = [rand_psd_rank(rng, 4, r) for r in ranks]
        ys = factorize(np.stack(mats))
        assert ys.shape == (5, 4, 3)
        for m, y, r in zip(mats, ys, ranks):
            assert np.array_equal(y[:, :r], eigen_factor(m, r))
            assert np.array_equal(y[:, :r], factorize(m[None])[0])
            assert not np.any(y[:, r:]) and not np.signbit(y[:, r:]).any()

    def test_rank_is_the_largest_rank(self):
        # One slice of rank 3 sets the width, however many have rank 2 or 0.
        rng = np.random.default_rng(14)
        mats = [rand_psd_rank(rng, 4, r) for r in (3, 2, 2, 2)] + [np.zeros((4, 4))] * 5
        assert factorize(np.stack(mats)).shape == (9, 4, 3)
        assert factorize(np.stack(mats[1:])).shape == (8, 4, 2)
        assert factorize(np.zeros((2, 3, 3))).shape == (2, 3, 0)

    def test_indefinite_slice_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPSD, match="sample 1"):
            factorize(stack)

    def test_zero_slice_is_a_zero_factor(self):
        # A zero sample is a PSD point: its factor is zero at any width.
        stack = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))])
        np.testing.assert_array_equal(factorize(stack), [[[1.0], [0.0]], [[0.0], [0.0]]])

    def test_round_off_negative_eigenvalue_accepted(self):
        q = rand_orthogonal(np.random.default_rng(13), 3)
        s = (q * [2.0, 1.0, -1e-14]) @ q.T
        y = factorize(s[None])[0]
        expected = (q[:, :2] * [2.0, 1.0]) @ q[:, :2].T
        np.testing.assert_allclose(y @ y.T, expected, atol=1e-12)


class TestLogWasserstein:
    def test_zero_at_same_factor(self):
        s = gram([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        np.testing.assert_allclose(wasserstein_rows(s, [s]), np.zeros((1, 6)), atol=1e-12)

    def test_collinear_rank_one(self):
        base, other = gram([[1.0], [0.0]]), gram([[2.0], [0.0]])
        rows = wasserstein_rows(base, [other])
        np.testing.assert_allclose(rows, [[1.0, 0.0]], atol=1e-12)
        assert abs(np.linalg.norm(rows) - dist_wasserstein(base, other)) <= 1e-10

    def test_norm_matches_distance_full_rank(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s, t = rand_spd(rng, 3), rand_spd(rng, 3)
            log = wasserstein_rows(s, [t])
            d = dist_wasserstein(s, t)
            assert abs(np.linalg.norm(log) - d) <= 1e-6

    def test_norm_bounds_distance_low_rank(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s, t = rand_psd_rank(rng, 5, 2), rand_psd_rank(rng, 5, 2)
            log = wasserstein_rows(s, [t])
            assert np.linalg.norm(log) >= dist_wasserstein(s, t) - 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            wasserstein_rows(gram(np.ones((3, 1))), [gram(np.ones((2, 1)))])


class TestVecWasserstein:
    def test_identical_inputs(self):
        s = gram([[1.0], [2.0]])
        np.testing.assert_allclose(wasserstein_rows(s, [s]), np.zeros((1, 2)), atol=1e-12)

    def test_rank_one_case(self):
        rows = wasserstein_rows(gram([[1.0], [0.0]]), [gram([[2.0], [0.0]])])
        np.testing.assert_allclose(rows, [[1.0, 0.0]], atol=1e-12)

    def test_length_contract(self):
        rng = np.random.default_rng(18)
        s = rand_psd_rank(rng, 5, 3)
        mats = [rand_psd_rank(rng, 5, 3) for _ in range(2)]
        assert wasserstein_rows(s, mats).shape == (2, 15)


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

    def test_distances_equal_eps(self):
        # The images are [[1, 0], [0, 0]] and [[1, eps], [eps, eps^2]], whose
        # factors differ by eps in one entry: the distance is eps exactly,
        # which the difference of traces would lose to cancellation.
        _, _, dists = no_affine_invariance_witness()
        for eps, d in zip(WITNESS_EPSILONS, dists):
            assert abs(d - eps) <= 1e-14 * eps


class TestEmbedding:
    def test_feature_dims(self):
        rng = np.random.default_rng(19)
        spd = [rand_spd(rng, 5) for _ in range(3)]
        low = [rand_psd_rank(rng, 5, 3) for _ in range(3)]
        assert embed(fit_embedding(spd, "euclidean")[0], spd).shape == (3, 15)
        assert embed(fit_embedding(spd, "geometric")[0], spd).shape == (3, 15)
        assert embed(fit_embedding(low, "wasserstein")[0], low).shape == (3, 15)
        assert embed(fit_embedding(spd, "logdiag")[0], spd).shape == (3, 5)

    @pytest.mark.parametrize(
        ("kind", "rank", "scale"),
        [("euclidean", None, 1.0), ("geometric", None, 1.0), ("wasserstein", 5, 1.0),
         ("wasserstein", 3, 1.0), ("logdiag", None, 1.0), ("wasserstein", 5, 1e-24),
         ("wasserstein", 3, 1e-24)],
        ids=["euclidean-None", "geometric-None", "wasserstein-5", "wasserstein-3",
             "logdiag-None", "wasserstein-5-1e-24", "wasserstein-3-1e-24"],
    )
    def test_training_rows_equal_embed(self, kind, rank, scale):
        # fit_embedding takes the training rows from the state at its
        # reference; they must be exactly the rows embed gives there, also
        # in physical units (1e-24 T^2).
        rng = np.random.default_rng(21)
        if rank == 3:
            mats = [rand_psd_rank(rng, 5, 3) for _ in range(12)]
        else:
            mats = [rand_spd(rng, 5, spread=2.0) for _ in range(12)]
        mats = [scale * m for m in mats]
        emb, rows = fit_embedding(mats, kind)
        assert np.array_equal(rows, embed(emb, mats))

    def test_wasserstein_fit_runs_one_log_map_pass_per_state(self, monkeypatch):
        # Each state the mean's descent evaluates runs one batched SVD over
        # the factors (_wass_logs), and its rows are those of the last
        # accepted state: no pass after the last state.
        rng = np.random.default_rng(22)
        mats = np.stack([rand_psd_rank(rng, 5, 3) for _ in range(12)])
        states = count_calls(monkeypatch, manifold, "_wass_state")
        logs = count_calls(monkeypatch, manifold, "_wass_logs")
        manifold.mean_wasserstein(mats)
        assert states[0] >= 3
        assert logs[0] == states[0]

    @pytest.mark.parametrize("kind", ["geometric", "wasserstein"])
    def test_fit_evaluates_one_state_at_the_closed_form_start(self, kind, monkeypatch):
        # A descend=False mean is its closed-form start and evaluates no
        # state. fit_embedding's reference is that start, bit for bit, and it
        # evaluates one state there (embed's, one log-map pass) on inputs
        # where the Frechet mean takes several.
        rng = np.random.default_rng(22)
        if kind == "geometric":
            mats = np.stack([rand_spd(rng, 5, spread=2.0) for _ in range(12)])
            start, mean = manifold._geometric_start(mats), manifold.mean_geometric
            states = passes = count_calls(monkeypatch, manifold, "_geo_state")
        else:
            mats = np.stack([rand_psd_rank(rng, 5, 3) for _ in range(12)])
            start, mean = manifold._wasserstein_start(factorize(mats)), manifold.mean_wasserstein
            states = count_calls(monkeypatch, manifold, "_wass_state")
            passes = count_calls(monkeypatch, manifold, "_wass_logs")
        assert np.array_equal(mean(mats, descend=False), start)
        assert states[0] == 0 and passes[0] == 0
        emb, rows = fit_embedding(mats, kind)
        assert states[0] == 1 and passes[0] == 1
        assert np.array_equal(emb.reference, start)
        assert np.array_equal(rows, embed(emb, mats))
        states[0] = 0
        mean(mats)
        assert states[0] >= 3

    def test_wasserstein_iterate_losing_rank_raises(self):
        # The rank-2 sample is 1e13 times smaller than the rank-1 ones, so
        # the start point's second eigenvalue falls below RANK_TOL of its
        # first: the iterate has rank 1, below that sample's. The mean stops
        # there, naming the sample by its row of the prepared data (3), not
        # of the subset (1).
        big = np.diag([1e13, 0.0, 0.0])
        mats = np.stack([big, np.eye(3), 2 * big, np.diag([0.0, 1.0, 1.0])])
        subset = manifold.prepare_samples(mats, "wasserstein").subset([2, 3, 0])
        with pytest.raises(
            RankMismatch, match="^sample 3: numerical rank 2 exceeds the reference's 1$"
        ) as info:
            manifold.mean_wasserstein(subset)
        assert info.value.sample == 3

    def test_lower_rank_training_runs(self):
        # Rank-1 factors of width 2 (a zero second column): the mean works at
        # rank 1, and its rows are the width-1 log maps.
        f = np.zeros((4, 3, 2))
        f[:, :, 0] = np.outer(np.arange(1.0, 5.0), [1.0, 2.0, 2.0]) / 3.0
        samples = manifold.Samples("wasserstein", f)
        point = manifold.mean_wasserstein(samples)
        assert numerical_rank(point) == 1
        assert embed(Embedding("wasserstein", point), samples).shape == (4, 3)
        np.testing.assert_allclose(point, 6.25 * np.outer([1, 2, 2], [1, 2, 2]) / 9)

    def test_subset_mean_ignores_the_ranks_outside_it(self):
        # A subset of rank-2 samples, prepared with a rank-3 sample outside
        # it, fits bit for bit what preparing the subset alone fits.
        rng = np.random.default_rng(24)
        mats = np.stack([rand_psd_rank(rng, 4, 2) for _ in range(8)] + [rand_psd_rank(rng, 4, 3)])
        subset = manifold.prepare_samples(mats, "wasserstein").subset(np.arange(8))
        (emb, rows), (alone, alone_rows) = (
            fit_embedding(x, "wasserstein") for x in (subset, mats[:8]))
        assert np.array_equal(emb.reference, alone.reference)
        assert np.array_equal(rows, alone_rows)
        assert numerical_rank(emb.reference) == 2

    def test_geometric_requires_full_rank_reference(self):
        with pytest.raises(SingularMatrix):
            Embedding(kind="geometric", reference=np.diag([1.0, 0.0]))

    def test_wasserstein_requires_a_nonzero_reference(self):
        with pytest.raises(RankMismatch, match="reference of nonzero rank"):
            Embedding(kind="wasserstein", reference=np.zeros((3, 3)))

    def test_euclidean_takes_no_reference(self):
        with pytest.raises(ValueError, match="euclidean embedding takes no reference"):
            Embedding(kind="euclidean", reference=np.eye(3))

    def test_embed_matches_single_sample_ops(self):
        rng = np.random.default_rng(20)
        mats = [rand_spd(rng, 4) for _ in range(6)]

        emb = fit_embedding(mats, "euclidean")[0]
        rows = embed(emb, mats)
        for i, m in enumerate(mats):
            np.testing.assert_allclose(rows[i], upper(m), atol=1e-12)

        emb = fit_embedding(mats, "geometric")[0]
        rows = embed(emb, mats)
        isq = sym_func(emb.reference, "inv_sqrt")
        for i, m in enumerate(mats):
            log = sym_func(isq @ m @ isq, "log")
            np.testing.assert_allclose(rows[i], upper(log), atol=1e-10)

        for r, stack in ((4, mats), (2, [rand_psd_rank(rng, 4, 2) for _ in range(6)])):
            emb = fit_embedding(stack, "wasserstein")[0]
            base = eigen_factor(emb.reference, r)
            rows = embed(emb, stack)
            for i, m in enumerate(stack):
                log = procrustes_log(base, eigen_factor(m, r))
                np.testing.assert_allclose(rows[i], log.reshape(-1), atol=1e-10)

        emb = fit_embedding(mats, "logdiag")[0]
        rows = embed(emb, mats)
        for i, m in enumerate(mats):
            np.testing.assert_allclose(rows[i], np.log(np.diag(m)), atol=1e-12)


class TestBlockedTangentMap:
    """The geometric tangent map streams the stack in blocks; a forced block
    of 3 matrices must give what one whole-stack pass gives."""

    @staticmethod
    def small_blocks(monkeypatch):
        monkeypatch.setattr(symmat, "BLOCK_BYTES", 3 * 8 * 5 * 5)
        assert symmat.blocks(7, 5) == [slice(0, 3), slice(3, 6), slice(6, 7)]

    @staticmethod
    def stack(n, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([rand_spd(rng, 5) for _ in range(n)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_embed_rows_equal_whole_stack_logs(self, monkeypatch, n):
        self.small_blocks(monkeypatch)
        mats = self.stack(n)
        ref = rand_spd(np.random.default_rng(1), 5)
        isq = sym_func(ref, "inv_sqrt")
        rows = geometric_rows(ref, mats)
        np.testing.assert_array_equal(rows, manifold._upper(sym_func(isq @ mats @ isq, "log")))
        assert rows.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_mean_equals_default_block_size(self, monkeypatch, n):
        mats = self.stack(n)
        whole = manifold.mean_geometric(mats)
        self.small_blocks(monkeypatch)
        blocked = manifold.mean_geometric(mats)
        np.testing.assert_array_equal(blocked, whole)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_training_rows_equal_embed(self, monkeypatch, n):
        self.small_blocks(monkeypatch)
        mats = self.stack(n + 3)
        prepared = manifold.prepare_samples(mats, "geometric")
        for samples in (mats[:n], prepared.subset(np.arange(n + 2, 2, -1)[:n])):
            emb, rows = fit_embedding(samples, "geometric")
            np.testing.assert_array_equal(rows, embed(emb, samples))


@pytest.mark.parametrize("kind", manifold.EMBEDDING_KINDS)
def test_feature_rows_are_c_ordered(kind):
    # One layout for every kind, whole or gathered from a subset, so the
    # ridge's column sums round alike wherever the rows come from.
    rng = np.random.default_rng(23)
    mats = np.stack([rand_spd(rng, 4) for _ in range(6)])
    subset = manifold.prepare_samples(mats, kind).subset([4, 0, 2])
    emb, rows = fit_embedding(subset, kind)
    for out in (rows, embed(emb, subset), embed(emb, mats)):
        assert out.flags.c_contiguous


class TestMixedRanks:
    """The Wasserstein embedding of samples of lower rank than the reference:
    zero-padded factors, bounds fixed before the code."""

    @staticmethod
    def sample(t):
        q = rand_orthogonal(np.random.default_rng(30), 5)
        return SymMat((q * [2.0, 1.0, t, 0.0, 0.0]) @ q.T)

    def test_rows_converge_as_sqrt_t_at_the_rank_boundary(self):
        # The row of a rank-3 sample whose third eigenvalue t goes to 0
        # tends to the rank-2 row, at the rate sqrt(t): continuous, but only
        # Holder-1/2 there.
        emb = Embedding("wasserstein", rand_psd_rank(np.random.default_rng(31), 5, 3))
        limit = embed(emb, self.sample(0.0)[None])
        for t in 10.0 ** -np.arange(1, 12, 2):
            ratio = np.linalg.norm(embed(emb, self.sample(t)[None]) - limit) / np.sqrt(t)
            assert 0.5 <= ratio <= 2.0, (t, ratio)

    def test_row_norm_is_the_distance(self):
        rng = np.random.default_rng(32)
        for r_ref, r in ((3, 2), (3, 1), (4, 2), (3, 0), (5, 3)):
            ref = rand_psd_rank(rng, 5, r_ref)
            mats = np.stack([rand_psd_rank(rng, 5, r) for _ in range(3)])
            rows = wasserstein_rows(ref, mats)
            assert rows.shape == (3, 5 * r_ref)
            for row, m in zip(rows, mats):
                d = dist_wasserstein(ref, m)
                assert abs(np.linalg.norm(row) - d) <= 1e-12 * (1.0 + d)

    def test_batched_rows_equal_each_sample_alone(self):
        rng = np.random.default_rng(33)
        mats = np.stack([rand_psd_rank(rng, 5, r) for r in (3, 1, 2, 0, 3, 2)])
        emb = Embedding("wasserstein", rand_psd_rank(rng, 5, 3))
        rows = embed(emb, mats)
        for row, m in zip(rows, mats):
            assert np.array_equal(row, embed(emb, m[None])[0])

    def test_sample_above_the_reference_rank_is_named(self):
        rng = np.random.default_rng(34)
        mats = np.stack([rand_psd_rank(rng, 5, r) for r in (2, 3, 4, 4)])
        emb = Embedding("wasserstein", rand_psd_rank(rng, 5, 3))
        with pytest.raises(RankMismatch, match="^sample 2: numerical rank 4 exceeds the "
                                               "reference's 3$"):
            embed(emb, mats)
        subset = manifold.prepare_samples(mats, "wasserstein").subset([1, 3])
        with pytest.raises(RankMismatch, match="^sample 3: ") as info:
            embed(emb, subset)
        assert info.value.sample == 3
