import numpy as np
import pytest

from conftest import rand_bundle, rand_spd
from spdreg import (
    CovarianceBundle,
    DegenerateDesign,
    DimensionMismatch,
    Leadfield,
    RankTooLarge,
    SpatialFilter,
    apply,
    fit_mne,
    fit_supervised,
    fit_unsupervised,
    identity_filter,
    read_leadfield,
    write_leadfield,
)
from spdreg.symmat import _sym


def constant_bundle(mat, n, labels=None):
    labels = np.zeros(n) if labels is None else labels
    return CovarianceBundle(matrices=[mat] * n, labels=labels, nominal_rank=len(mat))


class TestFitUnsupervised:
    def test_dominant_axis_of_diagonal(self):
        bundle = constant_bundle(np.diag([3.0, 1.0]), 4)
        filt = fit_unsupervised(bundle.matrices, 1)
        np.testing.assert_allclose(filt.w, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(filt.eigenvalues, [3.0])

    def test_full_rank_diagonalizes_average(self):
        rng = np.random.default_rng(0)
        bundle = rand_bundle(rng, 10, 4)
        filt = fit_unsupervised(bundle.matrices, 4)
        assert np.linalg.norm(filt.w.T @ filt.w - np.eye(4)) <= 1e-10
        cbar = bundle.matrices.mean(axis=0)
        proj = filt.w.T @ cbar @ filt.w
        assert np.linalg.norm(proj - np.diag(np.diag(proj))) <= 1e-10

    def test_blind_to_label_permutation(self):
        rng = np.random.default_rng(1)
        bundle = rand_bundle(rng, 8, 3)
        shuffled = CovarianceBundle(
            matrices=bundle.matrices,
            labels=bundle.labels[::-1].copy(),
            nominal_rank=3,
        )
        f1 = fit_unsupervised(bundle.matrices, 2)
        f2 = fit_unsupervised(shuffled.matrices, 2)
        np.testing.assert_array_equal(f1.w, f2.w)

    def test_rank_too_large(self):
        bundle = constant_bundle(np.diag([1.0, 0.0]), 3)
        with pytest.raises(RankTooLarge):
            fit_unsupervised(bundle.matrices, 2)

    def test_subspace_matches_top_eigenspace(self):
        rng = np.random.default_rng(2)
        bundle = rand_bundle(rng, 12, 5)
        filt = fit_unsupervised(bundle.matrices, 2)
        cbar = bundle.matrices.mean(axis=0)
        w_eig, v_eig = np.linalg.eigh(cbar)
        top = v_eig[:, ::-1][:, :2]
        gap = np.linalg.norm(filt.w @ filt.w.T - top @ top.T)
        assert gap <= 1e-8


def power_bundle(rng, n, p, signal_axis=0):
    """Covariances diag(1 + y_i, 1, ...) whose first axis carries the target."""
    y = rng.standard_normal(n)
    y -= y.mean()
    mats = []
    for yi in y:
        d = np.ones(p)
        d[signal_axis] = 1.0 + 0.5 * yi
        mats.append(np.diag(d))
    return CovarianceBundle(matrices=mats, labels=y, nominal_rank=p)


def lifted_bundle(rng):
    """A random full-rank 4 x 4 bundle, an orthonormal 7 x 4 ``u``, and the
    bundle lifted by it into 7 dimensions (average covariance of rank 4)."""
    u, _ = np.linalg.qr(rng.standard_normal((7, 4)))
    small = rand_bundle(rng, 20, 4)
    return small, u, CovarianceBundle(u @ small.matrices @ u.T, small.labels, nominal_rank=4)


class TestFitSupervised:
    def test_recovers_signal_axis(self):
        rng = np.random.default_rng(3)
        bundle = power_bundle(rng, 40, 3)
        filt = fit_supervised(bundle.matrices, bundle.labels, 1)
        direction = filt.w[:, 0] / np.linalg.norm(filt.w[:, 0])
        assert abs(direction[0]) > 1 - 1e-6

    def test_unit_average_power_constraint(self):
        rng = np.random.default_rng(4)
        bundle = rand_bundle(rng, 15, 4)
        filt = fit_supervised(bundle.matrices, bundle.labels, 4)
        cbar = bundle.matrices.mean(axis=0)
        for j in range(4):
            w = filt.w[:, j]
            assert abs(w @ cbar @ w - 1.0) <= 1e-8

    def test_eigenvalue_equals_projected_objective(self):
        rng = np.random.default_rng(5)
        bundle = rand_bundle(rng, 15, 4)
        filt = fit_supervised(bundle.matrices, bundle.labels, 4)
        y = bundle.labels
        yt = (y - y.mean()) / y.std()
        cy = np.einsum("i,ijk->jk", yt, bundle.matrices)
        cy /= bundle.n
        for j in range(4):
            w = filt.w[:, j]
            assert abs(filt.eigenvalues[j] - w @ cy @ w) <= 1e-8

    def test_generalized_eigen_residual(self):
        rng = np.random.default_rng(6)
        bundle = rand_bundle(rng, 15, 4)
        filt = fit_supervised(bundle.matrices, bundle.labels, 4)
        y = bundle.labels
        yt = (y - y.mean()) / y.std()
        stack = bundle.matrices
        cy = np.einsum("i,ijk->jk", yt, stack) / bundle.n
        cbar = stack.mean(axis=0)
        for j in range(4):
            w, lam = filt.w[:, j], filt.eigenvalues[j]
            resid = np.linalg.norm(cy @ w - lam * cbar @ w)
            assert resid <= 1e-8 * np.linalg.norm(cy)

    def test_first_filter_beats_random_search(self):
        rng = np.random.default_rng(7)
        bundle = rand_bundle(rng, 20, 4)
        filt = fit_supervised(bundle.matrices, bundle.labels, 1)
        y = bundle.labels
        yt = (y - y.mean()) / y.std()
        stack = bundle.matrices
        cy = np.einsum("i,ijk->jk", yt, stack) / bundle.n
        cbar = stack.mean(axis=0)
        w1 = filt.w[:, 0]
        ours = (w1 @ cy @ w1) / (w1 @ cbar @ w1)
        cand = rng.standard_normal((2000, 4))
        scale = np.sqrt(np.einsum("ij,jk,ik->i", cand, cbar, cand))
        cand /= scale[:, None]
        best = np.max(np.einsum("ij,jk,ik->i", cand, cy, cand))
        assert ours >= best - 1e-3

    def test_rank_above_average_rank_raises(self):
        bundle = constant_bundle(
            np.diag([1.0, 0.0]), 6, labels=np.arange(6.0)
        )
        with pytest.raises(RankTooLarge, match="average covariance has rank 1"):
            fit_supervised(bundle.matrices, bundle.labels, 2)

    def test_rank_deficient_average_fits_on_its_range(self):
        # A p=4 bundle lifted into 7 dimensions by an orthonormal u: the
        # filter fit on its rank-4 average is u times the filter of the
        # p=4 bundle, up to column sign. Bound fixed beforehand: 1e-10.
        rng = np.random.default_rng(30)
        small, u, big = lifted_bundle(rng)
        want = u @ fit_supervised(small.matrices, small.labels, 4).w
        got = fit_supervised(big.matrices, big.labels, 4).w
        signs = np.sign(np.sum(got * want, axis=0))
        assert np.max(np.abs(got * signs - want)) <= 1e-10

    def test_rank_deficient_average_unit_power(self):
        # w^T c_bar w = I on the full average, rank 4 of 7; bound 1e-10.
        rng = np.random.default_rng(31)
        _, _, big = lifted_bundle(rng)
        w = fit_supervised(big.matrices, big.labels, 4).w
        cbar = big.matrices.mean(axis=0)
        assert np.max(np.abs(w.T @ cbar @ w - np.eye(4))) <= 1e-10

    def test_rank_above_rank_deficient_average_raises(self):
        rng = np.random.default_rng(32)
        _, _, big = lifted_bundle(rng)
        with pytest.raises(RankTooLarge, match="requested 5 components"):
            fit_supervised(big.matrices, big.labels, 5)

    @pytest.mark.parametrize("count", [14, 16])
    def test_labels_of_another_length_raise(self, count):
        bundle = rand_bundle(np.random.default_rng(33), 15, 4)
        with pytest.raises(DimensionMismatch, match="expected 15 labels"):
            fit_supervised(bundle.matrices, np.zeros(count), 2)


class TestFitMne:
    def test_identity_leadfield(self):
        filt = fit_mne(Leadfield(np.eye(3)), 1.0)
        np.testing.assert_allclose(filt.w, 0.5 * np.eye(3), atol=1e-12)

    def test_large_regularization_limit(self):
        # Entries bounded away from zero keep the elementwise relative
        # comparison well-posed.
        rng = np.random.default_rng(8)
        g = rng.uniform(0.5, 1.5, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6))
        filt = fit_mne(Leadfield(g), 1e8)
        err = np.max(np.abs(filt.w - g / 1e8) / np.abs(g / 1e8))
        assert err <= 1e-6

    def test_zero_leadfield(self):
        filt = fit_mne(Leadfield(np.zeros((3, 2))), 2.0)
        np.testing.assert_allclose(filt.w, np.zeros((3, 2)))

    def test_rejects_nonpositive_lambda(self):
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mne_lambda must be finite and positive"):
                fit_mne(Leadfield(np.eye(2)), lam)


class TestApply:
    def test_identity_filter_is_noop(self):
        # The identity filter returns its input: no second copy of the stack,
        # and bit for bit what the symmetrized product would give.
        rng = np.random.default_rng(9)
        bundle = rand_bundle(rng, 5, 3)
        out = apply(identity_filter(3), bundle.matrices)
        assert out is bundle.matrices
        eye = np.eye(3)
        prod = eye.T @ bundle.matrices @ eye
        assert out.tobytes() == ((prod + prod.swapaxes(1, 2)) / 2).tobytes()

    def test_identity_filter_symmetrizes_outside_input(self):
        # Only a read-only, exactly symmetric stack is returned as it is.
        mats = np.array([[[2.0, 1.0], [0.0, 2.0]]])
        out = apply(identity_filter(2), mats)
        assert out is not mats and not out.flags.writeable
        np.testing.assert_array_equal(out, [[[2.0, 0.5], [0.5, 2.0]]])
        mats.flags.writeable = False
        assert apply(identity_filter(2), mats) is not mats

    def test_coordinate_selection(self):
        bundle = constant_bundle(np.diag([4.0, 7.0]), 3)
        filt = fit_unsupervised(bundle.matrices, 1)
        out = apply(filt, bundle.matrices)
        assert out.shape == (3, 1, 1)
        assert out[0, 0, 0] == pytest.approx(7.0)

    def test_matches_direct_congruence(self):
        rng = np.random.default_rng(10)
        bundle = rand_bundle(rng, 4, 4)
        w = rng.standard_normal((4, 2))
        filt = SpatialFilter(w=w, kind="identity", eigenvalues=np.empty(0))
        out = apply(filt, bundle.matrices)
        assert out.shape == (4, 2, 2)
        # Read-only, exactly symmetric, and each slice bit for bit the
        # symmetrized congruence of its matrix alone.
        assert not out.flags.writeable
        assert np.array_equal(out, out.swapaxes(1, 2))
        for i, m in enumerate(bundle.matrices):
            assert out[i].tobytes() == _sym(w.T @ m @ w).tobytes()

    def test_identity_kind_with_another_w_projects(self):
        # The no-copy path is keyed on w, not on the kind.
        rng = np.random.default_rng(14)
        bundle = rand_bundle(rng, 5, 3)
        w = rng.standard_normal((3, 3))
        filt = SpatialFilter(w=w, kind="identity", eigenvalues=np.empty(0))
        out = apply(filt, bundle.matrices)
        assert out is not bundle.matrices
        np.testing.assert_allclose(out, w.T @ bundle.matrices @ w, rtol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        bundle = rand_bundle(rng, 3, 3)
        with pytest.raises(DimensionMismatch):
            apply(identity_filter(4), bundle.matrices)


@pytest.mark.parametrize(
    "g, match",
    [(np.ones(3), "leadfield must be p x q"), (np.ones((3, 0)), "leadfield must be p x q"),
     (np.ones((2, 2, 2)), "leadfield must be p x q"),
     (np.array([[1.0, np.nan]]), "must be finite"), (np.array([[np.inf, 1.0]]), "must be finite")],
    ids=["1d", "q-0", "3d", "nan", "inf"],
)
def test_leadfield_rejects_bad_shape_or_entries(g, match):
    with pytest.raises(ValueError, match=match):
        Leadfield(g)


@pytest.mark.parametrize(
    "make, error, match",
    [(lambda: SpatialFilter(np.ones(3), "identity", np.empty(0)), ValueError,
      "filter matrix must be 2-d"),
     (lambda: fit_supervised(np.stack([np.eye(3)] * 6), np.full(6, 2.0), 2),
      DegenerateDesign, "supervised filter needs a non-constant target"),
     (lambda: fit_unsupervised(np.stack([np.eye(3), np.full((3, 3), np.nan)]), 2), ValueError,
      "matrix entries must be finite"),
     (lambda: fit_supervised(np.stack([np.eye(3), np.diag([np.inf, 1, 1])]), [0.0, 1.0], 2),
      ValueError, "matrix entries must be finite")],
    ids=["1d-w", "constant-labels", "unsupervised-nan", "supervised-inf"],
)
def test_filter_rejects_outside_input(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestLeadfieldFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        lead = Leadfield(rng.standard_normal((3, 5)))
        path = tmp_path / "lead.txt"
        write_leadfield(path, lead)
        back = read_leadfield(path)
        np.testing.assert_array_equal(back.g, lead.g)
        first = path.read_text().splitlines()[0]
        assert first == "LEADFIELD v1 3 5"
