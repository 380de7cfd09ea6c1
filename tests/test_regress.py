import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_bundle, rand_invertible, rand_orthogonal, rand_psd_rank
from spdreg import (
    ConfigError,
    CovarianceBundle,
    DegenerateDesign,
    DimensionMismatch,
    GenerativeConfig,
    Leadfield,
    PipelineSpec,
    RankMismatch,
    RidgeModel,
    SingularMatrix,
    apply,
    default_ridge_grid,
    embed,
    fit_embedding,
    fit_mne,
    fit_ridge_gcv,
    fit_supervised,
    fit_unsupervised,
    identity_filter,
    numerical_rank,
    predict,
    run_pipeline_cv,
    sample_bundle,
)
from spdreg.regress import (
    RESULTS_HEADER,
    FoldState,
    fold_blocks,
    project,
    results_rows,
    write_csv,
)


def scaled(x):
    """fit_ridge_gcv's design, bit for bit: the columns centred and the whole
    divided by one scale, its root mean column variance."""
    xs = x - x.mean(axis=0)
    xs /= np.linalg.norm(xs) / np.sqrt(xs.size)
    return xs


def brute_force_gcv(x, y, grid):
    """Reference GCV in long double (64-bit significand on x86-64), one
    elimination per grid point. By the push-through identity I - H_lam =
    lam (xs xs^T + lam I)^-1 for every shape, so the residual lam a^-1 y_c
    and the trace lam tr(a^-1) of a = xs xs^T + lam I need no subtraction.
    a is SPD, so Gaussian elimination without pivoting is backward stable;
    the forward error is eps_ld * (s_max^2 + lam) / lam, the condition of a.
    numpy's solvers are float64 only, hence the explicit elimination."""
    ld = np.longdouble
    xs = scaled(x).astype(ld)
    n = len(xs)
    lam = np.asarray(grid, dtype=ld)[:, None, None]
    a = xs @ xs.T + lam * np.eye(n, dtype=ld)
    rhs = np.hstack([(y - y.mean())[:, None], np.eye(n)]).astype(ld)
    b = np.repeat(rhs[None], len(lam), axis=0)
    for j in range(n):
        f = a[:, j + 1 :, j : j + 1] / a[:, j : j + 1, j : j + 1]
        a[:, j + 1 :, j:] -= f * a[:, j : j + 1, j:]
        b[:, j + 1 :] -= f * b[:, j : j + 1]
    z = np.empty_like(b)
    for j in reversed(range(n)):
        z[:, j] = (b[:, j] - (a[:, j : j + 1, j + 1 :] @ z[:, j + 1 :])[:, 0]) / a[:, j, j : j + 1]
    lam = lam[:, 0, 0]
    rss = lam**2 * np.sum(z[:, :, 0] ** 2, axis=1)
    trace = lam * np.trace(z[:, :, 1:], axis1=1, axis2=2)
    return (n * rss / trace**2).astype(np.float64)


def exact_gcv(x, y, grid):
    """GCV of fit_ridge_gcv's float design and centred target in rational
    arithmetic, by the identity of brute_force_gcv: Gauss-Jordan on
    [xs xs^T + lam I | y_c | I] gives a^-1 y_c and tr(a^-1) exactly."""
    xs = [[Fraction(v) for v in row] for row in scaled(x)]
    yc = [Fraction(v) for v in y - float(y.mean())]
    n = len(xs)
    gram = [[sum(p * q for p, q in zip(ri, rj)) for rj in xs] for ri in xs]
    out = []
    for lam in map(Fraction, grid):
        a = [[*row, yc[i], *(Fraction(int(i == j)) for j in range(n))]
             for i, row in enumerate(gram)]
        for i in range(n):
            a[i][i] += lam
        for j in range(n):
            a[j] = [v / a[j][j] for v in a[j]]
            for i in range(n):
                if i != j and a[i][j]:
                    a[i] = [u - a[i][j] * v for u, v in zip(a[i], a[j])]
        rss = lam**2 * sum(row[n] ** 2 for row in a)
        trace = lam * sum(a[i][n + 1 + i] for i in range(n))
        out.append(float(n * rss / trace**2))
    return np.array(out)


class TestFitRidgeGCV:
    def test_recovers_noiseless_slope(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 1))
        y = 2.0 * x[:, 0]
        model = fit_ridge_gcv(x, y, grid=[1e-8])
        slope = model.beta[0] / model.feature_scale
        assert slope == pytest.approx(2.0, abs=1e-6)
        train_mae = np.mean(np.abs(predict(model, x) - y))
        assert train_mae < 1e-6

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        y = np.full(20, 7.5)
        model = fit_ridge_gcv(x, y)
        assert np.all(np.abs(model.beta) <= 1e-12)
        assert model.intercept == pytest.approx(7.5)

    def test_all_constant_features_raise(self):
        with pytest.raises(DegenerateDesign):
            fit_ridge_gcv(np.ones((10, 2)), np.arange(10.0))

    @pytest.mark.parametrize(
        ("n", "k", "rank", "noisy"),
        [
            (20, 6, None, True),
            (20, 60, None, True),
            (30, 200, None, True),
            (30, 200, None, False),
            (60, 40, 5, True),
            (60, 40, 5, False),
            (54, 51, 16, True),
            (54, 51, 16, False),
        ],
        ids=[
            "20x6",
            "20x60",
            "30x200",
            "30x200-noisefree",
            "60x40-rank5",
            "60x40-rank5-noisefree",
            "54x51-rank16",
            "54x51-rank16-noisefree",
        ],
    )
    def test_fast_path_matches_brute_force(self, n, k, rank, noisy):
        # A rank given is that of the design x = a @ b, whose xs^T xs has
        # k - rank null eigenvalues, as the Wasserstein designs of the
        # benchmark do.
        rng = np.random.default_rng(3)
        if rank is None:
            x = rng.standard_normal((n, k))
        else:
            x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
        y = rng.standard_normal(n) if noisy else x @ rng.standard_normal(k)
        grid = default_ridge_grid()
        model = fit_ridge_gcv(x, y, grid)
        reference = brute_force_gcv(x, y, grid)
        rel = np.abs(model.gcv_path - reference) / reference
        s2max = np.linalg.norm(scaled(x), 2) ** 2
        if k <= n:
            # The fixed bound holds only while the oracle's own forward
            # error eps_ld * s_max^2 / lam_min stays below it. In double
            # precision that estimate is 1.52e-8 on the 60 x 40 cases and
            # good only to a factor of about two, so the reference is the
            # long-double one; test_oracle_matches_rational_arithmetic
            # checks it against exact arithmetic. A case enlarged past the
            # scope fails here, by name.
            scope = np.finfo(np.longdouble).eps * s2max / np.min(grid)
            assert scope <= 1.5e-8, (
                f"case outside the oracle's scope: eps * s_max^2 / lam_min = "
                f"{scope:.2e} > 1.5e-8; the 1e-8 bound does not apply")
            assert np.max(rel) <= 1e-8
            return
        # Forward error when k > n. With s the singular values of the
        # scaled design xs, the fast path takes s^2 from eigh of the Gram
        # matrix xs xs^T, whose eigenvalues carry an absolute error of
        # O(eps * s_max^2) (Weyl). Each term lam / (s^2 + lam) and c / (s^2 +
        # lam) then moves by a relative O(eps * s_max^2 / lam), so the fast
        # path is within C * eps * (1 + s_max^2 / lam) of the truth per grid
        # point; C = 100 covers the dimension factors of the LAPACK error
        # bounds at n <= 30. The long-double oracle adds a far smaller error.
        bound = 100 * np.finfo(float).eps * (1.0 + s2max / grid)
        assert np.all(rel <= bound)

    @pytest.mark.parametrize(
        ("n", "k", "rank", "noisy"),
        [(10, 4, None, True), (10, 6, 2, False), (8, 12, None, True)],
        ids=["10x4", "10x6-rank2-noisefree", "8x12"],
    )
    def test_oracle_matches_rational_arithmetic(self, n, k, rank, noisy):
        # Exact GCV of the same floats at three grid points, lam_min among
        # them. Bounds fixed before the first run: the fast path within the
        # 1e-8 of test_fast_path_matches_brute_force, and the long-double
        # oracle within its forward error 100 * eps_ld * (1 + s_max^2 / lam).
        rng = np.random.default_rng(8)
        if rank is None:
            x = rng.standard_normal((n, k))
        else:
            x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
        y = rng.standard_normal(n) if noisy else x @ rng.standard_normal(k)
        grid = default_ridge_grid()
        picks = [0, 50, 99]
        exact = exact_gcv(x, y, grid[picks])
        model = fit_ridge_gcv(x, y, grid)
        assert np.max(np.abs(model.gcv_path[picks] - exact) / exact) <= 1e-8
        oracle = brute_force_gcv(x, y, grid[picks])
        s2max = np.linalg.norm(scaled(x), 2) ** 2
        bound = 100 * np.finfo(np.longdouble).eps * (1.0 + s2max / grid[picks])
        assert np.all(np.abs(oracle - exact) / exact <= bound)

    @pytest.mark.parametrize(
        ("n", "k", "sigma"), [(20, 60, 0.0), (40, 6, 1e-3)], ids=["wide-noisefree", "tall"]
    )
    def test_gcv_path_matches_exact_shrink_form(self, n, k, sigma):
        # Rebuild the floats fit_ridge_gcv works from: s2, c = u^T y_c and
        # r0 = y_c - u c, where for k <= n u = xs v / s is never formed and
        # c, r0 come from the kept eigenpairs (s2, v) of xs^T xs. From
        # exactly these floats, rss(lam) = |r0|^2 + sum (lam / (s2 + lam) *
        # c)^2 and tr(I - H) = (n - m) + sum lam / (s2 + lam) (m = len(s2))
        # are evaluated in rational arithmetic, so the only error left is the
        # rounding of the float operations: at most n unit roundoffs in
        # |r0|^2 (a dot product) and about 30 more in the terms, the sums
        # over at most 64 of them, the trace squared and the quotient.
        # Measured here: 10 and 7 units. Writing the shrink factor as 1 - s2 /
        # (s2 + lam) instead cancels where s2 >> lam and is off by about
        # eps * s2 / lam relative, far outside this bound.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((n, k))
        y = x @ rng.standard_normal(k) + sigma * rng.standard_normal(n)
        grid = default_ridge_grid()
        model = fit_ridge_gcv(x, y, grid)
        xs = scaled(x)
        yc = y - y.mean()
        if k > n:
            s2, u = np.linalg.eigh(xs @ xs.T)
            s2 = np.clip(s2, 0.0, None)
            c = u.T @ yc
            r0 = yc - u @ c
        else:
            s2, v = np.linalg.eigh(xs.T @ xs)
            live = s2 > k * np.finfo(float).eps * s2[-1]
            s2, v = s2[live], v[:, live]
            d = v.T @ (xs.T @ yc)
            c = d / np.sqrt(s2)
            r0 = yc - xs @ (v @ (d / s2))
        r0sq = sum(Fraction(v) ** 2 for v in r0)
        exact = []
        for lam in map(Fraction, grid):
            shrink = [lam / (Fraction(v) + lam) for v in s2]
            rss = r0sq + sum((h * Fraction(cj)) ** 2 for h, cj in zip(shrink, c))
            trace = (n - s2.size) + sum(shrink)
            exact.append(float(n * rss / trace**2))
        rel = np.abs(model.gcv_path - exact) / np.array(exact)
        assert np.max(rel) <= (n + 30) * np.finfo(float).eps / 2

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("grading", [1e3, 1e5], ids=["graded1e3", "graded1e5"])
    def test_ill_conditioned_tall_design_matches_thin_svd(self, grading, seed):
        # Singular values graded geometrically over `grading` (before
        # centring and scaling). The reference is the thin-SVD path, whose
        # c = u^T yc and r0 = yc - u c are backward stable. The Gram path
        # splits yc between c and r0 to O(k eps s_max^2 / s^2) relative (the
        # inline comment), so per grid point both agree to C k eps (s_max /
        # s_min)^2 with the scaled design's own extreme singular values;
        # C = 10 was fixed before the first run.
        rng = np.random.default_rng(seed)
        n, k = 200, 60
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        x = (u * np.geomspace(1.0, 1.0 / grading, k)) @ v.T
        y = x @ rng.standard_normal(k) + 0.1 * rng.standard_normal(n)
        grid = default_ridge_grid()
        model = fit_ridge_gcv(x, y, grid)
        xs = scaled(x)
        yc = y - y.mean()
        us, s, _ = np.linalg.svd(xs, full_matrices=False)
        c = us.T @ yc
        r0 = yc - us @ c
        shrink = grid[:, None] / (s**2 + grid[:, None])
        rss = r0 @ r0 + np.sum((shrink * c) ** 2, axis=1)
        reference = n * rss / ((n - k) + shrink.sum(axis=1)) ** 2
        rel = np.abs(model.gcv_path - reference) / reference
        assert np.max(rel) <= 10 * k * np.finfo(float).eps * (s[0] / s[-1]) ** 2
        ties = np.nonzero(reference == reference.min())[0]
        assert model.lambda_star == grid[ties[np.argmax(grid[ties])]]

    def test_round_off_column_is_not_scaled_up(self):
        # A column of round-off (1e-32 beside unit features) is constant
        # to the design's precision. A held-out round-off value of 1e-17
        # must leave the predictions as they are with 0 there; scaled to
        # unit variance it would weigh 1e-17 / 1e-32. One scale for all
        # columns keeps it at its own size.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        x[:, 2] = 1e-32 * rng.standard_normal(30)
        y = x @ np.array([1.0, -2.0, 0.0, 0.5]) + 0.1 * rng.standard_normal(30)
        model = fit_ridge_gcv(x, y)
        test = rng.standard_normal((8, 4))
        test[:, 2] = 0.0
        clean = predict(model, test)
        test[:, 2] = 1e-17
        np.testing.assert_array_equal(predict(model, test), clean)

    def test_ties_break_toward_larger_lambda(self):
        # A zero target makes GCV identically zero across the grid.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 2))
        grid = np.array([0.1, 1.0, 10.0])
        model = fit_ridge_gcv(x, np.zeros(12), grid)
        assert model.lambda_star == 10.0

    def test_selected_lambda_in_grid(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((25, 4))
        y = x @ rng.standard_normal(4) + 0.1 * rng.standard_normal(25)
        grid = default_ridge_grid()
        model = fit_ridge_gcv(x, y, grid)
        assert model.lambda_star in grid

    @pytest.mark.parametrize("n, k", [(25, 4), (10, 30)])
    def test_input_untouched_unless_given_up(self, n, k):
        # By default the caller's rows are left as they are; given up, they
        # are centred in place, and the model is the same bit for bit.
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((n, k)), rng.standard_normal(n)
        kept = x.copy()
        model = fit_ridge_gcv(x, y)
        assert x.tobytes() == kept.tobytes()
        given = fit_ridge_gcv(x, y, overwrite_features=True)
        assert x.tobytes() != kept.tobytes()
        for field in dataclasses.fields(RidgeModel):
            a, b = getattr(model, field.name), getattr(given, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        kept.flags.writeable = False  # a read-only design is copied either way
        fit_ridge_gcv(kept, y, overwrite_features=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((10, 2)), rng.standard_normal(10)
        with pytest.raises(ValueError, match="finite"):
            fit_ridge_gcv(x, y, grid=[bad])
        with pytest.raises(ValueError, match="finite"):
            fit_ridge_gcv(x, y, grid=[1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            PipelineSpec(ridge_grid=[1.0, bad])


class TestPredict:
    def test_zero_row_gives_intercept(self):
        model = RidgeModel(
            beta=np.array([1.5, -2.0]),
            intercept=3.25,
            lambda_star=1.0,
            feature_mean=np.zeros(2),
            feature_scale=np.float64(1.0),
        )
        np.testing.assert_allclose(predict(model, np.zeros((1, 2))), [3.25])

    def test_affine_in_features(self):
        # Second differences of an affine map vanish.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 3))
        model = fit_ridge_gcv(x, rng.standard_normal(10))
        a, b = rng.standard_normal((2, 4, 3))
        lhs = predict(model, a + b) + predict(model, np.zeros_like(a))
        rhs = predict(model, a) + predict(model, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        model = fit_ridge_gcv(rng.standard_normal((10, 3)), rng.standard_normal(10))
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((2, 4)))


class TestFoldBlocks:
    def test_partition(self):
        blocks = fold_blocks(10, 3, seed=0)
        sizes = [len(b) for b in blocks]
        assert sizes == [4, 3, 3]
        assert sorted(np.concatenate(blocks)) == list(range(10))

    def test_seed_determinism(self):
        b1 = fold_blocks(20, 4, seed=9)
        b2 = fold_blocks(20, 4, seed=9)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x, y)


class TestRunPipelineCV:
    def test_noise_free_geometric_is_exact(self):
        cfg = GenerativeConfig(f_kind="log", sigma=0.0, mu=1.0, seed=3)
        bundle, _ = sample_bundle(cfg)
        report = run_pipeline_cv(
            bundle, PipelineSpec(embedding_kind="geometric"), folds=10, seed=3
        )
        assert report.mean_mae < 1e-6 * bundle.labels.std()

    def test_constant_target_scores_zero(self):
        rng = np.random.default_rng(8)
        bundle = rand_bundle(rng, 12, 3)
        flat = CovarianceBundle(
            matrices=bundle.matrices, labels=np.full(12, 2.0), nominal_rank=3
        )
        report = run_pipeline_cv(
            flat, PipelineSpec(embedding_kind="euclidean"), folds=3, seed=0
        )
        assert report.mean_mae <= 1e-10

    def test_repeat_invocation_bit_identical(self):
        rng = np.random.default_rng(9)
        bundle = rand_bundle(rng, 15, 3)
        spec = PipelineSpec(embedding_kind="geometric")
        r1 = run_pipeline_cv(bundle, spec, folds=5, seed=7)
        r2 = run_pipeline_cv(bundle, spec, folds=5, seed=7)
        np.testing.assert_array_equal(r1.per_fold_mae, r2.per_fold_mae)
        np.testing.assert_array_equal(r1.per_fold_lambda, r2.per_fold_lambda)
        assert r1.mean_mae == r2.mean_mae

    def test_mean_is_exact_average(self):
        rng = np.random.default_rng(10)
        bundle = rand_bundle(rng, 12, 3)
        report = run_pipeline_cv(
            bundle, PipelineSpec(embedding_kind="euclidean"), folds=4, seed=1
        )
        assert report.mean_mae == float(np.mean(report.per_fold_mae))

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(11)
        bundle = rand_bundle(rng, 5, 3)
        with pytest.raises(ValueError):
            run_pipeline_cv(bundle, PipelineSpec(embedding_kind="euclidean"), 6, 0)

    def test_fold_error_keeps_its_diagnostics(self):
        rng = np.random.default_rng(12)
        bundle = rand_bundle(rng, 12, 3)
        mats = list(bundle.matrices)
        mats[5] = np.diag([1.0, 1.0, 0.0])
        bad = CovarianceBundle(matrices=mats, labels=bundle.labels, nominal_rank=3)
        with pytest.raises(SingularMatrix) as info:
            run_pipeline_cv(bad, PipelineSpec(embedding_kind="geometric"), 3, 0)
        assert str(info.value).startswith("fold ")
        assert info.value.smallest_eigenvalue is not None

    def test_round_off_features_do_not_blow_up_a_fold(self):
        # mu = 0 leaves all covariances diagonal, so most Wasserstein
        # features are round-off (about 1e-32 in training). A held-out
        # round-off value standardized by such a column's spread gave a
        # fold MAE of 1.2e12 * std(y). Bound fixed beforehand: every fold's
        # MAE below std(y), the error of predicting the mean.
        bundle, _ = sample_bundle(GenerativeConfig(mu=0.0, sigma=0.0, seed=2))
        spec = PipelineSpec(filter_kind="identity", embedding_kind="wasserstein")
        report = run_pipeline_cv(bundle, spec, folds=10, seed=2)
        assert np.all(report.per_fold_mae / np.std(bundle.labels) < 1)

    @staticmethod
    def one_above(bad):
        """12 samples of rank 3 in 4 dimensions, each in its own subspace,
        but sample ``bad`` of rank 4."""
        rng = np.random.default_rng(0)
        mats = [rand_psd_rank(rng, 4, 4 if i == bad else 3) for i in range(12)]
        return CovarianceBundle(matrices=mats, labels=rng.standard_normal(12), nominal_rank=4)

    def test_lower_rank_samples_run(self):
        # Sample 5 has rank 3 among rank-4 samples, in fold 0's training
        # split and in fold 1's held-out block at this seed.
        rng = np.random.default_rng(0)
        mats = list(rand_bundle(rng, 12, 4).matrices)
        mats[5] = np.diag([3.0, 2.0, 1.0, 0.0])
        bundle = CovarianceBundle(matrices=mats, labels=rng.standard_normal(12), nominal_rank=4)
        for filter_kind, rank in (("identity", None), ("unsupervised", 4)):
            spec = PipelineSpec(filter_kind=filter_kind, filter_rank=rank,
                                embedding_kind="wasserstein")
            assert np.all(np.isfinite(run_pipeline_cv(bundle, spec, 3, 0).per_fold_mae))

    def test_shared_rank_error_names_the_bundle_sample(self):
        # The whole bundle is factorized once, at width 4 for sample 7. Fold 0
        # holds sample 7 out, as its held-out block's sample 2, and fits a
        # rank-3 reference on its training split, whose factors are rank 3.
        with pytest.raises(RankMismatch, match=r"^fold 0: sample 7: numerical rank 4 exceeds "
                                               r"the reference's 3$") as info:
            run_pipeline_cv(self.one_above(7), PipelineSpec(embedding_kind="wasserstein"), 3, 0)
        assert info.value.sample == 7

    @pytest.mark.parametrize("bad, fold", [(5, 1), (7, 0)], ids=["train", "held-out"])
    def test_per_fold_rank_error_names_the_bundle_sample(self, bad, fold):
        # The unsupervised filter is fit on each training split, and the
        # bundle factorized with it. Sample 5 is in fold 0's training split,
        # which runs with it; sample 7 is in fold 0's held-out block. Each is
        # refused in the fold that holds it out (as the block's sample 0 or
        # 2), where the reference has rank 3.
        spec = PipelineSpec(
            filter_kind="unsupervised", filter_rank=4, embedding_kind="wasserstein"
        )
        with pytest.raises(
            RankMismatch,
            match=rf"^fold {fold}: sample {bad}: numerical rank 4 exceeds the reference's 3$",
        ) as info:
            run_pipeline_cv(self.one_above(bad), spec, 3, 0)
        assert info.value.sample == bad

    def test_mixed_rank_generator_bundle_runs(self):
        # Per-subject mixing at p=20, mu=1 leaves 4 subjects of rank 19.
        # Not an exact case, so the bound is loose: mae/std(y) < 0.2.
        bundle, _ = sample_bundle(GenerativeConfig(p=20, mu=1, sigma_mix=0.01, n=200, seed=0))
        assert np.bincount(numerical_rank(bundle.matrices)).tolist()[19:] == [4, 196]
        report = run_pipeline_cv(bundle, PipelineSpec(embedding_kind="wasserstein"), 10, 0)
        assert report.mean_mae / np.std(bundle.labels) < 0.2


def state_digest(state):
    h = hashlib.sha256()
    h.update(state.filt.w.tobytes())
    if state.embedding.reference is not None:
        h.update(state.embedding.reference.tobytes())
    h.update(state.model.beta.tobytes())
    h.update(state.model.feature_mean.tobytes())
    h.update(state.model.feature_scale.tobytes())
    h.update(np.float64(state.model.lambda_star).tobytes())
    h.update(np.float64(state.model.intercept).tobytes())
    return h.hexdigest()


def mne_spec(kind, p):
    lead = Leadfield(np.random.default_rng(99).standard_normal((p, 2)))
    return PipelineSpec(filter_kind="mne", leadfield=lead, embedding_kind=kind)


class TestNoLeakage:
    @pytest.mark.parametrize("kind", ["geometric", "wasserstein", "logdiag", "euclidean"])
    @pytest.mark.parametrize("filter_kind", ["identity", "mne"])
    def test_held_out_fold_never_touches_fitted_state(self, filter_kind, kind):
        rng = np.random.default_rng(12)
        bundle = rand_bundle(rng, 12, 3)
        if filter_kind == "mne":
            spec = mne_spec(kind, 3)
        else:
            spec = PipelineSpec(embedding_kind=kind)
        states = run_pipeline_cv(bundle, spec, folds=3, seed=5).states

        blocks = fold_blocks(12, 3, seed=5)
        tampered_mats = list(bundle.matrices)
        for i in blocks[0]:
            tampered_mats[i] = rand_bundle(rng, 1, 3).matrices[0]
        tampered_labels = bundle.labels.copy()
        tampered_labels[blocks[0]] = rng.standard_normal(len(blocks[0]))
        tampered = CovarianceBundle(
            matrices=tampered_mats, labels=tampered_labels, nominal_rank=3
        )
        states2 = run_pipeline_cv(tampered, spec, folds=3, seed=5).states

        # Fold 0 trains on blocks 1 and 2 only, so its fitted state
        # must be unchanged when block 0 is replaced.
        assert state_digest(states[0]) == state_digest(states2[0])
        assert state_digest(states[1]) != state_digest(states2[1])


def cv_from_scratch(bundle, spec, folds, seed):
    """Each fold fit on its own from the public pieces: per-fold MAE, lambda
    and state digest."""
    fit_filter = {
        "identity": lambda m, y: identity_filter(m.shape[-1]),
        "unsupervised": lambda m, y: fit_unsupervised(m, spec.filter_rank),
        "supervised": lambda m, y: fit_supervised(m, y, spec.filter_rank),
        "mne": lambda m, y: fit_mne(spec.leadfield, spec.mne_lambda),
    }[spec.filter_kind]
    mats, labels = bundle.matrices, bundle.labels
    maes, lams, digests = [], [], []
    for test_idx in fold_blocks(bundle.n, folds, seed):
        train_idx = np.setdiff1d(np.arange(bundle.n), test_idx)
        filt = fit_filter(mats[train_idx], labels[train_idx])
        emb, rows = fit_embedding(apply(filt, mats[train_idx]), spec.embedding_kind)
        model = fit_ridge_gcv(rows, labels[train_idx], spec.ridge_grid)
        yhat = predict(model, embed(emb, apply(filt, mats[test_idx])))
        maes.append(float(np.mean(np.abs(labels[test_idx] - yhat))))
        lams.append(model.lambda_star)
        digests.append(state_digest(FoldState(filt, emb, model)))
    return np.array(maes), np.array(lams), digests


class TestSharedPerSampleWork:
    """Cross-validation does the per-sample work once for fixed filters;
    every fold must still be exactly what fitting it from scratch gives."""

    @pytest.mark.parametrize("kind", ["geometric", "wasserstein", "logdiag", "euclidean"])
    @pytest.mark.parametrize("filter_kind", ["identity", "unsupervised", "supervised", "mne"])
    def test_folds_equal_fits_from_scratch(self, filter_kind, kind):
        cfg = GenerativeConfig(p=4, q=2, n=40, mu=0.5, sigma=0.05, seed=21)
        bundle, _ = sample_bundle(cfg)
        if filter_kind == "mne":
            spec = mne_spec(kind, 4)
        else:
            rank = 3 if filter_kind in ("unsupervised", "supervised") else None
            spec = PipelineSpec(filter_kind=filter_kind, filter_rank=rank, embedding_kind=kind)
        report = run_pipeline_cv(bundle, spec, folds=4, seed=2)
        maes, lams, digests = cv_from_scratch(bundle, spec, folds=4, seed=2)
        assert np.array_equal(report.per_fold_mae, maes)
        assert np.array_equal(report.per_fold_lambda, lams)
        assert [state_digest(s) for s in report.states] == digests


@pytest.mark.parametrize("filter_kind", ["unsupervised", "supervised"])
def test_cv_builds_no_bundle(filter_kind, monkeypatch):
    # The filter of each fold is fit on the training rows of the bundle's
    # arrays: no fold validates and symmetrizes a copy of its split.
    bundle, _ = sample_bundle(GenerativeConfig(p=4, q=2, n=40, mu=0.5, seed=21))
    built, post_init = [], CovarianceBundle.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CovarianceBundle, "__post_init__", counted)
    spec = PipelineSpec(filter_kind=filter_kind, filter_rank=3, embedding_kind="logdiag")
    run_pipeline_cv(bundle, spec, folds=4, seed=2)
    assert len(built) == 0


@pytest.mark.parametrize("kind", ["geometric", "wasserstein"])
def test_identity_projection_keeps_one_copy(kind):
    # Geometric samples are the covariances themselves, with no copy under
    # the identity filter; Wasserstein samples are their factors alone.
    rng = np.random.default_rng(3)
    mats = np.stack([rand_psd_rank(rng, 4, 3) for _ in range(12)])
    bundle = CovarianceBundle(mats, rng.standard_normal(12), nominal_rank=3)
    samples = project(identity_filter(4), bundle.matrices, kind)
    assert [f.name for f in dataclasses.fields(samples)] == ["kind", "data", "index"]
    if kind == "geometric":
        assert samples.data is bundle.matrices
    else:
        assert samples.data.shape == (12, 4, 3)


class TestPipelineInvariances:
    def test_geometric_mae_invariant_under_congruence(self):
        # Exact-fit regime: the tangent features rotate by a fixed
        # orthogonal map, so per-fold errors stay at the noise floor.
        cfg = GenerativeConfig(f_kind="log", sigma=0.0, mu=0.5, seed=4, n=60)
        bundle, _ = sample_bundle(cfg)
        rng = np.random.default_rng(13)
        w = rand_invertible(rng, 5)
        conj = CovarianceBundle(
            matrices=w.T @ bundle.matrices @ w,
            labels=bundle.labels,
            nominal_rank=5,
        )
        spec = PipelineSpec(embedding_kind="geometric")
        r1 = run_pipeline_cv(bundle, spec, folds=5, seed=2)
        r2 = run_pipeline_cv(conj, spec, folds=5, seed=2)
        np.testing.assert_allclose(r1.per_fold_mae, r2.per_fold_mae, atol=1e-6)

    def test_wasserstein_mae_invariant_under_orthogonal_congruence(self):
        cfg = GenerativeConfig(
            f_kind="sqrt", sigma=0.0, mu=0.5, orthogonal_a=True, seed=5, n=60
        )
        bundle, _ = sample_bundle(cfg)
        rng = np.random.default_rng(14)
        q = rand_orthogonal(rng, 5)
        conj = CovarianceBundle(
            matrices=q.T @ bundle.matrices @ q,
            labels=bundle.labels,
            nominal_rank=5,
        )
        spec = PipelineSpec(embedding_kind="wasserstein")
        r1 = run_pipeline_cv(bundle, spec, folds=5, seed=2)
        r2 = run_pipeline_cv(conj, spec, folds=5, seed=2)
        np.testing.assert_allclose(r1.per_fold_mae, r2.per_fold_mae, atol=1e-6)

    def test_full_rank_filter_does_not_change_geometric_mae(self):
        cfg = GenerativeConfig(f_kind="log", sigma=0.0, mu=0.5, seed=6, n=60)
        bundle, _ = sample_bundle(cfg)
        spec = PipelineSpec(embedding_kind="geometric")
        r_plain = run_pipeline_cv(bundle, spec, folds=5, seed=1)
        rng = np.random.default_rng(15)
        from spdreg import SpatialFilter, apply

        w = rand_invertible(rng, 5)
        filt = SpatialFilter(w=w, kind="identity", eigenvalues=np.empty(0))
        filtered = CovarianceBundle(apply(filt, bundle.matrices), bundle.labels, nominal_rank=5)
        r_filtered = run_pipeline_cv(filtered, spec, folds=5, seed=1)
        np.testing.assert_allclose(
            r_plain.per_fold_mae, r_filtered.per_fold_mae, atol=1e-6
        )


class TestResultsCSV:
    def test_schema_and_determinism(self, tmp_path):
        rng = np.random.default_rng(16)
        bundle = rand_bundle(rng, 12, 3)
        spec = PipelineSpec(embedding_kind="euclidean")
        report = run_pipeline_cv(bundle, spec, folds=3, seed=0)
        rows = results_rows(spec, report, rank=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, RESULTS_HEADER, rows)
        write_csv(p2, RESULTS_HEADER, rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "method,filter,embedding,rank,fold,lambda,mae,seed"
        assert len(lines) == 4
        assert lines[1].startswith("identity+euclidean,identity,euclidean,3,0,")


@pytest.mark.parametrize(
    "features, y, error, match",
    [(np.ones(5), np.ones(5), ValueError, "features must be 2-d"),
     (np.ones((2, 3, 1)), np.ones(2), ValueError, "features must be 2-d"),
     (np.eye(2), np.ones(2), ValueError, "at least 3 samples"),
     (np.eye(4), np.ones(3), DimensionMismatch, "expected 4 targets"),
     (np.eye(4), np.ones((4, 1)), DimensionMismatch, "expected 4 targets")],
    ids=["features-1d", "features-3d", "n-2", "y-short", "y-2d"],
)
def test_fit_ridge_gcv_rejects_bad_shapes(features, y, error, match):
    with pytest.raises(error, match=match):
        fit_ridge_gcv(features, y)


@pytest.mark.parametrize(
    "fields, error, match",
    [({"filter_kind": "pca"}, ValueError, "unknown filter kind"),
     ({"embedding_kind": "riemann"}, ValueError, "unknown embedding kind"),
     ({"ridge_grid": [1.0, np.nan]}, ValueError, "nonempty, finite and positive"),
     ({"ridge_grid": [1.0, 1.0]}, ValueError, "strictly increasing"),
     ({"filter_kind": "supervised"}, ValueError, "needs filter_rank >= 1"),
     ({"filter_kind": "unsupervised", "filter_rank": 0}, ValueError, "needs filter_rank >= 1"),
     ({"filter_kind": "mne"}, ConfigError, "needs a leadfield"),
     ({"mne_lambda": 0.0}, ValueError, "mne_lambda must be finite and positive"),
     ({"mne_lambda": np.nan}, ValueError, "mne_lambda must be finite and positive"),
     ({"mne_lambda": np.inf}, ValueError, "mne_lambda must be finite and positive")],
    ids=["filter-kind", "embedding-kind", "grid-nan", "grid-flat", "supervised-no-rank",
         "unsupervised-rank-0", "mne-no-leadfield", "mne-lambda-0", "mne-lambda-nan",
         "mne-lambda-inf"],
)
def test_pipeline_spec_rejections(fields, error, match):
    with pytest.raises(error, match=match):
        PipelineSpec(**fields)
