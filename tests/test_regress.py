import hashlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_bundle, rand_invertible, rand_orthogonal
from spdreg import (
    CovarianceBundle,
    DegenerateDesign,
    DimensionMismatch,
    GenerativeConfig,
    Leadfield,
    PipelineSpec,
    RankMismatch,
    RidgeModel,
    SingularMatrix,
    SymMat,
    apply,
    default_ridge_grid,
    embed,
    fit_embedding,
    fit_mne,
    fit_ridge_gcv,
    fit_supervised,
    fit_unsupervised,
    identity_filter,
    predict,
    run_pipeline_cv,
    sample_bundle,
)
from spdreg.regress import (
    RESULTS_HEADER,
    FoldState,
    cross_val_states,
    fold_blocks,
    project,
    results_rows,
    write_csv,
)


def brute_force_gcv(x, y, grid):
    """Reference GCV via explicit hat-matrix assembly per grid point, with
    fit_ridge_gcv's rule for constant columns."""
    mean, scale = x.mean(axis=0), x.std(axis=0)
    scale = np.where(scale <= len(x) * np.finfo(float).eps * np.max(np.abs(x)), 1.0, scale)
    xs = (x - mean) / scale
    yc = y - y.mean()
    n, k = xs.shape
    out = []
    for lam in grid:
        hat = xs @ np.linalg.solve(xs.T @ xs + lam * np.eye(k), xs.T)
        resid = yc - hat @ yc
        out.append(n * float(resid @ resid) / (n - np.trace(hat)) ** 2)
    return np.array(out)


class TestFitRidgeGCV:
    def test_recovers_noiseless_slope(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 1))
        y = 2.0 * x[:, 0]
        model = fit_ridge_gcv(x, y, grid=[1e-8])
        slope = model.beta[0] / model.feature_scale[0]
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

    def test_zero_variance_column_gets_unit_scale(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((15, 3))
        x[:, 1] = 4.0
        model = fit_ridge_gcv(x, rng.standard_normal(15))
        assert model.feature_scale[1] == 1.0

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
        if k <= n:
            # Measured: below 1e-15 with noise, 4.5e-9 and 2.3e-9 on the
            # noise-free rank-deficient cases, as a thin SVD gives: there
            # the gap is the oracle's own, which solves at condition
            # (s_max^2 + lam) / lam.
            assert np.max(rel) <= 1e-8
            return
        # Forward error when k > n. With s the singular values of the
        # standardized design xs, the fast path takes s^2 from eigh of the
        # Gram matrix xs xs^T, whose eigenvalues carry an absolute error of
        # O(eps * s_max^2) (Weyl). Each term lam / (s^2 + lam) and
        # c / (s^2 + lam) then moves by a relative O(eps * s_max^2 / lam).
        # The oracle solves xs^T xs + lam I, of condition (s_max^2 + lam) /
        # lam, so its forward error is of the same order. Both agree to
        # C * eps * (1 + s_max^2 / lam) per grid point; C = 100 covers the
        # dimension factors of the LAPACK error bounds at n <= 30.
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        s2max = np.linalg.norm(xs, 2) ** 2
        bound = 100 * np.finfo(float).eps * (1.0 + s2max / grid)
        assert np.all(rel <= bound)

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
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
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
        # standardization). The reference is the thin-SVD path, whose c =
        # u^T yc and r0 = yc - u c are backward stable. The Gram path splits
        # yc between c and r0 to O(k eps s_max^2 / s^2) relative (the inline
        # comment), so per grid point both agree to C k eps (s_max /
        # s_min)^2 with the standardized design's own extreme singular
        # values; C = 10 was fixed before the first run.
        rng = np.random.default_rng(seed)
        n, k = 200, 60
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        x = (u * np.geomspace(1.0, 1.0 / grading, k)) @ v.T
        y = x @ rng.standard_normal(k) + 0.1 * rng.standard_normal(n)
        grid = default_ridge_grid()
        model = fit_ridge_gcv(x, y, grid)
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
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
        # unit variance it would weigh 1e-17 / 1e-32.
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
        assert model.feature_scale[2] == 1.0

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
        model = fit_ridge_gcv(x, y)
        assert model.lambda_star in model.grid


class TestPredict:
    def test_zero_row_gives_intercept(self):
        model = RidgeModel(
            beta=np.array([1.5, -2.0]),
            intercept=3.25,
            lambda_star=1.0,
            feature_mean=np.zeros(2),
            feature_scale=np.ones(2),
            grid=np.array([1.0]),
            gcv_path=np.array([0.0]),
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
        mats[5] = SymMat(np.diag([1.0, 1.0, 0.0]))
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

    def test_shared_rank_error_names_the_bundle_sample(self):
        # At seed 0 sample 5 is in fold 0's training split, as its sample 3.
        rng = np.random.default_rng(0)
        bundle = rand_bundle(rng, 12, 4)
        mats = list(bundle.matrices)
        mats[5] = SymMat(np.diag([3.0, 2.0, 1.0, 0.0]))
        bad = CovarianceBundle(matrices=mats, labels=bundle.labels, nominal_rank=4)
        with pytest.raises(RankMismatch, match=r"^sample 5: numerical rank is 3, expected 4$"):
            run_pipeline_cv(bad, PipelineSpec(embedding_kind="wasserstein"), 3, 0)

    @pytest.mark.parametrize("bad", [5, 7], ids=["train", "held-out"])
    def test_per_fold_rank_error_names_the_bundle_sample(self, bad):
        # The unsupervised filter is fit on each training split, so the
        # samples are factorized inside fold 0: sample 5 as its training
        # split's sample 3, sample 7 as its held-out block's sample 2.
        rng = np.random.default_rng(0)
        bundle = rand_bundle(rng, 12, 4)
        mats = list(bundle.matrices)
        mats[bad] = SymMat(np.diag([3.0, 2.0, 1.0, 0.0]))
        bad_bundle = CovarianceBundle(matrices=mats, labels=bundle.labels, nominal_rank=4)
        spec = PipelineSpec(
            filter_kind="unsupervised", filter_rank=4, embedding_kind="wasserstein"
        )
        with pytest.raises(
            RankMismatch, match=rf"^fold 0: sample {bad}: numerical rank is 3, expected 4$"
        ) as info:
            run_pipeline_cv(bad_bundle, spec, 3, 0)
        assert info.value.sample == bad


def state_digest(state):
    h = hashlib.sha256()
    h.update(state.filt.w.tobytes())
    if state.embedding.reference is not None:
        h.update(state.embedding.reference.data.tobytes())
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
        _, states = cross_val_states(bundle, spec, folds=3, seed=5)

        blocks = fold_blocks(12, 3, seed=5)
        tampered_mats = list(bundle.matrices)
        for i in blocks[0]:
            tampered_mats[i] = rand_bundle(rng, 1, 3).matrices[0]
        tampered_labels = bundle.labels.copy()
        tampered_labels[blocks[0]] = rng.standard_normal(len(blocks[0]))
        tampered = CovarianceBundle(
            matrices=tampered_mats, labels=tampered_labels, nominal_rank=3
        )
        _, states2 = cross_val_states(tampered, spec, folds=3, seed=5)

        # Fold 0 trains on blocks 1 and 2 only, so its fitted state
        # must be unchanged when block 0 is replaced.
        assert state_digest(states[0]) == state_digest(states2[0])
        assert state_digest(states[1]) != state_digest(states2[1])


def cv_from_scratch(bundle, spec, folds, seed):
    """Each fold fit on its own from the public pieces: per-fold MAE, lambda
    and state digest."""
    fit_filter = {
        "identity": lambda b: identity_filter(b.dim),
        "unsupervised": lambda b: fit_unsupervised(b, spec.filter_rank),
        "supervised": lambda b: fit_supervised(b, spec.filter_rank),
        "mne": lambda b: fit_mne(spec.leadfield, spec.mne_lambda),
    }[spec.filter_kind]
    maes, lams, digests = [], [], []
    for test_idx in fold_blocks(bundle.n, folds, seed):
        train = bundle.subset(np.setdiff1d(np.arange(bundle.n), test_idx))
        test = bundle.subset(test_idx)
        filt = fit_filter(train)
        projected = apply(filt, train)
        emb, rows = fit_embedding(
            projected.matrices, spec.embedding_kind, rank=projected.nominal_rank
        )
        model = fit_ridge_gcv(rows, projected.labels, spec.ridge_grid)
        yhat = predict(model, embed(emb, apply(filt, test).matrices))
        maes.append(float(np.mean(np.abs(test.labels - yhat))))
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
        report, states = cross_val_states(bundle, spec, folds=4, seed=2)
        maes, lams, digests = cv_from_scratch(bundle, spec, folds=4, seed=2)
        assert np.array_equal(report.per_fold_mae, maes)
        assert np.array_equal(report.per_fold_lambda, lams)
        assert [state_digest(s) for s in states] == digests


@pytest.mark.parametrize("kind", ["geometric", "wasserstein"])
def test_identity_projection_keeps_one_copy(kind):
    # The kinds whose reference fit reads the covariances keep them in
    # Samples.stack: under the identity filter that is the bundle's array.
    bundle, _ = sample_bundle(GenerativeConfig(p=4, q=2, n=12, seed=3))
    projected = project(identity_filter(4), bundle, kind, 4)
    assert projected.samples.stack is bundle.matrices


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
        filt = SpatialFilter(w=w, kind="identity", rank_out=5, eigenvalues=np.empty(0))
        r_filtered = run_pipeline_cv(apply(filt, bundle), spec, folds=5, seed=1)
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
