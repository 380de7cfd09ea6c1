"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (pytest's own PASSED/FAILED markers serve the same
purpose without ``-s``).
"""

import os
import time

import numpy as np
import pytest

from conftest import rand_invertible, rand_orthogonal, rand_psd_rank, rand_spd
from spdreg import (
    CovarianceBundle,
    GenerativeConfig,
    PipelineSpec,
    default_ridge_grid,
    dist_geometric,
    dist_wasserstein,
    fit_ridge_gcv,
    fit_supervised,
    mean_geometric,
    mean_wasserstein,
    no_affine_invariance_witness,
    run_pipeline_cv,
    sample_bundle,
    sym_func,
)
from spdreg.cli import main
from spdreg.manifold import WITNESS_EPSILONS
from spdreg.symmat import SymMat


def _report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def _consistency_mae(f_kind, embedding, orthogonal_a=False, seed=29):
    cfg = GenerativeConfig(
        p=5, q=2, n=100, mu=1.0, sigma=0.0, sigma_mix=0.0,
        f_kind=f_kind, orthogonal_a=orthogonal_a, seed=seed,
    )
    bundle, _ = sample_bundle(cfg)
    spec = PipelineSpec(filter_kind="identity", embedding_kind=embedding)
    report = run_pipeline_cv(bundle, spec, folds=10, seed=seed)
    return report.mean_mae, float(bundle.labels.std())


def test_c01_geometric_exact_recovery_log_link():
    start = time.monotonic()
    mae, std = _consistency_mae("log", "geometric")
    elapsed = time.monotonic() - start
    assert mae < 1e-6 * std
    assert elapsed < 10.0
    _report(1, "log-link geometric pipeline is exact", f"mae/std={mae / std:.2e}, {elapsed:.2f}s")


def test_c02_euclidean_exact_recovery_identity_link():
    mae, std = _consistency_mae("identity", "euclidean")
    assert mae < 1e-6 * std
    _report(2, "identity-link euclidean pipeline is exact", f"mae/std={mae / std:.2e}")


def test_c03_wasserstein_exact_recovery_sqrt_link():
    mae, std = _consistency_mae("sqrt", "wasserstein", orthogonal_a=True)
    assert mae < 1e-6 * std
    _report(3, "sqrt-link wasserstein pipeline is exact", f"mae/std={mae / std:.2e}")


def test_c04_mixing_strength_sweep_ordering():
    start = time.monotonic()
    mus = [0.0, 0.25, 0.5, 0.75, 1.0]

    geo_maes = []
    std = None
    for mu in mus:
        cfg = GenerativeConfig(mu=mu, sigma=0.0, f_kind="log", seed=17)
        bundle, _ = sample_bundle(cfg)
        std = float(bundle.labels.std())  # labels do not depend on mu
        report = run_pipeline_cv(
            bundle, PipelineSpec(embedding_kind="geometric"), folds=10, seed=17
        )
        geo_maes.append(report.mean_mae)
    spread = max(geo_maes) - min(geo_maes)
    assert spread < 1e-6 * std

    logdiag_at = {0.0: [], 1.0: []}
    for seed in range(10):
        for mu in (0.0, 1.0):
            cfg = GenerativeConfig(mu=mu, sigma=0.0, f_kind="log", seed=seed)
            bundle, _ = sample_bundle(cfg)
            report = run_pipeline_cv(
                bundle, PipelineSpec(embedding_kind="logdiag"), folds=10, seed=seed
            )
            logdiag_at[mu].append(report.mean_mae)
    med0 = float(np.median(logdiag_at[0.0]))
    med1 = float(np.median(logdiag_at[1.0]))
    assert med1 > med0

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        4,
        "geometric flat across mixing strength, log-diag degrades",
        f"geo spread/std={spread / std:.2e}, logdiag medians {med0:.2e} -> {med1:.2e}, {elapsed:.1f}s",
    )


def test_c05_distance_invariance_suite():
    rng = np.random.default_rng(101)
    worst_geo = 0.0
    for _ in range(110):
        p = int(rng.integers(2, 7))
        s, t = rand_spd(rng, p), rand_spd(rng, p)
        w = rand_invertible(rng, p)
        d = dist_geometric(s, t)
        dw = dist_geometric(w.T @ s @ w, w.T @ t @ w)
        worst_geo = max(worst_geo, abs(dw - d) / (1.0 + d))
    assert worst_geo <= 1e-8

    worst_wass = 0.0
    for i in range(110):
        p = int(rng.integers(2, 7))
        if i % 2 == 0:
            s, t = rand_spd(rng, p), rand_spd(rng, p)
        else:
            r = int(rng.integers(1, p))
            s, t = rand_psd_rank(rng, p, r), rand_psd_rank(rng, p, r)
        q = rand_orthogonal(rng, p)
        d = dist_wasserstein(s, t)
        dq = dist_wasserstein(q.T @ s @ q, q.T @ t @ q)
        worst_wass = max(worst_wass, abs(dq - d) / (1.0 + d))
    assert worst_wass <= 1e-8

    _, _, dists = no_affine_invariance_witness()
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2

    _report(
        5,
        "distance invariances and rank-deficiency witness",
        f"worst geo err {worst_geo:.1e}, worst wass err {worst_wass:.1e}, "
        f"witness tail {dists[-1]:.1e}",
    )


def test_c06_mean_suite():
    rng = np.random.default_rng(202)

    # stationarity of the Karcher mean, recomputed independently
    mats = [rand_spd(rng, 5) for _ in range(25)]
    m = mean_geometric(mats)
    isq = sym_func(m, "inv_sqrt")
    grad = np.zeros((5, 5))
    for c in mats:
        grad += sym_func(isq @ c @ isq, "log")
    gnorm = float(np.linalg.norm(grad))
    assert gnorm <= 1e-9 * 5

    # affine equivariance of the geometric mean
    w = rand_invertible(rng, 5)
    direct = mean_geometric([SymMat(w.T @ c @ w) for c in mats])
    pushed = w.T @ m @ w
    geo_equiv = np.linalg.norm(direct - pushed) / np.linalg.norm(pushed)
    assert geo_equiv <= 1e-6

    # orthogonal equivariance of the Wasserstein mean
    q = rand_orthogonal(rng, 5)
    mw = mean_wasserstein(mats)
    direct_w = mean_wasserstein([SymMat(q.T @ c @ q) for c in mats])
    pushed_w = q.T @ mw @ q
    wass_equiv = np.linalg.norm(direct_w - pushed_w) / np.linalg.norm(pushed_w)
    assert wass_equiv <= 1e-6

    # scalar closed forms
    geo_scalar = mean_geometric([[[4.0]], [[1.0]]])[0, 0]
    assert abs(geo_scalar - 2.0) <= 1e-10
    wass_scalar = mean_wasserstein([[[4.0]], [[16.0]]])[0, 0]
    assert abs(wass_scalar - 9.0) <= 1e-10

    _report(
        6,
        "mean stationarity, equivariance, scalar closed forms",
        f"gradient {gnorm:.1e}, equivariance {geo_equiv:.1e}/{wass_equiv:.1e}",
    )


def test_c07_supervised_filter_random_search_oracle():
    rng = np.random.default_rng(303)
    worst_margin = np.inf
    worst_resid = 0.0
    for trial in range(3):
        mats = [rand_spd(rng, 4) for _ in range(30)]
        bundle = CovarianceBundle(
            matrices=mats, labels=rng.standard_normal(30), nominal_rank=4
        )
        filt = fit_supervised(bundle.matrices, bundle.labels, 4)
        y = bundle.labels
        yt = (y - y.mean()) / y.std()
        stack = np.stack(mats)
        cy = np.einsum("i,ijk->jk", yt, stack) / bundle.n
        cbar = stack.mean(axis=0)

        w1 = filt.w[:, 0]
        ours = (w1 @ cy @ w1) / (w1 @ cbar @ w1)
        cand = rng.standard_normal((10_000, 4))
        norms = np.sqrt(np.einsum("ij,jk,ik->i", cand, cbar, cand))
        cand /= norms[:, None]
        best = float(np.max(np.einsum("ij,jk,ik->i", cand, cy, cand)))
        worst_margin = min(worst_margin, ours - best)
        assert ours >= best - 1e-3

        for j in range(4):
            wj, lam = filt.w[:, j], filt.eigenvalues[j]
            resid = np.linalg.norm(cy @ wj - lam * cbar @ wj)
            worst_resid = max(worst_resid, resid / np.linalg.norm(cy))
            assert resid <= 1e-8 * np.linalg.norm(cy)

    _report(
        7,
        "supervised filter beats 10k-draw random search",
        f"worst margin {worst_margin:+.1e}, worst residual {worst_resid:.1e}",
    )


def test_c08_gcv_fast_path_matches_hat_matrix():
    rng = np.random.default_rng(404)
    x = rng.standard_normal((20, 6))
    y = x @ rng.standard_normal(6) + 0.3 * rng.standard_normal(20)
    grid = default_ridge_grid()
    assert grid.size == 100
    model = fit_ridge_gcv(x, y, grid)

    xs = x - x.mean(axis=0)
    xs /= np.linalg.norm(xs) / np.sqrt(xs.size)
    yc = y - y.mean()
    worst = 0.0
    for i, lam in enumerate(grid):
        hat = xs @ np.linalg.solve(xs.T @ xs + lam * np.eye(6), xs.T)
        resid = yc - hat @ yc
        reference = 20 * float(resid @ resid) / (20 - np.trace(hat)) ** 2
        worst = max(worst, abs(model.gcv_path[i] - reference) / reference)
    assert worst <= 1e-8
    _report(8, "GCV fast path equals hat-matrix oracle on all 100 points", f"worst rel err {worst:.1e}")


def test_c09_cli_byte_determinism(tmp_path):
    def run(*argv):
        return main([str(a) for a in argv])

    paths = {}

    def twice(name, *argv):
        outs = []
        for tag in ("1", "2"):
            out = tmp_path / f"{name}{tag}"
            assert run(*argv, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} output differs between runs"
        paths[name] = tmp_path / f"{name}1"

    twice("bundle", "simulate", "--seed", 11)
    bundle = paths["bundle"]
    twice("model", "fit", "--bundle", bundle, "--embedding", "geometric")
    twice("pred", "predict", "--model", paths["model"], "--bundle", bundle)
    twice("results", "eval", "--bundle", bundle, "--seed", 4)
    twice(
        "sweep", "sweep", "--n", 20, "--axis", "sigma", "--values", "0,0.1",
        "--folds", 4, "--repeats", 1, "--jobs", 2,
    )
    twice("mean", "mean", "--bundle", bundle, "--metric", "geometric")
    twice("feat", "embed", "--bundle", bundle, "--embedding", "wasserstein")
    twice("witness", "witness")
    _report(9, "all CLI commands byte-identical across repeat runs", "8 commands")


def test_c10_preset_sweep_budget(tmp_path):
    def run(*argv):
        return main([str(a) for a in argv])

    jobs = os.cpu_count() or 1
    start = time.monotonic()
    for preset in ("fig3-left", "fig3-middle", "fig3-right"):
        out = tmp_path / f"{preset}.csv"
        code = run(
            "sweep", "--preset", preset, "--repeats", 3, "--jobs", jobs, "--out", out
        )
        assert code == 0
        # no cell may record an error; the pipeline's references are
        # closed-form means, so this guards those fits, not a descent loop
        lines = out.read_text().splitlines()
        err = lines[0].split(",").index("error")
        failed = [ln for ln in lines[1:] if ln.split(",")[err]]
        assert not failed, f"{preset}: {failed[0]}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0

    # spot-check the noise sweep: the geometric pipeline's error vanishes
    # in the noise-free limit and is dominated by the noisiest setting
    rows = (tmp_path / "fig3-left.csv").read_text().splitlines()
    header = rows[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    geo = [r.split(",") for r in rows[1:] if r.split(",")[idx["method"]] == "geometric"]
    assert geo and all(r[idx["error"]] == "" for r in geo)
    by_sigma = {}
    for r in geo:
        by_sigma.setdefault(float(r[idx["value"]]), []).append(float(r[idx["mae"]]))
    sigmas = sorted(by_sigma)
    assert np.mean(by_sigma[sigmas[0]]) < 1e-6
    assert np.mean(by_sigma[sigmas[0]]) < np.mean(by_sigma[sigmas[-1]])

    # spot-check the mixing sweep: geometric error is flat across mu
    rows = (tmp_path / "fig3-middle.csv").read_text().splitlines()
    geo = [r.split(",") for r in rows[1:] if r.split(",")[idx["method"]] == "geometric"]
    maes = [float(r[idx["mae"]]) for r in geo]
    assert max(maes) - min(maes) < 1e-6
    per_fold = {}
    for r in geo:
        per_fold.setdefault((r[idx["repeat"]], r[idx["fold"]]), []).append(float(r[idx["mae"]]))
    assert all(len(v) == 5 and max(v) - min(v) <= 1e-5 * min(v) for v in per_fold.values())

    _report(10, "three preset sweeps within budget", f"{elapsed:.1f}s on {jobs} cores")


def test_c12_predictions_inherit_the_metric_invariance():
    # A congruence C -> A C A^T in a metric's isometry group maps the
    # isometric tangent rows by one orthogonal map of feature space, which
    # the one-scale ridge follows: per-fold MAE and lambda* stay put. The
    # Wasserstein metric is invariant under orthogonal A only, and its
    # pipeline moves under an invertible one: the abstract's contrast.
    # The pipeline runs no descent, so cond(A) <= 100 only bounds the
    # round-off A adds to the data (about eps * cond(A)^2 relative), far
    # under the 1e-8 bound.
    base = dict(p=6, q=2, n=80, mu=0.5, sigma=0.1, sigma_mix=0.01, seed=1)
    log_data, _ = sample_bundle(GenerativeConfig(**base, f_kind="log"))
    sqrt_data, _ = sample_bundle(GenerativeConfig(**base, f_kind="sqrt", orthogonal_a=True))

    def cv(bundle, kind, a=None):
        if a is not None:
            bundle = CovarianceBundle(a @ bundle.matrices @ a.T, bundle.labels, bundle.nominal_rank)
        spec = PipelineSpec(filter_kind="identity", embedding_kind=kind)
        return run_pipeline_cv(bundle, spec, folds=5, seed=1)

    def move(report, other):
        return float(np.max(np.abs(other.per_fold_mae - report.per_fold_mae) / report.per_fold_mae))

    rng = np.random.default_rng(1200)
    worst = {}
    for kind, bundle, draw in (
        ("geometric", log_data, lambda: rand_invertible(rng, 6, spread=np.log(10.0))),
        ("wasserstein", sqrt_data, lambda: rand_orthogonal(rng, 6)),
        ("euclidean", log_data, lambda: rand_orthogonal(rng, 6)),
    ):
        ref = cv(bundle, kind)
        for _ in range(6):
            other = cv(bundle, kind, draw())
            assert np.array_equal(other.per_fold_lambda, ref.per_fold_lambda)
            worst[kind] = max(worst.get(kind, 0.0), move(ref, other))
        assert worst[kind] <= 1e-8, kind
    fixed = rand_invertible(np.random.default_rng(1201), 6, spread=np.log(10.0))
    contrast = move(cv(sqrt_data, "wasserstein"), cv(sqrt_data, "wasserstein", fixed))
    assert contrast > 1e-3
    _report(
        12,
        "predictions inherit each metric's invariance",
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f"; wasserstein under invertible A {contrast:.1e}",
    )
