import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdreg import (
    CovarianceBundle,
    GenerativeConfig,
    PipelineSpec,
    make_mixing,
    sample_bundle,
    simgen,
    sweep,
    symmat,
)
from spdreg.bundle import read_covb, write_covb


class TestGenerativeConfig:
    def test_rejects_q_not_below_p(self):
        with pytest.raises(ValueError):
            GenerativeConfig(p=5, q=7)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            GenerativeConfig(sigma=-0.1)

    @pytest.mark.parametrize("name", ["mu", "sigma", "sigma_mix"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GenerativeConfig(**{name: value})

    def test_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            GenerativeConfig(f_kind="cube")

    @pytest.mark.parametrize(
        "fields, match",
        [({"n": 1}, "need n >= 2"), ({"n": -3}, "need n >= 2"),
         ({"seed": -1}, "seed must be nonnegative")],
        ids=["n-1", "n-negative", "seed-negative"],
    )
    def test_rejects_small_n_or_negative_seed(self, fields, match):
        with pytest.raises(ValueError, match=match):
            GenerativeConfig(**fields)


class TestMakeMixing:
    def test_mu_zero_is_exact_identity(self):
        a = make_mixing(GenerativeConfig(mu=0.0, seed=3))
        np.testing.assert_array_equal(a, np.eye(5))

    def test_orthogonal_flag(self):
        a = make_mixing(GenerativeConfig(mu=0.7, orthogonal_a=True, seed=4))
        assert np.linalg.norm(a.T @ a - np.eye(5)) <= 1e-10

    def test_invertible(self):
        a = make_mixing(GenerativeConfig(mu=0.5, seed=1))
        assert abs(np.linalg.det(a)) > 0

    def test_matches_eigenbasis_path_for_symmetric_seed(self):
        # On a symmetric argument the general exponential must agree with
        # the spectral one, exp(mu b) = v diag(exp(mu w)) v^T.
        from spdreg import sym_func
        from spdreg.simgen import _expm

        rng = np.random.default_rng(11)
        b = rng.standard_normal((5, 5))
        bs = 0.3 * (b + b.T) / 2
        via_pade = _expm(bs)
        via_eigh = sym_func(bs, "exp")
        assert np.linalg.norm(via_pade - via_eigh) <= 1e-13 * np.linalg.norm(via_eigh)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 7.0])
    def test_skew_generator_gives_rotation(self, t):
        from spdreg.simgen import _expm

        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(
            _expm(np.array([[0.0, -t], [t, 0.0]])), rot, rtol=0, atol=1e-15
        )

    def test_inverse_is_exponential_of_negation_when_squaring(self):
        # mu = 10 on a mostly skew generator: the 1-norm is above
        # 4 theta_13, so the Padé result is squared three times, while
        # exp(a) stays well conditioned (about 11), so that
        # exp(a) exp(-a) = I can be checked at round-off.
        from spdreg.simgen import _THETA13, _expm

        b = np.random.default_rng(0).standard_normal((5, 5))
        a = 10.0 * (b - b.T) / 2 + b
        assert np.linalg.norm(a, 1) > 4 * _THETA13
        np.testing.assert_allclose(_expm(a) @ _expm(-a), np.eye(5), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 5, 16, 32, 64])
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_matches_scipy_expm(self, p, mu):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        from spdreg.simgen import _expm

        a = mu * np.random.default_rng(p).standard_normal((p, p))
        ref = scipy_linalg.expm(a)
        assert np.linalg.norm(_expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cli_and_generator_do_not_import_scipy(self):
        # scipy's bundled BLAS leaves a spin-waiting thread behind its
        # calls, and importing scipy.linalg costs more than spdreg itself.
        code = (
            "import sys\n"
            "import spdreg.cli\n"
            "from spdreg import GenerativeConfig, sample_bundle\n"
            "sample_bundle(GenerativeConfig(p=5, n=20))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestSampleBundle:
    def test_alpha_link_construction_oracle(self):
        # With no noise the labels are an exact linear function of the
        # linked source powers, recovered here by least squares on the
        # powers read back through the inverse mixing.
        for f_kind in ("identity", "log", "sqrt"):
            cfg = GenerativeConfig(
                mu=0.6, sigma=0.0, sigma_mix=0.0, f_kind=f_kind, seed=21
            )
            bundle, alpha = sample_bundle(cfg)
            a = make_mixing(cfg)
            ainv = np.linalg.inv(a)
            link = {"identity": lambda x: x, "log": np.log, "sqrt": np.sqrt}[f_kind]
            feats = np.stack(
                [
                    link(np.diag(ainv @ m @ ainv.T)[: cfg.q])
                    for m in bundle.matrices
                ]
            )
            coef, *_ = np.linalg.lstsq(feats, bundle.labels, rcond=None)
            np.testing.assert_allclose(coef, alpha, atol=1e-8)
            resid = np.linalg.norm(feats @ coef - bundle.labels)
            assert resid <= 1e-10

    def test_single_source_identity_link(self):
        cfg = GenerativeConfig(
            p=3, q=1, mu=0.0, sigma=0.0, f_kind="identity", seed=5
        )
        bundle, alpha = sample_bundle(cfg)
        powers = bundle.matrices[:, 0, 0]
        np.testing.assert_allclose(bundle.labels, alpha[0] * powers, atol=1e-12)

    def test_mu_zero_keeps_block_diagonal(self):
        cfg = GenerativeConfig(mu=0.0, sigma_mix=0.0, seed=6)
        bundle, _ = sample_bundle(cfg)
        for m in bundle.matrices:
            off = m - np.diag(np.diag(m))
            assert np.all(off == 0)

    def test_determinism_bit_identical(self):
        cfg = GenerativeConfig(seed=9, sigma=0.2, sigma_mix=0.01)
        b1, a1 = sample_bundle(cfg)
        b2, a2 = sample_bundle(cfg)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1.labels, b2.labels)
        np.testing.assert_array_equal(b1.matrices, b2.matrices)

    def test_matrices_are_psd_full_rank(self):
        cfg = GenerativeConfig(mu=1.0, sigma_mix=0.0, seed=10)
        bundle, _ = sample_bundle(cfg)
        for m in bundle.matrices:
            w = np.linalg.eigvalsh(m)
            assert w[0] >= -1e-12 * w[-1]
            assert np.sum(w > 1e-12 * w[-1]) == cfg.p

    def test_same_powers_across_noise_levels(self):
        # sigma only scales the label noise; matrices stay identical.
        quiet, _ = sample_bundle(GenerativeConfig(sigma=0.0, seed=12))
        loud, _ = sample_bundle(GenerativeConfig(sigma=0.5, seed=12))
        np.testing.assert_array_equal(quiet.matrices, loud.matrices)
        assert not np.array_equal(quiet.labels, loud.labels)


def reference_bundle(cfg):
    """The documented draw order, whole: mixing seed ``b``, ``alpha``, signal
    then noise log-powers, ``eps``, then one (n, p, p) ``xi`` draw, mixed
    one subject at a time."""
    rng = np.random.default_rng(cfg.seed)
    rng.standard_normal((cfg.p, cfg.p))
    a = make_mixing(cfg)
    alpha = rng.standard_normal(cfg.q)
    powers = np.exp(rng.standard_normal((cfg.n, cfg.q)))
    noise = np.exp(-2.0 + 0.5 * rng.standard_normal((cfg.n, cfg.p - cfg.q)))
    eps = cfg.sigma * rng.standard_normal(cfg.n)
    xi = cfg.sigma_mix * rng.standard_normal((cfg.n, cfg.p, cfg.p))
    link = {"identity": lambda x: x, "log": np.log, "sqrt": np.sqrt}[cfg.f_kind]
    mats = np.empty((cfg.n, cfg.p, cfg.p))
    for i in range(cfg.n):
        ai = a + xi[i]
        mats[i] = (ai * np.concatenate([powers[i], noise[i]])) @ ai.T
    bundle = CovarianceBundle(matrices=mats, labels=link(powers) @ alpha + eps,
                              nominal_rank=cfg.p)
    return bundle, alpha


class TestBlockedDraws:
    @pytest.mark.parametrize("sigma_mix", [0.0, 0.05])
    @pytest.mark.parametrize("orthogonal_a", [False, True])
    @pytest.mark.parametrize("block", [None, 3])
    def test_equals_one_whole_draw(self, monkeypatch, sigma_mix, orthogonal_a, block):
        cfg = GenerativeConfig(p=5, q=2, n=11, mu=0.7, sigma=0.1, sigma_mix=sigma_mix,
                               orthogonal_a=orthogonal_a, seed=4)
        if block is not None:
            monkeypatch.setattr(symmat, "BLOCK_BYTES", block * 8 * cfg.p * cfg.p)
            assert len(symmat.blocks(cfg.n, cfg.p)) == 4
        bundle, alpha = sample_bundle(cfg)
        ref, ref_alpha = reference_bundle(cfg)
        np.testing.assert_array_equal(alpha, ref_alpha)
        np.testing.assert_array_equal(bundle.labels, ref.labels)
        np.testing.assert_array_equal(bundle.matrices, ref.matrices)


class TestCovbFile:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = GenerativeConfig(seed=13, sigma=0.1)
        bundle, _ = sample_bundle(cfg)
        path = tmp_path / "b.covb"
        write_covb(path, bundle)
        back = read_covb(path)
        assert back.n == bundle.n and back.dim == bundle.dim
        assert back.nominal_rank == bundle.nominal_rank
        np.testing.assert_array_equal(back.labels, bundle.labels)
        np.testing.assert_array_equal(back.matrices, bundle.matrices)

    def test_header(self, tmp_path):
        bundle, _ = sample_bundle(GenerativeConfig(seed=1))
        path = tmp_path / "b.covb"
        write_covb(path, bundle)
        assert path.read_text().splitlines()[0] == "COVB v3 100 5 5"


class TestSweep:
    def _specs(self):
        return [
            PipelineSpec(embedding_kind="euclidean", name="euclidean"),
            PipelineSpec(embedding_kind="logdiag", name="logdiag"),
        ]

    def test_row_count_and_columns(self):
        cfg = GenerativeConfig(n=20, seed=0)
        rows = sweep(cfg, "sigma", [0.0, 0.1], self._specs(), folds=4, repeats=2)
        assert len(rows) == 2 * 2 * 2 * 4
        assert rows[0]["axis"] == "sigma"
        assert all(r["error"] == "" for r in rows)

    def test_seed_offsets_per_repeat(self):
        cfg = GenerativeConfig(n=20, seed=100)
        rows = sweep(cfg, "mu", [0.5], self._specs()[:1], folds=4, repeats=3)
        assert sorted({r["seed"] for r in rows}) == [100, 101, 102]

    def test_deterministic_across_job_counts(self):
        cfg = GenerativeConfig(n=20, seed=0)
        r1 = sweep(cfg, "sigma", [0.0, 0.1], self._specs(), folds=4, repeats=1, jobs=1)
        r2 = sweep(cfg, "sigma", [0.0, 0.1], self._specs(), folds=4, repeats=1, jobs=2)
        assert r1 == r2

    @pytest.mark.parametrize("values,workers", [([0.0, 0.1], [2]), ([0.0], [])])
    def test_pool_no_larger_than_the_cells(self, monkeypatch, values, workers):
        # Records the pool's size and maps in-process: no worker starts.
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(simgen.concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = GenerativeConfig(n=20, seed=0)
        rows = sweep(cfg, "sigma", values, self._specs()[:1], folds=4, repeats=1, jobs=64)
        assert asked == workers
        assert rows == sweep(cfg, "sigma", values, self._specs()[:1], folds=4, repeats=1)

    def test_cell_errors_recorded_not_raised(self):
        # Geometric embedding on rank-deficient data fails per cell; the
        # sweep keeps going and reports the error in its column.
        cfg = GenerativeConfig(n=20, seed=0, sigma_mix=0.0)
        specs = [
            PipelineSpec(
                filter_kind="supervised",
                filter_rank=6,  # more than p=5: every cell fails
                embedding_kind="logdiag",
                name="broken",
            ),
            PipelineSpec(embedding_kind="euclidean", name="euclidean"),
        ]
        rows = sweep(cfg, "sigma", [0.0], specs, folds=4, repeats=1)
        broken = [r for r in rows if r["method"] == "broken"]
        good = [r for r in rows if r["method"] == "euclidean"]
        assert len(broken) == 1 and broken[0]["error"] != ""
        assert len(good) == 4 and all(r["error"] == "" for r in good)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(GenerativeConfig(), "bananas", [1.0], self._specs(), 4, 1)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(GenerativeConfig(), "sigma", [], self._specs(), 4, 1)
