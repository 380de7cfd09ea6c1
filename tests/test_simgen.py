import dataclasses

import numpy as np
import pytest

from spdreg import GenerativeConfig, PipelineSpec, make_mixing, sample_bundle, sweep
from spdreg.bundle import read_covb, write_covb


class TestGenerativeConfig:
    def test_rejects_q_not_below_p(self):
        with pytest.raises(ValueError):
            GenerativeConfig(p=5, q=7)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            GenerativeConfig(sigma=-0.1)

    def test_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            GenerativeConfig(f_kind="cube")


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
        # Cross-check of the general matrix exponential: symmetrize the
        # seed matrix and compare against the spectral exponential.
        from spdreg import SymMat, sym_func
        from spdreg.simgen import _draw_mixing

        cfg = GenerativeConfig(mu=0.3, seed=11)
        rng = np.random.default_rng(cfg.seed)
        b = rng.standard_normal((cfg.p, cfg.p))
        bs = SymMat((b + b.T) / 2)
        via_pade = __import__("scipy.linalg", fromlist=["expm"]).expm(
            cfg.mu * bs.data
        )
        via_eigh = sym_func(SymMat(cfg.mu * bs.data), "exp").data
        assert np.linalg.norm(via_pade - via_eigh) <= 1e-10 * np.linalg.norm(via_eigh)


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
        assert path.read_text().splitlines()[0] == "COVB v1 100 5 5"


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
