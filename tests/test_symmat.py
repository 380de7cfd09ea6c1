import warnings

import numpy as np
import pytest

from conftest import rand_orthogonal, rand_spd
from spdreg import NotPSD, SingularMatrix, SymMat, eigh, numerical_rank, sym_func


class TestSymMat:
    def test_symmetrizes_on_construction(self):
        m = SymMat([[1.0, 2.0], [0.0, 3.0]])
        assert m.data[0, 1] == m.data[1, 0] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMat(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMat([[np.nan, 0.0], [0.0, 1.0]])

    def test_array_protocol_takes_copy(self):
        # numpy 2 passes copy= to __array__ and warns when it is not taken.
        m = SymMat([[1.0, 2.0], [0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copied = np.array(m, copy=True)
            shared = np.asarray(m)
            single = np.asarray(m, dtype=np.float32)
        assert copied.flags.writeable and not np.shares_memory(copied, m.data)
        assert shared is m.data
        assert single.dtype == np.float32 and np.array_equal(single, m.data)

    def test_data_is_frozen(self):
        m = SymMat(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestEigh:
    def test_identity(self):
        ep = eigh(SymMat(np.eye(3)))
        np.testing.assert_allclose(ep.values, np.ones(3))
        np.testing.assert_allclose(ep.vectors, np.eye(3))

    def test_diagonal_sorted_descending(self):
        ep = eigh(SymMat(np.diag([2.0, 5.0])))
        np.testing.assert_allclose(ep.values, [5.0, 2.0])
        np.testing.assert_allclose(np.abs(ep.vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = SymMat(a + a.T)
        ep = eigh(m)
        recon = (ep.vectors * ep.values) @ ep.vectors.T
        norm = np.linalg.norm(m.data)
        assert np.linalg.norm(recon - m.data) <= 1e-10 * max(1.0, norm)

    def test_orthogonal_vectors(self):
        rng = np.random.default_rng(3)
        ep = eigh(rand_spd(rng, 5))
        err = np.linalg.norm(ep.vectors.T @ ep.vectors - np.eye(5))
        assert err <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ep = eigh(rand_spd(rng, 4))
            lead = np.argmax(np.abs(ep.vectors), axis=0)
            assert np.all(ep.vectors[lead, np.arange(4)] >= 0)


class TestSymFunc:
    def test_log_identity_is_zero(self):
        out = sym_func(SymMat(np.eye(4)), "log")
        np.testing.assert_allclose(out.data, np.zeros((4, 4)), atol=1e-15)

    def test_sqrt_diagonal(self):
        out = sym_func(SymMat(np.diag([4.0, 9.0])), "sqrt")
        np.testing.assert_allclose(out.data, np.diag([2.0, 3.0]), atol=1e-14)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(11)
        s = rand_spd(rng, 5)
        back = sym_func(sym_func(s, "log"), "exp")
        err = np.linalg.norm(back.data - s.data) / np.linalg.norm(s.data)
        assert err <= 1e-8

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(5)
        s = rand_spd(rng, 4)
        root = sym_func(s, "sqrt")
        err = np.linalg.norm(root.data @ root.data - s.data) / np.linalg.norm(s.data)
        assert err <= 1e-8

    def test_inv_sqrt_whitens(self):
        rng = np.random.default_rng(9)
        s = rand_spd(rng, 4)
        isq = sym_func(s, "inv_sqrt")
        err = np.linalg.norm(isq.data @ s.data @ isq.data - np.eye(4))
        assert err <= 1e-8

    def test_inv_matches_numpy(self):
        rng = np.random.default_rng(13)
        s = rand_spd(rng, 4)
        np.testing.assert_allclose(
            sym_func(s, "inv").data, np.linalg.inv(s.data), atol=1e-10
        )

    def test_log_of_singular_raises(self):
        with pytest.raises(SingularMatrix):
            sym_func(SymMat(np.diag([1.0, 0.0])), "log")

    def test_sqrt_of_indefinite_raises(self):
        with pytest.raises(NotPSD):
            sym_func(SymMat(np.diag([1.0, -1.0])), "sqrt")

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            sym_func(SymMat(np.eye(2)), "tanh")


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(SymMat(np.zeros((4, 4)))) == 0

    def test_threshold_arithmetic(self):
        # 1e-16 is below 1e-12 relative to the top eigenvalue 1.
        assert numerical_rank(SymMat(np.diag([1.0, 1.0, 1e-16]))) == 2

    def test_full_rank_random(self):
        rng = np.random.default_rng(21)
        assert numerical_rank(rand_spd(rng, 5)) == 5

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y = rng.standard_normal((5, 3))
            m = SymMat(y @ y.T)
            q = rand_orthogonal(rng, 5)
            assert numerical_rank(m) == numerical_rank(SymMat(q.T @ m.data @ q)) == 3

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            numerical_rank(SymMat(np.diag([1.0, -0.5])))
