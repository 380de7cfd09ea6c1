import numpy as np
import pytest

from conftest import rand_orthogonal, rand_spd
from spdreg import NotPSD, SingularMatrix, eigh, numerical_rank, sym_func, symmat
from spdreg.symmat import SymMat


class TestSymMat:
    def test_symmetrizes_on_construction(self):
        m = SymMat([[1.0, 2.0], [0.0, 3.0]])
        assert m[0, 1] == m[1, 0] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMat(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMat([[np.nan, 0.0], [0.0, 1.0]])


class TestEigh:
    def test_identity(self):
        w, v = eigh(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v, np.eye(3))

    def test_diagonal_sorted_descending(self):
        w, v = eigh(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(w, [5.0, 2.0])
        np.testing.assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        w, v = eigh(m)
        recon = (v * w) @ v.T
        norm = np.linalg.norm(m)
        assert np.linalg.norm(recon - m) <= 1e-10 * max(1.0, norm)

    def test_orthogonal_vectors(self):
        rng = np.random.default_rng(3)
        _, v = eigh(rand_spd(rng, 5))
        err = np.linalg.norm(v.T @ v - np.eye(5))
        assert err <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, v = eigh(rand_spd(rng, 4))
            lead = np.argmax(np.abs(v), axis=0)
            assert np.all(v[lead, np.arange(4)] >= 0)


class TestBatched:
    """A stack gives each matrix what it gives alone, bit for bit. The mixed
    stack below has ties, so it is sorted; a tie-free matrix alone is only
    reversed, and the two must agree."""

    def stack(self):
        rng = np.random.default_rng(31)
        mats = [rand_spd(rng, 5) for _ in range(4)]
        mats += [np.diag([3.0, 1.0, 1.0, 0.0, 0.0]), np.eye(5)]
        for r in (1, 3):
            y = rng.standard_normal((5, r))
            mats.append(SymMat(y @ y.T))
        return mats, np.stack(mats)

    def test_eigh_stack_equals_per_matrix(self):
        mats, stack = self.stack()
        w, v = eigh(stack)
        assert w.shape == (8, 5) and v.shape == (8, 5, 5)
        for i, m in enumerate(mats):
            w1, v1 = eigh(m)
            assert np.array_equal(w[i], w1)
            assert np.array_equal(v[i], v1)

    def test_eigh_takes_arrays_and_freezes_its_output(self):
        m = rand_spd(np.random.default_rng(32), 4)
        w, v = eigh(np.array(m))  # a writeable copy
        for out in (w, v):
            with pytest.raises(ValueError):
                out[0] = 1.0

    @pytest.mark.parametrize("fn", ["log", "exp", "sqrt", "inv_sqrt"])
    def test_sym_func_stack_equals_per_matrix(self, fn):
        rng = np.random.default_rng(33)
        mats = [rand_spd(rng, 5) for _ in range(3)]
        out = sym_func(np.stack(mats), fn)
        assert type(out) is np.ndarray and out.shape == (3, 5, 5)
        for i, m in enumerate(mats):
            assert np.array_equal(out[i], sym_func(m, fn))

    @pytest.mark.parametrize("fn", ["log", "inv_sqrt"])
    def test_sym_func_singular_slice_raises(self, fn):
        rng = np.random.default_rng(34)
        stack = np.stack([rand_spd(rng, 4) for _ in range(3)])
        stack[1] = np.diag([2.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrix, match="numerical rank 3 of 4"):
            sym_func(stack, fn)

    def test_sym_func_names_the_lowest_rank(self):
        # The error names the lowest rank among the slices, with that slice's
        # smallest eigenvalue.
        rng = np.random.default_rng(35)
        stack = np.stack([rand_spd(rng, 4) for _ in range(4)])
        stack[1] = np.diag([2.0, 1.0, 1.0, 0.0])
        stack[2] = np.diag([2.0, 1.0, 0.0, 0.0])
        stack[3] = np.diag([3.0, 1.0, 0.0, 0.0])
        with pytest.raises(SingularMatrix, match="numerical rank 2 of 4") as info:
            sym_func(stack, "log")
        assert info.value.smallest_eigenvalue == 0.0

    def test_numerical_rank_stack_equals_per_matrix(self):
        mats, stack = self.stack()
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [numerical_rank(m) for m in mats] == [5] * 4 + [3, 5, 1, 3]
        assert isinstance(numerical_rank(mats[0]), int)

    def test_indefinite_slice_named(self):
        _, stack = self.stack()
        stack[6] = np.diag([1.0, 1.0, 0.0, 0.0, -0.5])
        with pytest.raises(NotPSD, match="^sample 6: ") as info:
            numerical_rank(stack)
        assert info.value.sample == 6

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigh(np.ones((2, 3)))


class TestSymFunc:
    def test_log_identity_is_zero(self):
        out = sym_func(np.eye(4), "log")
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-15)

    def test_sqrt_diagonal(self):
        out = sym_func(np.diag([4.0, 9.0]), "sqrt")
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(11)
        s = rand_spd(rng, 5)
        back = sym_func(sym_func(s, "log"), "exp")
        err = np.linalg.norm(back - s) / np.linalg.norm(s)
        assert err <= 1e-8

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(5)
        s = rand_spd(rng, 4)
        root = sym_func(s, "sqrt")
        err = np.linalg.norm(root @ root - s) / np.linalg.norm(s)
        assert err <= 1e-8

    def test_inv_sqrt_whitens(self):
        rng = np.random.default_rng(9)
        s = rand_spd(rng, 4)
        isq = sym_func(s, "inv_sqrt")
        err = np.linalg.norm(isq @ s @ isq - np.eye(4))
        assert err <= 1e-8

    def test_log_of_singular_raises(self):
        with pytest.raises(SingularMatrix, match="numerical rank 1 of 2"):
            sym_func(np.diag([1.0, 0.0]), "log")

    def test_sqrt_of_indefinite_raises(self):
        with pytest.raises(NotPSD):
            sym_func(np.diag([1.0, -1.0]), "sqrt")

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            sym_func(np.eye(2), "tanh")


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_threshold_arithmetic(self):
        # 1e-16 is below 1e-12 relative to the top eigenvalue 1.
        assert numerical_rank(np.diag([1.0, 1.0, 1e-16])) == 2

    def test_full_rank_random(self):
        rng = np.random.default_rng(21)
        assert numerical_rank(rand_spd(rng, 5)) == 5

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y = rng.standard_normal((5, 3))
            m = SymMat(y @ y.T)
            q = rand_orthogonal(rng, 5)
            assert numerical_rank(m) == numerical_rank(SymMat(q.T @ m @ q)) == 3

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD) as info:
            numerical_rank(np.diag([1.0, -0.5]))
        assert info.value.sample is None


class TestBlocks:
    @pytest.mark.parametrize("n,p", [(1, 5), (7, 5), (1000, 32), (480, 64), (3, 400)])
    def test_cover_range_in_order(self, n, p):
        parts = symmat.blocks(n, p)
        assert [i for s in parts for i in range(s.start, s.stop)] == list(range(n))
        size = max(1, symmat.BLOCK_BYTES // (8 * p * p))
        assert all(s.stop - s.start == size for s in parts[:-1])
        assert 1 <= parts[-1].stop - parts[-1].start <= size

    def test_at_least_one_matrix_per_block(self, monkeypatch):
        monkeypatch.setattr(symmat, "BLOCK_BYTES", 8)
        assert symmat.blocks(3, 5) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_empty_range(self):
        assert symmat.blocks(0, 5) == []
