import numpy as np
import pytest

from spdreg import CovarianceBundle, SymMat


def raw_stack(n=6, p=4, seed=0):
    """A non-symmetric (n, p, p) array."""
    return np.random.default_rng(seed).standard_normal((n, p, p))


def test_symmat_list_equals_stacked_array():
    a = raw_stack()
    labels = np.arange(6.0)
    from_list = CovarianceBundle([SymMat(m) for m in a], labels, nominal_rank=4)
    from_array = CovarianceBundle(a, labels, nominal_rank=4)
    assert np.array_equal(from_list.matrices, from_array.matrices)


@pytest.mark.parametrize("order", ["C", "F"])
def test_matrices_are_one_read_only_c_array(order):
    a = np.asarray(raw_stack(), order=order)
    bundle = CovarianceBundle(a, np.zeros(6), nominal_rank=4)
    m = bundle.matrices
    assert m.shape == (6, 4, 4) and m.dtype == np.float64
    assert m.flags.c_contiguous
    assert not m.flags.writeable
    a[0, 0, 0] += 1.0  # the bundle holds its own copy
    assert not np.shares_memory(m, a)


def test_non_symmetric_input_stored_symmetrized_bit_for_bit():
    a = raw_stack()
    bundle = CovarianceBundle(a, np.zeros(6), nominal_rank=4)
    want = np.stack([(m + m.T) / 2.0 for m in a])
    assert bundle.matrices.tobytes() == want.tobytes()
    assert np.array_equal(bundle.matrices, [SymMat(m).data for m in a])


@pytest.mark.parametrize(
    "matrices",
    [np.empty((0, 3, 3)), np.ones((2, 3, 4)), np.ones((3, 3)), np.ones((2, 0, 0)),
     np.full((2, 3, 3), np.nan), np.where(np.eye(3) > 0, np.inf, 1.0)[None]],
    ids=["empty", "non-square", "2-d", "zero-dim", "nan", "inf"],
)
def test_bad_matrices_raise_value_error(matrices):
    with pytest.raises(ValueError):
        CovarianceBundle(matrices, np.zeros(len(matrices)), nominal_rank=1)
