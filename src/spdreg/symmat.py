"""Dense symmetric-matrix kernels backed by eigendecomposition.

Every matrix entering the package is symmetrized once, via ``(M + M.T) /
2`` (by :class:`SymMat` or a bundle), so downstream eigensolvers see
exactly symmetric arrays. This is the only module that decomposes a
covariance: the batched eigensolver, the PSD/rank rule and the SPD rule
(both relative to ``RANK_TOL``) are each written once here, over
``(..., p, p)`` stacks, and a single matrix is a stack of one.
:func:`sym_func` is the one path that applies a function to a spectrum
(``log``, ``exp``, ``sqrt``, ``inv_sqrt``, ``inv``): the whitening, the
tangent-space logs and the Karcher step all go through it. The kernels
take any array (a :class:`SymMat` too) and return plain arrays; all are
pure functions safe to call concurrently.

:func:`blocks` is the one block rule of the paths that stream per-sample
work (the geometric tangent map, the generator): it cuts ``range(n)`` into
slices of about ``BLOCK_BYTES`` of ``p x p`` float64 matrices each, so
their working memory depends on the block size, not on ``n``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSD, NumericalFailure, SingularMatrix

# Relative eigenvalue threshold for rank and positivity decisions.
# Double-precision eigensolver noise floor with safety margin.
RANK_TOL = 1e-12

# Bytes of p x p float64 matrices in one block of a streamed per-sample path.
BLOCK_BYTES = 1 << 20


class SymMat:
    """Symmetric ``P x P`` real matrix.

    Construction copies, casts to float64, and symmetrizes the input;
    the stored array is frozen so instances can be shared freely.

    Parameters
    ----------
    data : array-like, shape (p, p)
        Square matrix with finite entries. The upper triangle is
        authoritative: the constructor stores ``(data + data.T) / 2``.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        a = np.array(data, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        self._data = a

    @property
    def data(self) -> np.ndarray:
        """Read-only ndarray view of the symmetrized matrix."""
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    def __array__(self, dtype=None, copy=None):
        """The stored array, so ``np.asarray`` stacks a list of SymMat."""
        a = np.asarray(self._data, dtype=dtype)
        return a.copy() if copy else a

    def __repr__(self):  # pragma: no cover
        return f"SymMat(dim={self.dim})"


def blocks(n: int, p: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``, each of about
    ``BLOCK_BYTES`` of ``p x p`` float64 matrices and at least one."""
    size = max(1, BLOCK_BYTES // (8 * p * p))
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _eig(a):
    """``np.linalg.eigh`` of each matrix of ``a``, eigenvalues ascending; a
    solver failure is :class:`NumericalFailure`."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected (..., p, p) matrices, got shape {a.shape}")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc


def _ranks(w: np.ndarray) -> np.ndarray:
    """The PSD/rank rule: the ranks of eigenvalue rows ``w`` (..., p), in any
    order, with :class:`NotPSD` naming the first bad row of a stack."""
    tau, low = RANK_TOL * w.max(axis=-1), w.min(axis=-1)
    bad = low < -tau
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NotPSD(f"matrix is not PSD (smallest eigenvalue {low.flat[i]:.3e}, "
                     f"threshold {-tau.flat[i]:.3e})", None if w.ndim == 1 else int(i))
    return (w > tau[..., None]).sum(axis=-1)


def _check_spd(w: np.ndarray) -> None:
    """The SPD rule: :class:`SingularMatrix`, naming the numerical rank of the
    first bad row, unless every eigenvalue row ``w`` (..., p), in any order,
    has all its values above ``RANK_TOL`` times its largest (which makes that
    largest positive)."""
    p = w.shape[-1]
    ranks = (w > RANK_TOL * w.max(axis=-1)[..., None]).sum(axis=-1)
    if (ranks < p).any():
        i = np.flatnonzero(ranks < p)[0]
        raise SingularMatrix(f"full-rank SPD matrix required, numerical rank {ranks.flat[i]} "
                             f"of {p}", smallest_eigenvalue=float(w.min(axis=-1).flat[i]))


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``(w, v)`` of a symmetric matrix (a
    :class:`SymMat` too) or of each matrix of a ``(..., p, p)`` stack, in one
    solver call that reads the lower triangles: ``m = v @ diag(w) @ v.T``.
    Each slice of a stack gets, bit for bit, what that matrix gets alone.

    The read-only eigenvalues ``w`` are sorted descending; the read-only,
    orthogonal ``v`` has the eigenvectors as columns, with a deterministic
    sign convention (the largest-magnitude entry of each is nonnegative) so
    repeated runs yield identical bases.

    Raises
    ------
    NumericalFailure
        If the underlying iterative solver does not converge.
    """
    w, v = _eig(np.asarray(a, dtype=np.float64))
    # A stable descending sort keeps the solver's order inside tie blocks.
    # The solver's order is ascending, so without ties the sort reverses it.
    if (w[..., :-1] < w[..., 1:]).all():
        w, v = w[..., ::-1].copy(), v[..., ::-1]
    else:
        order = np.argsort(-w, axis=-1, kind="stable")
        w = np.take_along_axis(w, order, axis=-1)
        v = np.take_along_axis(v, order[..., None, :], axis=-1)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    # A new, C-ordered product: matmul on the reversed view would leave BLAS.
    v = v * np.where(lead < 0, -1.0, 1.0)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


# The spectral functions by name. The last two are inverses: their entry is
# the divisor, sqrt(w) or w, by which the eigenvectors are divided.
_SYM_FUNCS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt,
              "inv_sqrt": np.sqrt, "inv": lambda w: w}
_DIVIDES = ("inv_sqrt", "inv")


def sym_func(a, fn: str) -> np.ndarray:
    """Apply a scalar function to the spectrum of a matrix (a :class:`SymMat`
    too) or of each matrix of a ``(..., p, p)`` stack.

    ``fn`` is one of ``log``, ``exp``, ``sqrt``, ``inv_sqrt``, ``inv``. Each
    matrix is symmetrized, ``s = (a + a.T) / 2``, and the result is ``v
    diag(fn(w)) v.T`` for the eigendecomposition ``s = v diag(w) v.T`` of one
    batched solver call, so each slice of a stack gets, bit for bit, what
    that matrix gets alone. ``inv_sqrt`` and ``inv`` divide, ``v / sqrt(w)``
    and ``v / w``, which rounds otherwise than multiplying by a reciprocal. For
    ``sqrt``, eigenvalues in the round-off band ``(-RANK_TOL * w_max, 0)``
    are clipped to zero.

    The argument is released once its symmetrized copy is made, and that
    copy and ``fn(w)`` before the output product, so neither a temporary
    stack passed in nor the spectrum's image is alive beside the result
    (the process's peak memory depends on it).

    Raises
    ------
    SingularMatrix
        For ``log``/``inv_sqrt``/``inv`` when the smallest eigenvalue of a
        matrix is at or below ``RANK_TOL * w_max``, naming its numerical rank.
    NotPSD
        For ``sqrt`` when an eigenvalue is clearly negative.
    """
    if fn not in _SYM_FUNCS:
        raise ValueError(f"unknown spectral function {fn!r}; expected one of {[*_SYM_FUNCS]}")
    a = np.asarray(a, dtype=np.float64)
    s = (a + a.swapaxes(-1, -2)) / 2.0
    del a
    w, v = _eig(s)
    del s
    if fn == "log" or fn in _DIVIDES:
        _check_spd(w)
    elif fn == "sqrt":
        _ranks(w)
        w = np.clip(w, 0.0, None)
    scale = np.divide if fn in _DIVIDES else np.multiply
    return scale(v, _SYM_FUNCS[fn](w)[..., None, :]) @ v.swapaxes(-1, -2)


def numerical_rank(a):
    """Count of eigenvalues above ``RANK_TOL`` relative to the largest: an
    int for one matrix, an int array for a ``(..., p, p)`` stack.

    The zero matrix has rank 0. Eigenvalues inside the round-off band
    ``(-RANK_TOL * w_max, 0)`` are tolerated; anything below it raises.

    Raises
    ------
    NotPSD
        If an eigenvalue is clearly negative, naming the first such
        matrix of a stack.
    """
    ranks = _ranks(_eig(np.asarray(a, dtype=np.float64))[0])
    return int(ranks) if ranks.ndim == 0 else ranks
