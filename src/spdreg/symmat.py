"""Dense symmetric-matrix kernels backed by eigendecomposition.

Every matrix the package stores (a bundle's stack, a reference point) is a
read-only float64 array, symmetrized by the one rule ``(a + a^T) / 2``
written here; :func:`SymMat` validates input from outside the package and
applies it. This is the only module that decomposes a covariance: the
batched eigensolver, the PSD/rank rule and the SPD rule (both relative to
``RANK_TOL``) are each written once here, over ``(..., p, p)`` stacks, and
a single matrix is a stack of one. :func:`sym_func` is the one path that
applies a function to a spectrum (``log``, ``exp``, ``sqrt``,
``inv_sqrt``): the whitening, the tangent-space logs and the
Karcher step all go through it. The kernels take any array and return
plain arrays; all are pure functions safe to call concurrently.

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


def _sym(a: np.ndarray) -> np.ndarray:
    """The one symmetrization rule: ``(a + a^T) / 2`` of each matrix of the
    float64 array ``a``, as a new read-only, C-contiguous array (an exactly
    symmetric ``a`` comes back bit for bit)."""
    s = np.add(a, a.swapaxes(-1, -2), order="C")
    s /= 2.0
    s.flags.writeable = False
    return s


def _as_stack(mats) -> np.ndarray:
    """``mats`` as a nonempty ``(n, p, p)`` float64 array, with no copy if it
    is one already."""
    stack = np.asarray(mats, dtype=np.float64)
    if stack.ndim != 3 or len(stack) == 0 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a nonempty (n, p, p) stack, got shape {stack.shape}")
    return stack


def SymMat(data) -> np.ndarray:  # noqa: N802 - the name perfbench/workloads.py imports
    """A matrix or ``(..., p, p)`` stack from outside the package as float64,
    checked square and nonempty, symmetrized by the one rule, and checked
    finite after it, so an entry whose ``a + a^T`` overflows is refused too
    (``ValueError``). ``data`` is read with ``np.asarray``, so no copy of a
    float64 array is made beside the output (a bundle's peak memory
    depends on it)."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        raise ValueError(f"expected nonempty square matrices, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        s = _sym(a)
    if not np.all(np.isfinite(s)):
        why = ": (a + a^T) / 2 overflows" if np.all(np.isfinite(a)) else ""
        raise ValueError(f"matrix entries must be finite{why}")
    return s


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
    """The SPD rule: unless every eigenvalue row ``w`` (..., p), in any order,
    has all its values above ``RANK_TOL`` times its largest (which makes that
    largest positive), :class:`SingularMatrix` naming the lowest numerical
    rank among the rows and the smallest eigenvalue of the first row of it."""
    p = w.shape[-1]
    ranks = (w > RANK_TOL * w.max(axis=-1)[..., None]).sum(axis=-1)
    i = np.argmin(ranks)
    if ranks.flat[i] < p:
        raise SingularMatrix(f"full-rank SPD matrix required, numerical rank {ranks.flat[i]} "
                             f"of {p}", smallest_eigenvalue=float(w.min(axis=-1).flat[i]))


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``(w, v)`` of a symmetric matrix or of each
    matrix of a ``(..., p, p)`` stack, in one solver call that reads the
    lower triangles: ``m = v @ diag(w) @ v.T``.
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
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    v *= np.where(lead < 0, -1.0, 1.0)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


# The spectral functions by name. The last is an inverse: its entry is the
# divisor, sqrt(w), by which the eigenvectors are divided.
_SYM_FUNCS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt, "inv_sqrt": np.sqrt}
_DIVIDES = ("inv_sqrt",)


def sym_func(a, fn: str) -> np.ndarray:
    """Apply a scalar function to the spectrum of a matrix or of each matrix
    of a ``(..., p, p)`` stack.

    ``fn`` is one of ``log``, ``exp``, ``sqrt``, ``inv_sqrt``. Each
    matrix is symmetrized, ``s = (a + a.T) / 2``, and the result is ``v
    diag(fn(w)) v.T`` for the eigendecomposition ``s = v diag(w) v.T`` of one
    batched solver call, so each slice of a stack gets, bit for bit, what
    that matrix gets alone. ``inv_sqrt`` divides, ``v / sqrt(w)``, which
    rounds otherwise than multiplying by a reciprocal. For
    ``sqrt``, eigenvalues in the round-off band ``(-RANK_TOL * w_max, 0)``
    are clipped to zero.

    The argument is released once its symmetrized copy is made, and that
    copy and ``fn(w)`` before the output product, so neither a temporary
    stack passed in nor the spectrum's image is alive beside the result
    (the process's peak memory depends on it).

    Raises
    ------
    SingularMatrix
        For ``log``/``inv_sqrt`` when the smallest eigenvalue of a
        matrix is at or below ``RANK_TOL * w_max``, naming its numerical rank.
    NotPSD
        For ``sqrt`` when an eigenvalue is clearly negative.
    """
    if fn not in _SYM_FUNCS:
        raise ValueError(f"unknown spectral function {fn!r}; expected one of {[*_SYM_FUNCS]}")
    s = _sym(np.asarray(a, dtype=np.float64))
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
