"""Dense symmetric-matrix kernels backed by eigendecomposition.

Every matrix entering the package goes through :class:`SymMat`, which
symmetrizes once via ``(M + M.T) / 2`` so downstream eigensolvers see an
exactly symmetric array. Eigenvalue-based functions (``log``, ``sqrt``,
``inv`` ...) and numerical rank live here; all of them are pure
functions safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NumericalFailure, SingularMatrix

# Relative eigenvalue threshold for rank and positivity decisions.
# Double-precision eigensolver noise floor with safety margin.
RANK_TOL = 1e-12


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

    def __repr__(self):  # pragma: no cover
        return f"SymMat(dim={self.dim})"


@dataclass(frozen=True)
class EigenPairs:
    """Eigendecomposition ``m = vectors @ diag(values) @ vectors.T``.

    ``values`` are sorted descending; ``vectors`` is orthogonal with a
    deterministic sign convention (the largest-magnitude entry of each
    eigenvector is nonnegative) so repeated runs yield identical bases.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-|entry| is nonnegative."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigh(m: SymMat) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix.

    Returns
    -------
    EigenPairs
        Eigenvalues descending, orthogonal eigenvectors as columns.

    Raises
    ------
    NumericalFailure
        If the underlying iterative solver does not converge.
    """
    try:
        w, v = np.linalg.eigh(m.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    # Stable descending sort keeps the solver's order inside tie blocks.
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = _fix_signs(v[:, order])
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenPairs(values=w, vectors=v)


_SYM_FUNCS = ("log", "exp", "sqrt", "inv_sqrt", "inv")
# Functions that need strictly positive spectra.
_NEEDS_SPD = frozenset({"log", "inv_sqrt", "inv"})


def sym_func(m: SymMat, fn: str) -> SymMat:
    """Apply a scalar function to the spectrum of a symmetric matrix.

    ``fn`` is one of ``log``, ``exp``, ``sqrt``, ``inv_sqrt``, ``inv``.
    The result is ``U diag(fn(w)) U.T`` for the eigendecomposition
    ``m = U diag(w) U.T``. For ``sqrt``, eigenvalues in the round-off
    band ``(-RANK_TOL * w_max, 0)`` are clipped to zero.

    Raises
    ------
    SingularMatrix
        For ``log``/``inv_sqrt``/``inv`` when the smallest eigenvalue
        is at or below ``RANK_TOL * w_max``.
    NotPSD
        For ``sqrt`` when an eigenvalue is clearly negative.
    """
    if fn not in _SYM_FUNCS:
        raise ValueError(f"unknown spectral function {fn!r}; expected one of {_SYM_FUNCS}")
    ep = eigh(m)
    w = ep.values
    wmax = w[0]
    if fn in _NEEDS_SPD:
        if w[-1] <= RANK_TOL * wmax or wmax <= 0:
            raise SingularMatrix(
                f"sym_func({fn!r}) requires a full-rank SPD matrix",
                smallest_eigenvalue=w[-1],
            )
        if fn == "log":
            fw = np.log(w)
        elif fn == "inv_sqrt":
            fw = 1.0 / np.sqrt(w)
        else:
            fw = 1.0 / w
    elif fn == "sqrt":
        if w[-1] < -RANK_TOL * max(wmax, 0.0):
            raise NotPSD(
                f"sym_func('sqrt') requires a PSD matrix (smallest eigenvalue {w[-1]:.3e})"
            )
        fw = np.sqrt(np.clip(w, 0.0, None))
    else:  # exp
        fw = np.exp(w)
    return SymMat((ep.vectors * fw) @ ep.vectors.T)


def numerical_rank(m: SymMat) -> int:
    """Count of eigenvalues above ``RANK_TOL`` relative to the largest.

    The zero matrix has rank 0. Eigenvalues inside the round-off band
    ``(-RANK_TOL * w_max, 0)`` are tolerated; anything below it raises.

    Raises
    ------
    NotPSD
        If an eigenvalue is clearly negative.
    """
    w = eigh(m).values
    wmax = w[0]
    tau = RANK_TOL * wmax
    if w[-1] < -tau:
        raise NotPSD(
            f"matrix is not PSD (smallest eigenvalue {w[-1]:.3e}, threshold {-tau:.3e})"
        )
    return int(np.count_nonzero(w > tau))
