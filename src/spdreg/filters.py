"""Spatial filters: learn a ``p x r`` projection and apply it to covariances.

Four ways to obtain the projection ``w``:

* identity -- keep the sensor space untouched;
* unsupervised -- top eigenvectors of the average covariance (PCA);
* supervised -- generalized eigenvectors of the label-weighted average
  covariance against the plain average, i.e. directions whose projected
  power co-varies most with the target;
* mne -- Tikhonov-regularized inverse of a supplied leadfield matrix.

Applying a filter maps an ``(n, p, p)`` array to an ``(n, r, r)`` array:
each covariance ``c`` goes to ``w.T @ c @ w`` in one batched product. A
filter whose ``w`` is exactly the identity returns the array it is given,
with no copy. The fits read such an array too (and labels), never a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundle import LineReader, write_rows
from .errors import DegenerateDesign, DimensionMismatch, RankTooLarge
from .symmat import _as_stack, _sym, eigh, numerical_rank

FILTER_KINDS = ("identity", "unsupervised", "supervised", "mne")


@dataclass(frozen=True)
class SpatialFilter:
    """Fitted projection ``w`` (p x r) and its kind.

    ``eigenvalues`` records the selection criterion of the fitted
    columns (component variance for unsupervised filters, power-target
    covariance for supervised ones); empty for identity and mne.
    """

    w: np.ndarray
    kind: str
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}"
            )
        a = np.asarray(self.w, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("filter matrix must be 2-d")
        object.__setattr__(self, "w", a)
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64)
        )


def identity_filter(p: int) -> SpatialFilter:
    """The no-op filter of dimension ``p``."""
    return SpatialFilter(w=np.eye(p), kind="identity", eigenvalues=np.empty(0))


def _mean_covariance(mats: np.ndarray, r: int) -> tuple[np.ndarray, int]:
    """The average covariance of the ``(n, p, p)`` array ``mats`` and its
    numerical rank, which ``r`` may not exceed (:class:`RankTooLarge`)."""
    p = mats.shape[-1]
    if not 1 <= r <= p:
        raise ValueError(f"rank must be in [1, {p}], got {r}")
    cbar = mats.mean(axis=0)
    if not np.all(np.isfinite(cbar)):  # a non-finite entry reaches the mean
        raise ValueError("matrix entries must be finite")
    k = numerical_rank(cbar)
    if r > k:
        raise RankTooLarge(f"requested {r} components but the average covariance has rank {k}")
    return cbar, k


def fit_unsupervised(mats, r: int) -> SpatialFilter:
    """PCA filter: top-``r`` eigenvectors of the average covariance of ``mats``.

    Blind to the labels; raises :class:`RankTooLarge` if ``r`` exceeds
    the numerical rank of the average.
    """
    vals, vecs = eigh(_mean_covariance(_as_stack(mats), r)[0])
    return SpatialFilter(w=vecs[:, :r].copy(), kind="unsupervised", eigenvalues=vals[:r].copy())


def fit_supervised(mats, labels, r: int) -> SpatialFilter:
    """Supervised power-covariance filter (generalized eigenproblem).

    The labels are standardized internally (zero mean, unit population
    variance). Columns are the generalized eigenvectors of the pair
    ``(c_y, c_bar)`` where ``c_y`` is the label-weighted average
    covariance, sorted by decreasing eigenvalue and normalized so each
    column ``w`` satisfies ``w.T @ c_bar @ w == 1``; the first column
    maximizes the generalized Rayleigh quotient.

    Always solved on the range of ``c_bar``, full rank or not: for the
    top-``k`` eigenpairs ``(lam_k, v_k)`` of one eigendecomposition of
    ``c_bar``, ``k`` its numerical rank, the whitening is ``b = v_k /
    sqrt(lam_k)`` (p x k), the whitened ``b.T c_y b`` is diagonalized, and
    ``w = b w~``. Nothing is lost: each covariance is PSD, so its range
    lies in that of ``c_bar``.

    Raises
    ------
    RankTooLarge
        If ``r`` exceeds the numerical rank of the average covariance.
    """
    mats, y = _as_stack(mats), np.asarray(labels, dtype=np.float64)
    if y.shape != (len(mats),):
        raise DimensionMismatch(f"expected {len(mats)} labels, got shape {y.shape}")
    cbar, k = _mean_covariance(mats, r)
    std = float(np.std(y))
    if std == 0:
        raise DegenerateDesign("supervised filter needs a non-constant target")
    ytilde = (y - y.mean()) / std
    cy = np.einsum("i,ijk->jk", ytilde, mats) / len(mats)
    lam, v = eigh(cbar)
    b = v[:, :k] / np.sqrt(lam[:k])
    vals, vecs = eigh(_sym(b.T @ cy @ b))
    return SpatialFilter(w=b @ vecs[:, :r], kind="supervised", eigenvalues=vals[:r].copy())


def fit_mne(lead: "Leadfield", lam: float) -> SpatialFilter:
    """Tikhonov-regularized inverse operator of a leadfield.

    For a leadfield ``g`` (p sensors x q sources) the inverse operator
    is ``g.T @ (g @ g.T + lam * I)^-1`` (q x p); it is stored transposed
    in the package's p x q filter convention. As ``lam`` grows the
    entries approach ``g / lam``.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"mne_lambda must be finite and positive, got {lam}")
    g = lead.g
    p = g.shape[0]
    gram = g @ g.T + lam * np.eye(p)
    w = np.linalg.solve(gram, g)
    return SpatialFilter(w=w, kind="mne", eigenvalues=np.empty(0))


def apply(filt: SpatialFilter, mats: np.ndarray) -> np.ndarray:
    """Project every covariance of the ``(n, p, p)`` array ``mats``, ``c -> w.T
    @ c @ w``, in one batched product, as a read-only, exactly symmetric
    ``(n, r, r)`` array. A filter whose ``w`` is exactly the identity returns
    ``mats`` itself when it is already such an array (a bundle's matrices):
    the product would give it back bit for bit, so no second copy is made.
    """
    w, p = filt.w, mats.shape[-1]
    if w.shape[0] != p:
        raise DimensionMismatch(f"filter expects dimension {w.shape[0]}, bundle has {p}")
    no_copy = np.array_equal(w, np.eye(p)) and not mats.flags.writeable
    if no_copy and np.array_equal(mats, mats.swapaxes(-1, -2)):
        return mats
    return _sym(w.T @ mats @ w)


# ---------------------------------------------------------------------------
# Leadfield file format: "LEADFIELD v1 P Q" then P rows of Q decimals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leadfield:
    """Forward matrix ``g`` (p sensors x q candidate sources)."""

    g: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.g, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] < 1:
            raise ValueError(f"leadfield must be p x q with q >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("leadfield entries must be finite")
        object.__setattr__(self, "g", a)


def write_leadfield(path, lead: Leadfield) -> None:
    p, q = lead.g.shape
    with open(path, "w") as fh:
        fh.write(f"LEADFIELD v1 {p} {q}\n")
        write_rows(fh, lead.g)


def read_leadfield(path) -> Leadfield:
    path = Path(path)
    with open(path, "rb") as fh:
        src = LineReader(path, fh)
        _, _, p, q = src.words("LEADFIELD v1 <p> <q>")
        g = src.block(src.count(p), src.count(q))
        src.end()
    return Leadfield(g=g)
