"""Spatial filters: learn a ``p x r`` projection and apply it to bundles.

Four ways to obtain the projection ``w``:

* identity -- keep the sensor space untouched;
* unsupervised -- top eigenvectors of the average covariance (PCA);
* supervised -- generalized eigenvectors of the label-weighted average
  covariance against the plain average, i.e. directions whose projected
  power co-varies most with the target;
* mne -- Tikhonov-regularized inverse of a supplied leadfield matrix.

Applying a filter maps a bundle to a bundle: each covariance ``c`` goes
to ``w.T @ c @ w`` in one batched product over the whole ``(n, p, p)``
array, and the labels are carried through unchanged. A filter whose ``w``
is exactly the identity returns the bundle it is given, with no copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundle import CovarianceBundle, LineReader, write_rows
from .errors import DegenerateDesign, DimensionMismatch, RankTooLarge
from .symmat import SymMat, eigh, numerical_rank, sym_func

FILTER_KINDS = ("identity", "unsupervised", "supervised", "mne")


@dataclass(frozen=True)
class SpatialFilter:
    """Fitted projection ``w`` (p x r) with its provenance.

    ``eigenvalues`` records the selection criterion of the fitted
    columns (component variance for unsupervised filters, power-target
    covariance for supervised ones); empty for identity and mne.
    """

    w: np.ndarray
    kind: str
    rank_out: int
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
    return SpatialFilter(
        w=np.eye(p), kind="identity", rank_out=p, eigenvalues=np.empty(0)
    )


def _mean_covariance(bundle: CovarianceBundle, r: int) -> tuple[SymMat, int]:
    """The average covariance and its numerical rank, which ``r`` may not
    exceed (:class:`RankTooLarge`)."""
    p = bundle.dim
    if not 1 <= r <= p:
        raise ValueError(f"rank must be in [1, {p}], got {r}")
    cbar = SymMat(bundle.matrices.mean(axis=0))
    k = numerical_rank(cbar)
    if r > k:
        raise RankTooLarge(f"requested {r} components but the average covariance has rank {k}")
    return cbar, k


def fit_unsupervised(bundle: CovarianceBundle, r: int) -> SpatialFilter:
    """PCA filter: top-``r`` eigenvectors of the average covariance.

    Blind to the labels; raises :class:`RankTooLarge` if ``r`` exceeds
    the numerical rank of the average.
    """
    cbar, _ = _mean_covariance(bundle, r)
    ep = eigh(cbar)
    return SpatialFilter(
        w=ep.vectors[:, :r].copy(),
        kind="unsupervised",
        rank_out=r,
        eigenvalues=ep.values[:r].copy(),
    )


def fit_supervised(bundle: CovarianceBundle, r: int) -> SpatialFilter:
    """Supervised power-covariance filter (generalized eigenproblem).

    The labels are standardized internally (zero mean, unit population
    variance). Columns are the generalized eigenvectors of the pair
    ``(c_y, c_bar)`` where ``c_y`` is the label-weighted average
    covariance, sorted by decreasing eigenvalue and normalized so each
    column ``w`` satisfies ``w.T @ c_bar @ w == 1``; the first column
    maximizes the generalized Rayleigh quotient. Solved by whitening
    with ``c_bar^-1/2`` and diagonalizing the whitened ``c_y``.

    If ``c_bar`` has numerical rank ``k < p``, the pair is first reduced
    to its range (``b.T c b`` for ``b`` the top-``k`` eigenvectors of
    ``c_bar``) and ``w = b w~``. Nothing is lost: each covariance is PSD,
    so its range lies in that of ``c_bar``.

    Raises
    ------
    RankTooLarge
        If ``r`` exceeds the numerical rank of the average covariance.
    """
    cbar, k = _mean_covariance(bundle, r)
    y = bundle.labels
    std = float(np.std(y))
    if std == 0:
        raise DegenerateDesign("supervised filter needs a non-constant target")
    ytilde = (y - y.mean()) / std
    cy = np.einsum("i,ijk->jk", ytilde, bundle.matrices) / bundle.n
    if k < bundle.dim:
        b = eigh(cbar).vectors[:, :k]
        cbar, cy = SymMat(b.T @ cbar.data @ b), b.T @ cy @ b
    isq = sym_func(cbar, "inv_sqrt").data
    ep = eigh(SymMat(isq @ cy @ isq))
    w = isq @ ep.vectors[:, :r]
    if k < bundle.dim:
        w = b @ w
    return SpatialFilter(
        w=w, kind="supervised", rank_out=r, eigenvalues=ep.values[:r].copy()
    )


def fit_mne(lead: "Leadfield", lam: float) -> SpatialFilter:
    """Tikhonov-regularized inverse operator of a leadfield.

    For a leadfield ``g`` (p sensors x q sources) the inverse operator
    is ``g.T @ (g @ g.T + lam * I)^-1`` (q x p); it is stored transposed
    in the package's p x q filter convention. As ``lam`` grows the
    entries approach ``g / lam``.
    """
    if lam <= 0:
        raise ValueError(f"regularization must be positive, got {lam}")
    g = lead.g
    p = g.shape[0]
    gram = g @ g.T + lam * np.eye(p)
    w = np.linalg.solve(gram, g)
    return SpatialFilter(w=w, kind="mne", rank_out=g.shape[1], eigenvalues=np.empty(0))


def apply(filt: SpatialFilter, bundle: CovarianceBundle) -> CovarianceBundle:
    """Project every covariance, ``c -> w.T @ c @ w``, in one batched product;
    the labels are unchanged. A filter whose ``w`` is exactly the identity
    returns ``bundle`` itself: the product would give its matrices back bit
    for bit, so no second copy of them is made.
    """
    w, p = filt.w, bundle.dim
    if w.shape[0] != p:
        raise DimensionMismatch(f"filter expects dimension {w.shape[0]}, bundle has {p}")
    rank = min(filt.rank_out, bundle.nominal_rank)
    if rank == bundle.nominal_rank and np.array_equal(w, np.eye(p)):
        return bundle
    return CovarianceBundle(
        matrices=w.T @ bundle.matrices @ w,
        labels=bundle.labels.copy(),
        nominal_rank=rank,
        provenance=bundle.provenance,
    )


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
    with open(path) as fh:
        src = LineReader(path, fh)
        _, _, p, q = src.words("LEADFIELD v1 <p> <q>")
        g = src.block(1, src.count(p), src.count(q))[0]
        src.end()
    return Leadfield(g=g)
