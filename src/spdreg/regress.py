"""Tangent-space ridge regression with generalized cross-validation.

The pipeline is: fit the spatial filter, project, do the per-sample part
of the embedding (:func:`~spdreg.manifold.prepare_samples`), fit the
embedding reference on the training split (the closed-form mean of the
embedding's metric, exact on the paper's generative models, with no
descent: :func:`~spdreg.manifold.fit_embedding`), vectorize,
then fit a ridge model whose regularization is chosen by generalized
cross-validation (GCV) over a fixed grid. The CLI and every CV fold take
one path: :func:`fit_filter` on an ``(n, p, p)`` array and its labels, then
:func:`project` of the array to :class:`~spdreg.manifold.Samples`, then
:func:`fit_fold` on the training rows and their labels and
:func:`predict_fold` on the held-out rows. A bundle is only the input to
:func:`run_pipeline_cv`, which builds none.

In cross-validation, :func:`run_pipeline_cv`, the reference, the feature
centring and scale and the ridge fit run per fold on its training split.
The whole bundle is projected once per CV run when the filter is fit
without the samples (``identity``, ``mne``) and once per fold, with that
fold's filter, otherwise; :func:`run_pipeline_cv` says why sharing it is
not leakage. Nothing fitted ever sees the held-out fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import FLOAT_FMT, CovarianceBundle
from .errors import (
    ConfigError,
    DegenerateDesign,
    DimensionMismatch,
    NumericalError,
)
from .filters import (
    FILTER_KINDS,
    Leadfield,
    SpatialFilter,
    apply,
    fit_mne,
    fit_supervised,
    fit_unsupervised,
    identity_filter,
)
from .manifold import (
    EMBEDDING_KINDS,
    Embedding,
    Samples,
    embed,
    fit_embedding,
    prepare_samples,
)

RESULTS_HEADER = "method,filter,embedding,rank,fold,lambda,mae,seed"


def default_ridge_grid() -> np.ndarray:
    """100 logarithmically spaced regularization values in [1e-5, 1e3]."""
    return np.logspace(-5.0, 3.0, 100)


def _as_grid(grid) -> np.ndarray:
    """``grid`` as a float64 array; a ValueError unless it is nonempty, finite
    and positive (a NaN or infinite value would leave GCV no minimum)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("ridge grid must be nonempty, finite and positive")
    return grid


@dataclass(frozen=True)
class PipelineSpec:
    """Choice of filter, embedding, and ridge grid for one pipeline.

    ``filter_rank`` is the number of retained components for the
    unsupervised/supervised filters (identity keeps the full dimension;
    mne takes its width from the leadfield). ``name`` overrides the
    method label used in result tables.
    """

    filter_kind: str = "identity"
    filter_rank: int | None = None
    embedding_kind: str = "geometric"
    ridge_grid: np.ndarray = field(default_factory=default_ridge_grid)
    leadfield: Leadfield | None = None
    mne_lambda: float = 1.0
    name: str | None = None

    def __post_init__(self):
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(
                f"unknown filter kind {self.filter_kind!r}; expected one of {FILTER_KINDS}"
            )
        if self.embedding_kind not in EMBEDDING_KINDS:
            raise ValueError(
                f"unknown embedding kind {self.embedding_kind!r}; "
                f"expected one of {EMBEDDING_KINDS}"
            )
        grid = _as_grid(self.ridge_grid)
        if np.any(np.diff(grid) <= 0):
            raise ValueError("ridge grid must be strictly increasing")
        object.__setattr__(self, "ridge_grid", grid)
        if self.filter_kind in ("unsupervised", "supervised"):
            if self.filter_rank is None or self.filter_rank < 1:
                raise ValueError(f"{self.filter_kind} filter needs filter_rank >= 1")
        if self.filter_kind == "mne" and self.leadfield is None:
            raise ConfigError("mne filter needs a leadfield")
        if not (np.isfinite(self.mne_lambda) and self.mne_lambda > 0):
            raise ValueError("mne_lambda must be finite and positive")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return f"{self.filter_kind}+{self.embedding_kind}"


@dataclass(frozen=True)
class RidgeModel:
    """Fitted ridge regressor on centred, scaled features.

    Predictions are ``((x - feature_mean) / feature_scale) @ beta +
    intercept``, one positive ``feature_scale`` for all columns. ``gcv_path``
    keeps the GCV criterion at every grid value and ``fitted`` the
    predictions on the training rows; a model read from a file has neither.
    """

    beta: np.ndarray
    intercept: float
    lambda_star: float
    feature_mean: np.ndarray
    feature_scale: np.float64
    gcv_path: np.ndarray = field(default_factory=lambda: np.empty(0))
    fitted: np.ndarray | None = None


def fit_ridge_gcv(features, y, grid=None) -> RidgeModel:
    """Ridge regression with GCV-selected regularization.

    The target and the feature columns are centred on the training data,
    and the design is divided by one scale, its root mean column variance
    ``s = ||x - mean||_F / sqrt(n * k)``, so ``trace(xs^T xs) = n * k`` as
    for unit-variance columns. One scale keeps the model equivariant under
    an orthogonal map of feature space, which is what a congruence in a
    metric's isometry group does to isometric tangent rows; a scale per
    column would not. The criterion ``GCV(lam) = n * ||(I - H_lam) y_c||^2
    / tr(I - H_lam)^2`` is evaluated for the whole grid in one array
    expression from one ``eigh`` of the smaller Gram matrix of the scaled
    n x k design: ``xs^T xs`` when ``k <= n``, ``xs xs^T`` when ``k > n``.
    Ties are broken toward the larger lambda.

    Raises
    ------
    DegenerateDesign
        If ``s <= n * eps * max|x|``: every column is constant to the
        round-off of its mean.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {x.shape}")
    n, k = x.shape
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if y.shape != (n,):
        raise DimensionMismatch(f"expected {n} targets, got shape {y.shape}")
    grid = _as_grid(default_ridge_grid() if grid is None else grid)

    # Centre into xs and scale it in place: the only n x k array made here.
    mean = x.mean(axis=0)
    xs = x - mean
    scale = np.linalg.norm(xs) / np.sqrt(n * k)
    if scale <= n * np.finfo(float).eps * max(x.max(), -x.min()):
        raise DegenerateDesign("all feature columns are constant")
    xs /= scale
    ybar = float(y.mean())
    yc = y - ybar

    # One eigh of the smaller Gram matrix gives the squared singular values
    # s2 of xs, c = u^T yc for its left singular vectors u, and r0 = yc - u c.
    # For k > n, u are the eigenvectors of xs xs^T. For k <= n, u = xs v / s
    # for those v of xs^T xs is poor at small s and is never formed: d = v^T
    # xs^T yc = s c and r0 = yc - xs v (d / s2). Forward error: the Gram's
    # eigenvalues are off by O(k eps max(s2)) (Weyl), so each lam / (s2 + lam)
    # moves by O(k eps max(s2) / lam) relative. Eigenvalues of xs^T xs at or
    # below that level are dropped as null (shrink 1, their share of yc left
    # in r0); a kept one splits yc between c and r0 to O(k eps max(s2) / s2)
    # relative, the squared condition of the normal equations, below 1.
    if k > n:
        s2, u = np.linalg.eigh(xs @ xs.T)
        s2 = np.clip(s2, 0.0, None)
        c = u.T @ yc
        r0 = yc - u @ c
    else:
        s2, v = np.linalg.eigh(xs.T @ xs)
        live = s2 > k * np.finfo(float).eps * s2[-1]
        s2, v = s2[live], v[:, live]
        d = v.T @ (xs.T @ yc)
        c = d / np.sqrt(s2)
        r0 = yc - xs @ (v @ (d / s2))
    # lam / (s2 + lam) is written out, never as 1 - h: where the fit is
    # exact h ~ 1 and the difference would cancel.
    shrink = grid[:, None] / (s2 + grid[:, None])
    rss = float(r0 @ r0) + np.sum((shrink * c) ** 2, axis=1)
    trace = (n - s2.size) + shrink.sum(axis=1)
    gcv = n * rss / trace**2
    best = np.min(gcv)
    ties = np.nonzero(gcv == best)[0]
    ibest = ties[np.argmax(grid[ties])]
    lam = float(grid[ibest])
    beta = xs.T @ (u @ (c / (s2 + lam))) if k > n else v @ (d / (s2 + lam))
    return RidgeModel(
        beta=beta,
        intercept=ybar,
        lambda_star=lam,
        feature_mean=mean,
        feature_scale=scale,
        gcv_path=gcv,
        fitted=xs @ beta + ybar,
    )


def predict(model: RidgeModel, features) -> np.ndarray:
    """Predictions of a fitted ridge model on new feature rows."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.beta.shape[0]:
        raise DimensionMismatch(
            f"expected {model.beta.shape[0]} feature columns, got shape {x.shape}"
        )
    return ((x - model.feature_mean) / model.feature_scale) @ model.beta + model.intercept


# ---------------------------------------------------------------------------
# Cross-validated pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldState:
    """Everything fitted on one training split."""

    filt: SpatialFilter
    embedding: Embedding
    model: RidgeModel


@dataclass(frozen=True)
class CVReport:
    """Per-fold out-of-sample mean absolute errors, selected lambdas and
    fitted states."""

    per_fold_mae: np.ndarray
    mean_mae: float
    per_fold_lambda: np.ndarray
    seed: int
    states: list[FoldState]


def fold_blocks(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle split into ``folds`` contiguous blocks.

    The ``n % folds`` leftover samples go one each to the first folds.
    """
    return np.array_split(np.random.default_rng(seed).permutation(n), folds)


# Filters fit without reading the samples: cross-validation fits them,
# projects, and prepares the embedding's per-sample data once per run.
FIXED_FILTERS = ("identity", "mne")


def fit_filter(mats: np.ndarray, labels, spec: PipelineSpec) -> SpatialFilter:
    """The spatial filter of ``spec`` for the ``(n, p, p)`` array ``mats``, fit
    on it and its ``labels`` when its kind reads the samples. An ``mne``
    leadfield whose sensor count is not ``p`` is a :class:`ConfigError`."""
    p = mats.shape[-1]
    if spec.filter_kind == "identity":
        return identity_filter(p)
    if spec.filter_kind == "unsupervised":
        return fit_unsupervised(mats, spec.filter_rank)
    if spec.filter_kind == "supervised":
        return fit_supervised(mats, labels, spec.filter_rank)
    sensors = spec.leadfield.g.shape[0]
    if sensors != p:
        raise ConfigError(f"leadfield has {sensors} sensors, the covariances have dimension {p}")
    return fit_mne(spec.leadfield, spec.mne_lambda)


def project(filt: SpatialFilter, mats: np.ndarray, kind: str) -> Samples:
    """Project the ``(n, p, p)`` array ``mats`` with ``filt`` and prepare it for
    embedding ``kind`` (Wasserstein factors at the projected samples' largest
    rank)."""
    return prepare_samples(apply(filt, mats), kind)


def fit_fold(filt: SpatialFilter, train: Samples, labels, spec: PipelineSpec) -> FoldState:
    """Fit the embedding reference and ridge model on training samples
    projected with ``filt`` and their labels; the fold keeps ``filt``."""
    embedding, rows = fit_embedding(train, spec.embedding_kind)
    model = fit_ridge_gcv(rows, labels, spec.ridge_grid)
    return FoldState(filt=filt, embedding=embedding, model=model)


def predict_fold(state: FoldState, test: Samples) -> np.ndarray:
    """Apply a fitted fold to held-out samples projected with the fold's own
    filter."""
    return predict(state.model, embed(state.embedding, test))


def run_pipeline_cv(
    bundle: CovarianceBundle, spec: PipelineSpec, folds: int, seed: int
) -> CVReport:
    """K-fold out-of-sample evaluation of a pipeline, with each fold's
    fitted state.

    Each fold is fit strictly on its training split: spatial filter,
    embedding reference (the closed-form mean, so no fold runs a descent
    or raises :class:`~spdreg.errors.NoConvergence`), feature centring and
    scale, and ridge weights never see the held-out block.

    The whole bundle is projected, and the per-sample part of the embedding
    done (Wasserstein eigen-factors with their PSD check, Euclidean and
    log-diagonal rows; geometric log maps all depend on the reference, so
    only the projection), in one :class:`~spdreg.manifold.Samples` that
    each fold slices lazily: its training rows are gathered for its
    reference alone, whose feature rows feed the ridge fit with the
    training labels, and its held-out rows are embedded at its reference.
    When the filter is fit without the samples (``identity``, ``mne``) that
    is done once per run; the ``unsupervised`` and ``supervised`` filters
    are fit on each training split's rows of the bundle's arrays (no bundle
    is built), and the bundle is projected with each, the last fold's
    projection dropped first. This is not leakage: each shared value is a
    function of the filter and its own sample alone (but for the zero factor
    columns the bundle's largest rank adds, which the mean and embedding
    cut), and the batched kernels give each slice bit for bit what they give
    it alone, so every fold's state is exactly what fitting that fold from
    scratch gives. A Wasserstein error names its sample by bundle index.
    """
    mats, labels, n = bundle.matrices, bundle.labels, bundle.n
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    blocks = fold_blocks(n, folds, seed)
    fixed = spec.filter_kind in FIXED_FILTERS
    if fixed:
        filt = fit_filter(mats, labels, spec)
        samples = project(filt, mats, spec.embedding_kind)
    maes, lams, states = [], [], []
    for k, test_idx in enumerate(blocks):
        train_idx = np.delete(np.arange(n), test_idx)
        try:
            if not fixed:
                samples = None  # not held beside this fold's training split
                filt = fit_filter(mats[train_idx], labels[train_idx], spec)
                samples = project(filt, mats, spec.embedding_kind)
            state = fit_fold(filt, samples.subset(train_idx), labels[train_idx], spec)
            yhat = predict_fold(state, samples.subset(test_idx))
        except NumericalError as exc:
            exc.args = (f"fold {k}: {exc}",)
            raise
        maes.append(float(np.mean(np.abs(labels[test_idx] - yhat))))
        lams.append(state.model.lambda_star)
        states.append(state)
    per_fold = np.array(maes)
    return CVReport(
        per_fold_mae=per_fold,
        mean_mae=float(np.mean(per_fold)),
        per_fold_lambda=np.array(lams),
        seed=seed,
        states=states,
    )


# ---------------------------------------------------------------------------
# Results CSV: method,filter,embedding,rank,fold,lambda,mae,seed
# ---------------------------------------------------------------------------


def effective_rank(spec: PipelineSpec, p: int) -> int:
    """The ``rank`` column of result tables: the dimension after the
    spec's filter on ``p`` sensors (identity ignores ``filter_rank``)."""
    if spec.filter_kind == "identity":
        return p
    if spec.filter_kind == "mne":
        return spec.leadfield.g.shape[1]
    return spec.filter_rank


def results_rows(spec: PipelineSpec, report: CVReport, rank: int) -> list[dict]:
    """One result row per fold in the results CSV schema."""
    folds = enumerate(zip(report.per_fold_mae, report.per_fold_lambda))
    return [
        {"method": spec.label, "filter": spec.filter_kind, "embedding": spec.embedding_kind,
         "rank": rank, "fold": k, "lambda": lam, "mae": mae, "seed": report.seed}
        for k, (mae, lam) in folds
    ]


def write_csv(path, header: str, rows) -> None:
    """Write the ``header`` columns of each row, floats with 17 significant
    digits."""
    fields = header.split(",")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            values = (row[f] for f in fields)
            fh.write(",".join(FLOAT_FMT % v if isinstance(v, float) else str(v) for v in values))
            fh.write("\n")
