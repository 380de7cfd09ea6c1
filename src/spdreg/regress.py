"""Tangent-space ridge regression with generalized cross-validation.

The pipeline is: fit the spatial filter, project, do the per-sample part
of the embedding (:func:`~spdreg.manifold.prepare_samples`), fit the
embedding reference (a Frechet mean) on the training split, vectorize,
then fit a ridge model whose regularization is chosen by generalized
cross-validation (GCV) over a fixed grid. :func:`fit_fold` and
:func:`predict_fold` run it for the CLI and for every CV fold.

In cross-validation the reference, the standardization and the ridge fit
run per fold on its training split. The projection and the per-sample
step run once per CV run when the filter is fit without the samples
(``identity``, ``mne``) and per fold otherwise; :func:`cross_val_states`
says why sharing them is not leakage. Nothing fitted ever sees the
held-out fold.
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
        grid = np.asarray(self.ridge_grid, dtype=np.float64)
        if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("ridge grid must be nonempty, positive, strictly increasing")
        object.__setattr__(self, "ridge_grid", grid)
        if self.filter_kind in ("unsupervised", "supervised"):
            if self.filter_rank is None or self.filter_rank < 1:
                raise ValueError(f"{self.filter_kind} filter needs filter_rank >= 1")
        if self.filter_kind == "mne" and self.leadfield is None:
            raise ConfigError("mne filter needs a leadfield")
        if self.mne_lambda <= 0:
            raise ValueError("mne_lambda must be positive")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return f"{self.filter_kind}+{self.embedding_kind}"


@dataclass(frozen=True)
class RidgeModel:
    """Fitted ridge regressor on standardized features.

    Predictions are ``((x - feature_mean) / feature_scale) @ beta +
    intercept``. ``gcv_path`` keeps the GCV criterion at every grid
    value for diagnostics, and ``fitted`` the predictions on the training
    rows (None for a model read from a file).
    """

    beta: np.ndarray
    intercept: float
    lambda_star: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    grid: np.ndarray
    gcv_path: np.ndarray
    fitted: np.ndarray | None = None


@dataclass(frozen=True)
class CVReport:
    """Per-fold out-of-sample mean absolute errors and selected lambdas."""

    per_fold_mae: np.ndarray
    mean_mae: float
    per_fold_lambda: np.ndarray
    seed: int
    ridge_grid: np.ndarray


def fit_ridge_gcv(features, y, grid=None) -> RidgeModel:
    """Ridge regression with GCV-selected regularization.

    The target is centered and the feature columns are standardized on
    the training data. A column whose standard deviation is at or below
    ``n * eps * max|x|`` is constant and gets scale 1: an embedding gives
    all its features in one unit, each with a round-off of order ``eps *
    max|x|``, and a mean over ``n`` rows is off by up to ``n`` times that,
    so such a spread is not told from zero. Unit variance would blow a
    held-out row's round-off up by ``1 / std``. The
    criterion ``GCV(lam) = n * ||(I - H_lam) y_c||^2 / tr(I - H_lam)^2``
    is evaluated for the whole grid in one array expression from one
    ``eigh`` of the smaller Gram matrix of the standardized n x k design:
    ``xs^T xs`` when ``k <= n``, ``xs xs^T`` when ``k > n``. Ties are
    broken toward the larger lambda.

    Raises
    ------
    DegenerateDesign
        If every feature column is constant.
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
    grid = default_ridge_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("ridge grid must be nonempty and positive")

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    constant = scale <= n * np.finfo(float).eps * np.max(np.abs(x))
    if np.all(constant):
        raise DegenerateDesign("all feature columns are constant")
    scale = np.where(constant, 1.0, scale)
    xs = (x - mean) / scale
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
        grid=grid,
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


def fold_blocks(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle split into ``folds`` contiguous blocks.

    The ``n % folds`` leftover samples go one each to the first folds.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, folds)
    blocks, start = [], 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        blocks.append(perm[start : start + size])
        start += size
    return blocks


# Filters fit without reading the samples: cross-validation fits them,
# projects, and prepares the embedding's per-sample data once per run.
FIXED_FILTERS = ("identity", "mne")


def _fit_filter(train: CovarianceBundle, spec: PipelineSpec) -> SpatialFilter:
    if spec.filter_kind == "identity":
        return identity_filter(train.dim)
    if spec.filter_kind == "unsupervised":
        return fit_unsupervised(train, spec.filter_rank)
    if spec.filter_kind == "supervised":
        return fit_supervised(train, spec.filter_rank)
    return fit_mne(spec.leadfield, spec.mne_lambda)


@dataclass(frozen=True)
class Projected:
    """Labeled samples after a fitted filter, with the reference-free part
    of the embedding done (:class:`~spdreg.manifold.Samples`).

    :func:`fit_fold` and :func:`predict_fold` take one in place of a bundle;
    :meth:`subset` slices it like :meth:`CovarianceBundle.subset`.
    """

    filt: SpatialFilter
    samples: Samples
    labels: np.ndarray

    def subset(self, indices) -> "Projected":
        return Projected(self.filt, self.samples.subset(indices), self.labels[indices])


def project(filt: SpatialFilter, bundle: CovarianceBundle, kind: str, rank=None) -> Projected:
    """Project ``bundle`` with ``filt`` and prepare it for embedding ``kind``
    at Wasserstein rank ``rank``, by default the projected nominal rank."""
    out = apply(filt, bundle)
    rank = out.nominal_rank if rank is None else rank
    return Projected(filt, prepare_samples(out.matrices, kind, rank), bundle.labels)


def fit_fold(train, spec: PipelineSpec) -> FoldState:
    """Fit filter, embedding reference, and ridge model on one split.

    ``train`` is a bundle, or a :class:`Projected` split whose filter was
    fit without its samples (see :func:`cross_val_states`).
    """
    if isinstance(train, CovarianceBundle):
        train = project(_fit_filter(train, spec), train, spec.embedding_kind)
    embedding, rows = fit_embedding(train.samples, spec.embedding_kind)
    model = fit_ridge_gcv(rows, train.labels, spec.ridge_grid)
    return FoldState(filt=train.filt, embedding=embedding, model=model)


def predict_fold(state: FoldState, test) -> np.ndarray:
    """Apply a fitted fold to held-out covariances: a bundle, or a
    :class:`Projected` split made with the fold's own filter."""
    if isinstance(test, CovarianceBundle):
        test = project(state.filt, test, state.embedding.kind, state.embedding.rank)
    return predict(state.model, embed(state.embedding, test.samples))


def cross_val_states(
    bundle: CovarianceBundle, spec: PipelineSpec, folds: int, seed: int
) -> tuple[CVReport, list[FoldState]]:
    """K-fold evaluation returning the report plus per-fold fitted state.

    Each fold is fit strictly on its training split: spatial filter,
    embedding reference mean, feature standardization, and ridge weights
    never see the held-out block.

    When the filter is fit without the samples (``identity``, ``mne``),
    the work that depends on one sample alone is done once per run: the
    projection, and the per-sample part of the embedding (Wasserstein
    eigen-factors with their rank and PSD checks, Euclidean and
    log-diagonal rows; geometric log maps all depend on the reference, so
    only the projection is shared). Each fold slices these arrays: its
    training rows feed its Frechet mean and ridge fit, and its held-out
    rows are embedded at its reference. This is not leakage: each shared
    value is a function of its own sample alone, and the batched kernels
    give each slice bit for bit what they give it alone, so every fold's
    state is exactly what fitting that fold from scratch gives. Errors
    name a failing sample by its bundle index. The
    ``unsupervised`` and ``supervised`` filters are fit on each training
    split, so for them the projection and all after it run per fold.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if bundle.n < folds:
        raise ValueError(f"bundle has {bundle.n} samples but {folds} folds requested")
    blocks = fold_blocks(bundle.n, folds, seed)
    data = bundle
    if spec.filter_kind in FIXED_FILTERS:
        data = project(_fit_filter(bundle, spec), bundle, spec.embedding_kind)
    maes, lams, states = [], [], []
    for k, test_idx in enumerate(blocks):
        mask = np.ones(bundle.n, dtype=bool)
        mask[test_idx] = False
        train_idx = np.nonzero(mask)[0]
        split = train_idx
        try:
            state = fit_fold(data.subset(train_idx), spec)
            split = test_idx
            test = data.subset(test_idx)
            yhat = predict_fold(state, test)
        except NumericalError as exc:
            if getattr(exc, "sample", None) is not None:
                exc.renumber(split)
            exc.args = (f"fold {k}: {exc}",)
            raise
        maes.append(float(np.mean(np.abs(test.labels - yhat))))
        lams.append(state.model.lambda_star)
        states.append(state)
    per_fold = np.array(maes)
    return (
        CVReport(
            per_fold_mae=per_fold,
            mean_mae=float(np.mean(per_fold)),
            per_fold_lambda=np.array(lams),
            seed=seed,
            ridge_grid=spec.ridge_grid,
        ),
        states,
    )


def run_pipeline_cv(
    bundle: CovarianceBundle, spec: PipelineSpec, folds: int, seed: int
) -> CVReport:
    """K-fold out-of-sample evaluation of a pipeline (see module docs)."""
    report, _ = cross_val_states(bundle, spec, folds, seed)
    return report


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
