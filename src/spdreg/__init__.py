"""Regression on (possibly rank-deficient) covariance matrices via
tangent-space embeddings, with spatial-filter dimensionality reduction
and a seeded synthetic generator."""

from .bundle import CovarianceBundle, read_covb, write_covb
from .errors import (
    ConfigError,
    DegenerateDesign,
    DimensionMismatch,
    NoConvergence,
    NonPositiveDiagonal,
    NotPSD,
    NumericalError,
    NumericalFailure,
    RankMismatch,
    RankTooLarge,
    SingularMatrix,
    SpdregError,
)
from .filters import (
    Leadfield,
    SpatialFilter,
    apply,
    fit_mne,
    fit_supervised,
    fit_unsupervised,
    identity_filter,
    read_leadfield,
    write_leadfield,
)
from .manifold import (
    Embedding,
    FrechetMean,
    dist_geometric,
    dist_wasserstein,
    embed,
    factorize,
    fit_embedding,
    mean_euclidean,
    mean_geometric,
    mean_wasserstein,
    no_affine_invariance_witness,
)
from .regress import (
    CVReport,
    PipelineSpec,
    RidgeModel,
    default_ridge_grid,
    fit_ridge_gcv,
    predict,
    run_pipeline_cv,
)
from .simgen import GenerativeConfig, make_mixing, sample_bundle, sweep
from .symmat import EigenPairs, SymMat, eigh, numerical_rank, sym_func

__version__ = "0.1.0"
