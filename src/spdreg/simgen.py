"""Seeded synthetic covariance bundles from a structured mixing model.

Each subject ``i`` gets a diagonal power matrix ``e_i`` (``q`` signal
powers followed by ``p - q`` weaker noise powers) mixed through
``a_i = a + xi_i`` into a covariance ``c_i = a_i e_i a_i.T``. The shared
mixing ``a`` is the matrix exponential of ``mu`` times a random square
matrix (optionally replaced by its orthogonal polar factor), so ``mu``
dials the distance from the identity. Targets are a fixed linear
combination of the per-subject signal powers through a link function
(identity, log, or sqrt) plus Gaussian noise.

All randomness comes from one ``numpy.random.default_rng(seed)`` stream
with a pinned draw order: mixing seed matrix ``b``, coefficients
``alpha``, per-subject log-powers (signal then noise), label noise
``eps``, mixing perturbations ``xi``. Identical configs therefore yield
bit-identical bundles. Noise draws are taken even when their scale is
zero so the same seed gives the same powers across parameter sweeps.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bundle import CovarianceBundle
from .errors import SpdregError
from .regress import PipelineSpec, effective_rank, run_pipeline_cv

F_KINDS = ("identity", "log", "sqrt")
SWEEP_AXES = ("sigma", "mu", "sigma_mix")
SWEEP_HEADER = "axis,value,repeat,method,filter,embedding,rank,fold,lambda,mae,seed,error"

_LINKS = {
    "identity": lambda x: x,
    "log": np.log,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class GenerativeConfig:
    """Knobs of the synthetic generator.

    ``p`` sensors, ``q < p`` signal sources, ``n`` subjects; ``mu``
    scales the shared mixing away from identity, ``sigma`` is the label
    noise, ``sigma_mix`` the per-subject mixing perturbation.
    """

    p: int = 5
    q: int = 2
    n: int = 100
    mu: float = 1.0
    sigma: float = 0.0
    sigma_mix: float = 0.0
    f_kind: str = "log"
    orthogonal_a: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.q < self.p:
            raise ValueError(f"need 1 <= q < p, got q={self.q}, p={self.p}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        for name in ("mu", "sigma", "sigma_mix"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.f_kind not in F_KINDS:
            raise ValueError(f"unknown link {self.f_kind!r}; expected one of {F_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _draw_mixing(rng: np.random.Generator, cfg: GenerativeConfig) -> np.ndarray:
    b = rng.standard_normal((cfg.p, cfg.p))
    # General (non-symmetric) matrix exponential: scaling-and-squaring.
    a = scipy.linalg.expm(cfg.mu * b)
    if cfg.orthogonal_a:
        u, _, vt = np.linalg.svd(a)
        a = u @ vt
    return a


def make_mixing(cfg: GenerativeConfig) -> np.ndarray:
    """Shared mixing matrix ``exp(mu * b)`` for the config's seed.

    ``mu = 0`` gives the identity exactly; with ``orthogonal_a`` the
    orthogonal polar factor of the exponential is returned instead.
    """
    return _draw_mixing(np.random.default_rng(cfg.seed), cfg)


def sample_bundle(cfg: GenerativeConfig) -> tuple[CovarianceBundle, np.ndarray]:
    """Generate one labeled bundle; returns it with the coefficients.

    Signal log-powers are standard normal; noise log-powers are
    N(-2, 0.25) so noise sources are weaker than signal sources.
    Labels are ``alpha . f(signal powers) + eps``.
    """
    rng = np.random.default_rng(cfg.seed)
    a = _draw_mixing(rng, cfg)
    alpha = rng.standard_normal(cfg.q)
    log_powers = rng.standard_normal((cfg.n, cfg.q))
    log_noise = -2.0 + 0.5 * rng.standard_normal((cfg.n, cfg.p - cfg.q))
    eps = cfg.sigma * rng.standard_normal(cfg.n)
    xi = cfg.sigma_mix * rng.standard_normal((cfg.n, cfg.p, cfg.p))

    powers = np.exp(log_powers)
    noise_powers = np.exp(log_noise)
    link = _LINKS[cfg.f_kind]
    y = link(powers) @ alpha + eps

    mats = np.empty((cfg.n, cfg.p, cfg.p))
    for i in range(cfg.n):
        ai = a + xi[i]
        e = np.concatenate([powers[i], noise_powers[i]])
        mats[i] = (ai * e) @ ai.T
    bundle = CovarianceBundle(
        matrices=mats, labels=y, nominal_rank=cfg.p, provenance=cfg
    )
    return bundle, alpha


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _run_cell(args) -> list[dict]:
    cfg_base, axis, value, spec, repeat, folds = args
    cfg = dataclasses.replace(cfg_base, **{axis: value}, seed=cfg_base.seed + repeat)
    base = {
        "axis": axis,
        "value": value,
        "repeat": repeat,
        "method": spec.label,
        "filter": spec.filter_kind,
        "embedding": spec.embedding_kind,
        "rank": effective_rank(spec, cfg.p),
        "seed": cfg.seed,
    }
    try:
        bundle, _ = sample_bundle(cfg)
        report = run_pipeline_cv(bundle, spec, folds, seed=cfg.seed)
    except (SpdregError, ValueError) as exc:
        return [dict(base, fold="", **{"lambda": ""}, mae="", error=str(exc))]
    rows = []
    for k, (mae, lam) in enumerate(zip(report.per_fold_mae, report.per_fold_lambda)):
        rows.append(dict(base, fold=k, **{"lambda": lam}, mae=mae, error=""))
    return rows


def sweep(
    cfg_base: GenerativeConfig,
    axis: str,
    values,
    specs: list[PipelineSpec],
    folds: int,
    repeats: int,
    jobs: int = 1,
) -> list[dict]:
    """Grid of (axis value x pipeline x repeat) cells, one row per fold.

    Each repeat re-generates data with seed ``base seed + repeat``; a
    failing cell contributes a single row with the ``error`` column set
    and the sweep continues. Rows come back in deterministic cell order
    regardless of ``jobs``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    cells = [
        (cfg_base, axis, value, spec, repeat, folds)
        for value in values
        for spec in specs
        for repeat in range(repeats)
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(_run_cell, cells))
    else:
        per_cell = [_run_cell(cell) for cell in cells]
    return [row for rows in per_cell for row in rows]

