"""Seeded synthetic covariance bundles from a structured mixing model.

Each subject ``i`` gets a diagonal power matrix ``e_i`` (``q`` signal
powers followed by ``p - q`` weaker noise powers) mixed through
``a_i = a + xi_i`` into a covariance ``c_i = a_i e_i a_i.T``. The shared
mixing ``a`` is the matrix exponential of ``mu`` times a random square
matrix (optionally replaced by its orthogonal polar factor), so ``mu``
dials the distance from the identity. The exponential is the Padé
[13/13] scaling-and-squaring method (Higham 2005, SIAM J. Matrix Anal.
Appl. 26(4)) in numpy alone; a diagonal argument takes the exact shortcut
``diag(exp(diag))``, so ``mu = 0`` gives the identity exactly. Targets
are a fixed linear combination of the per-subject signal powers through a
link function (identity, log, or sqrt) plus Gaussian noise.

All randomness comes from one ``numpy.random.default_rng(seed)`` stream
with a pinned draw order: mixing seed matrix ``b``, coefficients
``alpha``, per-subject log-powers (signal then noise), label noise
``eps``, mixing perturbations ``xi``. The ``xi`` are drawn and mixed in
blocks of :func:`~spdreg.symmat.blocks`, one draw per block from the same
stream: the generator fills values in stream order whatever the shape, so
the blocks hold the values of one ``(n, p, p)`` draw, which is never held
whole. Identical configs therefore yield bit-identical bundles. Noise
draws are taken even when their scale is zero so the same seed gives the
same powers across parameter sweeps.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass

import numpy as np

from .bundle import CovarianceBundle
from .errors import SpdregError
from .regress import RESULTS_HEADER, PipelineSpec, effective_rank, results_rows, run_pipeline_cv
from .symmat import blocks

F_KINDS = ("identity", "log", "sqrt")
SWEEP_AXES = ("sigma", "mu", "sigma_mix")
SWEEP_HEADER = "axis,value,repeat," + RESULTS_HEADER + ",error"

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
            if not 0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.f_kind not in F_KINDS:
            raise ValueError(f"unknown link {self.f_kind!r}; expected one of {F_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# Padé [13/13] numerator coefficients b_0..b_13, and theta_13: the largest
# 1-norm at which the approximant needs no scaling in double precision.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """General matrix exponential: Padé [13/13] with scaling and squaring.

    A diagonal argument returns ``diag(exp(diag(a)))`` exactly; the solve
    would leave the identity one rounding off it (a reciprocal pivot).
    """
    d = np.diagonal(a)
    if not np.any(a - np.diag(d)):
        return np.diag(np.exp(d))
    s = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / _THETA13))))
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _draw_mixing(rng: np.random.Generator, cfg: GenerativeConfig) -> np.ndarray:
    b = rng.standard_normal((cfg.p, cfg.p))
    # General (non-symmetric) exponential: Padé 13 scaling-and-squaring
    # (Higham 2005) in numpy alone, so no second BLAS library starts a
    # spin-waiting thread in a sweep worker. mu = 0 takes the exact
    # diagonal shortcut and gives the identity.
    a = _expm(cfg.mu * b)
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

    powers = np.exp(log_powers)
    y = _LINKS[cfg.f_kind](powers) @ alpha + eps
    e = np.concatenate((powers, np.exp(log_noise)), axis=1)

    mats = np.empty((cfg.n, cfg.p, cfg.p))
    for blk in blocks(cfg.n, cfg.p):
        ai = a + cfg.sigma_mix * rng.standard_normal((blk.stop - blk.start, cfg.p, cfg.p))
        mats[blk] = (ai * e[blk, None, :]) @ ai.swapaxes(1, 2)
    return CovarianceBundle(matrices=mats, labels=y, nominal_rank=cfg.p), alpha


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _run_cell(args) -> list[dict]:
    cfg_base, axis, value, spec, repeat, folds = args
    cfg = dataclasses.replace(cfg_base, **{axis: value}, seed=cfg_base.seed + repeat)
    cell = {"axis": axis, "value": value, "repeat": repeat}
    rank = effective_rank(spec, cfg.p)
    try:
        bundle, _ = sample_bundle(cfg)
        report = run_pipeline_cv(bundle, spec, folds, seed=cfg.seed)
    except (SpdregError, ValueError) as exc:
        failed = {"method": spec.label, "filter": spec.filter_kind,
                  "embedding": spec.embedding_kind, "rank": rank, "fold": "",
                  "lambda": "", "mae": "", "seed": cfg.seed}
        return [dict(cell, **failed, error=str(exc))]
    return [dict(cell, **row, error="") for row in results_rows(spec, report, rank)]


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
    regardless of ``jobs``. At most ``min(jobs, cells)`` worker processes
    run the cells; with one, they run in this process.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not 2 <= folds <= cfg_base.n:
        raise ValueError(f"folds must be in [2, {cfg_base.n}], got {folds}")
    cells = [
        (cfg_base, axis, value, spec, repeat, folds)
        for value in values
        for spec in specs
        for repeat in range(repeats)
    ]
    # The pool starts all its workers at the first submit: no more than cells.
    workers = min(jobs, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, cells))
    else:
        per_cell = [_run_cell(cell) for cell in cells]
    return [row for rows in per_cell for row in rows]

