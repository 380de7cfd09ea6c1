"""Shared random-matrix helpers for the test suite."""

import numpy as np

from spdreg import CovarianceBundle
from spdreg.symmat import SymMat


def rand_spd(rng, p, spread=1.0):
    """Random SPD matrix with eigenvalues in [exp(-spread), exp(spread)]."""
    q = rand_orthogonal(rng, p)
    w = np.exp(rng.uniform(-spread, spread, size=p))
    return SymMat((q * w) @ q.T)


def rand_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def rand_invertible(rng, p, spread=1.0):
    """Random invertible matrix with condition number at most exp(2*spread)."""
    u = rand_orthogonal(rng, p)
    v = rand_orthogonal(rng, p)
    s = np.exp(rng.uniform(-spread, spread, size=p))
    return (u * s) @ v.T


def rand_psd_rank(rng, p, r, spread=1.0):
    """Random PSD matrix of exact rank r."""
    y = rng.standard_normal((p, r)) * np.exp(rng.uniform(-spread, spread, size=r))
    return SymMat(y @ y.T)


def rand_bundle(rng, n, p, spread=1.0):
    """Bundle of random full-rank SPD matrices with random labels."""
    mats = [rand_spd(rng, p, spread) for _ in range(n)]
    return CovarianceBundle(
        matrices=mats,
        labels=rng.standard_normal(n),
        nominal_rank=p,
    )
