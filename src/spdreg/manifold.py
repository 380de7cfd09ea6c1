"""Distances, means, log maps, and vectorizations for covariance geometry.

Three embeddings of symmetric PSD matrices into flat feature vectors are
provided, plus the log-diagonal baseline:

* ``euclidean`` -- weighted upper-triangle flattening, a Frobenius isometry.
* ``geometric`` -- tangent space of the affine-invariant metric at a
  reference point (requires full-rank matrices).
* ``wasserstein`` -- tangent space of the Bures-Wasserstein metric in the
  fixed-rank factor quotient (handles rank-deficient matrices).
* ``logdiag`` -- elementwise log of the diagonal.

Reference points are Frechet means under the matching metric, computed by
iterative solvers with explicit gradient-norm stopping rules. Every
operation on samples takes the whole ``(n, p, p)`` array at once (a
bundle's ``matrices``) and gives ``(n, k)`` feature rows; distances and
:func:`embed` are pure functions, and the means are deterministic given
their inputs. The part of an embedding that needs no reference (the
Wasserstein eigen-factors, the Euclidean and log-diagonal rows) can be
done once with :func:`prepare_samples`; means and embeddings take the
resulting :class:`Samples`, or any subset of them, in place of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonPositiveDiagonal,
    NotPSD,
    NumericalFailure,
    RankMismatch,
    SingularMatrix,
)
from .symmat import RANK_TOL, SymMat, eigh, numerical_rank

EMBEDDING_KINDS = ("euclidean", "geometric", "wasserstein", "logdiag")

# Scales used by the rank-deficiency witness table.
WITNESS_EPSILONS = (1.0, 0.1, 0.01, 0.001)


# ---------------------------------------------------------------------------
# Stacked helpers (internal)
# ---------------------------------------------------------------------------


def _as_stack(mats) -> np.ndarray:
    """``mats`` as a nonempty ``(n, p, p)`` float64 array, with no copy if it
    is one already."""
    stack = np.asarray(mats, dtype=np.float64)
    if stack.ndim != 3 or len(stack) == 0 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a nonempty (n, p, p) stack, got shape {stack.shape}")
    return stack


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2.0


def _whiten(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m^-1/2, m^1/2)`` of a full-rank SPD matrix from one eigendecomposition."""
    w, v = np.linalg.eigh(_sym(m))
    if w[0] <= RANK_TOL * w[-1] or w[-1] <= 0:
        raise SingularMatrix(
            "a full-rank SPD matrix is required", smallest_eigenvalue=float(w[0])
        )
    isq = (v / np.sqrt(w)) @ v.T
    sq = (v * np.sqrt(w)) @ v.T
    return isq, sq


def _whitened_logs(isq: np.ndarray, stack: np.ndarray, what: str) -> np.ndarray:
    """``log(isq c_i isq)`` of each SPD slice ``c_i`` of an (n, p, p) stack.

    The whitened stack is made and released here, so at most three
    (n, p, p) temporaries are alive at once.
    """
    a = _sym(isq @ stack @ isq)
    w, v = np.linalg.eigh(a)
    del a
    wmax = w[..., -1]
    if np.any(w[..., 0] <= RANK_TOL * wmax) or np.any(wmax <= 0):
        raise SingularMatrix(
            f"{what} requires full-rank SPD matrices",
            smallest_eigenvalue=float(w.min()),
        )
    return (v * np.log(w)[..., None, :]) @ v.swapaxes(-1, -2)


def _expm_sym(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_sym(a))
    return (v * np.exp(w)[..., None, :]) @ v.swapaxes(-1, -2)


def _upper(mat: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle flattening, sqrt(2) weights off-diagonal."""
    p = mat.shape[-1]
    iu, ju = np.triu_indices(p)
    rows = mat[..., iu, ju]
    rows *= np.where(iu == ju, 1.0, np.sqrt(2.0))
    return rows


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def dist_geometric(s: SymMat, t: SymMat) -> float:
    """Affine-invariant distance between full-rank SPD matrices.

    Equals ``sqrt(sum_k log^2 w_k)`` for ``w_k`` the eigenvalues of
    ``s^-1 t``; invariant under joint congruence by any invertible
    matrix.

    Raises
    ------
    SingularMatrix
        If either argument is rank-deficient.
    """
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    isq, _ = _whiten(s.data)
    w = np.linalg.eigvalsh(_sym(isq @ t.data @ isq))
    if w[0] <= RANK_TOL * w[-1] or w[-1] <= 0:
        raise SingularMatrix(
            "dist_geometric requires full-rank SPD arguments",
            smallest_eigenvalue=float(w[0]),
        )
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _psd_factor(m: SymMat, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (round-off negatives clipped to 0) and a full factor."""
    w, v = np.linalg.eigh(m.data)
    if w[0] < -RANK_TOL * max(w[-1], 0.0):
        raise NotPSD(f"{what} is not PSD (smallest eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return w, v * np.sqrt(w)


def dist_wasserstein(s: SymMat, t: SymMat) -> float:
    """Bures-Wasserstein distance between PSD matrices of any rank.

    ``[tr(s) + tr(t) - 2 tr((s^1/2 t s^1/2)^1/2)]^(1/2)`` with the inner
    root taken over eigenvalues clipped to be nonnegative; invariant
    under joint congruence by orthogonal matrices. The trace of the
    inner root is evaluated as the nuclear norm of ``ys.T @ yt`` for
    factors ``ys ys.T = s``, ``yt yt.T = t`` (the two agree exactly, and
    the factor form avoids square-rooting round-off-sized eigenvalues
    of the triple product).
    """
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    ws, ys = _psd_factor(s, "first argument")
    wt, yt = _psd_factor(t, "second argument")
    cross = float(np.sum(np.linalg.svd(ys.T @ yt, compute_uv=False)))
    d2 = float(np.sum(ws) + np.sum(wt) - 2.0 * cross)
    return float(np.sqrt(max(d2, 0.0)))


# ---------------------------------------------------------------------------
# Fixed-rank factors and their log maps
# ---------------------------------------------------------------------------


def factorize(stack: np.ndarray, r: int) -> np.ndarray:
    """Eigen-factors ``y_i = u_r diag(sqrt(w_r))``, shape (n, p, r), of an
    (n, p, p) stack of rank-``r`` PSD matrices.

    One eigendecomposition per slice applies the PSD and rank rule of
    :func:`~spdreg.symmat.numerical_rank` and gives the factor, with the
    column order and signs of :func:`~spdreg.symmat.eigh`.

    Raises
    ------
    NotPSD, RankMismatch
        Naming the first slice that is not PSD or not of rank ``r``.
    """
    p = stack.shape[-1]
    if not 1 <= r <= p:
        raise ValueError(f"rank must be in [1, {p}], got {r}")
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    tau = RANK_TOL * w[:, -1]
    bad = np.flatnonzero(w[:, 0] < -tau)
    if bad.size:
        i = bad[0]
        raise NotPSD(
            f"not PSD (smallest eigenvalue {w[i, 0]:.3e}, threshold {-tau[i]:.3e})", i
        )
    ranks = np.count_nonzero(w > tau[:, None], axis=1)
    bad = np.flatnonzero(ranks != r)
    if bad.size:
        i = bad[0]
        raise RankMismatch(f"numerical rank is {ranks[i]}, expected {r}", i)
    # Stable descending sort keeps the solver's order inside tie blocks.
    order = np.argsort(-w, axis=1, kind="stable")[:, :r]
    y = np.take_along_axis(v, order[:, None, :], axis=2)
    del v  # the full eigenvector stack is the largest array here
    lead = np.argmax(np.abs(y), axis=1)
    signs = np.sign(np.take_along_axis(y, lead[:, None, :], axis=1))
    signs[signs == 0] = 1.0
    y *= signs
    y *= np.sqrt(np.take_along_axis(w, order, axis=1))[:, None, :]
    return y


def _wass_logs(y: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Factor-space log maps ``f_i @ (v_i @ u_i.T) - y`` from ``y`` to each
    factor ``f_i``, for the SVD ``u_i s_i v_i.T`` of ``y.T @ f_i``; the
    Frobenius norm of each equals the Wasserstein distance."""
    u, _, vh = np.linalg.svd(y.T @ factors)
    q = vh.swapaxes(-1, -2) @ u.swapaxes(-1, -2)
    return factors @ q - y


def _wass_state(point: SymMat, factors: np.ndarray):
    """``(base, logs, their sum, their summed squares)``: ``base`` is the
    factor of ``point`` from :func:`factorize`, ``logs`` the log maps from
    it to each sample factor. A point of another numerical rank raises
    :class:`RankMismatch`, as an :class:`Embedding` at it would."""
    try:
        base = factorize(point.data[None], factors.shape[-1])[0]
    except RankMismatch as exc:
        raise RankMismatch(f"reference {exc.detail}") from None
    logs = _wass_logs(base, factors)
    return base, logs, logs.sum(axis=0), float(np.sum(logs * logs))


# ---------------------------------------------------------------------------
# Per-sample data: the part of an embedding that needs no reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Samples:
    """``n`` covariances with the reference-free part of embedding ``kind``
    done for all of them at once.

    ``data`` is what each covariance gives on its own: the ``(n, k)``
    feature rows for ``euclidean`` and ``logdiag``, the ``(n, p, rank)``
    eigen-factors of :func:`factorize` for ``wasserstein``, and None for
    ``geometric``, whose log maps all depend on the reference.

    The kinds whose reference fit reads the covariances (``geometric``,
    ``wasserstein``) keep them in ``stack``, else None. A :meth:`subset`
    shares ``stack`` and records its rows in ``index``; they are gathered
    only when :meth:`covariances` is called, so a training split holds no
    copy of them past its reference fit.

    Row ``i`` of each array depends on covariance ``i`` alone, and the
    batched kernels give every slice what they give it alone, so a
    :meth:`subset` is bit for bit what preparing that subset would give.
    """

    kind: str
    stack: np.ndarray | None
    data: np.ndarray | None
    rank: int | None = None
    index: np.ndarray | None = None

    def covariances(self) -> np.ndarray:
        """The ``(n, p, p)`` covariances, gathered from ``stack`` on each call."""
        return self.stack if self.index is None else _take_rows(self.stack, self.index)

    def subset(self, indices) -> "Samples":
        """The samples at ``indices``, in that order."""
        idx = np.asarray(indices)
        data = None if self.data is None else _take_rows(self.data, idx)
        index = idx if self.index is None else self.index[idx]
        return Samples(self.kind, self.stack, data, self.rank, index)


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of ``a``, laid out in ``a``'s memory order. Sums over
    rows round by layout (``_upper`` rows are column-major), so a subset
    must keep the layout the same rows would have if made from scratch."""
    out = np.empty((len(idx),) + a.shape[1:], order="F" if np.isfortran(a) else "C")
    return np.take(a, idx, axis=0, out=out)


def prepare_samples(mats, kind: str, rank: int | None = None) -> Samples:
    """The reference-free, per-sample part of embedding ``kind`` for every
    matrix of the ``(n, p, p)`` array ``mats``.
    :class:`Samples` are returned as they are, once checked to match.

    Only ``wasserstein`` uses ``rank``, which defaults to the numerical
    rank of the first matrix.

    Raises
    ------
    NonPositiveDiagonal
        For ``logdiag``, if a diagonal entry is not positive.
    NotPSD, RankMismatch
        For ``wasserstein``, naming the first sample (by its index in
        ``mats``) that is not PSD or not of rank ``rank``.
    """
    if isinstance(mats, Samples):
        if mats.kind != kind or (kind == "wasserstein" and rank not in (None, mats.rank)):
            raise ValueError(
                f"samples prepared for {mats.kind} (rank {mats.rank}) "
                f"do not fit {kind} (rank {rank})"
            )
        return mats
    if kind not in EMBEDDING_KINDS:
        raise ValueError(f"unknown embedding kind {kind!r}; expected one of {EMBEDDING_KINDS}")
    stack = _as_stack(mats)
    if kind == "euclidean":
        return Samples(kind, None, _upper(stack))
    if kind == "logdiag":
        d = np.diagonal(stack, axis1=1, axis2=2)
        if np.any(d <= 0):
            raise NonPositiveDiagonal(
                f"diagonal entries must be positive (min {d.min():.3e})"
            )
        return Samples(kind, None, np.log(d))
    if kind == "geometric":
        return Samples(kind, stack, None)
    if rank is None:
        rank = numerical_rank(SymMat(stack[0]))
    return Samples(kind, stack, factorize(stack, rank), rank)


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrechetMean:
    """A Frechet mean ``point`` and the per-sample data its solver holds there.

    ``samples`` holds the inputs' feature rows at ``point`` under the
    mean's metric, the rows :func:`embed` gives there: ``(n, p(p+1)/2)``
    for :func:`mean_geometric`, ``(n, p * r)`` for :func:`mean_wasserstein`.
    """

    point: SymMat
    samples: np.ndarray


def mean_euclidean(mats) -> SymMat:
    """Arithmetic mean."""
    return SymMat(_as_stack(mats).mean(axis=0))


def _geo_state(m: np.ndarray, stack: np.ndarray):
    """One whitening pass: (sqrt factor, gradient sum, objective, feature rows)."""
    isq, sq = _whiten(m)
    logs = _whitened_logs(isq, stack, "mean_geometric")
    grad = logs.sum(axis=0)
    obj = float(np.sum(logs * logs))
    return sq, grad, obj, _upper(logs)


def mean_geometric(mats, max_iter: int = 300, tol: float | None = None) -> FrechetMean:
    """Karcher (Frechet) mean under the affine-invariant metric.

    Fixed-point iteration ``m <- m^1/2 exp(step/n sum_i log(m^-1/2 c_i
    m^-1/2)) m^1/2`` starting from the arithmetic mean, with the step
    halved whenever the summed squared distance increases. Converged
    when the gradient ``sum_i log(m^-1/2 c_i m^-1/2)`` has Frobenius
    norm at most ``tol`` (default ``1e-9 * p``). Returns the mean with
    the geometric feature rows of the inputs at it, from the last
    accepted iterate.

    Raises
    ------
    SingularMatrix
        If any input is rank-deficient.
    NoConvergence
        If the gradient norm is still above ``tol`` after ``max_iter``
        iterations.
    """
    stack = _as_stack(mats)
    n, p = stack.shape[0], stack.shape[1]
    if tol is None:
        tol = 1e-9 * p
    m = stack.mean(axis=0)
    sq, grad, obj, rows = _geo_state(m, stack)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if gnorm <= tol:
            return FrechetMean(SymMat(m), rows)
        # Only one iterate's rows are alive: drop them before each new try.
        rows = None
        step = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        while True:
            cand = _sym(sq @ _expm_sym((step / n) * grad) @ sq)
            sq2, grad2, obj2, rows = _geo_state(cand, stack)
            if obj2 <= obj + slack or step <= 1e-4:
                m, sq, grad, obj = cand, sq2, grad2, obj2
                break
            rows = None
            step *= 0.5
        gnorm = float(np.linalg.norm(grad))
    if gnorm <= tol:
        return FrechetMean(SymMat(m), rows)
    raise NoConvergence(
        "geometric mean did not converge", gradient_norm=gnorm, iterations=max_iter
    )


def mean_wasserstein(
    mats, r: int, max_iter: int = 300, tol: float | None = None
) -> FrechetMean:
    """Frechet mean under the Bures-Wasserstein metric, rank ``r``.

    Gradient descent on the factor ``y`` (p x r) minimizing the summed
    squared distances, with the descent direction assembled as the mean
    of the factor-space log maps and an Armijo backtracking line search
    (initial step 1, shrink 0.5, c = 1e-4). Initialized from the top-r
    eigenpairs of the arithmetic mean. Each state is evaluated, and each
    step taken, at the factor :func:`factorize` gives its point ``y y.T``,
    as :func:`embed` does; ``y -> y R`` (R orthogonal) leaves the point,
    objective and gradient norm unchanged (Bhatia, Jain & Lim 2019).
    Converged when the Riemannian gradient ``2 sum_i log_i`` has Frobenius
    norm at most ``tol`` (default ``1e-7 * sqrt(p * r)``). Returns the mean
    with the inputs' ``(n, p * r)`` feature rows at it, from the last
    accepted state. ``mats`` may be :class:`Samples` prepared for
    ``wasserstein`` at rank ``r``; their factors are then used as they are.

    Raises
    ------
    RankMismatch
        If any input's numerical rank differs from ``r``, or an iterate's
        does (without a sample index).
    NoConvergence
        If the gradient norm is still above ``tol`` after ``max_iter``
        iterations.
    """
    prepared = prepare_samples(mats, "wasserstein", r)
    factors = prepared.data
    n, p = factors.shape[0], factors.shape[1]
    if tol is None:
        tol = 1e-7 * np.sqrt(p * r)
    ep = eigh(SymMat(prepared.covariances().mean(axis=0)))
    y = ep.vectors[:, :r] * np.sqrt(np.clip(ep.values[:r], 0.0, None))
    point = SymMat(y @ y.T)
    y, logs, grad_sum, obj = _wass_state(point, factors)
    gnorm = 2.0 * float(np.linalg.norm(grad_sum))
    for _ in range(max_iter):
        if gnorm <= tol:
            return FrechetMean(point, logs.reshape(n, -1))
        # Only one state's logs are alive: drop them before each new try.
        logs = None
        direction = grad_sum / n
        slope = -2.0 * float(np.sum(grad_sum * grad_sum)) / n
        step = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        while True:
            cand = y + step * direction
            point2 = SymMat(cand @ cand.T)
            y2, logs, grad2, obj2 = _wass_state(point2, factors)
            if obj2 <= obj + 1e-4 * step * slope + slack or step <= 1e-6:
                point, y, grad_sum, obj = point2, y2, grad2, obj2
                break
            logs = None
            step *= 0.5
        gnorm = 2.0 * float(np.linalg.norm(grad_sum))
    if gnorm <= tol:
        return FrechetMean(point, logs.reshape(n, -1))
    raise NoConvergence(
        "Wasserstein mean did not converge", gradient_norm=gnorm, iterations=max_iter
    )


def no_affine_invariance_witness():
    """Numerical witness that no continuous affine-invariant distance
    exists on rank-deficient PSD matrices.

    Returns the fixed rank-1 pair ``a = [[1,0],[0,0]]``,
    ``b = [[1,1],[1,1]]`` and the Wasserstein distances between their
    congruence images under ``diag(1, eps)`` for the epsilons in
    ``WITNESS_EPSILONS``. The distances shrink toward zero while the
    distance between ``a`` and ``b`` themselves stays above 0.1, so an
    affine-invariant continuous distance would have to be zero on a
    distinct pair.
    """
    a = SymMat([[1.0, 0.0], [0.0, 0.0]])
    b = SymMat([[1.0, 1.0], [1.0, 1.0]])
    dists = []
    for eps in WITNESS_EPSILONS:
        w = np.diag([1.0, eps])
        dists.append(
            dist_wasserstein(SymMat(w @ a.data @ w.T), SymMat(w @ b.data @ w.T))
        )
    return a, b, dists


# ---------------------------------------------------------------------------
# Embeddings: fit a reference on a training set, then vectorize samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Vectorization recipe: a kind plus its fitted reference point.

    ``euclidean`` and ``logdiag`` need no reference. ``geometric``
    carries a full-rank SPD reference; ``wasserstein`` carries a PSD
    reference whose numerical rank equals ``rank``.
    """

    kind: str
    reference: SymMat | None = None
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(
                f"unknown embedding kind {self.kind!r}; expected one of {EMBEDDING_KINDS}"
            )
        if self.kind == "geometric":
            if self.reference is None:
                raise ValueError("geometric embedding requires a reference matrix")
            if numerical_rank(self.reference) != self.reference.dim:
                raise SingularMatrix("geometric embedding requires a full-rank reference")
        if self.kind == "wasserstein":
            if self.reference is None or self.rank is None:
                raise ValueError("wasserstein embedding requires a reference and a rank")
            nr = numerical_rank(self.reference)
            if nr != self.rank:
                raise RankMismatch(
                    f"reference rank {nr} differs from embedding rank {self.rank}"
                )


def fit_embedding(mats, kind: str, rank: int | None = None) -> tuple[Embedding, np.ndarray]:
    """Fit an embedding on a training set; return it with that set's
    ``(n, k)`` feature rows.

    The reference is the Frechet mean of ``mats`` under the metric that
    matches ``kind``; ``euclidean`` and ``logdiag`` have no reference.
    ``mats`` is an ``(n, p, p)`` array or :class:`Samples` prepared for
    ``kind``. Only ``wasserstein`` uses ``rank`` (see
    :func:`prepare_samples`). The rows equal ``embed(embedding, mats)``
    bit for bit. For ``geometric`` and ``wasserstein`` they are the rows
    the mean's solver holds at its last accepted state
    (:attr:`FrechetMean.samples`), so the training set is not embedded a
    second time.
    """
    prepared = prepare_samples(mats, kind, rank)
    if kind == "geometric":
        fit = mean_geometric(prepared.covariances())
    elif kind == "wasserstein":
        fit = mean_wasserstein(prepared, prepared.rank)
    else:
        return Embedding(kind), prepared.data
    return Embedding(kind, fit.point, prepared.rank), fit.samples


def embed(embedding: Embedding, mats) -> np.ndarray:
    """The ``(n, k)`` feature rows of matrices under a fitted embedding,
    one row per matrix.

    ``euclidean`` rows are the upper triangle of each matrix (sqrt(2)
    weights off the diagonal), ``geometric`` rows the same of
    ``log(m^-1/2 c m^-1/2)`` for the reference ``m``, ``wasserstein`` rows
    the flattened factor-space log maps from the reference (length
    ``p * rank``), ``logdiag`` rows the log of the diagonal. The 2-norm
    of a geometric or wasserstein row is the distance from the reference.
    ``mats`` is an ``(n, p, p)`` array or :class:`Samples` prepared for
    the embedding's kind and rank, whose per-sample part is then not
    redone.
    """
    kind, reference = embedding.kind, embedding.reference
    if not isinstance(mats, Samples):
        mats = _as_stack(mats)
        if reference is not None and reference.dim != mats.shape[-1]:
            raise DimensionMismatch(
                f"reference dim {reference.dim} vs matrices dim {mats.shape[-1]}"
            )
    prepared = prepare_samples(mats, kind, embedding.rank)
    if kind == "geometric":
        isq, _ = _whiten(reference.data)
        return _upper(_whitened_logs(isq, prepared.covariances(), "embed"))
    if kind == "wasserstein":
        logs = _wass_state(reference, prepared.data)[1]
        return logs.reshape(len(logs), -1)
    return prepared.data
