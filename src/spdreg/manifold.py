"""Distances, means, log maps, and vectorizations for covariance geometry.

Three embeddings of symmetric PSD matrices into flat feature vectors are
provided, plus the log-diagonal baseline:

* ``euclidean`` -- weighted upper-triangle flattening, a Frobenius isometry.
* ``geometric`` -- tangent space of the affine-invariant metric at a
  reference point (requires full-rank matrices).
* ``wasserstein`` -- tangent space of the Bures-Wasserstein metric in the
  factor quotient (PSD matrices of any rank, up to the reference's).
* ``logdiag`` -- elementwise log of the diagonal.

Reference points and means are read-only ``(p, p)`` arrays, and
:func:`embed` is the one source of feature rows. The Frechet means under
the geometric and Wasserstein metrics are computed by one backtracking
descent loop, each mean giving its own state and step, that starts at the
mean's closed form and stops on the Riemannian gradient norm or raises
:class:`~spdreg.errors.NoConvergence` after ``MAX_ITER`` steps. The
embedding reference that :func:`fit_embedding` fits is that closed-form
start itself, exact on the paper's generative models: one state, no
descent. Every operation on samples takes an ``(n, p, p)`` array (a
bundle's ``matrices``). The geometric state streams it in blocks of
:func:`~spdreg.symmat.blocks`, writing each block's rows into the output,
so its working memory does not grow with ``n``; the other kinds take the
whole array at once. Distances and
:func:`embed` are pure functions, and the means are deterministic given
their inputs. :func:`prepare_samples` does the reference-free part of an
embedding once, giving :class:`Samples` that hold one per-sample array;
means and embeddings take them, or any lazy subset, in place of matrices.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonPositiveDiagonal,
    NotPSD,
    RankMismatch,
    SampleError,
    SingularMatrix,
)
from .symmat import SymMat, _as_stack, _ranks, _sym, blocks, eigh, numerical_rank, sym_func

EMBEDDING_KINDS = ("euclidean", "geometric", "wasserstein", "logdiag")

# Scales used by the rank-deficiency witness table.
WITNESS_EPSILONS = (1.0, 0.1, 0.01, 0.001)


# ---------------------------------------------------------------------------
# Stacked helpers (internal)
# ---------------------------------------------------------------------------


def _matrix(a) -> np.ndarray:
    """Outside input ``a`` as one :func:`SymMat`-validated ``(p, p)`` matrix."""
    if np.ndim(a) != 2:
        raise ValueError(f"expected a (p, p) matrix, got shape {np.shape(a)}")
    return SymMat(a)


def _upper(mat: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle flattening, sqrt(2) weights off-diagonal, as
    C-ordered rows."""
    p = mat.shape[-1]
    iu, ju = np.triu_indices(p)
    rows = np.take(mat.reshape(*mat.shape[:-2], p * p), iu * p + ju, axis=-1)
    rows *= np.where(iu == ju, 1.0, np.sqrt(2.0))
    return rows


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def dist_geometric(s, t) -> float:
    """Affine-invariant distance between full-rank SPD matrices.

    The norm of the feature row of ``t`` in the geometric state at ``s``,
    so exactly that of the row :func:`embed` gives ``t`` at reference ``s``:
    ``sqrt(sum_k log^2 w_k)`` for ``w_k`` the eigenvalues of ``s^-1 t``;
    invariant under joint congruence by any invertible matrix.

    Raises
    ------
    SingularMatrix
        If either argument is rank-deficient.
    """
    s, t = _matrix(s), _matrix(t)
    if len(s) != len(t):
        raise DimensionMismatch(f"dimensions differ: {len(s)} vs {len(t)}")
    return float(np.linalg.norm(_geo_state(s, t[None])[1]))


def dist_wasserstein(s, t) -> float:
    """Bures-Wasserstein distance between PSD matrices of any rank.

    ``min_q ||yt q - ys||_F`` over orthogonal ``q`` for the factors
    ``ys ys.T = s``, ``yt yt.T = t`` that one :func:`factorize` call gives:
    the norm of the log map :func:`embed` gives, so a small distance is not
    the cancelling difference of traces (Bhatia, Jain & Lim 2019);
    invariant under joint congruence by orthogonal matrices. A non-PSD
    argument raises :class:`NotPSD` naming it.
    """
    s, t = _matrix(s), _matrix(t)
    if len(s) != len(t):
        raise DimensionMismatch(f"dimensions differ: {len(s)} vs {len(t)}")
    try:
        ys, yt = factorize(np.stack([s, t]))
    except NotPSD as exc:
        raise NotPSD(f"{('first', 'second')[exc.sample]} argument: {exc.detail}") from None
    return float(np.linalg.norm(_wass_logs(ys, yt[None])))


# ---------------------------------------------------------------------------
# Factors and their log maps
# ---------------------------------------------------------------------------


def factorize(stack: np.ndarray) -> np.ndarray:
    """Eigen-factors ``y_i = u_r diag(sqrt(w_r))``, shape (n, p, r), of an
    (n, p, p) stack of PSD matrices, ``r`` the largest numerical rank among
    them (the one Wasserstein rank rule), with the columns past each slice's
    own rank exactly zero: a zero slice is a zero factor.

    One batched :func:`~spdreg.symmat.eigh` gives the top-``r`` eigenpairs,
    with its column order and signs, and its eigenvalues the ranks of
    :func:`~spdreg.symmat.numerical_rank`; row ``i`` is bit for bit what
    factoring slice ``i`` alone gives, padded with zero columns.

    Raises
    ------
    NotPSD
        Naming the first slice that is not PSD.
    """
    w, v = eigh(stack)
    ranks = _ranks(w)
    r = int(ranks.max())
    dead = np.arange(r) >= ranks[:, None, None]
    return np.where(dead, 0.0, v[:, :, :r] * np.sqrt(np.clip(w[:, None, :r], 0.0, None)))


def _wass_logs(y: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Factor-space log maps ``f_i @ (v_i @ u_i.T) - y`` from ``y`` to each
    factor ``f_i``, for the SVD ``u_i s_i v_i.T`` of ``y.T @ f_i``; the
    Frobenius norm of each equals the Wasserstein distance."""
    u, _, vh = np.linalg.svd(y.T @ factors)
    q = vh.swapaxes(-1, -2) @ u.swapaxes(-1, -2)
    return factors @ q - y


def _wass_state(point, factors: np.ndarray):
    """``(base, rows, gsum, obj)`` at ``point``: ``base`` is the factor of the
    matrix ``point`` from :func:`factorize`, of width its rank ``r``, and the
    ``(n, p, r)`` log maps from it to each sample factor (cut or zero-padded
    to width ``r``) give their ``(n, p * r)`` rows as a view, their sum and
    their summed squares. A sample with a nonzero column past ``r``
    (of higher rank) raises :class:`RankMismatch` naming it and both ranks."""
    base = factorize(point[None])[0]
    r, rs = base.shape[-1], factors.shape[-1]
    if r != rs:
        ranks = np.any(factors, axis=1).sum(axis=-1)
        i = int(np.argmax(ranks > r))
        if ranks[i] > r:
            raise RankMismatch(f"numerical rank {ranks[i]} exceeds the reference's {r}", i)
        factors = np.pad(factors[:, :, :r], ((0, 0), (0, 0), (0, max(r - rs, 0))))
    logs = _wass_logs(base, factors)
    return base, logs.reshape(len(logs), -1), logs.sum(axis=0), float(np.sum(logs * logs))


# ---------------------------------------------------------------------------
# Per-sample data: the part of an embedding that needs no reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Samples:
    """``n`` covariances with the reference-free part of embedding ``kind``
    done for all of them at once, in one per-sample array ``data``: the
    ``(n, p, p)`` covariances themselves for ``geometric`` (no copy of a
    float64 input), whose log maps all depend on the reference; the
    ``(n, p, r)`` eigen-factors of :func:`factorize` for ``wasserstein``;
    the ``(n, k)`` feature rows for ``euclidean`` and ``logdiag``. Every
    kind's array, and every feature row the package makes, is C-ordered.

    A :meth:`subset` shares ``data`` and records its rows in ``index``;
    :meth:`gather` takes them on each call, so a training split holds no
    copy of them past its reference fit. Row ``i`` of ``data`` depends on
    covariance ``i`` alone (but for zero factor columns, which means and
    embeddings cut), and the batched kernels give each slice what they give
    it alone: a subset fits and embeds bit for bit as if prepared alone.
    """

    kind: str
    data: np.ndarray
    index: np.ndarray | None = None

    def gather(self) -> np.ndarray:
        """``data`` at ``index``, gathered on each call."""
        return self.data if self.index is None else self.data[self.index]

    def subset(self, indices) -> "Samples":
        """The samples at ``indices``, in that order."""
        idx = np.asarray(indices)
        return Samples(self.kind, self.data, idx if self.index is None else self.index[idx])


def prepare_samples(mats, kind: str) -> Samples:
    """The reference-free, per-sample part of embedding ``kind`` for every
    matrix of the ``(n, p, p)`` array ``mats``.
    :class:`Samples` are returned as they are, once checked to match.

    ``wasserstein`` factors have the samples' largest numerical rank.

    Raises
    ------
    NonPositiveDiagonal
        For ``logdiag``, if a diagonal entry is not positive.
    NotPSD
        For ``wasserstein``, naming the first non-PSD sample by its index.
    """
    if isinstance(mats, Samples):
        if mats.kind != kind:
            raise ValueError(f"samples prepared for {mats.kind} do not fit {kind}")
        return mats
    if kind not in EMBEDDING_KINDS:
        raise ValueError(f"unknown embedding kind {kind!r}; expected one of {EMBEDDING_KINDS}")
    stack = _as_stack(mats)
    if kind == "euclidean":
        return Samples(kind, _upper(stack))
    if kind == "logdiag":
        d = np.diagonal(stack, axis1=1, axis2=2)
        if np.any(d <= 0):
            raise NonPositiveDiagonal(
                f"diagonal entries must be positive (min {d.min():.3e})"
            )
        return Samples(kind, np.log(d))
    if kind == "geometric":
        return Samples(kind, stack)
    return Samples(kind, factorize(stack))


@contextmanager
def _gathered(mats, kind: str):
    """:func:`prepare_samples` of ``mats``, gathered; the one place where an
    error naming its row ``i`` comes to name ``index[i]``, its row of ``data``."""
    prepared = prepare_samples(mats, kind)
    try:
        yield prepared.gather()
    except SampleError as exc:
        if prepared.index is None or exc.sample is None:
            raise
        raise type(exc)(exc.detail, int(prepared.index[exc.sample])) from None


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------


def mean_euclidean(mats) -> np.ndarray:
    """Arithmetic mean, a read-only ``(p, p)`` array."""
    return SymMat(_as_stack(mats).mean(axis=0))


# Iteration budget of both Frechet-mean solvers.
MAX_ITER = 300

# A state without its rows: what the descent reads of it.
_no_rows = itemgetter(0, 2, 3)


def _descend(evaluate, move, x: np.ndarray, n: int, tol: float, what: str) -> np.ndarray:
    """Backtracking gradient descent from ``x``, the solver of both means.

    ``evaluate(x)`` gives the state at iterate ``x``: ``(base, rows, gsum,
    obj)``, with ``gsum`` the sum of the ``n`` log maps from ``x`` to the
    samples, ``obj`` the summed squared distances and ``base`` what
    ``move(base, gsum, step)`` needs to give the iterate ``step`` along the
    mean log map; the samples' feature ``rows`` are dropped at once, so no
    two states' rows are alive together. Each step starts at 1 and halves
    until the Armijo rule (c = 1e-4, slope ``-2 ||gsum||^2 / n``, slack
    ``1e-12 (1 + |obj|)``) holds or it reaches 1e-6. Converged when the
    Riemannian gradient norm ``2 ||gsum||`` is at most ``tol``; the mean is
    then ``x``.
    """
    base, gsum, obj = _no_rows(evaluate(x))
    gnorm = 2.0 * float(np.linalg.norm(gsum))
    for _ in range(MAX_ITER):
        if gnorm <= tol:
            break
        slope = -2.0 * float(np.sum(gsum * gsum)) / n
        slack = 1e-12 * (1.0 + abs(obj))
        step = 1.0
        while True:
            cand = move(base, gsum, step)
            base2, gsum2, obj2 = _no_rows(evaluate(cand))
            if obj2 <= obj + 1e-4 * step * slope + slack or step <= 1e-6:
                break
            step *= 0.5
        x, base, gsum, obj = cand, base2, gsum2, obj2
        gnorm = 2.0 * float(np.linalg.norm(gsum))
    if not gnorm <= tol:
        raise NoConvergence(
            f"{what} did not converge", gradient_norm=gnorm, iterations=MAX_ITER
        )
    return x


def _geo_state(m: np.ndarray, stack: np.ndarray):
    """``(m^1/2, rows, gsum, obj)`` of the whitened logs ``log(m^-1/2 c_i
    m^-1/2)`` of the (n, p, p) stack, block by block
    (:func:`~spdreg.symmat.blocks`): their C-ordered ``(n, k)`` feature rows,
    their sum and their summed squares. The package's one whitened log.

    The rows are bit for bit what ``_upper`` gives the whole stack. The sum is
    bit for bit ``logs.sum(axis=0)``, which adds the slices in index order:
    each later block is summed behind the running total. The summed
    squares, which only feed the Armijo test, round by block.
    """
    isq, sq = sym_func(m, "inv_sqrt"), sym_func(m, "sqrt")
    n, p = stack.shape[0], stack.shape[-1]
    rows = np.empty((n, p * (p + 1) // 2))
    grad, obj = None, 0.0
    for blk in blocks(n, p):
        logs = sym_func(isq @ stack[blk] @ isq, "log")
        rows[blk] = _upper(logs)
        grad = (logs if grad is None else np.concatenate((grad[None], logs))).sum(axis=0)
        obj += float(np.sum(logs * logs))
    return sq, rows, grad, obj


def _geometric_start(stack: np.ndarray) -> np.ndarray:
    """The Karcher mean's closed-form start for the (n, p, p) stack: the
    log-Euclidean mean in the basis ``v = a^-1/2 q`` that jointly
    diagonalizes the arithmetic mean ``a`` and ``sum_i (w_i - mean w) c_i``,
    ``w_i = tr(a^-1 c_i)``: ``a^1/2 q diag(exp(mean_i log d_i)) q.T a^1/2``
    for the diagonals ``d_i`` of ``v.T c_i v``, or ``a`` if some ``d_i`` is
    not positive. It follows any congruence, and for jointly diagonalizable
    inputs ``c_i = A E_i A.T`` it is their geometric mean (Congedo, Afsari,
    Barachant & Moakher 2015).

    Raises
    ------
    SingularMatrix
        If the arithmetic mean is rank-deficient.
    """
    n, p = stack.shape[0], stack.shape[1]
    a = _sym(stack.mean(axis=0))
    isq, sq = sym_func(a, "inv_sqrt"), sym_func(a, "sqrt")
    # Centred weights keep this spectrum O(1), not ~p: accurate eigenvectors.
    w = stack.reshape(n, -1) @ (isq @ isq).ravel()
    _, q = eigh(isq @ np.tensordot(w - w.mean(), stack, axes=1) @ isq / n)
    v = isq @ q
    d = np.concatenate([((stack[blk] @ v) * v).sum(axis=1) for blk in blocks(n, p)])
    if not np.all(d > 0):
        return a
    b = sq @ q
    return _sym((b * np.exp(np.log(d).mean(axis=0))) @ b.T)


def mean_geometric(mats, *, descend: bool = True) -> np.ndarray:
    """Karcher (Frechet) mean under the affine-invariant metric.

    Fixed-point iteration ``m <- m^1/2 exp(step/n sum_i log(m^-1/2 c_i
    m^-1/2)) m^1/2``, its step chosen by the backtracking rule of the
    means' shared descent loop. It starts at :func:`_geometric_start`,
    the inputs' geometric mean when they are jointly diagonalizable, so
    the descent then stops at its first state. Converged when the
    Riemannian gradient ``2 sum_i log(m^-1/2 c_i m^-1/2)`` has Frobenius
    norm at most ``2e-9 * p``. Returns the mean, a read-only ``(p, p)``
    array. With ``descend=False`` it returns the start and evaluates no
    state, so it never raises :class:`NoConvergence`. ``mats`` may be
    :class:`Samples` prepared for ``geometric``.

    Raises
    ------
    SingularMatrix
        If the arithmetic mean or any input is rank-deficient, naming the
        lowest numerical rank of the stack (or block) that failed.
    NoConvergence
        If the gradient norm is still above the tolerance after
        ``MAX_ITER`` steps.
    """
    with _gathered(mats, "geometric") as stack:
        n, p = stack.shape[0], stack.shape[1]
        start = _geometric_start(stack)
        if not descend:
            return start

        def move(sq, grad, step):
            return _sym(sq @ sym_func((step / n) * grad, "exp") @ sq)

        return _descend(lambda m: _geo_state(m, stack), move, start, n, 2e-9 * p, "geometric mean")


def _wasserstein_start(factors: np.ndarray) -> np.ndarray:
    """The Wasserstein mean's closed-form start for the (n, p, r) factors
    ``f_i``: the rank-r truncation of the squared mean root ``(sum_i
    c_i^1/2 / n)^2``, each root ``f_i diag(1/|f_i[:, j]|) f_i.T`` read from
    its factor (no covariance is read). It is the barycenter of commuting
    inputs (Alvarez-Esteban et al. 2016) and follows orthogonal
    congruences and scaling."""
    n, r = factors.shape[0], factors.shape[-1]
    # Column j of f_i is sqrt(w_j) u_j, so the root of c_i is
    # f_i diag(1/|f_i[:, j]|) f_i.T; zero columns stay zero.
    sq = np.einsum("npr,npr->nr", factors, factors)
    scaled = factors / np.sqrt(np.where(sq > 0, sq, 1.0))[:, None, :]
    mu, v = eigh(np.tensordot(scaled, factors, axes=([0, 2], [0, 2])) / n)
    y = v[:, :r] * mu[:r]
    return _sym(y @ y.T)


def mean_wasserstein(mats, *, descend: bool = True) -> np.ndarray:
    """Frechet mean under the Bures-Wasserstein metric, at the largest
    numerical rank ``r`` among the inputs (see :func:`factorize`).

    Gradient descent on the factor ``y`` (p x r) minimizing the summed
    squared distances: ``y <- y + step/n sum_i log_i`` for the
    factor-space log maps ``log_i``, its step chosen by the backtracking
    rule of the means' shared descent loop. Initialized at
    :func:`_wasserstein_start`, the barycenter of commuting inputs, where
    the descent stops at its first state. Each state is evaluated, and
    each step taken, at the factor :func:`factorize` gives its point
    ``y y.T``, as :func:`embed` does; ``y -> y R`` (R orthogonal) leaves
    the point, objective and gradient norm unchanged (Bhatia, Jain & Lim
    2019). Converged when the Riemannian gradient ``2 sum_i log_i`` has
    Frobenius norm at most ``1e-7 * sqrt(p * r * t)`` for the inputs' mean
    trace ``t = sum_i |f_i|_F^2 / n``, so the mean of the ``s c_i`` is
    ``s`` times theirs. Returns the mean, a read-only ``(p, p)`` array.
    With ``descend=False`` it returns the start and evaluates no state, so
    it never raises :class:`NoConvergence`. ``mats`` may be
    :class:`Samples` prepared for ``wasserstein``, cut to their nonzero
    columns, so a subset's mean ignores the rest.

    Raises
    ------
    RankMismatch
        If an iterate has lower rank than an input, naming the input.
    NoConvergence
        If the gradient norm is still above the tolerance after
        ``MAX_ITER`` steps.
    """
    with _gathered(mats, "wasserstein") as factors:
        factors = factors[:, :, : np.any(factors, axis=(0, 1)).sum()]
        n, p, r = factors.shape
        start = _wasserstein_start(factors)
        if not descend:
            return start
        sq = np.einsum("npr,npr->nr", factors, factors)
        tol = 1e-7 * np.sqrt(p * r * float(sq.sum()) / n)

        def move(y, grad, step):
            c = y + step * (grad / n)
            return _sym(c @ c.T)

        return _descend(lambda x: _wass_state(x, factors), move, start, n, tol, "Wasserstein mean")


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
        dists.append(dist_wasserstein(w @ a @ w.T, w @ b @ w.T))
    return a, b, dists


# ---------------------------------------------------------------------------
# Embeddings: fit a reference on a training set, then vectorize samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Vectorization recipe: a kind plus its fitted reference point.

    ``euclidean`` and ``logdiag`` take no reference (``ValueError``).
    ``geometric`` carries a full-rank SPD reference; ``wasserstein`` a PSD
    reference of nonzero numerical rank, at least that of each sample it
    embeds. The reference is stored as :func:`~spdreg.symmat.SymMat` gives it.
    """

    kind: str
    reference: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(
                f"unknown embedding kind {self.kind!r}; expected one of {EMBEDDING_KINDS}"
            )
        if self.kind in ("euclidean", "logdiag"):
            if self.reference is not None:
                raise ValueError(f"{self.kind} embedding takes no reference")
            return
        if self.reference is None:
            raise ValueError(f"{self.kind} embedding requires a reference matrix")
        object.__setattr__(self, "reference", _matrix(self.reference))
        nr = numerical_rank(self.reference)
        if self.kind == "geometric" and nr != len(self.reference):
            raise SingularMatrix("geometric embedding requires a full-rank reference, "
                                 f"numerical rank {nr} of {len(self.reference)}")
        if self.kind == "wasserstein" and nr == 0:
            raise RankMismatch("wasserstein embedding requires a reference of nonzero rank")


def fit_embedding(mats, kind: str) -> tuple[Embedding, np.ndarray]:
    """Fit an embedding on a training set; return it with that set's
    ``(n, k)`` feature rows.

    The reference is the closed-form mean of ``mats`` under the metric that
    matches ``kind``, the start of its Frechet mean (``descend=False``):
    the joint-diagonalization log-Euclidean mean for ``geometric``, the
    squared mean root for ``wasserstein``. Each is the Frechet mean on the
    paper's exact cases and follows its metric's congruences, and neither
    runs a descent, so no fit raises :class:`NoConvergence`.
    ``euclidean`` and ``logdiag`` have no reference. ``mats`` is an
    ``(n, p, p)`` array or :class:`Samples` prepared for ``kind``; a
    ``wasserstein`` reference has their largest rank. The samples are
    gathered once, for the mean and for the rows, which are
    ``embed(embedding, mats)``.
    """
    with _gathered(mats, kind) as data:
        train = Samples(kind, data)
        if kind in ("euclidean", "logdiag"):
            embedding = Embedding(kind)
        else:
            mean = mean_geometric if kind == "geometric" else mean_wasserstein
            embedding = Embedding(kind, mean(train, descend=False))
        return embedding, embed(embedding, train)


def embed(embedding: Embedding, mats) -> np.ndarray:
    """The ``(n, k)`` feature rows of matrices under a fitted embedding,
    one row per matrix.

    ``euclidean`` rows are the upper triangle of each matrix (sqrt(2)
    weights off the diagonal), ``geometric`` rows the same of
    ``log(m^-1/2 c m^-1/2)`` for the reference ``m``, ``wasserstein`` rows
    the flattened factor-space log maps from the reference (length ``p``
    times its numerical rank), ``logdiag`` rows the log of the diagonal.
    Geometric and wasserstein rows are those of the metric's state at the
    reference, so the 2-norm of one is the distance from it (exactly
    :func:`dist_geometric`). ``mats`` is an ``(n, p, p)`` array or
    :class:`Samples` prepared for the embedding's kind, whose per-sample
    part is then not redone; a dimension not the reference's raises
    :class:`DimensionMismatch`. A
    ``wasserstein`` row is continuous in its sample, but only Holder-1/2
    where the sample's rank drops (it moves as ``sqrt(t)`` as an eigenvalue
    ``t`` goes to 0); a sample of higher rank than the reference raises
    :class:`RankMismatch` naming it.
    """
    kind, reference = embedding.kind, embedding.reference
    with _gathered(mats, kind) as data:
        if reference is None:
            return data
        if len(reference) != data.shape[1]:
            raise DimensionMismatch(f"reference dim {len(reference)} vs matrices dim {data.shape[1]}")
        return (_geo_state if kind == "geometric" else _wass_state)(reference, data)[1]
