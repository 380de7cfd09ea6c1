import numpy as np
import pytest

from conftest import rand_invertible, rand_orthogonal, rand_psd_rank, rand_spd
from spdreg import (
    GenerativeConfig,
    NoConvergence,
    SingularMatrix,
    manifold,
    mean_euclidean,
    mean_geometric,
    mean_wasserstein,
    sample_bundle,
    sym_func,
)
from spdreg.symmat import SymMat


def karcher_gradient(mean, mats):
    """Independent recomputation of the Karcher-mean stationarity gradient."""
    isq = sym_func(mean, "inv_sqrt")
    total = np.zeros_like(mean)
    for m in mats:
        total += sym_func(isq @ m @ isq, "log")
    return total


class TestMeanGeometric:
    def test_identity_inputs(self):
        mats = [np.eye(3)] * 3
        np.testing.assert_allclose(mean_geometric(mats), np.eye(3), atol=1e-12)

    def test_scalar_closed_form(self):
        # 1x1 case: the mean of {a, b} is sqrt(a*b).
        m = mean_geometric([[[4.0]], [[1.0]]])
        assert m[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_singleton(self):
        rng = np.random.default_rng(0)
        s = rand_spd(rng, 4)
        np.testing.assert_allclose(mean_geometric([s]), s, atol=1e-10)

    def test_midpoint_of_inverse_pair_is_identity(self):
        rng = np.random.default_rng(1)
        s = rand_spd(rng, 4)
        m = mean_geometric([s, np.linalg.inv(s)])
        np.testing.assert_allclose(m, np.eye(4), atol=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        mats = [rand_spd(rng, 3) for _ in range(5)]
        m1 = mean_geometric(mats)
        m2 = mean_geometric(mats[::-1])
        assert np.linalg.norm(m1 - m2) <= 1e-8

    def test_gradient_norm_at_convergence(self):
        rng = np.random.default_rng(3)
        mats = [rand_spd(rng, 5) for _ in range(20)]
        m = mean_geometric(mats)
        assert np.linalg.norm(karcher_gradient(m, mats)) <= 1e-9 * 5

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        mats = [rand_spd(rng, 4) for _ in range(8)]
        w = rand_invertible(rng, 4)
        direct = mean_geometric([SymMat(w.T @ m @ w) for m in mats])
        pushed = w.T @ mean_geometric(mats) @ w
        err = np.linalg.norm(direct - pushed) / np.linalg.norm(pushed)
        assert err <= 1e-6

    def test_rank_deficient_input_raises(self):
        with pytest.raises(SingularMatrix):
            mean_geometric([np.eye(2), np.diag([1.0, 0.0])])


class TestMeanWasserstein:
    def test_identical_inputs(self):
        rng = np.random.default_rng(6)
        s = rand_spd(rng, 4)
        m = mean_wasserstein([s, s, s])
        assert np.linalg.norm(m - s) <= 1e-8 * np.linalg.norm(s)

    def test_scalar_closed_form(self):
        # 1x1 case: the mean of {a, b} is ((sqrt(a) + sqrt(b)) / 2)^2.
        m = mean_wasserstein([[[4.0]], [[16.0]]])
        assert m[0, 0] == pytest.approx(9.0, abs=1e-10)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(7)
        mats = [rand_spd(rng, 4) for _ in range(8)]
        q = rand_orthogonal(rng, 4)
        direct = mean_wasserstein([SymMat(q.T @ m @ q) for m in mats])
        pushed = q.T @ mean_wasserstein(mats) @ q
        err = np.linalg.norm(direct - pushed) / np.linalg.norm(pushed)
        assert err <= 1e-6

    def test_gradient_norm_at_convergence(self):
        from spdreg.manifold import _wass_state, factorize

        rng = np.random.default_rng(8)
        mats = np.stack([rand_spd(rng, 5) for _ in range(15)])
        m = mean_wasserstein(mats)
        _, _, grad_sum, _ = _wass_state(m, factorize(mats))
        assert 2 * np.linalg.norm(grad_sum) <= wasserstein_tolerance(mats)

    def test_rank_deficient_inputs(self):
        rng = np.random.default_rng(9)
        mats = [rand_psd_rank(rng, 4, 2) for _ in range(6)]
        m = mean_wasserstein(mats)
        w = np.linalg.eigvalsh(m)
        assert np.sum(w > 1e-10 * w[-1]) == 2

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        mats = [rand_spd(rng, 3) for _ in range(5)]
        m1 = mean_wasserstein(mats)
        m2 = mean_wasserstein(mats[::-1])
        assert np.linalg.norm(m1 - m2) <= 1e-8


def wasserstein_tolerance(mats):
    """The Wasserstein mean's stopping tolerance ``1e-7 sqrt(p r tbar)``,
    ``tbar`` the inputs' mean trace, from numpy's own eigensolver."""
    w = np.linalg.eigvalsh(mats)
    r = int(np.max(np.sum(w > 1e-12 * w[:, -1:], axis=1)))
    return 1e-7 * np.sqrt(mats.shape[-1] * r * np.trace(mats, axis1=1, axis2=2).mean())


def squared_mean_root(mats):
    """``(sum_i c_i^1/2 / n)^2``, the Wasserstein mean of commuting inputs."""
    w, v = np.linalg.eigh(mats)
    root = np.einsum("nij,nj,nkj->ik", v, np.sqrt(np.clip(w, 0.0, None)), v) / len(mats)
    return root @ root


def commuting_full_rank():
    """The paper's exact Wasserstein case: sqrt link, orthogonal mixing."""
    cfg = GenerativeConfig(p=5, q=2, n=30, mu=1.0, f_kind="sqrt", orthogonal_a=True, seed=2)
    return sample_bundle(cfg)[0].matrices


def commuting_rank_deficient():
    """The same case at rank 4, lifted into 8 dimensions by a fixed
    orthonormal 8 x 4 map (the rank-deficient benchmark at small size)."""
    cfg = GenerativeConfig(p=4, q=2, n=40, mu=1.0, f_kind="sqrt", orthogonal_a=True, seed=0)
    base = sample_bundle(cfg)[0].matrices
    u, _ = np.linalg.qr(np.random.default_rng([0, 8]).standard_normal((8, 4)))
    return u @ base @ u.T


def count_states(monkeypatch, state="_wass_state"):
    """Record the point of every state a mean evaluates: ``_wass_state`` for
    the Wasserstein mean, ``_geo_state`` for the geometric one."""
    points, evaluate = [], getattr(manifold, state)

    def counted(point, data):
        points.append(point)
        return evaluate(point, data)

    monkeypatch.setattr(manifold, state, counted)
    return points


class TestWassersteinStart:
    """The mean starts at the top-r truncation of the squared mean root,
    the barycenter of commuting inputs (Bhatia, Jain & Lim 2019)."""

    @pytest.mark.parametrize(
        "make", [commuting_full_rank, commuting_rank_deficient], ids=["full", "rank4in8"]
    )
    def test_commuting_inputs_stop_at_the_start(self, make, monkeypatch):
        mats = make()
        points = count_states(monkeypatch)
        m = mean_wasserstein(mats)
        assert len(points) == 1
        want = squared_mean_root(mats)
        assert np.linalg.norm(m - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_and_lower_rank_samples(self, monkeypatch):
        rng = np.random.default_rng(13)
        mats = np.stack(
            [np.zeros((5, 5))]
            + [rand_psd_rank(rng, 5, 2) for _ in range(3)]
            + [rand_psd_rank(rng, 5, 3) for _ in range(6)]
        )
        points = count_states(monkeypatch)
        m = mean_wasserstein(mats)
        rows = manifold.embed(manifold.Embedding("wasserstein", m), mats)
        assert np.all(np.isfinite(points[0]))
        assert np.all(np.isfinite(m)) and np.all(np.isfinite(rows))
        assert np.linalg.matrix_rank(m) == 3

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    @pytest.mark.parametrize("seed", [14, 15])
    def test_non_commuting_gradient_within_tolerance(self, seed, scale):
        rng = np.random.default_rng(seed)
        mats = scale * np.stack([rand_spd(rng, 5) for _ in range(15)]
                                + [rand_psd_rank(rng, 5, 2) for _ in range(3)])
        m = mean_wasserstein(mats)
        grad_sum = manifold._wass_state(m, manifold.factorize(mats))[2]
        assert 2 * np.linalg.norm(grad_sum) <= wasserstein_tolerance(mats)


def jointly_diagonal(p, seed):
    """``(a, e, c)`` with ``c_i = a diag(e_i) a.T``, ``cond(a) = 30`` and
    lognormal ``e_i``: the paper's exact geometric case."""
    rng = np.random.default_rng(seed)
    a = (rand_orthogonal(rng, p) * np.geomspace(1.0, 30.0, p)) @ rand_orthogonal(rng, p).T
    e = np.exp(rng.standard_normal((50, p)))
    return a, e, SymMat(np.einsum("ij,nj,kj->nik", a, e, a))


class TestGeometricStart:
    """The mean starts at the log-Euclidean mean in the basis that jointly
    diagonalizes the arithmetic mean and a weighted second matrix, the
    geometric mean of jointly diagonalizable inputs (Congedo et al. 2015)."""

    @pytest.mark.parametrize("p", [5, 20])
    def test_jointly_diagonal_inputs_stop_at_the_start(self, p, monkeypatch):
        a, e, mats = jointly_diagonal(p, seed=p)
        points = count_states(monkeypatch, "_geo_state")
        m = mean_geometric(mats)
        assert len(points) == 1
        want = (a * np.exp(np.log(e).mean(axis=0))) @ a.T
        assert np.linalg.norm(m - want) <= 1e-12 * np.linalg.norm(want)

    def test_generator_bundle_stops_at_the_start(self, monkeypatch):
        mats = sample_bundle(GenerativeConfig(p=8, q=2, n=60, mu=1.0, seed=0))[0].matrices
        points = count_states(monkeypatch, "_geo_state")
        mean_geometric(mats)
        assert len(points) == 1

    def test_zero_sample_raises_at_the_arithmetic_mean(self, monkeypatch):
        rng = np.random.default_rng(16)
        mats = np.stack([rand_spd(rng, 4) for _ in range(5)] + [np.zeros((4, 4))])
        with pytest.raises(SingularMatrix) as want:
            manifold._geo_state(mats.mean(axis=0), mats)
        points = count_states(monkeypatch, "_geo_state")
        with pytest.raises(SingularMatrix) as got:
            mean_geometric(mats)
        assert type(got.value) is SingularMatrix and str(got.value) == str(want.value)
        assert got.value.smallest_eigenvalue == want.value.smallest_eigenvalue
        np.testing.assert_array_equal(np.array(points), mats.mean(axis=0)[None])

    def test_singular_mean_raises_before_any_state(self, monkeypatch):
        rng = np.random.default_rng(17)
        u = rand_orthogonal(rng, 4)[:, :2]
        mats = np.stack([SymMat((u * np.exp(rng.standard_normal(2))) @ u.T) for _ in range(6)])
        with pytest.raises(SingularMatrix) as want:
            sym_func(mats.mean(axis=0), "inv_sqrt")
        points = count_states(monkeypatch, "_geo_state")
        with pytest.raises(SingularMatrix) as got:
            mean_geometric(mats)
        assert type(got.value) is SingularMatrix and str(got.value) == str(want.value)
        assert points == []

    def test_identical_inputs_return_after_one_state(self, monkeypatch):
        s = rand_spd(np.random.default_rng(18), 5, spread=3.0)
        points = count_states(monkeypatch, "_geo_state")
        m = mean_geometric(np.stack([s] * 7))
        assert len(points) == 1
        assert np.linalg.norm(m - s) <= 1e-12 * np.linalg.norm(s)


@pytest.fixture(scope="module")
def scaled_bundles():
    """A small generator bundle and the mixed-rank one that CI runs through
    the CLI (4 of 200 subjects have rank 19 of 20)."""
    return {
        "p6": sample_bundle(GenerativeConfig(p=6, q=2, n=40, mu=0.5, seed=1))[0].matrices,
        "p20mixed": sample_bundle(
            GenerativeConfig(p=20, mu=1, sigma_mix=0.01, n=200, seed=0)
        )[0].matrices,
    }


@pytest.mark.parametrize("scale", [1e-24, 1e-12, 1e6])
@pytest.mark.parametrize("name", ["p6", "p20mixed"])
def test_wasserstein_mean_is_scale_equivariant(scaled_bundles, name, scale):
    mats = scaled_bundles[name]
    want = mean_wasserstein(mats)
    got = mean_wasserstein(scale * mats) / scale
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture(scope="module", params=[0.0, 0.05], ids=["exact", "mixed"])
def geometric_bundle(request):
    """A small generator bundle, jointly diagonalizable for ``sigma_mix = 0``
    (the mean stops at its start) and not for 0.05 (the descent runs)."""
    cfg = GenerativeConfig(p=6, q=2, n=40, mu=0.5, sigma_mix=request.param, seed=1)
    return sample_bundle(cfg)[0].matrices


@pytest.mark.parametrize("scale", [1e-24, 1e-12, 1e6])
def test_geometric_mean_is_scale_equivariant(geometric_bundle, scale):
    mats = geometric_bundle
    want = mean_geometric(mats)
    got = mean_geometric(scale * mats) / scale
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [19, 20, 21])
def test_geometric_mean_is_congruence_equivariant(geometric_bundle, seed):
    mats = geometric_bundle
    w = rand_invertible(np.random.default_rng(seed), 6, spread=np.log(50.0) / 2)
    assert np.linalg.cond(w) <= 50.0
    want = w @ mean_geometric(mats) @ w.T
    got = mean_geometric(SymMat(w @ mats @ w.T))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "mean", [mean_geometric, mean_wasserstein],
    ids=["geometric", "wasserstein"],
)
def test_no_convergence_reports_gradient(mean, monkeypatch):
    monkeypatch.setattr(manifold, "MAX_ITER", 1)
    rng = np.random.default_rng(5)
    mats = [rand_spd(rng, 4, spread=2.0) for _ in range(6)]
    with pytest.raises(NoConvergence) as info:
        mean(mats)
    assert info.value.gradient_norm > 0
    assert info.value.iterations == 1


class TestDescend:
    """The shared descent loop on a toy problem: the squared distances from
    ``x`` to points in the plane, whose minimizer is their mean. ``move``
    goes ``gain`` times the mean log map, so a unit step overshoots when
    ``gain > 2`` and goes uphill when ``gain < 0``. The tolerance stays above
    the gradient at which the Armijo slack would accept an overshoot."""

    points = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5]])

    def run(self, gain, tol=1e-4):
        """``_descend`` from the origin; the objective of every state it
        evaluates and the step of every move it tries go to ``self``."""
        self.states, self.steps = states, steps = [], []

        def evaluate(x):
            logs = self.points - x
            states.append(float(np.sum(logs * logs)))
            return x, logs.copy(), logs.sum(axis=0), states[-1]

        def move(x, gsum, step):
            steps.append(step)
            return x + gain * step * gsum / len(self.points)

        return manifold._descend(evaluate, move, np.zeros(2), len(self.points), tol, "toy mean")

    def test_overshoot_halves_and_converges(self):
        point = self.run(gain=3.0)
        states, steps = self.states, self.steps
        assert 0.5 in steps and 1.0 in steps
        # The state a move gives is accepted when the next move starts over
        # at step 1 (or none follows).
        accepted = [states[0]] + [
            obj for obj, nxt in zip(states[1:], steps[1:] + [1.0]) if nxt == 1.0
        ]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        # Converged: the gradient 2 * 3 * (mean - x) has norm at most tol.
        mean = self.points.mean(axis=0)
        assert 6.0 * np.linalg.norm(point - mean) <= 1e-4

    def test_step_floor_ends_in_no_convergence(self):
        with pytest.raises(NoConvergence) as info:
            self.run(gain=-1.0)
        assert info.value.iterations == manifold.MAX_ITER
        assert info.value.gradient_norm > 0
        # Every step was halved down to the floor, and the floor was taken.
        tries = len(self.steps) // manifold.MAX_ITER
        assert len(self.steps) == tries * manifold.MAX_ITER
        assert self.steps[tries - 1] <= 1e-6 < self.steps[tries - 2]


@pytest.mark.parametrize("kind", ["geometric", "wasserstein"])
def test_subset_mean_equals_mean_of_its_gathered_rows(kind):
    # Both means read Samples, whole or a subset, bit for bit as the plain
    # array of their gathered rows.
    rng = np.random.default_rng(25)
    mats = np.stack([rand_spd(rng, 4, spread=2.0) for _ in range(10)])
    mean = mean_geometric if kind == "geometric" else mean_wasserstein
    prepared = manifold.prepare_samples(mats, kind)
    assert np.array_equal(mean(prepared), mean(mats))
    subset = prepared.subset([7, 2, 5, 0, 9])
    want = mean(manifold.Samples(kind, subset.gather()))
    assert np.array_equal(mean(subset), want)
    assert np.array_equal(mean(subset), mean(mats[[7, 2, 5, 0, 9]]))


def test_points_are_read_only_arrays():
    rng = np.random.default_rng(12)
    mats = np.stack([rand_spd(rng, 3) for _ in range(4)])
    points = {
        "mean_euclidean": mean_euclidean(mats),
        "mean_geometric": mean_geometric(mats),
        "mean_wasserstein": mean_wasserstein(mats),
        "Embedding.reference": manifold.fit_embedding(mats, "geometric")[0].reference,
        "witness": manifold.no_affine_invariance_witness()[0],
    }
    for name, point in points.items():
        assert type(point) is np.ndarray and point.ndim == 2, name
        assert point.dtype == np.float64 and not point.flags.writeable, name


class TestMeanEuclidean:
    def test_matches_numpy_average(self):
        rng = np.random.default_rng(11)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        np.testing.assert_allclose(
            mean_euclidean(mats), np.mean(mats, axis=0)
        )
