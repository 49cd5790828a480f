import math
from itertools import product

import numpy as np
import pytest

from hilbertcone import (
    DimensionError,
    GridKernel,
    NonnegMatrix,
    PositiveVector,
    SimplexPoint,
    ValidationError,
    birkhoff_phi,
    birkhoff_tau,
    grid_kernel_phi,
    grid_kernel_tau,
    hilbert_distance,
    kernel_apply,
    markov_converge,
    normalize,
    projective_diameter,
    t_distance,
    verify_contraction,
)
from conftest import random_allowable, random_positive, random_simplex


def phi_exhaustive(a):
    """O(n^4) oracle with the 0/0 -> 1 and 0/positive -> 0 conventions."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    best = math.inf
    for i, j, k, l in product(range(n), repeat=4):
        num = a[i, k] * a[j, l]
        den = a[j, k] * a[i, l]
        if den == 0.0:
            r = 1.0 if num == 0.0 else math.inf
        elif num == 0.0:
            r = 0.0
        else:
            r = num / den
        best = min(best, r)
    return best


def kernel_phi_exhaustive(log_values):
    L = np.asarray(log_values)
    C = L[:, None, :, None] + L[None, :, None, :] - L[:, None, None, :] - L[None, :, :, None]
    return float(np.exp(C.min()))


def diameter_basis_sweep(a):
    a = np.asarray(a, dtype=float)
    cols = [PositiveVector(tuple(a[:, k])) for k in range(a.shape[1])]
    return max(float(hilbert_distance(u, v)) for u in cols for v in cols)


class TestBirkhoffPhi:
    def test_all_ones(self):
        assert birkhoff_phi([[1, 1], [1, 1]]) == 1.0

    def test_hand_value(self):
        assert birkhoff_phi([[2, 1], [1, 2]]) == pytest.approx(0.25, abs=1e-15)
        assert birkhoff_phi([[2, 1], [1, 2]]) == pytest.approx(
            phi_exhaustive([[2, 1], [1, 2]]), rel=1e-12
        )

    def test_zero_entry(self):
        assert birkhoff_phi([[1, 0], [1, 1]]) == 0.0

    def test_not_allowable(self):
        with pytest.raises(ValidationError):
            birkhoff_phi([[1, 0], [1, 0]])
        with pytest.raises(ValidationError):
            birkhoff_phi([[0, 0], [1, 1]])

    def test_matches_exhaustive_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = random_allowable(rng, n)
            assert birkhoff_phi(a) == pytest.approx(phi_exhaustive(a), rel=1e-12)
        for _ in range(20):
            a = random_allowable(rng, int(rng.integers(2, 7)), zero_frac=0.3)
            assert birkhoff_phi(a) == phi_exhaustive(a)

    def test_scaling_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_allowable(rng, n)
            d1 = np.diag(np.exp(rng.uniform(-2, 2, n)))
            d2 = np.diag(np.exp(rng.uniform(-2, 2, n)))
            assert birkhoff_phi(d1 @ a @ d2) == pytest.approx(birkhoff_phi(a), rel=1e-12)

    def test_transpose_invariance_exact(self, rng):
        for _ in range(30):
            a = random_allowable(rng, int(rng.integers(2, 7)))
            assert birkhoff_phi(a.T.copy()) == birkhoff_phi(a)
        for zero_frac in (0.0, 0.3):
            for _ in range(30):
                p = random_allowable(rng, int(rng.integers(2, 7)), zero_frac=zero_frac)
                p = p / p.sum(axis=1, keepdims=True)
                assert birkhoff_tau(p.T.copy()) == birkhoff_tau(p)


def log_phi_min_over_pairs(a):
    """min over row pairs (i, j) of min_k(L[i,k] - L[j,k]) + min_l(L[j,l] - L[i,l])."""
    L = np.log(np.asarray(a, dtype=float))
    m = L.shape[0]
    return min(float(min(L[i] - L[j]) + min(L[j] - L[i])) for i in range(m) for j in range(m))


@pytest.mark.parametrize("a", [
    [[1.0]], [[0.5]], [[7.0]],
    [[1, 1], [1, 1]], [[1, 2], [2, 4]], [[2, 1], [1, 2]], [[3, 1], [2, 5]],
    [[1e-300, 1], [1, 1e300]], [[1e-300, 1], [1, 1e-300]],
])
def test_oscillation_pass_matches_pair_minimum_without_negative_zero(a):
    lp = min(log_phi_min_over_pairs(a), log_phi_min_over_pairs(np.transpose(a)))
    assert birkhoff_phi(a) == math.exp(lp)
    assert birkhoff_tau(a) == (1 - math.exp(lp / 2)) / (1 + math.exp(lp / 2))
    assert float(projective_diameter(a)) == -lp
    report = verify_contraction(a, trials=5, seed=0)
    for v in (birkhoff_phi(a), birkhoff_tau(a), float(projective_diameter(a)),
              report.phi, report.tau, float(report.diameter)):
        assert math.copysign(1.0, v) == 1.0


class TestBirkhoffTau:
    def test_all_ones(self):
        assert birkhoff_tau([[1, 1], [1, 1]]) == 0.0

    def test_hand_value(self):
        assert birkhoff_tau([[2, 1], [1, 2]]) == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_entry_gives_one(self):
        assert birkhoff_tau([[1, 0], [1, 1]]) == 1.0

    def test_tau_is_tanh_of_quarter_diameter(self, rng):
        for _ in range(30):
            a = random_allowable(rng, int(rng.integers(2, 6)))
            d = float(projective_diameter(a))
            assert birkhoff_tau(a) == pytest.approx(math.tanh(d / 4.0), abs=1e-12)

    def test_range(self, rng):
        for _ in range(30):
            a = random_allowable(rng, int(rng.integers(2, 6)), zero_frac=0.2)
            assert 0.0 <= birkhoff_tau(a) <= 1.0


class TestProjectiveDiameter:
    def test_all_ones(self):
        assert float(projective_diameter([[1, 1], [1, 1]])) == 0.0

    def test_hand_value(self):
        assert float(projective_diameter([[2, 1], [1, 2]])) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_zero_entry_infinite(self):
        assert projective_diameter([[1, 0], [1, 1]]).infinite

    def test_attained_on_basis_vectors(self, rng):
        for _ in range(60):
            a = random_allowable(rng, int(rng.integers(2, 7)))
            assert float(projective_diameter(a)) == pytest.approx(
                diameter_basis_sweep(a), abs=1e-10
            )


class TestGridKernel:
    def test_constant_kernel(self):
        K = GridKernel(np.full((3, 4), 2.5), np.arange(3.0), np.arange(4.0))
        assert grid_kernel_phi(K) == 1.0
        assert grid_kernel_tau(K) == 0.0

    def test_separable_kernel(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=6)
        K = GridKernel(u[:, None] + v[None, :], np.arange(5.0), np.sort(rng.uniform(0, 1, 6)))
        assert grid_kernel_phi(K) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kernel(self):
        a = np.linspace(0.0, 1.0, 21)
        sigma = 0.5
        L = -((a[:, None] - a[None, :]) ** 2) / (2 * sigma**2)
        K = GridKernel(L, a, a)
        assert grid_kernel_phi(K) == pytest.approx(math.exp(-4.0), rel=1e-9)
        assert grid_kernel_tau(K) == pytest.approx(math.tanh(1.0), rel=1e-9)
        assert grid_kernel_phi(K) == pytest.approx(kernel_phi_exhaustive(L), rel=1e-12)

    def test_decomposition_matches_exhaustive(self, rng):
        for _ in range(40):
            m, p = int(rng.integers(2, 16)), int(rng.integers(2, 16))
            L = rng.normal(size=(m, p))
            K = GridKernel(L, np.arange(float(m)), np.sort(rng.uniform(0, 1, p)))
            assert grid_kernel_phi(K) == pytest.approx(kernel_phi_exhaustive(L), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridKernel(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.arange(2.0), np.arange(2.0))
        with pytest.raises(ValidationError):
            GridKernel(np.zeros((2, 2)), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(DimensionError):
            GridKernel(np.zeros((2, 3)), np.arange(2.0), np.arange(2.0))


class TestKernelApply:
    def test_constant_unit_kernel(self):
        K = GridKernel(np.zeros((3, 2)), np.arange(3.0), np.arange(2.0))
        out = kernel_apply(K, PositiveVector((0.5, 0.5)))
        assert out.weights == (1.0, 1.0, 1.0)

    def test_diagonal_dominant_preserves_argmax(self):
        g = np.arange(5.0)
        L = -2.0 * (g[:, None] - g[None, :]) ** 2
        K = GridKernel(L, g, g)
        mu = PositiveVector((0.1, 0.1, 0.1, 3.0, 0.1))
        out = kernel_apply(K, mu)
        expected = np.exp(L) @ np.asarray(mu.weights)
        assert np.argmax(out.weights) == 3
        assert np.allclose(out.weights, expected, rtol=1e-14)

    def test_contracts_in_t(self, rng):
        g = np.linspace(0.0, 1.0, 8)
        L = rng.normal(size=(8, 8))
        K = GridKernel(L, g, g)
        tau = grid_kernel_tau(K)
        for _ in range(50):
            mu, nu = random_positive(rng, 8), random_positive(rng, 8)
            assert t_distance(kernel_apply(K, mu), kernel_apply(K, nu)) <= (
                tau * t_distance(mu, nu) + 1e-10
            )

    def test_dimension_error(self):
        K = GridKernel(np.zeros((3, 2)), np.arange(3.0), np.arange(2.0))
        with pytest.raises(DimensionError):
            kernel_apply(K, PositiveVector((1.0, 1.0, 1.0)))


class TestVerifyContraction:
    def test_rank_one(self):
        report = verify_contraction([[1, 1], [1, 1]], trials=200, seed=1)
        assert report.tau == 0.0
        assert report.passed

    def test_hand_matrix(self):
        report = verify_contraction([[2, 1], [1, 2]], trials=10_000, seed=7)
        assert report.tau == pytest.approx(1 / 3, abs=1e-15)
        assert report.passed

    def test_zero_entry_nonexpansive(self):
        report = verify_contraction([[1, 0], [1, 1]], trials=2000, seed=3)
        assert report.tau == 1.0
        assert report.passed

    def test_reproducible(self):
        a = [[3, 1], [2, 5]]
        r1 = verify_contraction(a, trials=500, seed=42)
        r2 = verify_contraction(a, trials=500, seed=42)
        assert r1 == r2

    def test_tau_phi_consistency(self, rng):
        for _ in range(20):
            a = random_allowable(rng, int(rng.integers(2, 6)), zero_frac=0.2)
            r = verify_contraction(a, trials=100, seed=0)
            assert r.tau == pytest.approx(
                (1 - math.sqrt(r.phi)) / (1 + math.sqrt(r.phi)), abs=1e-12
            )

    def test_classical_birkhoff_in_h(self, rng):
        # H(Ax, Ay) <= tau(A) H(x, y) for finite-H pairs
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = random_allowable(rng, n, zero_frac=0.2)
            tau = birkhoff_tau(a)
            x, y = random_positive(rng, n), random_positive(rng, n)
            hxy = float(hilbert_distance(x, y))
            ax = PositiveVector(tuple(a @ np.asarray(x.weights)))
            ay = PositiveVector(tuple(a @ np.asarray(y.weights)))
            assert float(hilbert_distance(ax, ay)) <= tau * hxy + 1e-10

    def test_composition_submultiplicative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a, b = random_allowable(rng, n), random_allowable(rng, n)
            assert birkhoff_tau(a @ b) <= birkhoff_tau(a) * birkhoff_tau(b) + 1e-10


class TestMarkovConverge:
    def test_rank_one_chain(self):
        run = markov_converge([[0.5, 0.5], [0.5, 0.5]], SimplexPoint((0.9, 0.1)), 3)
        assert run.steps[1].hilbert == pytest.approx(0.0, abs=1e-12)
        assert not run.nonexpansive_only

    def test_two_state_rate(self):
        p = [[0.75, 0.25], [0.25, 0.75]]
        assert birkhoff_phi(p) == pytest.approx(1 / 9, rel=1e-12)
        run = markov_converge(p, SimplexPoint((0.99, 0.01)), 20)
        assert run.tau == pytest.approx(0.5, abs=1e-12)
        hs = [s.hilbert for s in run.steps]
        for prev, cur in zip(hs, hs[1:]):
            if prev > 1e-12:
                assert cur / prev <= run.tau + 1e-6

    def test_starting_at_stationary(self):
        p = [[0.6, 0.4], [0.4, 0.6]]
        pi = markov_converge(p, SimplexPoint((0.5, 0.5)), 0).stationary
        run = markov_converge(p, pi, 5)
        for step in run.steps:
            assert step.hilbert <= 1e-10
            assert step.tv <= 1e-10

    def test_certified_bound_holds(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = random_allowable(rng, n)
            p = a / a.sum(axis=1, keepdims=True)
            mu0 = random_simplex(rng, n)
            run = markov_converge(p, mu0, 15)
            for step in run.steps:
                assert step.hilbert <= step.certified_bound + 1e-9

    def test_not_stochastic(self):
        with pytest.raises(ValidationError):
            markov_converge([[0.8, 0.4], [0.5, 0.5]], SimplexPoint((0.5, 0.5)), 2)

    def test_infinite_start_bound_is_vacuous(self):
        run = markov_converge([[0.75, 0.25], [0.25, 0.75]], SimplexPoint((1.0, 0.0)), 3)
        assert math.isinf(run.steps[0].hilbert)
        assert math.isinf(run.steps[0].certified_bound)
        assert math.isfinite(run.steps[1].hilbert)


def test_matrix_validation():
    with pytest.raises(ValidationError):
        NonnegMatrix(np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(DimensionError):
        NonnegMatrix(np.ones((2, 3)))
    m = NonnegMatrix(np.eye(3))
    assert m.n == 3
