import decimal
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from hilbertcone import (
    CertificationError,
    DimensionError,
    DomainError,
    GridKernel,
    HilbertConeError,
    MarkovRun,
    MarkovStep,
    NonnegMatrix,
    PositiveVector,
    SimplexPoint,
    ValidationError,
    birkhoff_phi,
    birkhoff_tau,
    hilbert_distance,
    kernel_apply,
    markov_converge,
    normalize,
    projective_diameter,
    t_distance,
    tv_distance,
    verify_contraction,
)
from hilbertcone import contraction
from hilbertcone.core import _hilbert_weights, osc
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
        for n in (130, 131, 160):  # a block of the phi pass is one row
            a = random_allowable(rng, n)
            assert birkhoff_phi(a.T.copy()) == birkhoff_phi(a)
            assert birkhoff_tau(a.T) == birkhoff_tau(a)
        for _ in range(30):
            # Symmetric but for one entry: A and A.T first differ deep in C order.
            n = int(rng.integers(2, 7))
            a = random_allowable(rng, n)
            a = a + a.T
            a[rng.integers(n), rng.integers(n)] *= 1.5
            assert birkhoff_phi(a.T.copy()) == birkhoff_phi(a)
            a = random_allowable(rng, n, zero_frac=0.3)
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
    assert birkhoff_tau(a) == math.tanh(-lp / 4)
    assert float(projective_diameter(a)) == -lp
    report = verify_contraction(a, trials=5, seed=0)
    for v in (birkhoff_phi(a), birkhoff_tau(a), float(projective_diameter(a)),
              report.phi, report.tau, float(report.diameter)):
        assert math.copysign(1.0, v) == 1.0


def unpruned_diameter(L):
    """The diameter pass without pruning: every row pair, in blocks of about 2**16 differences."""
    m, p = L.shape
    b = max(1, (1 << 16) // (m * p))
    blocks = (osc(L[i:i + b, None, :] - L[None, i:, :]).max() for i in range(0, m - 1, b))
    return float(max(blocks, default=0.0))


FAMILIES = ("uniform", "kernel", "stochastic", "ties", "near-ties", "rank-one", "offset")


def log_matrix(rng, family, m, p):
    """An m x p matrix of log values from one of FAMILIES."""
    if family == "uniform":
        return rng.uniform(-2.0, 2.0, (m, p))
    if family == "kernel":  # a noisy Gaussian kernel on uniform grids
        a, x = np.linspace(0.0, 1.0, m), np.linspace(0.0, 1.0, p)
        width = rng.uniform(0.2, 1.0)
        return -((a[:, None] - x[None, :]) ** 2) / (2 * width**2) + rng.normal(0, 0.05, (m, p))
    if family == "stochastic":  # the logs of a row-stochastic matrix
        a = np.exp(rng.uniform(-2.0, 2.0, (m, p)))
        return np.log(a / a.sum(axis=1, keepdims=True))
    if family == "ties":  # equal oscillations and equal pair values
        return rng.integers(0, 3, (m, p)).astype(float)
    if family == "near-ties":  # pair values within ~1e-13 of each other
        return rng.integers(0, 2, (m, p)) + rng.normal(0.0, 1e-13, (m, p))
    if family == "rank-one":  # every pair value is 0 or a rounding error
        u = rng.integers(-5, 5, m) if rng.random() < 0.5 else rng.normal(0.0, 3.0, m)
        return u[:, None] + rng.normal(0.0, 1.0, p)[None, :]
    offsets = rng.uniform(-1e6, 1e6, (m, 1)) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    return rng.uniform(-2.0, 2.0, (m, p)) + offsets


def test_pruned_pass_matches_unpruned_pass_bit_for_bit(rng):
    """2,000 matrices: square and rectangular, one block and many, C and F order."""
    multi_block = 0
    for t in range(2000):
        u = rng.random()
        if u < 0.6:
            m, p = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        elif u < 0.9:
            m = int(rng.integers(41, 121))
            p = m if rng.random() < 0.5 else int(rng.integers(1, 121))
        else:
            m = int(rng.integers(121, 258))
            p = m if rng.random() < 0.3 else int(rng.integers(1, 9))
        L = log_matrix(rng, FAMILIES[t % len(FAMILIES)], m, p)
        if rng.random() < 0.2:
            L = np.asfortranarray(L)
        multi_block += m * p * (m - 1) > 1 << 16
        got = contraction._pairwise_diameter(L)
        assert got.hex() == unpruned_diameter(L).hex(), (t, m, p)
        assert math.copysign(1.0, got) == 1.0
    assert multi_block > 500


def test_pruned_pass_skips_pairs_of_narrow_rows(monkeypatch):
    # Rows widen down the matrix and alternate in sign, so the two widest rows
    # attain the bound and, once they are compared, every other pair is skipped.
    m, p = 200, 50
    L = np.outer(np.arange(1.0, m + 1) * (-1.0) ** np.arange(m), np.linspace(-1.0, 1.0, p))
    pairs = []
    real = contraction.osc
    monkeypatch.setattr(contraction, "osc", lambda D: pairs.append(D.shape[0] * D.shape[1])
                        or real(D))
    assert contraction._pairwise_diameter(L) == unpruned_diameter(L) == 4.0 * m - 2.0
    assert sum(pairs) <= 0.1 * m * (m - 1) / 2


def test_pruned_pass_memory_on_a_tall_kernel(rng):
    L = rng.normal(size=(2000, 3))
    tracemalloc.start()
    try:
        contraction._pairwise_diameter(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def exact_tanh_quarter(d):
    """tanh(d/4) for a finite d >= 0, in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = (decimal.Decimal(d) / 2).exp()  # e^(2x) at x = d/4
        return (e - 1) / (e + 1)


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

    def test_small_diameter_does_not_cancel(self):
        # (1 - sqrt(phi)) / (1 + sqrt(phi)) gives 0.0 and 2.499987500103236e-06 here.
        assert birkhoff_tau([[1, 1], [1, 0.9999999999999999]]) == 2.7755575615628914e-17
        assert birkhoff_tau([[1, 1.00001], [1, 1]]) == 2.499987500094502e-06

    def test_within_ulps_of_exact_tanh(self, rng):
        """10,000 log-uniform diameters in [1e-16, 1e3], against a 60-digit tanh(d/4)."""
        worst, tiny = 0.0, set()
        for delta in 10.0 ** rng.uniform(-16.0, 3.0, 10_000):
            # Diameter log(x / z), about delta; sqrt(phi) = sqrt(z / x) is no entry.
            z, x = math.exp(-delta / 3.0), math.exp(2.0 * delta / 3.0)
            a = NonnegMatrix(np.array([[1.0, 1.0], [z, x]]))
            d = float(projective_diameter(a))  # the pass's own diameter
            if 0.0 < d < 1e-12:
                tiny.add(d)
            ref = exact_tanh_quarter(d)
            err = abs(decimal.Decimal(birkhoff_tau(a)) - ref) / decimal.Decimal(math.ulp(float(ref)))
            worst = max(worst, float(err))
        assert worst <= 2.5
        assert len(tiny) >= 10
        assert birkhoff_tau([[1, 1], [1, 1]]) == 0.0  # d = 0
        assert birkhoff_tau([[1, 0], [1, 1]]) == 1.0  # d = inf


class TestProjectiveDiameter:
    def test_all_ones(self):
        assert float(projective_diameter([[1, 1], [1, 1]])) == 0.0

    def test_hand_value(self):
        assert float(projective_diameter([[2, 1], [1, 2]])) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_zero_entry_infinite(self):
        assert projective_diameter([[1, 0], [1, 1]]) == math.inf

    def test_one_by_one_is_positive_zero(self):
        # The one row is paired with itself, and osc(L[0] - L[0]) is +0.0.
        d = projective_diameter([[3.0]])
        assert d == 0.0 and math.copysign(1.0, d) == 1.0

    def test_attained_on_basis_vectors(self, rng):
        for _ in range(60):
            a = random_allowable(rng, int(rng.integers(2, 7)))
            assert float(projective_diameter(a)) == pytest.approx(
                diameter_basis_sweep(a), abs=1e-10
            )


class TestGridKernel:
    @pytest.mark.filterwarnings("error")
    def test_diameter_past_float_range(self):
        # Rows +-8e307 apart in opposite directions: osc(L[0] - L[1]) = 3.2e308 overflows.
        K = GridKernel([[8e307, -8e307], [-8e307, 8e307]], [0, 1], [0, 1])
        for f in (birkhoff_phi, birkhoff_tau, projective_diameter):
            with pytest.raises(DomainError, match="^kernel diameter -log phi is past float range"):
                f(K)

    @pytest.mark.filterwarnings("error")
    def test_diameter_at_half_float_range(self):
        # osc(L[0] - L[1]) = 1.6e308 is finite, but exp(-1.6e308) underflows.
        K = GridKernel([[4e307, -4e307], [-4e307, 4e307]], [0, 1], [0, 1])
        assert (birkhoff_phi(K), birkhoff_tau(K), projective_diameter(K)) == (0.0, 1.0, 1.6e308)

    def test_phi_tau_and_diameter_are_the_cached_diameter(self, rng):
        """The matrix functions on a kernel evaluate exp(-Delta), tanh(Delta/4) and Delta."""
        for t in range(200):
            m, p = (int(k) for k in rng.integers(2, 41, 2))
            K = GridKernel(log_matrix(rng, FAMILIES[t % len(FAMILIES)], m, p),
                           np.arange(float(m)), np.arange(float(p)))
            assert birkhoff_phi(K) == math.exp(-K._diameter), t
            assert birkhoff_tau(K) == math.tanh(K._diameter / 4.0), t
            assert projective_diameter(K) == K._diameter, t

    def test_constant_kernel(self):
        K = GridKernel(np.full((3, 4), 2.5), np.arange(3.0), np.arange(4.0))
        assert birkhoff_phi(K) == 1.0
        assert birkhoff_tau(K) == 0.0

    def test_separable_kernel(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=6)
        K = GridKernel(u[:, None] + v[None, :], np.arange(5.0), np.sort(rng.uniform(0, 1, 6)))
        assert birkhoff_phi(K) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kernel(self):
        a = np.linspace(0.0, 1.0, 21)
        sigma = 0.5
        L = -((a[:, None] - a[None, :]) ** 2) / (2 * sigma**2)
        K = GridKernel(L, a, a)
        assert birkhoff_phi(K) == pytest.approx(math.exp(-4.0), rel=1e-9)
        assert birkhoff_tau(K) == pytest.approx(math.tanh(1.0), rel=1e-9)
        assert birkhoff_phi(K) == pytest.approx(kernel_phi_exhaustive(L), rel=1e-12)

    def test_decomposition_matches_exhaustive(self, rng):
        for _ in range(40):
            m, p = int(rng.integers(2, 16)), int(rng.integers(2, 16))
            L = rng.normal(size=(m, p))
            K = GridKernel(L, np.arange(float(m)), np.sort(rng.uniform(0, 1, p)))
            assert birkhoff_phi(K) == pytest.approx(kernel_phi_exhaustive(L), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridKernel(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.arange(2.0), np.arange(2.0))
        with pytest.raises(ValidationError):
            GridKernel(np.zeros((2, 2)), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        for grid in ([0.0, np.inf], [-np.inf, 0.0], [np.inf, np.inf], [0.0, np.nan]):
            with pytest.raises(ValidationError, match="must be finite"):
                GridKernel(np.zeros((2, 2)), np.arange(2.0), np.array(grid))
        with pytest.raises(DimensionError):
            GridKernel(np.zeros((2, 3)), np.arange(2.0), np.arange(2.0))
        # Finite log values whose differences overflow: the pass would give NaN.
        for lv in ([[1e308, 1e308], [-1e308, -1e308]], [[1e308, -1e308], [-1e308, 1e308]]):
            with pytest.raises(ValidationError, match="finite range"):
                GridKernel(np.array(lv), np.arange(2.0), np.arange(2.0))
        assert birkhoff_tau(GridKernel([[8e307, 0.0], [-8e307, 0.0]], [0, 1], [0, 1])) == 1.0


class TestKernelApply:
    def test_constant_unit_kernel(self):
        K = GridKernel(np.zeros((3, 2)), np.arange(3.0), np.arange(2.0))
        out = kernel_apply(K, PositiveVector((0.5, 0.5)))
        assert out.weights == (1.0, 1.0, 1.0)

    def test_diagonal_dominant_preserves_argmax(self):
        g = np.arange(5.0)
        L = -2.0 * (g[:, None] - g[None, :]) ** 2
        mu = PositiveVector((0.1, 0.1, 0.1, 3.0, 0.1))
        expected = np.exp(L) @ np.asarray(mu.weights)
        for a_grid in (g, g**2):  # mu holds masses: the spacing of a_grid plays no part
            out = kernel_apply(GridKernel(L, a_grid, g), mu)
            assert np.argmax(out.weights) == 3
            assert np.allclose(out.weights, expected, rtol=1e-14)

    def test_contracts_in_t(self, rng):
        g = np.linspace(0.0, 1.0, 8)
        L = rng.normal(size=(8, 8))
        K = GridKernel(L, g, g)
        tau = birkhoff_tau(K)
        for _ in range(50):
            mu, nu = random_positive(rng, 8), random_positive(rng, 8)
            assert t_distance(kernel_apply(K, mu), kernel_apply(K, nu)) <= (
                tau * t_distance(mu, nu) + 1e-10
            )

    @pytest.mark.parametrize("L", [
        [[800.0, 0.0], [0.0, 0.0]],  # exp overflows
        [[-800.0, -800.0], [-800.0, -800.0]],  # every entry underflows
        [[0.0, 0.0], [-800.0, -800.0]],  # one entry underflows: a boundary point
    ], ids=["overflow", "all-underflow", "one-underflow"])
    def test_image_past_float_range(self, L):
        K = GridKernel(L, [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError, match="^kernel image is past float range"):
            kernel_apply(K, PositiveVector((1.0, 1.0)))

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

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            verify_contraction([[3, 1], [2, 5]], trials=5, seed=-1)

    def test_trials_cap(self, monkeypatch):
        # 10^8 trials of a 2x2 matrix would hold about 11 GB; the cap refuses them undrawn.
        def no_draw(seed):
            raise AssertionError("sampling started")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValidationError,
                           match=r"^trials \* n must be <= 10000000, got 100000000 \* 2$"):
            verify_contraction([[2, 1], [1, 2]], trials=10**8, seed=0)
        with pytest.raises(ValidationError, match=r"got 40001 \* 250$"):
            verify_contraction(np.ones((250, 250)), trials=40_001, seed=0)
        with pytest.raises(AssertionError, match="sampling started"):  # the cap itself is taken
            verify_contraction([[2, 1], [1, 2]], trials=5_000_000, seed=0)

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


def markov_two_walks(P, mu0, steps):
    """The two-walk markov_converge: find pi from mu0, then walk again for the table.

    Reference for the one-walk version, which must give the same bits.  Also
    returns K, the step at which the stationary search stopped.
    """
    P = NonnegMatrix(np.asarray(P, dtype=float))
    tau = contraction.birkhoff_tau(P)

    def unit_mass(row):
        return (row / math.fsum(row)).tolist()

    cur = np.asarray(mu0.weights)
    for K in range(1, 100_001):
        nxt = cur @ P.entries
        nxt = nxt / nxt.sum()
        h = _hilbert_weights(unit_mass(cur), unit_mass(nxt))
        cur = nxt
        if h < 1e-13:
            break
    else:
        raise DomainError(f"no stationary distribution in 100000 steps (last step H={h!r})")
    pi = normalize(PositiveVector(tuple(cur)))

    h0 = float(hilbert_distance(mu0, pi))
    pw = list(pi.weights)
    rows = []
    arr, mw, hk = np.asarray(mu0.weights), list(mu0.weights), h0
    for k in range(steps + 1):
        if k:
            arr = arr @ P.entries
            arr = arr / arr.sum()
            mw = unit_mass(arr)
            hk = _hilbert_weights(mw, pw)
        if math.isinf(h0):
            bound = math.inf if (tau > 0.0 or k == 0) else 0.0
        else:
            bound = (tau**k) * h0
        if math.isfinite(bound) and hk > bound + 1e-9:
            raise CertificationError(f"step {k}: H={hk!r} exceeds certified bound {bound!r}")
        tv = math.fsum(abs(a - b) for a, b in zip(mw, pw))
        rows.append(MarkovStep(k, hk, math.tanh(hk / 4.0), tv, bound))
    return MarkovRun(tuple(rows), pi, tau, nonexpansive_only=(tau >= 1.0)), K


def run_bits(run):
    """Every float of a MarkovRun as float.hex, for bit-for-bit comparison."""
    rows = [[v.hex() if isinstance(v, float) else v for v in row] for row in run.steps]
    return rows, [w.hex() for w in run.stationary.weights], run.tau.hex(), run.nonexpansive_only


def outcome(run):
    """run_bits of run(), or the class and text of the error it raises."""
    try:
        return run_bits(run())
    except HilbertConeError as exc:
        return type(exc), str(exc)


def random_chain(rng, n):
    """A row-stochastic chain with a stationary distribution, of one of three kinds."""
    kind = rng.integers(3)
    a = random_allowable(rng, n, zero_frac=0.3 if kind == 1 else 0.0)
    if kind == 1:  # a positive diagonal and n-cycle: irreducible and aperiodic
        i = np.arange(n)
        for j in (i, (i + 1) % n):
            a[i, j] = np.maximum(a[i, j], 0.05)
    p = a / a.sum(axis=1, keepdims=True)
    if kind == 2:  # a lazy chain, which mixes slowly
        p = 0.7 * np.eye(n) + 0.3 * p
    return p


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

    def test_table_matches_public_api_bit_for_bit(self, rng):
        """The table against a SimplexPoint, hilbert_distance and t_distance per step."""
        for case in range(50):
            n = int(rng.integers(2, 7))
            a = random_allowable(rng, n, zero_frac=0.3 if case % 3 == 0 else 0.0)
            # A positive diagonal and n-cycle: irreducible and aperiodic, so pi exists.
            i = np.arange(n)
            for j in (i, (i + 1) % n):
                a[i, j] = np.maximum(a[i, j], 0.05)
            p = a / a.sum(axis=1, keepdims=True)
            w = np.exp(rng.uniform(-3.0, 3.0, size=n))
            if case % 4 == 0:
                w[rng.integers(n)] = 0.0  # mu0 on a face: infinite H at first
            mu0 = normalize(PositiveVector(tuple(w)))
            run = markov_converge(p, mu0, 12)
            pi = run.stationary
            h0 = float(hilbert_distance(mu0, pi))
            mu, arr = mu0, np.asarray(mu0.weights)
            for k, step in enumerate(run.steps):
                h = float(hilbert_distance(mu, pi))
                if math.isinf(h0):
                    bound = math.inf if run.tau > 0.0 or k == 0 else 0.0
                else:
                    bound = run.tau**k * h0
                tv = math.fsum(abs(x - y) for x, y in zip(mu.weights, pi.weights))
                want = (k, h, t_distance(mu, pi), tv, bound)
                assert [v.hex() if isinstance(v, float) else v for v in step] == [
                    v.hex() if isinstance(v, float) else v for v in want
                ], (case, k)
                arr = arr @ p
                arr = arr / arr.sum()
                mu = normalize(PositiveVector(tuple(arr)))

    def test_one_walk_matches_two_walks_bit_for_bit(self, rng):
        seen = set()
        for case in range(500):
            n = int(rng.integers(20, 81) if case % 50 == 0 else rng.integers(2, 9))
            p = random_chain(rng, n)
            w = np.exp(rng.uniform(-3.0, 3.0, size=n))
            if case % 5 == 0:
                w[rng.integers(n)] = 0.0  # mu0 on a face
            mu0 = normalize(PositiveVector(tuple(w)))
            K = markov_two_walks(p, mu0, 0)[1]
            steps = int(rng.choice([0, K - 1, K, K + 1, K + 30, rng.integers(0, 81)]))
            seen.add((steps > K) - (steps < K))
            want = outcome(lambda: markov_two_walks(p, mu0, steps)[0])
            assert outcome(lambda: markov_converge(p, mu0, steps)) == want, case
        assert seen == {-1, 0, 1}

    def test_tv_column_is_tv_distance(self, rng):
        """Each row's tv is tv_distance(mu_k, pi) bit for bit, within n ulp of a sequential sum."""
        rows = moved = 0
        for case in range(300):
            n = int(rng.integers(40, 121) if case % 30 == 0 else rng.integers(2, 9))
            p = random_chain(rng, n)
            mu0 = normalize(PositiveVector(tuple(np.exp(rng.uniform(-3.0, 3.0, size=n)))))
            run = markov_converge(p, mu0, 20)
            pi, mu, arr = run.stationary, mu0, np.asarray(mu0.weights)
            for step in run.steps:
                assert step.tv.hex() == tv_distance(mu, pi).hex(), (case, step.step)
                sequential = sum(abs(x - y) for x, y in zip(mu.weights, pi.weights))
                assert abs(step.tv - sequential) <= n * 2.0**-53 * step.tv
                rows, moved = rows + 1, moved + (step.tv != sequential)
                arr = arr @ p
                arr = arr / arr.sum()
                mu = normalize(PositiveVector(tuple(arr)))
        assert rows == 300 * 21 and moved > 0  # the declared last-bit change is real

    def test_one_walk_matches_two_walks_on_errors(self, monkeypatch):
        periodic, chain = [[0.0, 1.0], [1.0, 0.0]], [[0.75, 0.25], [0.25, 0.75]]
        mu0 = SimplexPoint((0.9, 0.1))
        want = outcome(lambda: markov_two_walks(periodic, mu0, 5)[0])
        assert want[0] is DomainError and "H=4.394449154672439" in want[1]
        assert outcome(lambda: markov_converge(periodic, mu0, 5)) == want
        # A forced tau = 0 claims pi is reached in one step, false for this chain.
        monkeypatch.setattr(contraction, "birkhoff_tau", lambda P: 0.0)
        want = outcome(lambda: markov_two_walks(chain, mu0, 5)[0])
        assert want[0] is CertificationError
        assert outcome(lambda: markov_converge(chain, mu0, 5)) == want

    def test_step_cap_is_checked_before_the_walk(self, monkeypatch):
        def walk(mu0, P):
            raise RuntimeError("walked")

        monkeypatch.setattr(contraction, "_iterates", walk)
        chain, mu0 = [[0.75, 0.25], [0.25, 0.75]], SimplexPoint((0.9, 0.1))
        with pytest.raises(RuntimeError, match="walked"):
            markov_converge(chain, mu0, 1_000_000)
        with pytest.raises(ValidationError, match="steps must be <= 1000000, got 1000001"):
            markov_converge(chain, mu0, 1_000_001)

    def test_infinite_start_bound_is_vacuous(self):
        run = markov_converge([[0.75, 0.25], [0.25, 0.75]], SimplexPoint((1.0, 0.0)), 3)
        assert math.isinf(run.steps[0].hilbert)
        assert math.isinf(run.steps[0].certified_bound)
        assert math.isfinite(run.steps[1].hilbert)


def test_every_tau_is_tanh_of_quarter_diameter_bit_for_bit(rng):
    """birkhoff_tau on matrices and kernels, verify_contraction and markov_converge share one T."""
    for case in range(60):
        n = int(rng.integers(2, 7))
        a = NonnegMatrix(random_allowable(rng, n, zero_frac=0.2 if case % 4 == 0 else 0.0))
        d = float(projective_diameter(a))
        assert birkhoff_tau(a) == math.tanh(d / 4.0), case
        assert verify_contraction(a, trials=3, seed=case).tau == math.tanh(d / 4.0), case
        K = GridKernel(log_matrix(rng, FAMILIES[case % len(FAMILIES)], n + 1, n + 2),
                       np.arange(n + 1.0), np.arange(n + 2.0))
        assert birkhoff_tau(K) == math.tanh(unpruned_diameter(K.log_values) / 4.0), case
        p = random_chain(rng, n)
        run = markov_converge(p, random_simplex(rng, n), 2)
        assert run.tau == math.tanh(float(projective_diameter(p)) / 4.0), case
    # A nearly uniform chain: a tiny diameter, where the old quotient cancelled.
    p = np.full((3, 3), 1 / 3) + np.array([[1e-9, -1e-9, 0.0], [0.0, 0.0, 0.0], [0.0] * 3])
    assert markov_converge(p, SimplexPoint((0.5, 0.25, 0.25)), 1).tau == math.tanh(
        float(projective_diameter(p)) / 4.0)


@pytest.mark.filterwarnings("error")
def test_matrix_validation():
    with pytest.raises(ValidationError, match=r"\(0, 1\) is negative"):
        NonnegMatrix(np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError, match=r"\(1, 0\) is not finite: nan"):
        NonnegMatrix(np.array([[1.0, -1.0], [np.nan, np.inf]]))
    # Rows that sum past the float range are still allowable, without a warning.
    assert NonnegMatrix(np.array([[1e308, 1e308], [1.0, 1.0]])).n == 2
    with pytest.raises(DimensionError):
        NonnegMatrix(np.ones((2, 3)))
    m = NonnegMatrix(np.eye(3))
    assert m.n == 3
