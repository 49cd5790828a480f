import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hilbertcone import (
    DimensionError,
    DomainError,
    LogDensityVector,
    PositiveVector,
    SimplexPoint,
    ValidationError,
    beta,
    bound_reports,
    comparable,
    hilbert_distance,
    hilbert_from_log_densities,
    kl_divergence,
    log_beta,
    normalize,
    osc,
    projective_diameter,
    t_distance,
    theta_seminorm,
    verify_contraction,
)
from conftest import random_positive

V = PositiveVector


def beta_bisect(x, y, iters=200):
    """Independent oracle: smallest r with r*x - y componentwise >= 0, by bisection."""
    if not y.support <= x.support:
        return None
    lo, hi = 0.0, 1.0
    while not all(hi * a - b >= 0 for a, b in zip(x.weights, y.weights)):
        hi *= 2.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if all(mid * a - b >= 0 for a, b in zip(x.weights, y.weights)):
            hi = mid
        else:
            lo = mid
    return hi


# Each producer at a finite value (nu = (0.25, 0.75)) and at inf (nu off mu's support,
# and the matrix of the pair has a zero entry): a distance is the float it computes.
_PRODUCERS = {
    "hilbert_distance": lambda mu, nu: [hilbert_distance(mu, nu)],
    "beta": lambda mu, nu: [beta(nu, mu)],
    "kl_divergence": lambda mu, nu: [kl_divergence(mu, nu)],
    "projective_diameter": lambda mu, nu: [projective_diameter([mu.weights, nu.weights])],
    "verify_contraction": lambda mu, nu: [
        verify_contraction([mu.weights, nu.weights], 10, 0).diameter],
    "bound_reports": lambda mu, nu: [
        v for r in bound_reports(mu, nu) for v in (r.lhs_value, r.rhs_value, r.slack)],
}


@pytest.mark.parametrize("nu", [SimplexPoint((0.25, 0.75)), SimplexPoint((1.0, 0.0))],
                         ids=["finite", "inf"])
@pytest.mark.parametrize("values", _PRODUCERS.values(), ids=_PRODUCERS.keys())
def test_distances_are_plain_floats(values, nu):
    got = values(SimplexPoint((0.5, 0.5)), nu)
    assert [type(v) for v in got] == [float] * len(got)
    assert (math.inf in got) == (0.0 in nu.weights)


class TestBeta:
    def test_identical(self):
        assert beta(V((1, 1)), V((1, 1))) == 1.0

    def test_max_ratio(self):
        b = beta(V((1, 1)), V((2, 1)))
        assert b == pytest.approx(2.0, abs=1e-12)
        assert b == pytest.approx(beta_bisect(V((1, 1)), V((2, 1))), abs=1e-9)

    def test_past_float_range(self):
        # log beta = log(1.7e308) is within float range; log(1e300 / 1e-10) ~ 713.8 is not.
        assert beta(V((1.0, 1.0)), V((1.7e308, 1.0))) == pytest.approx(1.7e308, rel=1e-12)
        with pytest.raises(DomainError, match="log_beta"):
            beta(V((1e-10, 1.0)), V((1e300, 1.0)))

    def test_support_escape_is_infinite(self):
        assert beta(V((1, 0)), V((1, 1))) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            beta(V((1, 1)), V((1, 1, 1)))

    def test_against_bisection_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = random_positive(rng, n), random_positive(rng, n)
            assert beta(x, y) == pytest.approx(beta_bisect(x, y), rel=1e-9)

    def test_duality(self, rng):
        # beta(x,y) * beta(y,x) >= 1, equality iff collinear
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x, y = random_positive(rng, n), random_positive(rng, n)
            assert beta(x, y) * beta(y, x) >= 1.0 - 1e-12
        x = V((1.0, 2.0, 4.0))
        y = V((2.0, 4.0, 8.0))
        assert beta(x, y) * beta(y, x) == pytest.approx(1.0, abs=1e-15)


class TestHilbertDistance:
    def test_collinear_exact_zero(self):
        assert hilbert_distance(V((1, 2, 3)), V((2, 4, 6))) == 0.0

    def test_hand_value(self):
        assert hilbert_distance(V((1, 1)), V((2, 1))) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_support_mismatch(self):
        assert hilbert_distance(V((1, 0, 1)), V((1, 1, 1))) == math.inf

    def test_shared_restricted_support(self):
        # both vanish at index 0: computed on the common face
        h = hilbert_distance(V((0, 1, 2)), V((0, 5, 1)))
        assert math.isfinite(h)
        assert h == pytest.approx(math.log(10), abs=1e-12)

    def test_extreme_magnitudes(self):
        big, small = math.exp(700), math.exp(-700)
        h = hilbert_distance(V((big, small)), V((small, big)))
        assert h == pytest.approx(2800.0, rel=1e-12)

    def test_normalize_is_projectively_null(self):
        x = V((3.7, 0.2, 11.0))
        assert hilbert_distance(x, normalize(x)) <= 1e-12


class TestTDistance:
    def test_collinear(self):
        assert t_distance(V((2, 4)), V((1, 2))) == 0.0

    def test_tanh_identity(self):
        # H = log 9 => tanh(log(9)/4) = (sqrt(9)-1)/(sqrt(9)+1) = 1/2
        assert t_distance(V((1, 1)), V((9, 1))) == pytest.approx(0.5, abs=1e-12)

    def test_infinite_support_gap(self):
        assert t_distance(V((1, 0)), V((1, 1))) == 1.0


def test_comparable():
    assert comparable(V((1, 2)), V((3, 4)))
    assert not comparable(V((1, 0)), V((1, 1)))
    assert comparable(V((0, 1, 2)), V((0, 5, 1)))


def test_normalize():
    assert normalize(V((2, 2))).weights == (0.5, 0.5)
    assert normalize(V((1, 3))).weights == (0.25, 0.75)
    assert normalize(V((0, 5))).weights == (0.0, 1.0)


def test_theta_seminorm():
    assert theta_seminorm(LogDensityVector((0, 0, 0))) == 0.0
    assert theta_seminorm(LogDensityVector((1, -1, 0))) == 2.0


def test_seminorm_matches_hilbert_on_log_densities():
    mu = SimplexPoint((2 / 3, 1 / 3))
    nu = SimplexPoint((1 / 3, 2 / 3))
    f = LogDensityVector(tuple(math.log(w) for w in mu.weights))
    g = LogDensityVector(tuple(math.log(w) for w in nu.weights))
    diff = LogDensityVector(tuple(a - b for a, b in zip(f.entries, g.entries)))
    assert theta_seminorm(diff) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert hilbert_from_log_densities(f, g) == pytest.approx(
        hilbert_distance(mu, nu), rel=1e-12
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: hilbert_from_log_densities(LogDensityVector((1e308, 1e308)),
                                       LogDensityVector((-1e308, -1e308))),
    lambda: hilbert_from_log_densities(LogDensityVector((9e307, -9e307)),
                                       LogDensityVector((0.0, 0.0))),
    lambda: theta_seminorm(LogDensityVector((-1e308, 1e308))),
], ids=["H, entries overflow", "H, oscillation overflows", "seminorm"])
def test_log_density_forms_past_float_range(call):
    # These returned nan or inf, with a numpy RuntimeWarning.
    with pytest.raises(DomainError, match="past float range"):
        call()


class TestLogDensityForm:
    def test_equal(self):
        f = LogDensityVector((0.3, -1.0, 2.0))
        assert hilbert_from_log_densities(f, f) == 0.0

    def test_constant_shift(self):
        f = LogDensityVector((0.3, -1.0, 2.0))
        g = LogDensityVector((0.3 + 5.0, -1.0 + 5.0, 2.0 + 5.0))
        assert hilbert_from_log_densities(f, g) == 0.0

    def test_hand_value(self):
        f = LogDensityVector((0.0, math.log(2)))
        g = LogDensityVector((0.0, 0.0))
        assert hilbert_from_log_densities(f, g) == pytest.approx(math.log(2), abs=1e-15)

    def test_agreement_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x, y = random_positive(rng, n), random_positive(rng, n)
            f = LogDensityVector(tuple(math.log(w) for w in x.weights))
            g = LogDensityVector(tuple(math.log(w) for w in y.weights))
            assert hilbert_from_log_densities(f, g) == pytest.approx(
                hilbert_distance(x, y), rel=1e-12, abs=1e-12
            )


def test_type_invariants():
    with pytest.raises(ValidationError):
        PositiveVector((0.0, 0.0))
    with pytest.raises(ValidationError):
        PositiveVector((1.0, -0.5))
    with pytest.raises(ValidationError):
        SimplexPoint((0.5, 0.6))
    with pytest.raises(ValidationError):
        LogDensityVector((0.0, math.inf))
    assert PositiveVector((0.0, 1.5, 0.0, 2.0)).support == frozenset({1, 3})


positive_weights = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=6
)


@st.composite
def positive_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    mk = lambda: V(tuple(draw(st.floats(min_value=1e-6, max_value=1e6)) for _ in range(n)))
    return mk(), mk()


@st.composite
def positive_triples(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    mk = lambda: V(tuple(draw(st.floats(min_value=1e-6, max_value=1e6)) for _ in range(n)))
    return mk(), mk(), mk()


@settings(max_examples=200, deadline=None)
@given(positive_pairs())
def test_symmetry(pair):
    x, y = pair
    assert hilbert_distance(x, y) == hilbert_distance(y, x)
    assert t_distance(x, y) == t_distance(y, x)


@settings(max_examples=200, deadline=None)
@given(positive_triples())
def test_triangle_inequality(triple):
    x, y, z = triple
    hxz = hilbert_distance(x, z)
    assert hxz <= hilbert_distance(x, y) + hilbert_distance(y, z) + 1e-10
    assert t_distance(x, z) <= t_distance(x, y) + t_distance(y, z) + 1e-10


@settings(max_examples=200, deadline=None)
@given(
    positive_pairs(),
    st.floats(min_value=1e-8, max_value=1e8),
    st.floats(min_value=1e-8, max_value=1e8),
)
def test_projective_invariance(pair, a, b):
    x, y = pair
    scaled = hilbert_distance(
        V(tuple(a * w for w in x.weights)), V(tuple(b * w for w in y.weights))
    )
    assert scaled == pytest.approx(hilbert_distance(x, y), rel=1e-12, abs=1e-12)


def test_identity_of_indiscernibles_on_simplex(rng):
    from conftest import random_simplex

    for _ in range(100):
        mu = random_simplex(rng, int(rng.integers(2, 7)))
        nu = random_simplex(rng, len(mu))
        h = hilbert_distance(mu, nu)
        if h == 0.0:
            assert all(abs(a - b) <= 1e-12 for a, b in zip(mu.weights, nu.weights))
        if all(abs(a - b) <= 1e-16 for a, b in zip(mu.weights, nu.weights)):
            assert h <= 1e-12
    mu = SimplexPoint((0.25, 0.75))
    assert hilbert_distance(mu, mu) == 0.0


def finite_hilbert_reference(xw, yw):
    """Reference oracle: H on a shared strictly positive support, as a Python loop.

    Ratio space when no ratio (nor the max/min quotient) leaves float range,
    else the max - min of libm log differences.
    """
    ratios = []
    for xv, yv in zip(xw, yw):
        r = yv / xv
        if r == 0.0 or math.isinf(r):
            ratios = None
            break
        ratios.append(r)
    if ratios is not None:
        q = max(ratios) / min(ratios)
        if not math.isinf(q):
            return math.log(q)
    logs = [math.log(yv) - math.log(xv) for xv, yv in zip(xw, yw)]
    return max(logs) - min(logs)


def log_beta_reference(x, y):
    """Reference oracle: log beta as a Python loop over the support of y; None when y
    has mass where x has none.

    Ratio space on the same test as finite_hilbert_reference, else the max of libm
    log differences.
    """
    idx = [i for i, w in enumerate(y.weights) if w > 0.0]
    if any(x.weights[i] == 0.0 for i in idx):
        return None
    ratios = []
    for i in idx:
        r = y.weights[i] / x.weights[i]
        if r == 0.0 or math.isinf(r):
            ratios = None
            break
        ratios.append(r)
    if ratios is not None and not math.isinf(max(ratios) / min(ratios)):
        return math.log(max(ratios))
    return max(math.log(y.weights[i]) - math.log(x.weights[i]) for i in idx)


def hilbert_reference(x, y):
    """Scalar H with the support test and canonical operand order; inf off-face."""
    if x.support != y.support:
        return math.inf
    if y.weights < x.weights:
        x, y = y, x
    idx = sorted(x.support)
    return max(finite_hilbert_reference([x.weights[i] for i in idx],
                                        [y.weights[i] for i in idx]), 0.0)


def kernel_pairs(rng, count):
    """Pairs over n in 2..12: moderate weights, weights near e^+-700 (ratios that
    overflow or underflow), ratios in range whose max/min quotient overflows, and
    shared or mismatched zero-support faces."""
    pairs = []
    for k in range(count):
        n = 2 if k % 5 == 0 else int(rng.integers(2, 13))
        spread = (3.0, 700.0, 350.0, 3.0)[k % 4]
        lx, ly = rng.uniform(-spread, spread, size=(2, n))
        x, y = np.exp(lx), np.exp(ly)
        if k % 3 == 0 and n > 2:
            face = rng.random(n) < 0.4
            face[int(rng.integers(n))] = False
            x[face] = 0.0
            y[face if k % 2 else np.roll(face, 1)] = 0.0
            if not y.any():
                y[0] = 1.0
        pairs.append((V(tuple(x)), V(tuple(y))))
    return pairs


class TestKernelAgainstReference:
    def test_scalar_bit_identical(self, rng):
        pairs = kernel_pairs(rng, 4000)
        for x, y in pairs:
            ref = hilbert_reference(x, y)
            h = hilbert_distance(x, y)
            assert float(h).hex() == ref.hex(), (x, y)
            assert math.isinf(h) == math.isinf(ref)
            t = 1.0 if math.isinf(ref) else math.tanh(ref / 4.0)
            assert t_distance(x, y).hex() == t.hex()
        assert sum(math.isinf(hilbert_reference(x, y)) for x, y in pairs) > 100

    def test_log_beta_bit_identical(self, rng):
        pairs = kernel_pairs(rng, 4000)
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                ref, got = log_beta_reference(a, b), log_beta(a, b)
                assert got.hex() == (math.inf if ref is None else ref).hex(), (a, b)
        assert sum(log_beta_reference(x, y) is None for x, y in pairs) > 100

    def test_beta_is_the_max_ratio_bit_for_bit(self, rng):
        # 10,000 pairs with shared zeros, all in ratio space: beta is max y/x itself.
        for _ in range(10_000):
            n = int(rng.integers(2, 13))
            x, y = np.exp(rng.uniform(-3.0, 3.0, size=(2, n)))
            face = rng.random(n) < 0.3
            face[int(rng.integers(n))] = False
            x[face] = y[face] = 0.0
            a, b = V(tuple(x)), V(tuple(y))
            for p, q in ((a, b), (b, a)):
                ratio = max(v / u for u, v in zip(p.weights, q.weights) if u > 0.0)
                assert float(beta(p, q)).hex() == ratio.hex(), (p, q)

    def test_beta_is_exp_log_beta_in_log_space(self, rng):
        reached = 0
        for x, y in kernel_pairs(rng, 4000):
            for a, b in ((x, y), (y, x)):
                lb = log_beta(a, b)
                if lb == math.inf:
                    assert beta(a, b) == math.inf
                    continue
                r = [v / u for u, v in zip(a.weights, b.weights) if v > 0.0]
                if 0.0 < min(r) and max(r) / min(r) < math.inf:
                    continue  # ratio space, the test above
                reached += 1
                try:
                    expected = math.exp(lb)
                except OverflowError:
                    with pytest.raises(DomainError, match="log_beta"):
                        beta(a, b)
                else:
                    assert float(beta(a, b)).hex() == expected.hex(), (a, b)
        assert reached > 1000

    def test_log_beta_within_an_ulp_where_max_over_min_overflows(self, rng):
        # Every ratio y/x is finite and nonzero, but max/min is past e^709.8, so
        # log beta is the max of libm log differences.  60-digit logs are the reference.
        for _ in range(600):
            n = int(rng.integers(2, 13))
            lx = rng.uniform(-3.0, 3.0, n)
            ly = rng.uniform(-400.0, 400.0, n)
            ly[0], ly[-1] = rng.uniform(360.0, 400.0), rng.uniform(-400.0, -360.0)
            x, y = V(tuple(np.exp(lx))), V(tuple(np.exp(ly)))
            for a, b in ((x, y), (y, x)):
                r = [q / p for p, q in zip(a.weights, b.weights)]
                assert 0.0 < min(r) and max(r) < math.inf and max(r) / min(r) == math.inf
                with localcontext() as ctx:
                    ctx.prec = 60
                    exact = max(Decimal(q).ln() - Decimal(p).ln()
                                for p, q in zip(a.weights, b.weights))
                    err = abs(Decimal(log_beta(a, b)) - exact)
                assert err <= Decimal(math.ulp(float(exact))), (a, b)

    def test_comparable_iff_h_finite(self, rng):
        for x, y in kernel_pairs(rng, 4000):
            assert comparable(x, y) == math.isfinite(hilbert_distance(x, y)), (x, y)

    def test_extreme_branches_reached(self):
        big, small = math.exp(700), math.exp(-700)
        for x, y in [
            (V((big, small)), V((small, big))),  # ratios overflow and underflow
            (V((1.0, 1.0)), V((math.exp(400), math.exp(-400)))),  # max/min quotient overflows
            (V((0.0, small, big)), V((0.0, big, small))),  # on a face, in log-space
            (V((2.0, 3.0)), V((5.0, 7.0))),  # n = 2, ratio space
        ]:
            assert float(hilbert_distance(x, y)).hex() == hilbert_reference(x, y).hex()

    def test_batched_osc_matches_scalar(self, rng):
        for n in (2, 3, 7, 12):
            for spread in (3.0, 350.0, 700.0):
                X, Y = np.exp(rng.uniform(-spread, spread, size=(2, 200, n)))
                D = np.log(Y) - np.log(X)
                batched = osc(D)
                assert batched.shape == (200,)
                for row, x, y, h in zip(D, X, Y, batched):
                    ref = hilbert_reference(V(tuple(x)), V(tuple(y)))
                    assert abs(h - ref) <= 1e-12 * (1.0 + np.abs(row).max())

    def test_osc_shapes(self):
        assert osc([3.0, -1.0, 2.0]) == 4.0
        assert osc(np.zeros((2, 3, 4))).shape == (2, 3)
