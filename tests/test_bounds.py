import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, compress
from operator import truediv

import numpy as np
import pytest

from hilbertcone import (
    ConvexFunctionSpec,
    DimensionError,
    DomainError,
    F_CHI2,
    F_HELLINGER,
    F_KL,
    F_TV_HALF,
    SimplexPoint,
    UnsupportedDimensionError,
    ValidationError,
    atar_zeitouni_bound,
    ball_contains,
    ball_vertices,
    bound_reports,
    f_divergence,
    f_divergence_envelope,
    hilbert_distance,
    kl_divergence,
    kl_from_h_bound,
    moment_gap_bound,
    sharpness_witness,
    subset_sup_bound,
    t_distance,
    t_upper_from_tv,
    tile,
    tv_distance,
    tv_from_t_bound,
    vertex_l1_bound,
    w1_bound_from_h,
    w1_exact_1d,
)
from hilbertcone import bounds
from hilbertcone.bounds import _expm1, _report
from hilbertcone.cli import run_command
from hilbertcone.core import PositiveVector, comparable, normalize, osc
from conftest import random_simplex

S = SimplexPoint


def tv_subset_oracle(mu, nu):
    """2 * sup over all index subsets of |mu(A) - nu(A)|, by enumeration."""
    n = len(mu)
    best = 0.0
    idx = range(n)
    for r in range(n + 1):
        for sub in combinations(idx, r):
            gap = abs(
                math.fsum(mu.weights[i] for i in sub)
                - math.fsum(nu.weights[i] for i in sub)
            )
            best = max(best, gap)
    return 2.0 * best


class TestTvDistance:
    def test_hand_value(self):
        assert tv_distance(S((0.75, 0.25)), S((0.25, 0.75))) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_supports(self):
        assert tv_distance(S((1.0, 0.0)), S((0.0, 1.0))) == 2.0

    def test_matches_subset_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert tv_distance(mu, nu) == pytest.approx(tv_subset_oracle(mu, nu), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tv_distance(S((0.5, 0.5)), S((0.4, 0.3, 0.3)))


class TestTvFromT:
    def test_hand_pair(self):
        rep = tv_from_t_bound(S((0.75, 0.25)), S((0.25, 0.75)))
        assert rep.lhs_value == pytest.approx(1.0, abs=1e-12)
        assert rep.holds and rep.applicable

    def test_infinite_h_still_holds(self):
        rep = tv_from_t_bound(S((1.0, 0.0)), S((0.5, 0.5)))
        assert rep.rhs_value == 2.0
        assert rep.holds

    def test_random_pairs(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 10))
            rep = tv_from_t_bound(random_simplex(rng, n), random_simplex(rng, n))
            assert rep.holds

    def test_sharpness_witness_at_float_range_edge(self):
        # e^(R/2) is a float up to R ~ 1419.56, and the witness masses are subnormal there.
        nu, mu = sharpness_witness(1419.5)
        assert nu.full_support and mu.full_support
        for r in (1419.6, 1500.0, 1e308):
            with pytest.raises(DomainError, match="no interior witness"):
                sharpness_witness(r)

    def test_sharpness(self):
        for r in (0.5, 1.0, 2.0, 4.0):
            nu, mu = sharpness_witness(r)
            assert float(hilbert_distance(mu, nu)) == pytest.approx(r, abs=1e-9)
            assert tv_distance(mu, nu) == pytest.approx(2.0 * math.tanh(r / 4.0), abs=1e-6)
            assert tv_from_t_bound(mu, nu).slack == pytest.approx(0.0, abs=1e-6)


class TestAtarZeitouni:
    def test_dominated_by_tanh_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            lin = atar_zeitouni_bound(mu, nu)
            tanh_rep = tv_from_t_bound(mu, nu)
            assert lin.holds
            assert tanh_rep.rhs_value <= min(2.0, lin.rhs_value) + 1e-12

    def test_inapplicable_when_h_infinite(self):
        rep = atar_zeitouni_bound(S((1.0, 0.0)), S((0.5, 0.5)))
        assert not rep.applicable
        assert math.isinf(rep.rhs_value)


def exact_vertex_l1_bound(weights, r):
    """vertex_l1_bound's maximum in rational arithmetic, with e^R to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        e_r = Fraction(Decimal(r).exp())
    ws = [Fraction(w) for w in weights]
    best = Fraction(0)
    for e in (e_r, 1 / e_r):
        for mask in range(2, 2 ** len(ws), 2):
            s = sum(w for i, w in enumerate(ws) if mask >> i & 1)
            c = sum(ws) - s
            best = max(best, abs(2 * (e - 1) * s * c / (c + s * e)))
    return best


class TestVertexL1Bound:
    def test_hand_value(self):
        # nu = (1/2, 1/2), R = log 4: g^+ = g^- peak at 3/5
        assert vertex_l1_bound(S((0.5, 0.5)), math.log(4.0)) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_dominates_ball_boundary(self, rng):
        from hilbertcone import ball_vertices

        for _ in range(20):
            n = int(rng.integers(2, 5))
            nu = random_simplex(rng, n, spread=1.0)
            r = float(rng.uniform(0.2, 2.0))
            bound = vertex_l1_bound(nu, r)
            ball = ball_vertices(nu, r)
            for p in ball.simplex_vertices:
                assert tv_distance(p, nu) <= bound + 1e-9
            assert bound <= 2.0 * math.tanh(r / 4.0) + 1e-12

    def test_dense_boundary_sampling_oracle(self, rng):
        from hilbertcone import ThetaVector, theta_chart, theta_inverse

        nu = S((0.5, 0.5))
        r = math.log(4.0)
        bound = vertex_l1_bound(nu, r)
        base = theta_chart(nu, 0).coords
        worst = 0.0
        for sign in (1.0, -1.0):
            p = theta_inverse(ThetaVector(0, (base[0] + sign * r,)))
            worst = max(worst, tv_distance(p, nu))
        assert worst == pytest.approx(bound, abs=1e-9)

    @pytest.mark.parametrize("r", [1e-15, 1e-12, 1e-10, 1e-8])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.3, 0.5), (0.01, 0.9, 0.09)])
    def test_small_radius_is_accurate(self, weights, r):
        # e^R - 1 cancels at small R; 1 - e^-R = -expm1(-R) does not.
        bound = vertex_l1_bound(S(weights), r)
        exact = exact_vertex_l1_bound(weights, r)
        assert abs(Fraction(bound) - exact) <= Fraction(1e-15) * exact
        assert bound <= math.nextafter(2.0 * math.tanh(r / 4.0), math.inf)

    def test_boundary_center_rejected(self):
        with pytest.raises(DomainError):
            vertex_l1_bound(S((0.0, 1.0)), 1.0)

    @pytest.mark.parametrize("r", [709.0, 709.5, 709.79, 800.0, 1e308, math.inf])
    def test_finite_at_float_range_edge(self, r):
        # 2(e^R - 1) overflows past R ~ 709.09 and e^R past ~ 709.78.  The bound
        # tends to the max over subset sums s of 2 max(s, 1 - s), below 2 tanh(R/4).
        for nu, limit in ((S((0.5, 0.5)), 1.0), (S((0.9, 0.1)), 1.8), (S((0.2, 0.3, 0.5)), 1.6)):
            bound = vertex_l1_bound(nu, r)
            assert bound == pytest.approx(limit, abs=1e-12)
            assert bound <= 2.0 * math.tanh(r / 4.0) + 1e-12

    @pytest.mark.parametrize("r, expected", [(40.0, 1.4036708830826798), (709.0, 2.0),
                                             (math.inf, 2.0)], ids=["40.0", "709.0", "inf"])
    def test_subset_sum_of_exactly_one(self, r, expected):
        # The weights past index 0 sum to 1.0 in floats, but the complementary mass
        # is 1e-17, not 1 - s = 0: the vertex that moves it has tv 1.4037 at R = 40.
        bound = vertex_l1_bound(S((1e-17, 0.5, 0.5)), r)
        assert bound == pytest.approx(expected, abs=1e-12)
        assert bound <= 2.0 * math.tanh(r / 4.0) + 1e-12

    @pytest.mark.parametrize("weights", [(1e-17, 0.5, 0.5), (1e-17, 0.5, 0.5000000000001),
                                         (1e-17, 0.5, 0.4999999999999)])
    def test_near_a_face_matches_exact_arithmetic(self, weights):
        from hilbertcone import ball_vertices

        nu, r = S(weights), 40.0
        bound = vertex_l1_bound(nu, r)
        exact = exact_vertex_l1_bound(weights, r)
        assert abs(bound - float(exact)) <= 1e-12 * float(exact)
        worst = max(tv_distance(p, nu) for p in ball_vertices(nu, r).simplex_vertices)
        assert worst <= bound + 1e-12
        assert bound <= 2.0 * math.tanh(r / 4.0)

    def test_refuses_a_center_past_s13_before_the_loop(self, monkeypatch):
        def no_subset(*args):
            raise AssertionError("a subset was visited")

        assert vertex_l1_bound(S((1 / 14,) * 14), 1.0) > 0.0  # S^13: 16,382 subsets
        monkeypatch.setattr(bounds, "_g_plus", no_subset)
        with pytest.raises(UnsupportedDimensionError, match=r"up to S\^13, got S\^14"):
            vertex_l1_bound(S((1 / 15,) * 15), 1.0)

    def test_equals_the_farthest_ball_vertex(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            nu = random_simplex(rng, n, spread=1.0)
            r = float(rng.uniform(0.05, 5.0))
            far = max(tv_distance(p, nu) for p in ball_vertices(nu, r).simplex_vertices)
            assert abs(vertex_l1_bound(nu, r) - far) <= 1e-10, (nu, r)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan], ids=["0", "-1", "nan"])
@pytest.mark.parametrize("call", [
    lambda r: ball_vertices(S((0.25, 0.25, 0.5)), r),
    lambda r: ball_contains(S((0.25, 0.25, 0.5)), r, S((0.5, 0.25, 0.25))),
    lambda r: tile(S((0.25, 0.25, 0.5)), r, 1),
    lambda r: vertex_l1_bound(S((0.25, 0.25, 0.5)), r),
    sharpness_witness,
], ids=["ball_vertices", "ball_contains", "tile", "vertex_l1_bound", "sharpness_witness"])
def test_every_radius_taker_rejects_a_non_positive_radius(call, radius):
    with pytest.raises(ValidationError, match=r"radius must be > 0"):
        call(radius)


class TestKlDivergence:
    def test_hand_value(self):
        kl = kl_divergence(S((1.0, 0.0)), S((0.5, 0.5)))
        assert kl == pytest.approx(math.log(2.0), abs=1e-12)

    def test_infinite(self):
        assert kl_divergence(S((0.5, 0.5)), S((1.0, 0.0))) == math.inf

    def test_zero_on_equal(self):
        assert kl_divergence(S((0.3, 0.7)), S((0.3, 0.7))) == 0.0

    def test_bounded_by_h(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert float(kl_divergence(mu, nu)) <= float(hilbert_distance(mu, nu)) + 1e-10


class TestFDivergence:
    def test_tv_half_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert f_divergence(mu, nu, F_TV_HALF) == pytest.approx(
                tv_distance(mu, nu) / 2.0, abs=1e-12
            )

    def test_kl_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert f_divergence(mu, nu, F_KL) == pytest.approx(
                float(kl_divergence(mu, nu)), abs=1e-12
            )

    def test_chi2_hand_value(self):
        mu, nu = S((0.75, 0.25)), S((0.5, 0.5))
        # chi^2 = sum (mu - nu)^2 / nu = 2 * 0.25^2 / 0.5
        assert f_divergence(mu, nu, F_CHI2) == pytest.approx(0.25, abs=1e-12)

    def test_envelope_holds_all_four(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            h = float(hilbert_distance(mu, nu))
            for f in (F_KL, F_TV_HALF, F_HELLINGER, F_CHI2):
                assert f_divergence(mu, nu, f) <= f_divergence_envelope(f, h) + 1e-10

    def test_envelope_zero_at_h_zero(self):
        for f in (F_KL, F_TV_HALF, F_HELLINGER, F_CHI2):
            assert f_divergence_envelope(f, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_support_mismatch_rejected(self):
        with pytest.raises(DomainError):
            f_divergence(S((1.0, 0.0)), S((0.5, 0.5)), F_KL)

    def test_envelope_vacuous_past_float_range(self):
        for f in (F_KL, F_TV_HALF, F_HELLINGER, F_CHI2):
            assert math.isfinite(f_divergence_envelope(f, 300.0))
            for h in (720.0, 800.0, math.inf):
                assert f_divergence_envelope(f, h) == math.inf, (f.name, h)
        # e^H is finite here, but (e^H - 1)^2 is not.
        assert f_divergence_envelope(F_CHI2, 400.0) == math.inf

    def test_divergence_past_float_range(self):
        # H = log(2e309) ~ 712: e^H overflows, so every envelope is vacuous.
        mu, nu = S((1.0 - 1e-309, 1e-309)), S((0.5, 0.5))
        assert float(hilbert_distance(mu, nu)) > 710.0
        assert f_divergence(mu, nu, F_TV_HALF) == pytest.approx(0.5, abs=1e-12)
        assert f_divergence(mu, nu, F_KL) == pytest.approx(math.log(2.0), abs=1e-12)
        assert f_divergence(mu, nu, F_CHI2) == pytest.approx(1.0, abs=1e-12)
        assert f_divergence(mu, nu, F_HELLINGER) == pytest.approx(
            2.0 - math.sqrt(2.0), abs=1e-12
        )

    def test_divergence_overflow_is_a_domain_error(self):
        # chi^2 at u = 1e300: (u - 1)**2 raised a bare OverflowError.
        with pytest.raises(DomainError, match="^f-divergence is past float range$"):
            f_divergence(S((1 - 1e-300, 1e-300)), S((1e-300, 1 - 1e-300)), F_CHI2)
        # Each term is about M/2 (M the largest float), and the weights sum to 1 + 1e-12,
        # so fsum's partial sum overflows ("intermediate overflow in fsum").
        big = ConvexFunctionSpec(lambda u: 1.7976931348623157e308 * (u - 1.0) ** 2, "M*(u-1)^2")
        mu, nu = S((1 + 5e-13 - 1e-300, 1e-300)), S((0.5 + 2.5e-13, 0.5 + 2.5e-13))
        with pytest.raises(DomainError, match="^f-divergence is past float range$"):
            f_divergence(mu, nu, big)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ConvexFunctionSpec(lambda u: u, "u")  # f(1) != 0
        with pytest.raises(ValidationError):
            ConvexFunctionSpec(lambda u: -((u - 1.0) ** 2), "concave")


class TestW1:
    XS = (0.0, 1.0, 3.0)

    def test_exact_hand_value(self):
        mu, nu = S((0.5, 0.5, 0.0)), S((0.0, 0.5, 0.5))
        # CDF gaps 0.5 on [0,1] and [1,3]
        assert w1_exact_1d(self.XS, mu, nu) == pytest.approx(1.5, abs=1e-12)

    def test_point_mass_transport(self):
        mu, nu = S((1.0, 0.0)), S((0.0, 1.0))
        assert w1_exact_1d((2.0, 5.0), mu, nu) == pytest.approx(3.0, abs=1e-12)

    def test_bound_holds(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            xs = tuple(sorted(rng.uniform(0, 10, size=n)))
            if any(b - a < 1e-9 for a, b in zip(xs, xs[1:])):
                continue
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            rep = w1_bound_from_h(xs, mu, nu, x0=0.0)
            assert rep.holds

    def test_inapplicable_when_h_infinite(self):
        rep = w1_bound_from_h((0.0, 1.0), S((1.0, 0.0)), S((0.5, 0.5)), x0=0.0)
        assert not rep.applicable

    def test_vacuous_past_float_range(self):
        # H = log(2 / 4e-309) > 709.8, so e^H - 1 overflows a float.
        mu, nu = S((0.5, 0.25, 0.25)), S((0.5, 0.5, 1e-309))
        xs = (0.0, 1.0, 2.0)
        for rep in (w1_bound_from_h(xs, mu, nu, x0=0.0),
                    moment_gap_bound(xs, mu, nu, x0=0.0, q=2.0)):
            assert rep.rhs_value == math.inf and rep.holds and rep.applicable

    def test_increasing_points_required(self):
        with pytest.raises(ValidationError):
            w1_exact_1d((1.0, 0.0), S((0.5, 0.5)), S((0.4, 0.6)))
        with pytest.raises(DimensionError):
            w1_exact_1d((0.0, 1.0, 2.0), S((0.5, 0.5)), S((0.4, 0.6)))


MU2, NU2 = S((0.5, 0.5)), S((0.25, 0.75))


@pytest.mark.parametrize("call, message", [
    (lambda: moment_gap_bound([0, 1], MU2, NU2, x0=0.0, q=-1.0), "q must be finite and >= 0"),
    (lambda: moment_gap_bound([0, 1], MU2, NU2, x0=0.0, q=math.nan), "q must be finite"),
    (lambda: moment_gap_bound([0, 1], MU2, NU2, x0=0.0, q=math.inf), "q must be finite"),
    (lambda: moment_gap_bound([0, 1], MU2, NU2, x0=math.inf, q=1.0), "x0 must be finite"),
    (lambda: moment_gap_bound([0, 1], MU2, NU2, x0=math.nan, q=1.0), "x0 must be finite"),
    (lambda: moment_gap_bound([0, math.inf], MU2, NU2, x0=0.0, q=1.0),
     "point at index 1 is not finite: inf"),
    (lambda: w1_bound_from_h([0, 1], MU2, NU2, x0=math.nan), "x0 must be finite"),
    (lambda: w1_bound_from_h([-math.inf, 1], MU2, NU2, x0=0.0), "point at index 0 is not finite"),
    (lambda: w1_exact_1d([0, math.nan], MU2, NU2), "point at index 1 is not finite: nan"),
], ids=["q<0", "q=nan", "q=inf", "x0=inf", "x0=nan", "moment-point=inf", "w1-x0=nan",
        "w1-point=-inf", "exact-point=nan"])
def test_non_finite_bound_inputs_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    (lambda: moment_gap_bound([0, 1e200], MU2, NU2, x0=0.0, q=2.0), r"\|x - x0\|\*\*q overflows"),
    (lambda: moment_gap_bound([0, 1e308], MU2, NU2, x0=-1e308, q=1.0), "to x0 overflows"),
    (lambda: w1_bound_from_h([0, 1e308], MU2, NU2, x0=-1e308), "to x0 overflows"),
    (lambda: w1_bound_from_h([-1e308, 1e308], MU2, NU2, x0=0.0), "gap overflows"),
    (lambda: w1_exact_1d([-1e308, 1e308], MU2, NU2), "gap overflows"),
], ids=["pow", "moment-offset", "w1-offset", "w1-gap", "exact-gap"])
def test_bound_overflow_is_a_domain_error(call, message):
    # Finite inputs whose differences or powers leave float range: no bare
    # OverflowError, no numpy warning, and the message names the rescaling.
    with pytest.raises(DomainError, match=message) as info:
        call()
    assert str(info.value).endswith("; rescale the support points")


def test_w1_bound_at_infinite_h_takes_no_offsets():
    # At H = inf the bound is vacuous and needs no moment, so the offset past float range that
    # the finite-H call refuses (above) is never formed.
    report = w1_bound_from_h([0, 1e308], MU2, S((1.0, 0.0)), x0=-1e308)
    assert (report.rhs_value, report.applicable) == (math.inf, False)


class TestMomentGap:
    def test_holds_q1_q2(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            xs = tuple(sorted(rng.uniform(0, 5, size=n) + rng.uniform(0.01, 1)))
            if any(b - a < 1e-9 for a, b in zip(xs, xs[1:])):
                continue
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            for q in (1.0, 2.0):
                assert moment_gap_bound(xs, mu, nu, x0=0.0, q=q).holds

    def test_bound_by_nu_is_the_swapped_call(self, rng):
        # H and |integral of d^q d(mu - nu)| are symmetric in mu and nu, so swapping the
        # measures bounds the same gap by nu's moment: the same lhs, and K_q of nu.
        for _ in range(300):
            n = int(rng.integers(2, 9))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            xs = tuple(np.cumsum(rng.uniform(0.01, 2.0, n)).tolist())
            q = float(rng.uniform(0.0, 3.0))
            ab, ba = moment_gap_bound(xs, mu, nu, 0.0, q), moment_gap_bound(xs, nu, mu, 0.0, q)
            assert ba.lhs_value == ab.lhs_value
            k_nu = math.fsum(x ** q * w for x, w in zip(xs, nu.weights))
            assert ba.rhs_value == k_nu * math.expm1(hilbert_distance(mu, nu))
            assert ba.holds
        with pytest.raises(TypeError):  # one form: there is no option naming the measure
            moment_gap_bound(xs, mu, nu, 0.0, 1.0, moment_of="nu")

    def test_zero_gap_for_equal(self):
        mu = S((0.25, 0.25, 0.5))
        rep = moment_gap_bound((0.0, 1.0, 2.0), mu, mu, x0=0.0, q=2.0)
        assert rep.lhs_value == 0.0
        assert rep.holds


class TestTUpperFromTv:
    def test_hand_pair(self):
        # T = tanh(log(9)/4) = 0.5; tv/2 = 0.5; min mass 0.25
        rep = t_upper_from_tv(S((0.75, 0.25)), S((0.25, 0.75)))
        assert rep.lhs_value == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs_value == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_inapplicable_without_full_support(self):
        rep = t_upper_from_tv(S((1.0, 0.0)), S((0.5, 0.5)))
        assert not rep.applicable

    def test_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 8))
            rep = t_upper_from_tv(random_simplex(rng, n), random_simplex(rng, n))
            assert rep.holds


class TestSubsetSup:
    def test_equals_half_tv(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            rep = subset_sup_bound(mu, nu)
            assert rep.lhs_value == pytest.approx(tv_distance(mu, nu) / 2.0, abs=1e-12)
            assert rep.holds

    def test_matches_enumeration(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert subset_sup_bound(mu, nu).lhs_value == pytest.approx(
                tv_subset_oracle(mu, nu) / 2.0, abs=1e-12
            )

    def test_infinite_support_gap(self):
        rep = subset_sup_bound(S((1.0, 0.0)), S((0.5, 0.5)))
        assert rep.rhs_value == 1.0
        assert rep.holds


class TestBoundChain:
    def test_ordering(self, rng):
        # sup-gap <= T <= 1 and tv <= 2T <= min(2, (2/log3) H)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            tv = tv_distance(mu, nu)
            t = t_distance(mu, nu)
            h = float(hilbert_distance(mu, nu))
            assert tv / 2.0 <= t + 1e-10
            assert t <= 1.0
            assert 2.0 * t <= min(2.0, (2.0 / math.log(3.0)) * h) + 1e-10


class TestKlFromH:
    def test_both_finite(self):
        mu, nu = S((0.5, 0.5)), S((0.9, 0.1))
        r = kl_from_h_bound(mu, nu)
        kl, h = float(kl_divergence(mu, nu)), float(hilbert_distance(mu, nu))
        assert (r.lhs_name, r.rhs_name) == ("KL", "H")
        assert (r.lhs_value, r.rhs_value, r.slack) == (kl, h, h - kl)
        assert r.holds and r.applicable

    def test_h_infinite_kl_finite(self):
        r = kl_from_h_bound(S((0.0, 1.0)), S((0.5, 0.5)))
        assert r.lhs_value == pytest.approx(math.log(2), abs=1e-15)
        assert r.rhs_value == math.inf and r.slack == math.inf
        assert r.holds and not r.applicable

    def test_both_infinite_slack_is_not_nan(self):
        r = kl_from_h_bound(S((0.5, 0.5)), S((0.0, 1.0)))
        assert r.lhs_value == r.rhs_value == r.slack == math.inf
        assert r.holds and not r.applicable


# The scalar bodies of H, tv, KL and the bound reports as they were before they
# moved to numpy: every report and dist value must match them bit for bit.
def ref_support(x):
    return frozenset(i for i, w in enumerate(x.weights) if w > 0.0)


def ref_h(x, y):
    xw, yw = x.weights, y.weights
    on = [w > 0.0 for w in xw]
    if on != [w > 0.0 for w in yw]:
        return math.inf
    if yw < xw:
        xw, yw = yw, xw
    if not all(on):
        xw, yw = list(compress(xw, on)), list(compress(yw, on))
    r = list(map(truediv, yw, xw))
    hi, lo = max(r), min(r)
    if 0.0 < lo and hi / lo < math.inf:
        return math.log(hi / lo)
    return float(osc([math.log(b) - math.log(a) for a, b in zip(xw, yw)]))


def ref_t(h):
    return 1.0 if h == math.inf else math.tanh(h / 4.0)


def ref_tv(mu, nu):
    return math.fsum(abs(a - b) for a, b in zip(mu.weights, nu.weights))


def ref_kl(mu, nu):
    if not ref_support(mu) <= ref_support(nu):
        return math.inf
    val = math.fsum(
        m * (math.log(m) - math.log(v)) for m, v in zip(mu.weights, nu.weights) if m > 0.0
    )
    return max(val, 0.0)


def ref_w1(xs, mu, nu):
    total = 0.0
    cdf_gap = 0.0
    for i in range(len(xs) - 1):
        cdf_gap += mu.weights[i] - nu.weights[i]
        total += abs(cdf_gap) * (xs[i + 1] - xs[i])
    return total


def ref_moment_gap(xs, mu, nu, x0, q, h):
    lhs = abs(math.fsum(
        abs(x - x0) ** q * (m - v) for x, m, v in zip(xs, mu.weights, nu.weights)
    ))
    name = f"K_{q:g}(mu)*(e^H-1)"
    if h == math.inf:
        return _report(f"|moment-gap q={q:g}|", lhs, name, math.inf, applicable=False)
    k_q = math.fsum(abs(x - x0) ** q * w for x, w in zip(xs, mu.weights))
    return _report(f"|moment-gap q={q:g}|", lhs, name, k_q * _expm1(h))


def ref_reports(mu, nu, xs, x0, moments):
    """The reports in order; ``moments`` holds (q, swapped), swapped to bound by nu's moment."""
    h, tv, t = ref_h(mu, nu), ref_tv(mu, nu), ref_t(ref_h(mu, nu))
    pos = math.fsum(m - v for m, v in zip(mu.weights, nu.weights) if m > v)
    neg = math.fsum(v - m for m, v in zip(mu.weights, nu.weights) if v > m)
    if all(w > 0.0 for w in mu.weights) and all(w > 0.0 for w in nu.weights):
        min_mass = min(min(mu.weights), min(nu.weights))
        t_upper = _report("T", t, "tv/(4*min-mass)", (tv / 2.0) / (2.0 * min_mass))
    else:
        t_upper = _report("T", t, "tv/(4*min-mass)", math.inf, applicable=False)
    w1 = ref_w1(xs, mu, nu)
    if h == math.inf:
        w1_bound = _report("W1", w1, "(e^H-1)*m1(mu)", math.inf, applicable=False)
    else:
        moment = math.fsum(abs(x - x0) * w for x, w in zip(xs, mu.weights))
        w1_bound = _report("W1", w1, "(e^H-1)*m1(mu)", _expm1(h) * moment)
    return [
        _report("tv", tv, "2*tanh(H/4)", 2.0 * t),
        _report("tv", tv, "(2/log3)*H", (2.0 / math.log(3.0)) * h, applicable=h < math.inf),
        _report("sup_A |mu(A)-nu(A)|", max(pos, neg), "T", t),
        t_upper,
        w1_bound,
        *(ref_moment_gap(xs, *((nu, mu) if swapped else (mu, nu)), x0, q, h)
          for q, swapped in moments),
        _report("KL", ref_kl(mu, nu), "H", h, applicable=h < math.inf),
    ]


def bits(value):
    """A float's type and hex, so that a numpy scalar or a changed last bit both differ."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {k: bits(v) for k, v in vars(value).items()}
    return value


def raw_pair(rng, n):
    """Two nonnegative vectors: zeros on shared or mismatched supports, some subnormal."""
    a, b = rng.lognormal(0.0, 2.0, n), rng.lognormal(0.0, 2.0, n)
    shape = rng.integers(4)
    if shape >= 1:
        a[rng.random(n) < 0.2] = 0.0
        b[a == 0.0] = 0.0
    if shape >= 2:  # mismatched supports
        b[rng.integers(n)] = 0.0
        b[rng.integers(n)] = 1.5
    if rng.random() < 0.3:
        for v in (a, b):
            v[rng.integers(n, size=max(1, n // 10))] = rng.choice([5e-324, 1e-320, 2e-310])
    for v in (a, b):
        if not v.any():
            v[0] = 1.0
    return PositiveVector(tuple(a)), PositiveVector(tuple(b))


def test_reports_match_scalar_reference_bit_for_bit(rng, tmp_path, capsys):
    """500 pairs, n 2..2,000: every report field and dist value, library and CLI."""
    kinds, cli_kinds = set(), set()
    for t in range(500):
        u = rng.random()
        n = int(rng.integers(2, 41) if u < 0.7 else rng.integers(41, 501) if u < 0.95
                else rng.integers(501, 2001))
        a, b = raw_pair(rng, n)
        mu, nu = normalize(a), normalize(b)
        for x in (a, b):
            total = math.fsum(x.weights)
            assert bits(list(normalize(x).weights)) == bits([w / total for w in x.weights])
        h = ref_h(mu, nu)
        kinds.add((h == math.inf, n > 1000))
        assert bits(float(hilbert_distance(a, b))) == bits(ref_h(a, b))
        assert bits(float(hilbert_distance(mu, nu))) == bits(h)
        assert bits(t_distance(a, b)) == bits(ref_t(ref_h(a, b)))
        assert bits(tv_distance(mu, nu)) == bits(ref_tv(mu, nu))
        assert bits(float(kl_divergence(mu, nu))) == bits(ref_kl(mu, nu))
        assert comparable(a, b) == (ref_support(a) == ref_support(b))
        assert mu.full_support == all(w > 0.0 for w in mu.weights)

        xs = np.cumsum(rng.uniform(0.01, 2.0, n)).tolist()
        x0 = float(rng.uniform(-1.0, 5.0))
        moments = [(1, False), (2.0, False), (1.5, True)]
        got = [
            tv_from_t_bound(mu, nu),
            atar_zeitouni_bound(mu, nu),
            subset_sup_bound(mu, nu),
            t_upper_from_tv(mu, nu),
            w1_bound_from_h(xs, mu, nu, x0),
            *(moment_gap_bound(xs, *((nu, mu) if swapped else (mu, nu)), x0, q)
              for q, swapped in moments),
            kl_from_h_bound(mu, nu),
        ]
        assert bits(got) == bits(ref_reports(mu, nu, xs, x0, moments)), (t, n)
        assert bits(w1_exact_1d(xs, mu, nu)) == bits(ref_w1(xs, mu, nu))

        if t % 10 == 0:  # the CLI's own composition of the same values
            files = []
            for name, x in (("a", a), ("b", b)):
                files.append(str(tmp_path / f"{name}.json"))
                (tmp_path / f"{name}.json").write_text(json.dumps(list(x.weights)))
            # The CLI refuses a vector whose unit mass loses a positive weight, naming the first.
            lost = [(name, i) for name, x in (("a", a), ("b", b)) for i, w in enumerate(x.weights)
                    if w > 0.0 and w / math.fsum(x.weights) == 0.0]
            cli_kinds.add(bool(lost))
            if lost:
                for cmd in ("bounds", "dist"):
                    assert run_command([cmd, *files], io.StringIO()) == 1
                    assert capsys.readouterr().err == (f"error: argument {lost[0][0]}: weight at "
                                                       f"index {lost[0][1]} underflows to 0 at "
                                                       "unit mass\n")
                continue
            out = io.StringIO()
            assert run_command(["bounds", *files], out) == 0
            xs = [float(i) for i in range(n)]
            expected = [{k: "inf" if v == math.inf else v for k, v in vars(r).items()}
                        for r in ref_reports(mu, nu, xs, xs[0], [(1, False), (2, False)])]
            assert bits(json.loads(out.getvalue())) == bits(expected)
            out = io.StringIO()
            assert run_command(["dist", *files], out) == 0
            ha, kl = ref_h(a, b), ref_kl(mu, nu)
            expected = {"hilbert": "inf" if ha == math.inf else ha, "t": ref_t(ha),
                        "tv": ref_tv(mu, nu), "kl": "inf" if kl == math.inf else kl,
                        "comparable": ref_support(a) == ref_support(b)}
            assert bits(json.loads(out.getvalue())) == bits(expected)
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}
    assert cli_kinds == {False, True}


def test_bound_reports_match_the_public_functions_bit_for_bit(rng):
    """The eight reports of the bounds command, against each public function and the reference."""
    for t in range(200):
        n = int(rng.integers(2, 41) if t % 10 else rng.integers(41, 1001))
        mu, nu = map(normalize, raw_pair(rng, n))
        xs = [float(i) for i in range(n)]
        public = [
            tv_from_t_bound(mu, nu),
            atar_zeitouni_bound(mu, nu),
            subset_sup_bound(mu, nu),
            t_upper_from_tv(mu, nu),
            w1_bound_from_h(xs, mu, nu, 0.0),
            moment_gap_bound(xs, mu, nu, 0.0, 1),
            moment_gap_bound(xs, mu, nu, 0.0, 2),
            kl_from_h_bound(mu, nu),
        ]
        got = bits(bound_reports(mu, nu))
        assert got == bits(public), (t, n)
        assert got == bits(ref_reports(mu, nu, xs, 0.0, [(1, False), (2, False)])), (t, n)
    with pytest.raises(DimensionError):
        bound_reports(S((0.5, 0.5)), S((0.2, 0.3, 0.5)))

