import math
from itertools import combinations

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
    ValidationError,
    atar_zeitouni_bound,
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
    tv_distance,
    tv_from_t_bound,
    vertex_l1_bound,
    w1_bound_from_h,
    w1_exact_1d,
)
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


class TestKlDivergence:
    def test_hand_value(self):
        kl = kl_divergence(S((1.0, 0.0)), S((0.5, 0.5)))
        assert kl.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_infinite(self):
        assert kl_divergence(S((0.5, 0.5)), S((1.0, 0.0))).infinite

    def test_zero_on_equal(self):
        assert kl_divergence(S((0.3, 0.7)), S((0.3, 0.7))).value == 0.0

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

    def test_nu_variant(self, rng):
        mu, nu = random_simplex(rng, 4), random_simplex(rng, 4)
        xs = (0.0, 1.0, 2.0, 3.0)
        rep = moment_gap_bound(xs, mu, nu, x0=0.0, q=1.0, moment_of="nu")
        assert rep.holds
        assert "nu" in rep.rhs_name

    def test_zero_gap_for_equal(self):
        mu = S((0.25, 0.25, 0.5))
        rep = moment_gap_bound((0.0, 1.0, 2.0), mu, mu, x0=0.0, q=2.0)
        assert rep.lhs_value == 0.0
        assert rep.holds

    def test_moment_of_names_a_measure(self):
        mu, nu = S((0.25, 0.75)), S((0.5, 0.5))
        with pytest.raises(ValidationError, match="moment_of"):
            moment_gap_bound((0.0, 1.0), mu, nu, x0=0.0, q=1.0, moment_of="foo")


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
