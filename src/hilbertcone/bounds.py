"""Inter-metric bounds: total variation, KL, f-divergences, 1-D Wasserstein.

Every comparison is packaged as a :class:`BoundReport` with a fixed 1e-10
absolute tolerance.  Total variation uses the factor-2 (ell^1) convention, so
``sup_A |mu(A) - nu(A)| = tv / 2``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .core import (
    ExtendedDistance,
    INFINITE,
    SimplexPoint,
    _check_lengths,
    hilbert_distance,
    t_distance,
)
from .errors import CertificationError, DimensionError, DomainError, ValidationError
from .simplex import theta_chart, theta_inverse, ThetaVector

__all__ = [
    "BoundReport",
    "ConvexFunctionSpec",
    "F_KL",
    "F_TV_HALF",
    "F_HELLINGER",
    "F_CHI2",
    "tv_distance",
    "tv_from_t_bound",
    "atar_zeitouni_bound",
    "vertex_l1_bound",
    "kl_divergence",
    "kl_from_h_bound",
    "f_divergence",
    "f_divergence_envelope",
    "w1_exact_1d",
    "w1_bound_from_h",
    "moment_gap_bound",
    "t_upper_from_tv",
    "subset_sup_bound",
    "sharpness_witness",
]

_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality lhs <= rhs, with slack = rhs - lhs."""

    lhs_name: str
    rhs_name: str
    lhs_value: float
    rhs_value: float
    slack: float
    holds: bool
    applicable: bool = True


def _report(lhs_name: str, lhs: float, rhs_name: str, rhs: float,
            applicable: bool = True) -> BoundReport:
    """The one report constructor: an infinite rhs is vacuous, so its slack is inf, never nan."""
    slack = math.inf if rhs == math.inf else rhs - lhs
    return BoundReport(lhs_name, rhs_name, lhs, rhs, slack, slack >= -_TOL, applicable)


def _expm1(h: float) -> float:
    """e^h - 1, or inf past float range, where the bound it scales is vacuous."""
    try:
        return math.expm1(h)
    except OverflowError:
        return math.inf


def tv_distance(mu: SimplexPoint, nu: SimplexPoint) -> float:
    """Total variation with the factor-2 convention: the ell^1 distance, in [0, 2]."""
    _check_lengths(mu, nu)
    return math.fsum(abs(a - b) for a, b in zip(mu.weights, nu.weights))


def tv_from_t_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """The sharp bound tv <= 2 tanh(H/4); holds for every pair."""
    return _report("tv", tv_distance(mu, nu), "2*tanh(H/4)", 2.0 * t_distance(mu, nu))


def atar_zeitouni_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """The older linear bound tv <= (2/log 3) * H; inapplicable when H is infinite."""
    tv = tv_distance(mu, nu)
    h = hilbert_distance(mu, nu)
    rhs = (2.0 / math.log(3.0)) * h.value
    sharp = 2.0 * math.tanh(h.value / 4.0)
    if sharp > min(2.0, rhs) + 1e-12:
        raise CertificationError("tanh bound failed to dominate the linear bound")
    return _report("tv", tv, "(2/log3)*H", rhs, applicable=h.is_finite)


def _g_plus(s: float, r: float) -> float:
    if s == 1.0:  # the factor s(1 - s) is 0; past R ~ 37 the quotient below is 0/0
        return 0.0
    try:
        e = math.exp(r)
    except OverflowError:
        e = math.inf
    g = 2.0 * (e - 1.0) * s * (1.0 - s) / (1.0 + s * e - s)
    if math.isfinite(g):
        return g
    # Near float range the terms overflow; divided by e^r they do not.
    q = math.exp(-r)
    return 2.0 * (1.0 - q) * s * (1.0 - s) / (q * (1.0 - s) + s)


def vertex_l1_bound(nu: SimplexPoint, radius: float) -> float:
    """Max ell^1 distance from nu over vertices of its Hilbert ball of radius R.

    Evaluates g_R^+ and g_R^-(s) = -g_R^+(s, -R) at every nonempty subset sum of nu's weights
    (excluding index 0); dominates tv(mu, nu) for any mu at distance R and is
    itself bounded by 2 tanh(R/4), so it is finite for every R, inf included.
    """
    if not nu.full_support:
        raise DomainError("vertex bound requires an interior center")
    if not radius > 0.0:
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    n = len(nu) - 1
    best = 0.0
    for mask in range(1, 2**n):
        s = math.fsum(nu.weights[i + 1] for i in range(n) if mask >> i & 1)
        best = max(best, _g_plus(s, radius), -_g_plus(s, -radius))
    return best


def kl_divergence(mu: SimplexPoint, nu: SimplexPoint) -> ExtendedDistance:
    """Relative entropy of mu w.r.t. nu; Infinite when mu escapes nu's support."""
    _check_lengths(mu, nu)
    if not mu.support <= nu.support:
        return INFINITE
    val = math.fsum(
        m * (math.log(m) - math.log(v)) for m, v in zip(mu.weights, nu.weights) if m > 0.0
    )
    return ExtendedDistance(max(val, 0.0))


def kl_from_h_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """KL(mu || nu) <= H(mu, nu); inapplicable when H is infinite."""
    h = hilbert_distance(mu, nu)
    return _report("KL", float(kl_divergence(mu, nu)), "H", float(h), applicable=h.is_finite)


@dataclass(frozen=True)
class ConvexFunctionSpec:
    """A convex function on (0, inf) with f(1) = 0, defining an f-divergence.

    Construction samples midpoint convexity on a log-grid over
    [e^-6, e^6] (tolerance 1e-9) and checks the normalization |f(1)| <= 1e-12.
    """

    evaluator: Callable[[float], float]
    name: str

    def __post_init__(self) -> None:
        f = self.evaluator
        if abs(f(1.0)) > 1e-12:
            raise ValidationError(f"{self.name}: f(1) must be 0, got {f(1.0)!r}")
        grid = [math.exp(-6.0 + 12.0 * i / 24.0) for i in range(25)]
        vals = [f(u) for u in grid]
        for i, u in enumerate(grid):
            for j in range(i + 1, len(grid)):
                v = grid[j]
                if f((u + v) / 2.0) > (vals[i] + vals[j]) / 2.0 + 1e-9:
                    raise ValidationError(f"{self.name}: midpoint convexity fails at ({u}, {v})")

    def __call__(self, u: float) -> float:
        return self.evaluator(u)


F_KL = ConvexFunctionSpec(lambda u: u * math.log(u), "u*log(u)")
F_TV_HALF = ConvexFunctionSpec(lambda u: 0.5 * abs(u - 1.0), "|u-1|/2")
F_HELLINGER = ConvexFunctionSpec(lambda u: (math.sqrt(u) - 1.0) ** 2, "(sqrt(u)-1)^2")
F_CHI2 = ConvexFunctionSpec(lambda u: (u - 1.0) ** 2, "(u-1)^2")


def f_divergence_envelope(f: ConvexFunctionSpec, h: float) -> float:
    """max{f~(e^-H), f~(e^H)} for the normalization f~ with 0 in its subgradient at 1.

    Past float range, where the envelope is vacuous, it is ``inf``.
    """
    eps = 1e-6
    c = -(f(1.0 + eps) - f(1.0 - eps)) / (2.0 * eps)

    def fbar(u: float) -> float:
        return f(u) + c * (u - 1.0)

    try:
        # e^H first: while it is finite, e^-H has not underflowed to 0.  f(e^H) can
        # still overflow, e.g. (e^H - 1)^2 past H ~ 355.
        e_h = math.exp(h)
        return max(fbar(math.exp(-h)), fbar(e_h)) if e_h < math.inf else math.inf
    except OverflowError:
        return math.inf


def f_divergence(mu: SimplexPoint, nu: SimplexPoint, f: ConvexFunctionSpec) -> float:
    """sum_i nu[i] f(mu[i]/nu[i]) over the common support; supports must match."""
    _check_lengths(mu, nu)
    if mu.support != nu.support:
        raise DomainError("f-divergence bound requires equal supports")
    val = math.fsum(v * f(m / v) for m, v in zip(mu.weights, nu.weights) if v > 0.0)
    env = f_divergence_envelope(f, float(hilbert_distance(mu, nu)))
    if val > env + _TOL:
        raise CertificationError(f"f-divergence {val!r} exceeds its envelope {env!r}")
    return val


def _check_support_points(support_points: Sequence[float], k: int) -> list[float]:
    xs = [float(x) for x in support_points]
    if len(xs) != k:
        raise DimensionError(f"{len(xs)} support points for measures of length {k}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidationError("support points must be strictly increasing")
    return xs


def w1_exact_1d(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint) -> float:
    """Exact 1-D Wasserstein-1 distance: integral of the CDF gap."""
    _check_lengths(mu, nu)
    xs = _check_support_points(support_points, len(mu))
    total = 0.0
    cdf_gap = 0.0
    for i in range(len(xs) - 1):
        cdf_gap += mu.weights[i] - nu.weights[i]
        total += abs(cdf_gap) * (xs[i + 1] - xs[i])
    return total


def w1_bound_from_h(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint,
                    x0: float) -> BoundReport:
    """W1 <= (e^H - 1) * first moment of mu around x0."""
    lhs = w1_exact_1d(support_points, mu, nu)
    h = hilbert_distance(mu, nu)
    if h.infinite:
        return _report("W1", lhs, "(e^H-1)*m1(mu)", math.inf, applicable=False)
    xs = [float(x) for x in support_points]
    moment = math.fsum(abs(x - x0) * w for x, w in zip(xs, mu.weights))
    return _report("W1", lhs, "(e^H-1)*m1(mu)", _expm1(h.value) * moment)


def moment_gap_bound(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint,
                     x0: float, q: float, moment_of: str = "mu") -> BoundReport:
    """|integral of d(x0,.)^q d(mu - nu)| <= K_q (e^H - 1), K_q the q-th moment of mu.

    The reference measure for K_q defaults to mu (the asserted form); pass
    ``moment_of="nu"`` for the symmetric variant.
    """
    if moment_of not in ("mu", "nu"):
        raise ValidationError(f"moment_of must be 'mu' or 'nu', got {moment_of!r}")
    _check_lengths(mu, nu)
    xs = _check_support_points(support_points, len(mu))
    h = hilbert_distance(mu, nu)
    lhs = abs(math.fsum(
        abs(x - x0) ** q * (m - v) for x, m, v in zip(xs, mu.weights, nu.weights)
    ))
    name = f"K_{q:g}({moment_of})*(e^H-1)"
    if h.infinite:
        return _report(f"|moment-gap q={q:g}|", lhs, name, math.inf, applicable=False)
    ref = mu if moment_of == "mu" else nu
    k_q = math.fsum(abs(x - x0) ** q * w for x, w in zip(xs, ref.weights))
    return _report(f"|moment-gap q={q:g}|", lhs, name, k_q * _expm1(h.value))


def t_upper_from_tv(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """T <= (tv/2) / (2 * min single-atom mass); needs full support on both sides."""
    _check_lengths(mu, nu)
    lhs = t_distance(mu, nu)
    if not (mu.full_support and nu.full_support):
        return _report("T", lhs, "tv/(4*min-mass)", math.inf, applicable=False)
    min_mass = min(min(mu.weights), min(nu.weights))
    rhs = (tv_distance(mu, nu) / 2.0) / (2.0 * min_mass)
    return _report("T", lhs, "tv/(4*min-mass)", rhs)


def subset_sup_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """sup over index subsets of the mass gap (= tv/2) is at most T."""
    _check_lengths(mu, nu)
    pos = math.fsum(m - v for m, v in zip(mu.weights, nu.weights) if m > v)
    neg = math.fsum(v - m for m, v in zip(mu.weights, nu.weights) if v > m)
    return _report("sup_A |mu(A)-nu(A)|", max(pos, neg), "T", t_distance(mu, nu))


def sharpness_witness(radius: float) -> tuple[SimplexPoint, SimplexPoint]:
    """A pair (nu, mu) on S^1 with tv(mu, nu) equal to 2 tanh(R/4).

    nu puts the g-maximizer mass 1/(1 + e^(R/2)) on index 0; mu is the
    matching ball vertex at distance R.  Past R ~ 1419.6, where e^(R/2) is
    past float range, no interior witness is representable: DomainError.
    """
    if not radius > 0.0:
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    try:
        e_half = math.exp(radius / 2.0)
    except OverflowError:
        raise DomainError(
            f"no interior witness at radius {radius!r}: e^(R/2) is past float range"
        ) from None
    x_star = 1.0 / (1.0 + e_half)
    nu = SimplexPoint((x_star, 1.0 - x_star))
    base = theta_chart(nu, 0).coords
    mu = theta_inverse(ThetaVector(0, (base[0] - radius,)))
    return nu, mu
