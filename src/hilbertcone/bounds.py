"""Inter-metric bounds: total variation, KL, f-divergences, 1-D Wasserstein.

Every comparison is packaged as a :class:`BoundReport` with a fixed 1e-10
absolute tolerance.  Total variation uses the factor-2 (ell^1) convention, so
``sup_A |mu(A) - nu(A)| = tv / 2``.

Each public function is a thin wrapper over a private form that takes the
pair's weights as arrays ``m``, ``v`` (KL and tv: the weight tuples) and its
``h = H(mu, nu)`` or ``tv``, so that a caller evaluating several reports
computes each once.  The private forms keep the scalar arithmetic's bits:
element-wise ``+ - * / abs`` run in numpy, sums go through ``math.fsum``
(exact in any order) or a sequential ``np.cumsum``, and ``log``, ``tanh``,
``expm1`` and ``**`` stay on libm.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul, sub

import numpy as np

from .core import (
    SimplexPoint,
    _check_lengths,
    _t,
    _tv,
    comparable,
    hilbert_distance,
)
from .errors import CertificationError, DimensionError, DomainError, ValidationError
from .simplex import ThetaVector, _check_ball_center, _check_radius, theta_chart, theta_inverse

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
    "bound_reports",
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
    """The one report constructor, with plain float values; an infinite rhs is vacuous."""
    slack = math.inf if rhs == math.inf else rhs - lhs
    return BoundReport(lhs_name, rhs_name, lhs, rhs, slack, slack >= -_TOL, applicable)


def _expm1(h: float) -> float:
    """e^h - 1, or inf past float range, where the bound it scales is vacuous."""
    try:
        return math.expm1(h)
    except OverflowError:
        return math.inf


def _arrays(mu: SimplexPoint, nu: SimplexPoint) -> tuple[np.ndarray, np.ndarray]:
    """The weights of mu and nu as float arrays, after the length check."""
    _check_lengths(mu, nu)
    return np.array(mu.weights), np.array(nu.weights)


def tv_distance(mu: SimplexPoint, nu: SimplexPoint) -> float:
    """Total variation with the factor-2 convention: the ell^1 distance, in [0, 2]."""
    _check_lengths(mu, nu)
    return _tv(mu.weights, nu.weights)


def _tv_from_t(tv: float, h: float) -> BoundReport:
    return _report("tv", tv, "2*tanh(H/4)", 2.0 * _t(h))


def tv_from_t_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """The sharp bound tv <= 2 tanh(H/4); holds for every pair."""
    return _tv_from_t(tv_distance(mu, nu), hilbert_distance(mu, nu))


def _atar_zeitouni(tv: float, h: float) -> BoundReport:
    rhs = (2.0 / math.log(3.0)) * h
    if 2.0 * _t(h) > min(2.0, rhs) + 1e-12:
        raise CertificationError("tanh bound failed to dominate the linear bound")
    return _report("tv", tv, "(2/log3)*H", rhs, applicable=h < math.inf)


def atar_zeitouni_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """The older linear bound tv <= (2/log 3) * H; inapplicable when H is infinite."""
    return _atar_zeitouni(tv_distance(mu, nu), hilbert_distance(mu, nu))


def _g_plus(s: float, c: float, r: float) -> float:
    """g_R^+ at subset sum s with complementary mass c, for r >= 0.

    2 (e^R - 1) s c / (c + s e^R) with e^R divided out: 2 (1 - e^-R) s c / (e^-R c + s).
    Every term is >= 0, so nothing cancels or overflows, up to r = inf.
    """
    return -2.0 * math.expm1(-r) * s * c / (math.exp(-r) * c + s)


def vertex_l1_bound(nu: SimplexPoint, radius: float) -> float:
    """Max ell^1 distance from nu over vertices of its Hilbert ball of radius R.

    Evaluates g_R^+ and g_R^-(s, c) = g_R^+(c, s) at every nonempty subset sum s of
    nu's weights (excluding index 0), with c the complementary mass; dominates
    tv(mu, nu) for any mu at distance R and is itself bounded by 2 tanh(R/4), so it
    is finite for every R, inf included.
    Like :func:`ball_vertices`, it takes interior centers up to S^13.
    """
    _check_ball_center(nu)
    _check_radius(radius)
    ws = nu.weights
    best = 0.0
    for mask in range(2, 2 ** len(ws), 2):  # bit i: index i is in the subset; 0 never is
        s = math.fsum(w for i, w in enumerate(ws) if mask >> i & 1)
        c = math.fsum(w for i, w in enumerate(ws) if not mask >> i & 1)
        best = max(best, _g_plus(s, c, radius), _g_plus(c, s, radius))
    return best


def _kl(mw: Sequence[float], nw: Sequence[float]) -> float:
    # On the weight tuples: the libm logs cost the same either way, and small
    # vectors skip numpy's per-call cost.  A weight w >= 0 is true iff w > 0.
    if not all(compress(nw, mw)):
        return math.inf
    ms, vs = list(compress(mw, mw)), list(compress(nw, mw))
    val = math.fsum(map(mul, ms, map(sub, map(math.log, ms), map(math.log, vs))))
    return max(val, 0.0)


def kl_divergence(mu: SimplexPoint, nu: SimplexPoint) -> float:
    """Relative entropy of mu w.r.t. nu; inf when mu escapes nu's support."""
    _check_lengths(mu, nu)
    return _kl(mu.weights, nu.weights)


def _kl_from_h(kl: float, h: float) -> BoundReport:
    return _report("KL", kl, "H", h, applicable=h < math.inf)


def kl_from_h_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """KL(mu || nu) <= H(mu, nu); inapplicable when H is infinite."""
    return _kl_from_h(kl_divergence(mu, nu), hilbert_distance(mu, nu))


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
    if not comparable(mu, nu):
        raise DomainError("f-divergence bound requires equal supports")
    try:
        val = math.fsum(v * f(m / v) for m, v in zip(mu.weights, nu.weights) if v > 0.0)
    except OverflowError:  # raised by f, e.g. (u - 1)**2, or by fsum's partial sums
        raise DomainError("f-divergence is past float range") from None
    env = f_divergence_envelope(f, hilbert_distance(mu, nu))
    if val > env + _TOL:
        raise CertificationError(f"f-divergence {val!r} exceeds its envelope {env!r}")
    return val


def _check_support_points(support_points: Sequence[float], k: int) -> np.ndarray:
    xs = np.array(list(map(float, support_points)))
    if len(xs) != k:
        raise DimensionError(f"{len(xs)} support points for measures of length {k}")
    if not np.isfinite(xs).all():
        raise ValidationError("support points must be finite")
    if (xs[1:] <= xs[:-1]).any():
        raise ValidationError("support points must be strictly increasing")
    return xs


def _check_x0(x0: float) -> None:
    if not math.isfinite(x0):
        raise ValidationError(f"x0 must be finite, got {x0!r}")


def _offsets(xs: np.ndarray, x0: float) -> np.ndarray:
    """|xs - x0|, refused when one overflows; xs is increasing, so its ends bound every one."""
    x0 = float(x0)  # Python floats overflow to inf without a numpy warning
    if not math.isfinite(max(abs(float(xs[0]) - x0), abs(float(xs[-1]) - x0))):
        raise DomainError("distance from a support point to x0 overflows a float; "
                          "rescale the support points")
    return np.abs(xs - x0)


def _w1(xs: np.ndarray, m: np.ndarray, v: np.ndarray) -> float:
    if not math.isfinite(float(xs[-1]) - float(xs[0])):  # the widest gap is at most this
        raise DomainError("support gap overflows a float; rescale the support points")
    # Both running sums stay sequential, as in a loop: np.cumsum, never np.sum.
    cdf_gap = np.cumsum((m - v)[:-1])
    return float(np.cumsum(np.abs(cdf_gap) * np.diff(xs))[-1])


def w1_exact_1d(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint) -> float:
    """Exact 1-D Wasserstein-1 distance: integral of the CDF gap."""
    m, v = _arrays(mu, nu)
    return _w1(_check_support_points(support_points, len(mu)), m, v)


def _w1_bound(xs: np.ndarray, m: np.ndarray, v: np.ndarray, x0: float, h: float) -> BoundReport:
    lhs = _w1(xs, m, v)
    if h == math.inf:
        return _report("W1", lhs, "(e^H-1)*m1(mu)", math.inf, applicable=False)
    moment = math.fsum((_offsets(xs, x0) * m).tolist())
    return _report("W1", lhs, "(e^H-1)*m1(mu)", _expm1(h) * moment)


def w1_bound_from_h(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint,
                    x0: float) -> BoundReport:
    """W1 <= (e^H - 1) * first moment of mu around x0."""
    _check_x0(x0)
    m, v = _arrays(mu, nu)
    xs = _check_support_points(support_points, len(mu))
    return _w1_bound(xs, m, v, x0, hilbert_distance(mu, nu))


def _moment_gap(xs: np.ndarray, m: np.ndarray, v: np.ndarray, x0: float, q: float,
                h: float) -> BoundReport:
    try:
        dq = np.array(list(map(pow, _offsets(xs, x0).tolist(), repeat(q))))  # |x - x0|**q on libm
    except OverflowError:
        raise DomainError(f"|x - x0|**q overflows a float for q={q!r}; "
                          "rescale the support points") from None
    lhs = abs(math.fsum((dq * (m - v)).tolist()))
    lhs_name, name = f"|moment-gap q={q:g}|", f"K_{q:g}(mu)*(e^H-1)"
    if h == math.inf:
        return _report(lhs_name, lhs, name, math.inf, applicable=False)
    return _report(lhs_name, lhs, name, math.fsum((dq * m).tolist()) * _expm1(h))


def moment_gap_bound(support_points: Sequence[float], mu: SimplexPoint, nu: SimplexPoint,
                     x0: float, q: float) -> BoundReport:
    """|integral of d(x0,.)^q d(mu - nu)| <= K_q (e^H - 1), K_q the q-th moment of mu.

    H and the left side are symmetric in mu and nu, so the bound by nu's moment is
    ``moment_gap_bound(support_points, nu, mu, x0, q)``.
    """
    _check_x0(x0)
    if not (q >= 0.0 and math.isfinite(q)):  # nan fails q >= 0
        raise ValidationError(f"q must be finite and >= 0, got {q!r}")
    m, v = _arrays(mu, nu)
    xs = _check_support_points(support_points, len(mu))
    return _moment_gap(xs, m, v, x0, q, hilbert_distance(mu, nu))


def _t_upper_from_tv(m: np.ndarray, v: np.ndarray, tv: float, h: float) -> BoundReport:
    if not (m.all() and v.all()):  # full support on both sides
        return _report("T", _t(h), "tv/(4*min-mass)", math.inf, applicable=False)
    min_mass = float(min(m.min(), v.min()))
    return _report("T", _t(h), "tv/(4*min-mass)", (tv / 2.0) / (2.0 * min_mass))


def t_upper_from_tv(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """T <= (tv/2) / (2 * min single-atom mass); needs full support on both sides."""
    m, v = _arrays(mu, nu)
    return _t_upper_from_tv(m, v, _tv(mu.weights, nu.weights), hilbert_distance(mu, nu))


def _subset_sup(m: np.ndarray, v: np.ndarray, h: float) -> BoundReport:
    # m > v is m - v > 0 for finite floats (subtraction underflows gradually),
    # and v - m == -(m - v) exactly.
    d = m - v
    gap = max(math.fsum(d[d > 0.0].tolist()), math.fsum((-d[d < 0.0]).tolist()))
    return _report("sup_A |mu(A)-nu(A)|", gap, "T", _t(h))


def subset_sup_bound(mu: SimplexPoint, nu: SimplexPoint) -> BoundReport:
    """sup over index subsets of the mass gap (= tv/2) is at most T."""
    m, v = _arrays(mu, nu)
    return _subset_sup(m, v, hilbert_distance(mu, nu))


def sharpness_witness(radius: float) -> tuple[SimplexPoint, SimplexPoint]:
    """A pair (nu, mu) on S^1 with tv(mu, nu) equal to 2 tanh(R/4).

    nu puts the g-maximizer mass 1/(1 + e^(R/2)) on index 0; mu is the
    matching ball vertex at distance R.  Past R ~ 1419.6, where e^(R/2) is
    past float range, no interior witness is representable: DomainError.
    """
    _check_radius(radius)
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


def bound_reports(mu: SimplexPoint, nu: SimplexPoint) -> list[BoundReport]:
    """The eight reports of ``hilbertcone bounds``, with H and tv computed once.

    In order: tv_from_t, atar_zeitouni, subset_sup, t_upper_from_tv, then
    w1_bound_from_h and moment_gap_bound (q = 1, 2) on the support points
    0, 1, ..., n-1 with x0 = 0, then kl_from_h.
    """
    m, v = _arrays(mu, nu)
    h, tv = hilbert_distance(mu, nu), _tv(mu.weights, nu.weights)
    xs = np.arange(float(len(mu)))
    return [
        _tv_from_t(tv, h),
        _atar_zeitouni(tv, h),
        _subset_sup(m, v, h),
        _t_upper_from_tv(m, v, tv, h),
        _w1_bound(xs, m, v, xs[0], h),
        _moment_gap(xs, m, v, xs[0], 1, h),
        _moment_gap(xs, m, v, xs[0], 2, h),
        _kl_from_h(_kl(mu.weights, nu.weights), h),
    ]
