"""Natural-parameter charts of the simplex interior and Hilbert-ball polytopes.

The chart ``theta_k`` sends an interior point mu to the log-ratios
``log(mu[i]/mu[k])`` (i != k); its inverse is a softmax with an implicit zero
in slot k.  In these coordinates the Hilbert ball of radius R is a convex
polytope with ``2*(2**n - 1)`` vertices, which this module enumerates in a
fixed (sign, bitmask) order.  For n = 2 the balls are hexagons that tile the
plane, and :func:`render_svg` draws them either in raw chart coordinates or
inside the standard equilateral-triangle picture of the simplex.  A ball, and
a whole tiling, is built as one batch of vertices and checked once; only a
failing batch is built again one ball at a time, to name the first failure.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, product

import numpy as np

from .core import SimplexPoint, _check_entries, _check_lengths, _floats, osc
from .errors import (
    CoordinateRangeError,
    DimensionError,
    DomainError,
    HilbertConeError,
    UnsupportedDimensionError,
    ValidationError,
)

__all__ = [
    "ThetaVector",
    "BallPolytope",
    "RenderStyle",
    "View",
    "theta_chart",
    "theta_inverse",
    "hilbert_via_theta",
    "ball_vertices",
    "ball_contains",
    "tile",
    "render_svg",
]

# Balls on S^13 have 16,382 vertices: 0.1-0.25 s to build and 0.2-0.6 s to write
# 12 MB of CLI JSON (center 1..14, a shared 2-vCPU x86 host whose speed varies ~2x).
# Each further dimension doubles that, so larger ones are refused before any vertex
# is built.
_MAX_BALL_DIM = 13

# A tiling of s shells has 3s(s+1) + 1 balls, about 4.6 KB each.  At 100 shells (30,301
# balls, radius 0.01) building takes ~133 MiB, and the CLI ~6 s for 46 MB of JSON on the
# host above; more shells are refused before the lattice is built.
_MAX_SHELLS = 100


def _check_chart_index(k, n: int) -> None:
    """Refuse a chart index that is not an integer in 0..n (numpy integers are integers)."""
    try:
        operator.index(k)
    except TypeError:
        raise ValidationError(f"chart index must be an integer, got {k!r}") from None
    if not 0 <= k <= n:
        raise ValidationError(f"chart index {k} out of range 0..{n}")


@dataclass(frozen=True)
class ThetaVector:
    """Natural-parameter coordinates of an interior simplex point under chart k.

    ``coords[j]`` is ``log(mu[i]/mu[k])`` for the j-th index ``i != k`` in
    ascending order.
    """

    chart_index: int
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = _floats(self.coords, "theta coordinate")
        _check_chart_index(self.chart_index, len(cs))
        _check_entries(cs, "theta coordinate")
        object.__setattr__(self, "coords", cs)


@dataclass(frozen=True)
class BallPolytope:
    """A Hilbert ball as a polytope: chart-0 vertices, simplex vertices, halfspaces.

    ``halfspaces`` holds ``(i, k, sign)`` triples, each encoding one side of
    ``|theta^i(mu) - theta^k(mu) - (theta^i(nu) - theta^k(nu))| <= R`` in
    chart 0 (with ``theta^0 == 0``).
    """

    center: SimplexPoint
    radius: float
    theta_vertices: tuple[ThetaVector, ...]
    simplex_vertices: tuple[SimplexPoint, ...]
    halfspaces: tuple[tuple[int, int, int], ...] = field(repr=False)

    def __post_init__(self) -> None:
        n = len(self.center) - 1
        expect = 2 * (2**n - 1)
        if len(self.theta_vertices) != expect or len(self.simplex_vertices) != expect:
            raise ValidationError(f"ball on S^{n} must have {expect} vertices")
        if len(self.halfspaces) != n * (n + 1):
            raise ValidationError(f"ball on S^{n} must have {n * (n + 1)} halfspaces")


def _require_interior(mu: SimplexPoint) -> None:
    if not mu.full_support:
        raise DomainError("chart is only defined on the simplex interior (no zero weights)")


def _check_radius(radius: float) -> None:
    if not radius > 0.0:  # nan too
        raise ValidationError(f"radius must be > 0, got {radius!r}")


def _check_ball_center(nu: SimplexPoint) -> None:
    """Refuse a center past S^13 before any of its 2(2^n - 1) vertices is visited."""
    n = len(nu) - 1
    if n > _MAX_BALL_DIM:
        raise UnsupportedDimensionError(f"balls are built up to S^{_MAX_BALL_DIM}, got S^{n}")
    _require_interior(nu)


def theta_chart(mu: SimplexPoint, k: int) -> ThetaVector:
    """Log-ratio coordinates log(mu[i]/mu[k]) for i != k."""
    _require_interior(mu)
    n = len(mu) - 1
    _check_chart_index(k, n)  # before mu.weights[k]: a negative k would wrap
    log_k = math.log(mu.weights[k])
    coords = tuple(math.log(mu.weights[i]) - log_k for i in range(n + 1) if i != k)
    return ThetaVector(k, coords)


def _softmax(full: tuple[float, ...]) -> tuple[float, ...]:
    """exp(c - max) / fsum(...) over log-weights ``full``, by libm ``exp`` and ``fsum``."""
    hi = max(full)
    exps = [math.exp(c - hi) for c in full]
    total = math.fsum(exps)
    return tuple([e / total for e in exps])


def _underflow(full: tuple[float, ...]) -> CoordinateRangeError:
    return CoordinateRangeError(
        f"coordinate spread {max(full) - min(full):.3g} underflows a softmax weight to 0"
    )


def theta_inverse(theta: ThetaVector) -> SimplexPoint:
    """Softmax inverse of the chart, with an implicit 0 in slot ``chart_index``."""
    k = theta.chart_index
    full = (*theta.coords[:k], 0.0, *theta.coords[k:])
    weights = _softmax(full)
    if 0.0 in weights:
        raise _underflow(full)
    return SimplexPoint(weights)


def hilbert_via_theta(mu: SimplexPoint, nu: SimplexPoint) -> float:
    """H as the maximal chart coordinate difference max_{i,k} (theta_k^i(mu) - theta_k^i(nu)).

    Equals both the max over charts of the sup-norm difference and the
    single-chart positive/negative-part form.
    """
    a, b = theta_chart(mu, 0).coords, theta_chart(nu, 0).coords
    _check_lengths(mu, nu)
    # The implicit chart-0 coordinate 0.0 takes part in the oscillation.
    return float(osc([0.0, *(p - q for p, q in zip(a, b))]))


def _check_vertices(thetas: list[tuple[float, ...]],
                    weights: list[tuple[float, ...]]) -> np.ndarray:
    """The weights as an array, once the one-by-one vertex checks pass on the whole batch.

    Those are ThetaVector's, theta_inverse's and SimplexPoint's.  If one fails,
    the constructors find the first failing vertex and raise its error.
    """
    W = np.array(weights)
    # min > 0 rules out nan (min propagates it), weights <= 0 and underflow to 0; a sum
    # within 1e-12 of 1 rules out inf.  A non-finite coordinate fails too: +inf makes
    # its softmax nan, -inf a weight 0.
    if not (0.0 < W.min() and all(abs(math.fsum(w) - 1.0) <= 1e-12 for w in weights)):
        for coords, w in zip(thetas, weights):
            ThetaVector(0, coords)
            if 0.0 in w:
                raise _underflow((0.0, *coords))
            SimplexPoint(w)
    return W


def _trusted(cls, fixed: dict, name: str, values: list) -> list:
    """Frozen dataclasses of checked fields, one per value of ``name``: no ``__post_init__``."""
    new, objs = object.__new__, []
    for v in values:
        obj = new(cls)
        # object.__setattr__ per field is slower, and raised cli-small peak RSS ~1.2 MB.
        fields = obj.__dict__
        fields.update(fixed)
        fields[name] = v
        objs.append(obj)
    return objs


@functools.cache  # one tuple per dimension, shared by every ball on S^n
def _halfspaces(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((i, k, sign)
                 for i in range(n + 1) for k in range(i + 1, n + 1) for sign in (1, -1))


def _balls(centers: list[SimplexPoint], radius: float) -> list[BallPolytope]:
    """The balls of one radius around ``centers`` (of one dimension), checked as one batch.

    The callers have checked the centers and the radius.  A failing batch raises the
    error of its first failing vertex, or else of its first ball that misses the sphere;
    so only one center at a time names the first failing ball.
    """
    thetas: list[tuple[float, ...]] = []
    weights: list[tuple[float, ...]] = []
    for nu in centers:
        base = theta_chart(nu, 0).coords
        for sign in (1, -1):
            # float() as ThetaVector does, so a numpy radius yields the same Python floats.
            moved = [float(b + sign * radius) for b in base]
            # Coordinate i is moved when bit i of the mask is set.  product() varies its last
            # factor fastest, so over reversed pairs it yields the masks in ascending order.
            for rev in islice(product(*zip(base[::-1], moved[::-1])), 1, None):
                coords = rev[::-1]
                thetas.append(coords)
                weights.append(_softmax((0.0, *coords)))
    n = len(centers[0]) - 1
    W = _check_vertices(thetas, weights).reshape(len(centers), -1, n + 1)
    err = np.abs(osc(np.log(W) - np.log([nu.weights for nu in centers])[:, None]) - radius)
    if err.max() > 1e-9:  # one max; the failing ball is looked up only here
        worst = err.max(axis=1)
        raise CoordinateRangeError(
            f"vertex misses the sphere by {worst[np.argmax(worst > 1e-9)]:.3g}")
    halfspaces = _halfspaces(n)
    tvs = _trusted(ThetaVector, {"chart_index": 0}, "coords", thetas)
    pts = _trusted(SimplexPoint, {}, "weights", weights)
    r, v = float(radius), W.shape[1]
    return [BallPolytope(nu, r, tuple(tvs[j:j + v]), tuple(pts[j:j + v]), halfspaces)
            for j, nu in zip(range(0, len(tvs), v), centers)]


def ball_vertices(nu: SimplexPoint, radius: float) -> BallPolytope:
    """The Hilbert ball of the given radius around nu as an explicit polytope.

    Vertices are the chart-0 points ``theta_0(nu) +/- R * indicator(I)`` over
    all nonempty subsets I of {1..n}, listed with sign ``+`` first and subsets
    in ascending bitmask order.  Balls are built up to S^13.
    """
    _check_ball_center(nu)
    _check_radius(radius)
    return _balls([nu], radius)[0]


def ball_contains(nu: SimplexPoint, radius: float, mu: SimplexPoint) -> bool:
    """Membership of mu in the closed Hilbert ball around the interior point nu, within 1e-12.

    Evaluates the pairwise halfspace description, whose maximum violation is
    exactly the Hilbert distance.  A mu on the boundary of the simplex is at
    distance inf, so it lies in no ball of finite radius.
    """
    _check_radius(radius)
    _require_interior(nu)
    _check_lengths(mu, nu)
    return (hilbert_via_theta(mu, nu) if mu.full_support else math.inf) <= radius + 1e-12


def tile(center: SimplexPoint, radius: float, shells: int) -> list[BallPolytope]:
    """Tile a neighbourhood of ``center`` in S^2 with hexagonal Hilbert balls.

    Ball centers sit on the chart-0 lattice spanned by (2R, R) and (R, 2R);
    those two translations and their difference pair up the hexagon's three
    opposite face pairs, so interiors are disjoint and neighbours share full
    edges.  ``shells`` counts hexagonal rings: 1 ball for shells=0, 7 for
    shells=1, 19 for shells=2, 3s(s+1) + 1 for s; it is at most 100.  The lattice
    centers need no ball checks: ``theta_inverse`` refuses a weight of 0, so each
    is an interior point of S^2.
    """
    if len(center) != 3:
        raise UnsupportedDimensionError("tiling is implemented for S^2 only")
    _require_interior(center)
    _check_radius(radius)
    if shells < 0:
        raise ValidationError("shells must be >= 0")
    if shells > _MAX_SHELLS:
        raise ValidationError(f"shells must be <= {_MAX_SHELLS}, got {shells}")
    c0 = theta_chart(center, 0).coords
    lattice = [(a, b) for a in range(-shells, shells + 1) for b in range(-shells, shells + 1)
               if (abs(a) + abs(b) + abs(a + b)) // 2 <= shells]

    def ball_center(a: int, b: int) -> SimplexPoint:
        ct = ThetaVector(0, (c0[0] + (2 * a + b) * radius, c0[1] + (a + 2 * b) * radius))
        return theta_inverse(ct)

    try:
        return _balls([ball_center(a, b) for a, b in lattice], radius)
    except HilbertConeError:
        for a, b in lattice:  # one ball at a time, to raise the first failing ball's error
            _balls([ball_center(a, b)], radius)
        raise


class View(Enum):
    THETA_PLANE = "theta"
    SIMPLEX_2D = "simplex"


@dataclass(frozen=True)
class RenderStyle:
    width: int = 640
    height: int = 560
    stroke: str = "#1b6ca8"
    fill: str = "none"
    frame_stroke: str = "#555555"
    stroke_width: float | None = None  # None: scale to 1/300 of the view extent


# Corners of the equilateral-triangle picture of S^2, in weight order 0,1,2.
_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def _view_point(p: BallPolytope, j: int, view: View) -> tuple[float, float]:
    if view is View.THETA_PLANE:
        c = p.theta_vertices[j].coords
        return (c[0], c[1])
    # sum(w_i * corner_i) over _TRIANGLE, bit for bit: weights are finite and >= 0, so
    # the terms w_0 * 0.0 and w_1 * 0.0 add an exact 0.0.
    w = p.simplex_vertices[j].weights
    return (w[1] + w[2] * 0.5, w[2] * _TRIANGLE[2][1])


def _hull_order(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _fmt(v: float) -> str:
    s = format(v, ".6g")
    return "0" if s == "-0" else s


def render_svg(polytopes: list[BallPolytope], view: View, style: RenderStyle | None = None) -> str:
    """Render 2-dimensional ball polytopes as an SVG 1.1 document."""
    style = style or RenderStyle()
    for p in polytopes:
        if len(p.center) != 3:
            raise DimensionError("rendering is implemented for balls on S^2 only")

    outlines = [
        _hull_order([_view_point(p, j, view) for j in range(len(p.theta_vertices))])
        for p in polytopes
    ]
    pts = [q for outline in outlines for q in outline]
    if view is View.SIMPLEX_2D:
        pts.extend(_TRIANGLE)
    if not pts:
        pts = [(-1.0, -1.0), (1.0, 1.0)]
    x0, x1 = min(x for x, _ in pts), max(x for x, _ in pts)
    y0, y1 = min(y for _, y in pts), max(y for _, y in pts)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    sw = style.stroke_width if style.stroke_width is not None else max(x1 - x0, y1 - y0) / 300.0

    def flip(y: float) -> float:
        return y0 + y1 - y

    def path(points) -> str:  # "M x y L x y ...", with y flipped
        return "M " + " L ".join([f"{_fmt(x)} {_fmt(flip(y))}" for x, y in points])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{style.width}px" height="{style.height}px" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    frame = f'fill="none" stroke="{style.frame_stroke}" stroke-width="{_fmt(sw)}"'
    if view is View.SIMPLEX_2D:
        lines.append(f'<path d="{path(_TRIANGLE)} Z" {frame}/>')
    else:
        lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(flip(0.0))}" '
                     f'x2="{_fmt(x1)}" y2="{_fmt(flip(0.0))}" {frame}/>')
        lines.append(f'<line x1="{_fmt(0.0)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(0.0)}" y2="{_fmt(y1)}" {frame}/>')
    for outline in outlines:
        lines.append(
            f'<path d="{path(outline)} Z" fill="{style.fill}" stroke="{style.stroke}" '
            f'stroke-width="{_fmt(sw)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
