"""Natural-parameter charts of the simplex interior and Hilbert-ball polytopes.

The chart ``theta_k`` sends an interior point mu to the log-ratios
``log(mu[i]/mu[k])`` (i != k); its inverse is a softmax with an implicit zero
in slot k.  In these coordinates the Hilbert ball of radius R is a convex
polytope with ``2*(2**n - 1)`` vertices, which this module enumerates in a
fixed (sign, bitmask) order.  For n = 2 the balls are hexagons that tile the
plane, and :func:`render_svg` draws them either in raw chart coordinates or
inside the standard equilateral-triangle picture of the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import SimplexPoint, osc
from .errors import (
    CoordinateRangeError,
    DimensionError,
    DomainError,
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

# Balls on S^13 have 16,382 vertices (~1.3 s, 9 MB of CLI JSON); each further
# dimension doubles that, so larger ones are refused before any vertex is built.
_MAX_BALL_DIM = 13


@dataclass(frozen=True)
class ThetaVector:
    """Natural-parameter coordinates of an interior simplex point under chart k.

    ``coords[j]`` is ``log(mu[i]/mu[k])`` for the j-th index ``i != k`` in
    ascending order.
    """

    chart_index: int
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coords)
        if self.chart_index < 0 or self.chart_index > len(cs):
            raise ValidationError(f"chart index {self.chart_index} out of range for n={len(cs)}")
        for c in cs:
            if not math.isfinite(c):
                raise ValidationError("theta coordinates must be finite")
        object.__setattr__(self, "coords", cs)

    @property
    def n(self) -> int:
        return len(self.coords)


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


def theta_chart(mu: SimplexPoint, k: int) -> ThetaVector:
    """Log-ratio coordinates log(mu[i]/mu[k]) for i != k."""
    _require_interior(mu)
    n = len(mu) - 1
    if not 0 <= k <= n:
        raise ValidationError(f"chart index {k} out of range 0..{n}")
    log_k = math.log(mu.weights[k])
    coords = tuple(math.log(mu.weights[i]) - log_k for i in range(n + 1) if i != k)
    return ThetaVector(k, coords)


def theta_inverse(theta: ThetaVector) -> SimplexPoint:
    """Softmax inverse of the chart, with an implicit 0 in slot ``chart_index``."""
    k = theta.chart_index
    full = list(theta.coords[:k]) + [0.0] + list(theta.coords[k:])
    hi = max(full)
    exps = [math.exp(c - hi) for c in full]
    total = math.fsum(exps)
    weights = tuple(e / total for e in exps)
    if 0.0 in weights:
        raise CoordinateRangeError(
            f"coordinate spread {hi - min(full):.3g} underflows a softmax weight to 0"
        )
    return SimplexPoint(weights)


def hilbert_via_theta(mu: SimplexPoint, nu: SimplexPoint) -> float:
    """H as the maximal chart coordinate difference max_{i,k} (theta_k^i(mu) - theta_k^i(nu)).

    Equals both the max over charts of the sup-norm difference and the
    single-chart positive/negative-part form.
    """
    a, b = theta_chart(mu, 0).coords, theta_chart(nu, 0).coords
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(mu)} vs {len(nu)}")
    # The implicit chart-0 coordinate 0.0 takes part in the oscillation.
    return float(osc([0.0, *(p - q for p, q in zip(a, b))]))


def ball_vertices(nu: SimplexPoint, radius: float) -> BallPolytope:
    """The Hilbert ball of the given radius around nu as an explicit polytope.

    Vertices are the chart-0 points ``theta_0(nu) +/- R * indicator(I)`` over
    all nonempty subsets I of {1..n}, listed with sign ``+`` first and subsets
    in ascending bitmask order.  Balls are built up to S^13.
    """
    n = len(nu) - 1
    if n > _MAX_BALL_DIM:
        raise UnsupportedDimensionError(f"balls are built up to S^{_MAX_BALL_DIM}, got S^{n}")
    _require_interior(nu)
    if not radius > 0.0:
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    base = theta_chart(nu, 0).coords
    thetas: list[ThetaVector] = []
    points: list[SimplexPoint] = []
    for sign in (1, -1):
        for mask in range(1, 2**n):
            coords = tuple(
                base[i] + sign * radius if mask >> i & 1 else base[i] for i in range(n)
            )
            tv = ThetaVector(0, coords)
            thetas.append(tv)
            points.append(theta_inverse(tv))
    halfspaces = tuple(
        (i, k, sign) for i in range(n + 1) for k in range(i + 1, n + 1) for sign in (1, -1)
    )
    ball = BallPolytope(nu, float(radius), tuple(thetas), tuple(points), halfspaces)
    W = np.array([p.weights for p in points])
    err = float(np.abs(osc(np.log(W) - np.log(nu.weights)) - radius).max())
    if err > 1e-9:
        raise ValidationError(f"vertex misses the sphere by {err:.3g}")
    return ball


def ball_contains(nu: SimplexPoint, radius: float, mu: SimplexPoint) -> bool:
    """Membership of mu in the closed Hilbert ball around nu, within 1e-12.

    Evaluates the pairwise halfspace description, whose maximum violation is
    exactly the Hilbert distance.
    """
    if not radius > 0.0:
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    return hilbert_via_theta(mu, nu) <= radius + 1e-12


def tile(center: SimplexPoint, radius: float, shells: int) -> list[BallPolytope]:
    """Tile a neighbourhood of ``center`` in S^2 with hexagonal Hilbert balls.

    Ball centers sit on the chart-0 lattice spanned by (2R, R) and (R, 2R);
    those two translations and their difference pair up the hexagon's three
    opposite face pairs, so interiors are disjoint and neighbours share full
    edges.  ``shells`` counts hexagonal rings: 1 ball for shells=0, 7 for
    shells=1, 19 for shells=2.
    """
    if len(center) != 3:
        raise UnsupportedDimensionError("tiling is implemented for S^2 only")
    _require_interior(center)
    if not radius > 0.0:
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    if shells < 0:
        raise ValidationError("shells must be >= 0")
    c0 = theta_chart(center, 0).coords
    balls: list[BallPolytope] = []
    for a in range(-shells, shells + 1):
        for b in range(-shells, shells + 1):
            if (abs(a) + abs(b) + abs(a + b)) // 2 > shells:
                continue
            ct = ThetaVector(0, (c0[0] + (2 * a + b) * radius, c0[1] + (a + 2 * b) * radius))
            balls.append(ball_vertices(theta_inverse(ct), radius))
    return balls


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
    w = p.simplex_vertices[j].weights
    x = sum(wi * tx for wi, (tx, _) in zip(w, _TRIANGLE))
    y = sum(wi * ty for wi, (_, ty) in zip(w, _TRIANGLE))
    return (x, y)


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

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{style.width}px" height="{style.height}px" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    frame = f'fill="none" stroke="{style.frame_stroke}" stroke-width="{_fmt(sw)}"'
    if view is View.SIMPLEX_2D:
        d = " ".join(
            f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(flip(y))}"
            for i, (x, y) in enumerate(_TRIANGLE)
        )
        lines.append(f'<path d="{d} Z" {frame}/>')
    else:
        lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(flip(0.0))}" '
                     f'x2="{_fmt(x1)}" y2="{_fmt(flip(0.0))}" {frame}/>')
        lines.append(f'<line x1="{_fmt(0.0)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(0.0)}" y2="{_fmt(y1)}" {frame}/>')
    for outline in outlines:
        d = " ".join(
            f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(flip(y))}"
            for i, (x, y) in enumerate(outline)
        )
        lines.append(
            f'<path d="{d} Z" fill="{style.fill}" stroke="{style.stroke}" '
            f'stroke-width="{_fmt(sw)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
