import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hilbertcone import (
    BallPolytope,
    CoordinateRangeError,
    DomainError,
    HilbertConeError,
    PositiveVector,
    RenderStyle,
    SimplexPoint,
    ThetaVector,
    UnsupportedDimensionError,
    ValidationError,
    View,
    ball_contains,
    ball_vertices,
    hilbert_distance,
    hilbert_via_theta,
    normalize,
    render_svg,
    theta_chart,
    theta_inverse,
    tile,
)
from hilbertcone.simplex import _check_vertices, _softmax, _underflow, _view_point
from conftest import random_simplex

UNIFORM3 = SimplexPoint((1 / 3, 1 / 3, 1 / 3))


class TestThetaChart:
    def test_chart_zero(self):
        th = theta_chart(SimplexPoint((0.5, 0.25, 0.25)), 0)
        assert th.chart_index == 0
        assert th.coords == pytest.approx((-math.log(2), -math.log(2)), abs=1e-12)

    def test_chart_one(self):
        # coords over the remaining indices {0, 2} in ascending order
        th = theta_chart(SimplexPoint((0.5, 0.25, 0.25)), 1)
        assert th.coords == pytest.approx((math.log(2), 0.0), abs=1e-12)

    def test_uniform_is_origin(self):
        assert theta_chart(UNIFORM3, 0).coords == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            theta_chart(SimplexPoint((0.0, 0.5, 0.5)), 0)

    def test_bad_chart_index(self):
        with pytest.raises(ValidationError):
            theta_chart(UNIFORM3, 3)

    def test_chart_identity(self, rng):
        # theta_k^i = theta_0^i - theta_0^k for every pair of charts
        for _ in range(30):
            n = int(rng.integers(2, 6))
            mu = random_simplex(rng, n + 1)
            t0 = [0.0] + list(theta_chart(mu, 0).coords)
            for k in range(n + 1):
                got = theta_chart(mu, k).coords
                want = [t0[i] - t0[k] for i in range(n + 1) if i != k]
                assert got == pytest.approx(want, abs=1e-12)


class TestThetaInverse:
    def test_origin_is_uniform(self):
        mu = theta_inverse(ThetaVector(0, (0.0, 0.0)))
        assert mu.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_round_trip(self, rng):
        for _ in range(50):
            mu = random_simplex(rng, int(rng.integers(2, 7)))
            for k in range(len(mu)):
                back = theta_inverse(theta_chart(mu, k))
                assert back.weights == pytest.approx(mu.weights, abs=1e-12)

    def test_round_trip_other_direction(self, rng):
        for _ in range(50):
            th = ThetaVector(
                int(rng.integers(0, 4)), tuple(rng.uniform(-20, 20, size=3))
            )
            back = theta_chart(theta_inverse(th), th.chart_index)
            assert back.coords == pytest.approx(th.coords, abs=1e-12)

    def test_large_but_safe_spread(self):
        mu = theta_inverse(ThetaVector(0, (700.0, -5.0)))
        assert mu.weights[1] == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0.0 for w in mu.weights)

    def test_excessive_spread(self):
        # (700, -700) is within float range, but e^-1400 underflows to a zero weight.
        for coords in ((800.0, -800.0), (700.0, -700.0)):
            with pytest.raises(CoordinateRangeError):
                theta_inverse(ThetaVector(0, coords))


class TestHilbertViaTheta:
    def test_agrees_with_direct_metric(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            mu, nu = random_simplex(rng, n), random_simplex(rng, n)
            assert hilbert_via_theta(mu, nu) == pytest.approx(
                float(hilbert_distance(mu, nu)), rel=1e-12, abs=1e-12
            )

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            hilbert_via_theta(SimplexPoint((0.0, 1.0)), SimplexPoint((0.5, 0.5)))


class TestBallVertices:
    def test_vertex_counts(self, rng):
        for n in range(1, 7):
            nu = random_simplex(rng, n + 1, spread=0.5)
            ball = ball_vertices(nu, 0.7)
            assert len(ball.theta_vertices) == 2 * (2**n - 1)
            assert len(ball.simplex_vertices) == 2 * (2**n - 1)
            assert len(ball.halfspaces) == n * (n + 1)

    def test_vertex_order(self):
        ball = ball_vertices(UNIFORM3, 1.0)
        # sign + first, bitmask ascending: I={1}, {2}, {1,2}, then the - side
        assert ball.theta_vertices[0].coords == pytest.approx((1.0, 0.0), abs=1e-12)
        assert ball.theta_vertices[1].coords == pytest.approx((0.0, 1.0), abs=1e-12)
        assert ball.theta_vertices[2].coords == pytest.approx((1.0, 1.0), abs=1e-12)
        assert ball.theta_vertices[3].coords == pytest.approx((-1.0, 0.0), abs=1e-12)

    def test_hand_simplex_vertex(self):
        # uniform center, R = log 2, I = {1}: weights proportional to (1, 2, 1)
        ball = ball_vertices(UNIFORM3, math.log(2))
        assert ball.simplex_vertices[0].weights == pytest.approx(
            (0.25, 0.5, 0.25), abs=1e-12
        )

    def test_sphere_check_at_float_range_limits(self):
        # Subnormal vertex weights lose the precision the 1e-9 sphere check needs;
        # past ~745 they underflow to the simplex boundary.
        assert len(ball_vertices(UNIFORM3, 720.0).simplex_vertices) == 6
        with pytest.raises(CoordinateRangeError, match="misses the sphere"):
            ball_vertices(UNIFORM3, 730.0)
        with pytest.raises(DomainError):
            ball_vertices(UNIFORM3, 800.0)

    @pytest.mark.parametrize("radius, error, message", [
        (math.inf, ValidationError, "theta coordinate at index 0 is not finite: inf"),
        (1e308, CoordinateRangeError, "coordinate spread 1e+308 underflows a softmax weight to 0"),
        (800.0, CoordinateRangeError, "coordinate spread 800 underflows a softmax weight to 0"),
        (730.0, CoordinateRangeError, "vertex misses the sphere by 7.2e-07"),
    ])
    def test_error_at_float_range_radius(self, radius, error, message):
        with pytest.raises(error) as info:
            ball_vertices(UNIFORM3, radius)
        assert type(info.value) is error and str(info.value) == message

    def test_subnormal_center_weight_misses_the_sphere(self):
        # A subnormal center weight carries too few bits for the 1e-9 sphere check: a
        # range failure, as the radius 730 above, at a radius well inside float range.
        nu = normalize(PositiveVector((1e-320, 1.0, 1.0)))
        with pytest.raises(CoordinateRangeError) as info:
            ball_vertices(nu, 0.5)
        assert str(info.value) == "vertex misses the sphere by 0.000311"

    def test_first_failing_vertex_names_its_own_spread(self):
        # Chart coordinates (0, 700): vertex 0, (50, 700), spreads 700; vertex 1,
        # (0, 750), is the first whose softmax underflows.
        nu = theta_inverse(ThetaVector(0, (0.0, 700.0)))
        with pytest.raises(CoordinateRangeError) as info:
            ball_vertices(nu, 50.0)
        assert str(info.value) == "coordinate spread 750 underflows a softmax weight to 0"

    # A float32 radius rounds the moved coordinates to float32, so only a center whose
    # chart coordinates are 0 keeps its vertices on the sphere.
    @pytest.mark.parametrize("uniform, radius", [
        (False, 0.8), (False, np.float64(0.8)), (True, np.float32(0.8)),
    ])
    def test_vertices_are_the_checked_types(self, rng, uniform, radius):
        # Built without their constructors' checks, the vertices still equal checked ones,
        # also for a numpy radius: the moved coordinates are coerced as ThetaVector does.
        nu = SimplexPoint((0.25,) * 4) if uniform else random_simplex(rng, 4)
        ball = ball_vertices(nu, radius)
        base = theta_chart(nu, 0).coords
        assert ball.theta_vertices == tuple(
            ThetaVector(0, [b + sign * radius if mask >> i & 1 else b for i, b in enumerate(base)])
            for sign in (1, -1) for mask in range(1, 2 ** len(base))
        )
        for tv, p in zip(ball.theta_vertices, ball.simplex_vertices):
            assert type(tv) is ThetaVector and tv == ThetaVector(0, tv.coords)
            assert type(p) is SimplexPoint and p == theta_inverse(tv)
            assert all(type(c) is float for c in (*tv.coords, *p.weights))

    def test_vertices_on_sphere(self, rng):
        for _ in range(20):
            nu = random_simplex(rng, int(rng.integers(2, 6)), spread=1.0)
            r = float(rng.uniform(0.1, 3.0))
            ball = ball_vertices(nu, r)
            for p in ball.simplex_vertices:
                assert float(hilbert_distance(p, nu)) == pytest.approx(r, abs=1e-9)

    def test_translation_invariance_of_shape(self, rng):
        # vertex offsets from the center are the same in every chart-0 frame
        r = 0.9
        b1 = ball_vertices(UNIFORM3, r)
        b2 = ball_vertices(SimplexPoint((0.7, 0.2, 0.1)), r)
        c1 = theta_chart(UNIFORM3, 0).coords
        c2 = theta_chart(SimplexPoint((0.7, 0.2, 0.1)), 0).coords
        for v1, v2 in zip(b1.theta_vertices, b2.theta_vertices):
            off1 = [a - c for a, c in zip(v1.coords, c1)]
            off2 = [a - c for a, c in zip(v2.coords, c2)]
            assert off1 == pytest.approx(off2, abs=1e-12)

    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            ball_vertices(UNIFORM3, 0.0)

    def test_dimension_cap(self):
        # S^13 passes the cap and fails on the radius; S^14 is refused first.
        with pytest.raises(ValidationError, match="radius"):
            ball_vertices(SimplexPoint((1 / 14,) * 14), 0.0)
        with pytest.raises(UnsupportedDimensionError, match=r"S\^14"):
            ball_vertices(SimplexPoint((1 / 15,) * 15), 0.5)

    def test_polytope_count_validation(self):
        ball = ball_vertices(UNIFORM3, 1.0)
        with pytest.raises(ValidationError):
            BallPolytope(
                ball.center,
                ball.radius,
                ball.theta_vertices[:-1],
                ball.simplex_vertices[:-1],
                ball.halfspaces,
            )


def _one_by_one(coords, weights):
    """The error the vertex constructors raise, one after another, or None."""
    try:
        ThetaVector(0, coords)
        if 0.0 in weights:
            raise CoordinateRangeError("underflow")
        SimplexPoint(weights)
    except ValidationError as exc:
        return type(exc), str(exc)
    except CoordinateRangeError as exc:
        return type(exc), None
    return None


@pytest.mark.parametrize("coords, weights", [
    ((0.5, -0.5), _softmax((0.0, 0.5, -0.5))),
    ((math.inf, 0.0), _softmax((0.0, math.inf, 0.0))),
    ((-math.inf, 0.0), _softmax((0.0, -math.inf, 0.0))),
    ((0.5, -0.5), (0.5, 0.5, 0.0)),
    ((0.5, -0.5), (0.5, -0.0, 0.5)),
    ((0.5, -0.5), (0.5, math.nan, 0.5)),
    ((0.5, -0.5), (0.5, math.inf, 0.5)),
    ((0.5, -0.5), (0.6, 0.6, -0.2)),
    ((0.5, -0.5), (0.5, 0.5, 1e-9)),
], ids=["ok", "+inf-coord", "-inf-coord", "zero", "minus-zero", "nan", "inf", "negative",
        "sum"])
def test_batch_check_matches_the_one_by_one_checks(coords, weights):
    # Vertex rows as the build makes them (weights = _softmax of the coordinates),
    # and weight rows that fail one SimplexPoint check each.  The bad row sits
    # between good ones, and the batch must raise the error of the bad row alone.
    good = ((0.1, 0.2), _softmax((0.0, 0.1, 0.2)))
    expected = _one_by_one(coords, weights)
    try:
        _check_vertices([good[0], coords, good[0]], [good[1], weights, good[1]])
        got = None
    except ValidationError as exc:
        got = type(exc), str(exc)
    except CoordinateRangeError as exc:
        got = type(exc), None
        assert str(exc) == str(_underflow((0.0, *coords)))
    assert got == expected


class TestBallContains:
    def test_center_and_boundary(self):
        ball = ball_vertices(UNIFORM3, 0.8)
        assert ball_contains(UNIFORM3, 0.8, UNIFORM3)
        for p in ball.simplex_vertices:
            assert ball_contains(UNIFORM3, 0.8, p)

    def test_outside(self):
        far = theta_inverse(ThetaVector(0, (2.0, 0.0)))
        assert not ball_contains(UNIFORM3, 0.8, far)

    @pytest.mark.parametrize("radius, inside", [(1e-12, False), (1.0, False), (1e308, False),
                                                (math.inf, True)])
    def test_boundary_point(self, radius, inside):
        # Not comparable with an interior center: H is Infinite.  This raised DomainError.
        mu = SimplexPoint((0.0, 0.5, 0.5))
        assert ball_contains(SimplexPoint((0.2, 0.3, 0.5)), radius, mu) is inside

    @pytest.mark.parametrize("mu", [UNIFORM3, SimplexPoint((0.0, 0.5, 0.5))])
    def test_boundary_center_is_refused(self, mu):
        with pytest.raises(DomainError, match="simplex interior"):
            ball_contains(SimplexPoint((0.0, 0.5, 0.5)), 1.0, mu)

    def test_midpoints_of_edges_inside(self):
        ball = ball_vertices(UNIFORM3, 1.0)
        vs = ball.theta_vertices
        for a in vs:
            for b in vs:
                mid = ThetaVector(0, tuple((p + q) / 2 for p, q in zip(a.coords, b.coords)))
                assert ball_contains(UNIFORM3, 1.0, theta_inverse(mid))

    def test_matches_metric(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            nu, mu = random_simplex(rng, n), random_simplex(rng, n)
            r = float(rng.uniform(0.2, 4.0))
            h = float(hilbert_distance(mu, nu))
            if abs(h - r) > 1e-9:
                assert ball_contains(nu, r, mu) == (h <= r)


class TestTile:
    def test_counts(self):
        assert len(tile(UNIFORM3, 0.5, 0)) == 1
        assert len(tile(UNIFORM3, 0.5, 1)) == 7
        assert len(tile(UNIFORM3, 0.5, 2)) == 19

    def test_first_ball_centered(self):
        balls = tile(UNIFORM3, 0.5, 1)
        centered = [
            b for b in balls if float(hilbert_distance(b.center, UNIFORM3)) <= 1e-12
        ]
        assert len(centered) == 1

    def test_neighbours_share_edges(self):
        r = 0.5
        balls = tile(UNIFORM3, r, 1)
        vert_sets = [
            {tuple(round(c, 9) for c in v.coords) for v in b.theta_vertices}
            for b in balls
        ]
        shared_counts = []
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                k = len(vert_sets[i] & vert_sets[j])
                assert k in (0, 1, 2)
                shared_counts.append(k)
        # the central hexagon shares a full edge (2 vertices) with each of the 6 ring balls
        assert shared_counts.count(2) >= 6

    def test_interiors_disjoint_and_cover(self, rng):
        r = 0.6
        balls = tile(UNIFORM3, r, 2)
        for _ in range(300):
            th = ThetaVector(0, tuple(rng.uniform(-1.5 * r, 1.5 * r, size=2)))
            p = theta_inverse(th)
            strict = sum(
                1
                for b in balls
                if hilbert_via_theta(p, b.center) < r - 1e-9
            )
            weak = sum(1 for b in balls if ball_contains(b.center, r, p))
            assert strict <= 1
            assert weak >= 1

    def test_wrong_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            tile(SimplexPoint((0.5, 0.5)), 0.5, 1)

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            tile(UNIFORM3, -1.0, 1)
        with pytest.raises(ValidationError):
            tile(UNIFORM3, 0.5, -1)

    @pytest.mark.parametrize("chart, shells, error, message", [
        ((300.0, 0.0), 2, CoordinateRangeError,
         "coordinate spread 950 underflows a softmax weight to 0"),
        ((300.0, 60.0), 1, CoordinateRangeError, "vertex misses the sphere by 0.00258"),
    ])
    def test_first_failure_in_ball_order(self, chart, shells, error, message):
        # A later ball's center fails as well, with a smaller spread.  The error is
        # the one of the first ball that fails, as when balls are built one by one.
        with pytest.raises(error) as info:
            tile(theta_inverse(ThetaVector(0, chart)), 250.0, shells)
        assert type(info.value) is error and str(info.value) == message


def _float_fields(ball):
    """Every float of a ball as float.hex, and its halfspaces: equal only if bit for bit."""
    floats = (*ball.center.weights, ball.radius,
              *(c for v in ball.theta_vertices for c in v.coords),
              *(w for v in ball.simplex_vertices for w in v.weights))
    return list(map(float.hex, floats)), ball.halfspaces


def _outcome(build):
    try:
        return [_float_fields(b) for b in build()]
    except HilbertConeError as exc:
        return type(exc), str(exc)


def test_tiling_is_its_balls_built_one_by_one(rng):
    # tile builds and checks all balls as one batch; the reference builds each ball of
    # the lattice on its own.  Same balls bit for bit, or the same first error.
    radii = [1e-300, 0.5, 250.0, 12345.678, *(10.0 ** rng.uniform(-300, 4.09, size=8))]
    failed = 0
    for radius in radii:
        for shells in range(4):
            center = random_simplex(rng, 3)
            c0 = theta_chart(center, 0).coords
            lattice = [(a, b) for a in range(-shells, shells + 1)
                       for b in range(-shells, shells + 1)
                       if abs(a) + abs(b) + abs(a + b) <= 2 * shells]

            def one_by_one():
                return [ball_vertices(theta_inverse(ThetaVector(
                    0, (c0[0] + (2 * a + b) * radius, c0[1] + (a + 2 * b) * radius))), radius)
                    for a, b in lattice]

            batch, reference = _outcome(lambda: tile(center, radius, shells)), _outcome(one_by_one)
            assert batch == reference, (radius, shells)
            failed += isinstance(reference, tuple)
    assert 0 < failed < len(radii) * 4  # both outcomes are exercised


def test_simplex_view_point_is_the_corner_sum(rng):
    # The closed form against sum(w_i * corner_i), bit for bit, on every vertex.
    corners = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
    for radius in (1e-300, 1e-5, 0.3, 2.0, 20.0, 300.0):
        for _ in range(20):
            ball = ball_vertices(random_simplex(rng, 3, spread=6.0), radius)
            for j, v in enumerate(ball.simplex_vertices):
                ref = [sum(w * corner[k] for w, corner in zip(v.weights, corners)) for k in (0, 1)]
                got = _view_point(ball, j, View.SIMPLEX_2D)
                assert list(map(float.hex, got)) == list(map(float.hex, ref))


def _ball_paths(svg):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert root.get("version") == "1.1"
    assert root.get("viewBox") is not None
    return [e for e in root.iter(f"{ns}path") if e.get("stroke") != "#555555"]


class TestRenderSvg:
    def test_single_ball_theta_view(self):
        svg = render_svg([ball_vertices(UNIFORM3, 0.5)], View.THETA_PLANE)
        assert svg.startswith('<?xml version="1.0"')
        paths = _ball_paths(svg)
        assert len(paths) == 1
        d = paths[0].get("d")
        # hexagon: one M, five L, closed
        assert d.count("M") == 1 and d.count("L") == 5 and d.rstrip().endswith("Z")

    def test_tiling_simplex_view(self):
        svg = render_svg(tile(UNIFORM3, 0.4, 1), View.SIMPLEX_2D)
        assert len(_ball_paths(svg)) == 7
        # triangle frame present
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        frames = [e for e in root.iter(f"{ns}path") if e.get("stroke") == "#555555"]
        assert len(frames) == 1

    def test_empty_list_still_valid(self):
        svg = render_svg([], View.THETA_PLANE)
        assert ET.fromstring(svg) is not None
        assert len(_ball_paths(svg)) == 0

    def test_style_overrides(self):
        style = RenderStyle(width=100, height=90, stroke="#ff0000", stroke_width=0.01)
        svg = render_svg([ball_vertices(UNIFORM3, 0.5)], View.THETA_PLANE, style)
        root = ET.fromstring(svg)
        assert root.get("width") == "100px"
        assert root.get("height") == "90px"
        assert _ball_paths(svg)[0].get("stroke") == "#ff0000"

    def test_deterministic(self):
        balls = tile(UNIFORM3, 0.4, 1)
        assert render_svg(balls, View.SIMPLEX_2D) == render_svg(balls, View.SIMPLEX_2D)
