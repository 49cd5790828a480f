"""Acceptance suite: one test per numbered criterion, one printed verdict each.

Verdict lines go to the real stdout so they survive pytest's capture."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from hilbertcone import (
    GridKernel,
    PositiveVector,
    SimplexPoint,
    ThetaVector,
    View,
    ball_contains,
    ball_vertices,
    birkhoff_phi,
    birkhoff_tau,
    f_divergence,
    f_divergence_envelope,
    F_CHI2,
    F_HELLINGER,
    F_KL,
    F_TV_HALF,
    hilbert_distance,
    hilbert_from_log_densities,
    hilbert_via_theta,
    kl_divergence,
    LogDensityVector,
    markov_converge,
    projective_diameter,
    render_svg,
    sharpness_witness,
    t_distance,
    theta_chart,
    theta_inverse,
    tile,
    tv_distance,
    w1_bound_from_h,
)
from hilbertcone.cli import run_command

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _uncaptured(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, label: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


def _phi_exhaustive_np(a):
    num = a[:, None, :, None] * a[None, :, None, :]
    den = a[None, :, :, None] * a[:, None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    r[(num == 0) & (den == 0)] = 1.0
    r[(num == 0) & (den > 0)] = 0.0
    r[(den == 0) & (num > 0)] = np.inf
    return float(r.min())


def _rng():
    return np.random.default_rng(11)


def _positive_matrix(rng, n):
    return np.exp(rng.uniform(-2.0, 2.0, size=(n, n)))


def _with_zeros(rng, n, frac):
    a = _positive_matrix(rng, n)
    mask = rng.random((n, n)) < frac
    a[mask] = 0.0
    for i in range(n):
        if a[i].sum() == 0:
            a[i, int(rng.integers(n))] = 1.0
        if a[:, i].sum() == 0:
            a[int(rng.integers(n)), i] = 1.0
    return a


def _simplex(rng, n, spread=3.0):
    w = np.exp(rng.uniform(-spread, spread, size=n))
    w /= w.sum()
    return SimplexPoint(tuple(w / w.sum()))


def test_criterion_01_closed_form_coefficient():
    ok = abs(birkhoff_phi([[2, 1], [1, 2]]) - 0.25) <= 1e-12
    ok &= abs(birkhoff_tau([[2, 1], [1, 2]]) - 1 / 3) <= 1e-12
    rng = _rng()
    for t in range(200):
        n = int(rng.integers(2, 9))
        a = _with_zeros(rng, n, 0.2) if t % 4 == 0 else _positive_matrix(rng, n)
        want = _phi_exhaustive_np(a)
        got = birkhoff_phi(a)
        ok &= abs(got - want) <= 1e-12 * max(1.0, abs(want))
    _verdict(1, "closed-form phi/tau vs exhaustive enumeration", ok)


def test_criterion_02_contraction_theorem():
    rng = _rng()
    worst_t = 0.0
    worst_h = 0.0
    for t in range(10_000):
        n = int(rng.integers(2, 9))
        a = _with_zeros(rng, n, 0.25) if t % 5 == 0 else _positive_matrix(rng, n)
        tau = birkhoff_tau(a)
        x = PositiveVector(tuple(np.exp(rng.uniform(-3, 3, n))))
        y = PositiveVector(tuple(np.exp(rng.uniform(-3, 3, n))))
        ax = PositiveVector(tuple(a @ np.asarray(x.weights)))
        ay = PositiveVector(tuple(a @ np.asarray(y.weights)))
        worst_t = max(worst_t, t_distance(ax, ay) - tau * t_distance(x, y))
        hxy = float(hilbert_distance(x, y))
        if math.isfinite(hxy):
            worst_h = max(worst_h, float(hilbert_distance(ax, ay)) - tau * hxy)
    _verdict(2, "T and H contraction on 1e4 random triples", worst_t <= 1e-10 and worst_h <= 1e-10)


def test_criterion_03_diameter_attainment():
    rng = _rng()
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a = _positive_matrix(rng, n)
        cols = [PositiveVector(tuple(a[:, k])) for k in range(n)]
        sweep = max(
            float(hilbert_distance(cols[k], cols[l]))
            for k in range(n)
            for l in range(k, n)
        )
        ok &= abs(float(projective_diameter(a)) - sweep) <= 1e-10
    _verdict(3, "projective diameter attained on basis vectors", ok)


def test_criterion_04_kernel_coefficient():
    g = np.linspace(0.0, 1.0, 21)
    L = -((g[:, None] - g[None, :]) ** 2) / (2 * 0.5**2)
    phi = birkhoff_phi(GridKernel(L))
    ok = abs(phi - math.exp(-4.0)) <= 1e-9
    rng = _rng()
    for _ in range(100):
        m, p = int(rng.integers(2, 16)), int(rng.integers(2, 16))
        Lr = rng.normal(size=(m, p))
        K = GridKernel(Lr)
        C = (
            Lr[:, None, :, None]
            + Lr[None, :, None, :]
            - Lr[:, None, None, :]
            - Lr[None, :, :, None]
        )
        scan = float(np.exp(C.min()))
        got = birkhoff_phi(K)
        ok &= abs(got - scan) <= 1e-12 * max(1.0, abs(scan))
    _verdict(4, "Gaussian kernel phi = e^-4 and decomposition vs full scan", ok)


def test_criterion_05_sharp_tv_bound():
    rng = _rng()
    worst = math.inf
    dominated = True
    for _ in range(100_000):
        n = int(rng.integers(2, 11))
        mu, nu = _simplex(rng, n), _simplex(rng, n)
        h = float(hilbert_distance(mu, nu))
        sharp = 2.0 * math.tanh(h / 4.0)
        worst = min(worst, sharp - tv_distance(mu, nu))
        dominated &= sharp <= min(2.0, (2.0 / math.log(3.0)) * h) + 1e-12
    equality = all(
        abs(tv_distance(*sharpness_witness(r)[::-1]) - 2.0 * math.tanh(r / 4.0)) <= 1e-6
        for r in (0.5, 1.0, 2.0, 4.0)
    )
    _verdict(
        5,
        "tv <= 2 tanh(H/4), sharp witnesses, dominance over linear bound",
        worst >= -1e-10 and equality and dominated,
    )


def test_criterion_06_polytope_geometry():
    rng = _rng()
    ok = True
    for n in range(1, 7):
        nu = _simplex(rng, n + 1, spread=0.8)
        ball = ball_vertices(nu, 0.9)
        ok &= len(ball.theta_vertices) == 2 * (2**n - 1)
        ok &= all(
            abs(float(hilbert_distance(p, nu)) - 0.9) <= 1e-9
            for p in ball.simplex_vertices
        )
    for n in (2, 3, 4):
        nu = _simplex(rng, n + 1, spread=0.5)
        r = 0.8
        for _ in range(10_000 // 3 + 1):
            mu = _simplex(rng, n + 1, spread=1.2)
            h = float(hilbert_distance(mu, nu))
            if abs(h - r) > 1e-9:
                ok &= ball_contains(nu, r, mu) == (h <= r)
    svg = render_svg(
        [ball_vertices(SimplexPoint((1 / 3, 1 / 3, 1 / 3)), 0.5)], View.THETA_PLANE
    )
    first_path = [ln for ln in svg.splitlines() if "#555555" not in ln and "<path" in ln][0]
    ok &= first_path.count("L") == 5 and "Z" in first_path
    _verdict(6, "ball vertex counts, sphere distances, membership, 6-gon SVG", ok)


def test_criterion_07_chart_identities():
    rng = _rng()
    ok = True
    for _ in range(200):
        mu = _simplex(rng, int(rng.integers(2, 7)))
        for k in range(len(mu)):
            back = theta_inverse(theta_chart(mu, k))
            ok &= max(abs(a - b) for a, b in zip(back.weights, mu.weights)) <= 1e-12
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        mu, nu = _simplex(rng, n), _simplex(rng, n)
        direct = float(hilbert_distance(mu, nu))
        via_theta = hilbert_via_theta(mu, nu)
        f = LogDensityVector(tuple(math.log(w) for w in mu.weights))
        g = LogDensityVector(tuple(math.log(w) for w in nu.weights))
        seminorm = hilbert_from_log_densities(f, g)
        sup_form = max(
            max(
                a - b
                for a, b in zip(theta_chart(mu, k).coords, theta_chart(nu, k).coords)
            )
            for k in range(n)
        )
        scale = max(1.0, direct)
        for v in (via_theta, seminorm, sup_form):
            worst = max(worst, abs(v - direct) / scale)
    _verdict(7, "four metric forms agree on 1e4 interior pairs", ok and worst <= 1e-12)


def test_criterion_08_markov_certification():
    rng = _rng()
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = _positive_matrix(rng, n)
        p /= p.sum(axis=1, keepdims=True)
        run = markov_converge(p, _simplex(rng, n), 30)
        h0 = run.steps[0].hilbert
        for step in run.steps:
            ok &= step.hilbert <= run.tau**step.step * h0 + 1e-9
    p2 = [[0.75, 0.25], [0.25, 0.75]]
    ok &= abs(birkhoff_tau(p2) - 0.5) <= 1e-12
    run = markov_converge(p2, SimplexPoint((0.9, 0.1)), 21)
    hs = [run.steps[k].hilbert for k in range(5, 21)]
    slope = np.polyfit(np.arange(len(hs)), np.log(hs), 1)[0]
    ok &= math.exp(slope) <= run.tau + 1e-6
    _verdict(8, "certified Markov decay; fitted rate <= tau = 0.5", ok)


def test_criterion_09_divergence_bounds():
    rng = _rng()
    worst = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        mu, nu = _simplex(rng, n), _simplex(rng, n)
        h = float(hilbert_distance(mu, nu))
        worst = min(worst, h - float(kl_divergence(mu, nu)))
        for f in (F_KL, F_TV_HALF, F_HELLINGER, F_CHI2):
            worst = min(worst, f_divergence_envelope(f, h) - f_divergence(mu, nu, f))
    w1_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        xs = np.sort(rng.uniform(0, 10, size=n))
        if np.min(np.diff(xs)) < 1e-9:
            continue
        rep = w1_bound_from_h(tuple(xs), _simplex(rng, n), _simplex(rng, n), x0=float(xs[0]))
        w1_ok &= rep.holds
    _verdict(9, "KL <= H, f-divergence envelopes, W1 bound vs exact oracle", worst >= -1e-10 and w1_ok)


def test_criterion_10_tiling():
    center = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
    r = 0.5
    balls = tile(center, r, 2)
    ok = len(balls) == 19
    vert_sets = [
        {tuple(round(c, 9) for c in v.coords) for v in b.theta_vertices} for b in balls
    ]
    centers = [theta_chart(b.center, 0).coords for b in balls]
    for i in range(19):
        for j in range(i + 1, 19):
            ci, cj = centers[i], centers[j]
            gap = math.hypot(ci[0] - cj[0], ci[1] - cj[1])
            shared = len(vert_sets[i] & vert_sets[j])
            if gap <= math.hypot(2 * r, r) + 1e-9:  # lattice nearest neighbours
                ok &= shared == 2
            else:
                ok &= shared <= 1
    rng = _rng()
    for _ in range(2000):
        th = ThetaVector(0, tuple(rng.uniform(-2.0 * r, 2.0 * r, size=2)))
        p = theta_inverse(th)
        strict = sum(1 for b in balls if hilbert_via_theta(p, b.center) < r - 1e-9)
        on_boundary = any(
            abs(hilbert_via_theta(p, b.center) - r) <= 1e-9 for b in balls
        )
        if not on_boundary:
            ok &= strict == 1
    _verdict(10, "19-ball tiling, 2-vertex adjacency, unique tile membership", ok)


def test_criterion_11_cli_determinism(tmp_path):
    cases = []
    m = tmp_path / "m.json"
    m.write_text("[[2, 1], [1, 2]]", encoding="utf-8")
    a = tmp_path / "a.json"
    a.write_text("[1, 1]", encoding="utf-8")
    b = tmp_path / "b.json"
    b.write_text("[9, 1]", encoding="utf-8")
    p = tmp_path / "p.json"
    p.write_text("[[0.75, 0.25], [0.25, 0.75]]", encoding="utf-8")
    mu0 = tmp_path / "mu0.json"
    mu0.write_text("[0.9, 0.1]", encoding="utf-8")
    c3 = tmp_path / "c3.json"
    c3.write_text("[1, 1, 1]", encoding="utf-8")
    svg = tmp_path / "tile.svg"
    cases = [
        (["tau", str(m)], "tau_2x2.json"),
        (["dist", str(a), str(b)], "dist_19.json"),
        (["bounds", str(a), str(b)], "bounds_19.json"),
        (["markov", str(p), str(mu0), "5"], "markov_5.csv"),
        (["ball", str(c3), "0.5"], "ball_u3.json"),
        (["tile", str(c3), "0.5", "1", "--svg", str(svg)], "tile_1.json"),
    ]
    ok = True
    for argv, golden in cases:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            ok &= run_command(argv, out=buf) == 0
            outs.append(buf.getvalue())
        ok &= outs[0] == outs[1] == (GOLDEN / golden).read_text(encoding="utf-8")
    ok &= svg.read_text(encoding="utf-8") == (GOLDEN / "tile_1.svg").read_text(encoding="utf-8")
    for _ in range(2):
        buf = io.StringIO()
        ok &= run_command(["verify", str(m), "--trials", "300", "--seed", "0"], out=buf) == 0
        outs.append(buf.getvalue())
    ok &= outs[-1] == outs[-2]
    _verdict(11, "CLI golden files and byte-identical reruns", ok)
