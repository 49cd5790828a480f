"""Independent numpy oracle for every CLI subcommand the benchmark runs.

Nothing here imports ``hilbertcone``.  Inputs are re-read from the files the
program received; every quantity is recomputed from its definition:

- H(x, y) = ptp(log y - log x) on the common support, "inf" otherwise;
- log phi(A) = min over quadruples of L[i,k] + L[j,l] - L[j,k] - L[i,l]
  (exhaustive for n <= 8), or equivalently -max over row pairs of
  H(row_i, row_j) (independent pairwise form for larger n), with phi = 0 as
  soon as A has a zero entry;
- the stationary law of a Markov chain from a direct linear solve.

:func:`check_op` returns None for a correct result, else the reason it is not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def _close(got, want, what: str, rtol: float = RTOL, atol: float = ATOL) -> None:
    if want == "inf" or got == "inf":
        if got != want:
            raise Mismatch(f"{what}: got {got!r}, want {want!r}")
        return
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{what}: not a number: {got!r}")
    if not abs(got - want) <= atol + rtol * abs(want):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def load_array(path: Path) -> np.ndarray:
    """A JSON array (of arrays) or a CSV file with '#' comment lines, as floats."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith(("[", "{")):
        data = json.loads(text)
        if isinstance(data, dict):
            data = data["log_values"]
        return np.array(data, dtype=float)
    rows = [[float(c) for c in line.split(",")] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return np.array(rows[0] if len(rows) == 1 else rows, dtype=float)


def hilbert(x: np.ndarray, y: np.ndarray):
    """H(x, y) by definition, or "inf" for different supports."""
    sx, sy = x > 0, y > 0
    if not np.array_equal(sx, sy):
        return "inf"
    d = np.log(y[sx]) - np.log(x[sx])
    return float(d.max() - d.min())


def log_phi(L: np.ndarray) -> float:
    """log of the minimal cross-ratio of exp(L) over rows i, j and columns k, l."""
    m, p = L.shape
    if max(m, p) <= 8:
        q = L[:, None, :, None] + L[None, :, None, :] - L[None, :, :, None] - L[:, None, None, :]
        return float(q.min())
    worst = 0.0
    for i in range(m):  # one row against all others keeps memory at O(m * p)
        d = L[i][None, :] - L
        worst = max(worst, float((d.max(axis=1) - d.min(axis=1)).max()))
    return -worst


def _phi_of_matrix(a: np.ndarray) -> float | None:
    return None if (a == 0).any() else log_phi(np.log(a))


def _tau(lp: float | None) -> float:
    if lp is None:
        return 1.0
    s = math.exp(lp / 2.0)
    return (1.0 - s) / (1.0 + s)


def _check_phi_tau(doc: dict, lp: float | None, with_diameter: bool) -> None:
    phi, tau = doc["phi"], doc["tau"]
    _close(phi, 0.0 if lp is None else math.exp(lp), "phi")
    _close(tau, _tau(lp), "tau")
    # The three printed numbers must agree with each other, not only with the oracle.
    _expect(0.0 <= phi <= 1.0, f"phi {phi!r} outside [0, 1]")
    _close(tau, (1.0 - math.sqrt(phi)) / (1.0 + math.sqrt(phi)), "tau from phi", 0.0, 1e-12)
    if with_diameter:
        want = "inf" if lp is None else -lp
        _close(doc["diameter"], want, "diameter")
        if phi > 0.0:
            _close(doc["diameter"], -math.log(phi), "diameter from phi")


def _check_dist(op, out, wd) -> None:
    a, b = load_array(wd / op["check"]["a"]), load_array(wd / op["check"]["b"])
    doc = json.loads(out)
    _expect(list(doc) == ["hilbert", "t", "tv", "kl", "comparable"], f"keys {list(doc)}")
    h = hilbert(a, b)
    _close(doc["hilbert"], h, "hilbert")
    _close(doc["t"], 1.0 if h == "inf" else math.tanh(h / 4.0), "t")
    mu, nu = a / a.sum(), b / b.sum()
    _close(doc["tv"], float(np.abs(mu - nu).sum()), "tv")
    if ((mu > 0) & (nu == 0)).any():
        kl = "inf"
    else:
        s = mu > 0
        kl = max(float((mu[s] * (np.log(mu[s]) - np.log(nu[s]))).sum()), 0.0)
    _close(doc["kl"], kl, "kl")
    _expect(doc["comparable"] is bool(np.array_equal(a > 0, b > 0)), "comparable")


def _check_bounds(op, out, wd) -> None:
    a, b = load_array(wd / op["check"]["a"]), load_array(wd / op["check"]["b"])
    reports = json.loads(out)
    _expect(len(reports) == 8, f"{len(reports)} bound reports, want 8")
    for r in reports:
        _expect(r["holds"] is True, f"bound {r['lhs_name']} <= {r['rhs_name']} does not hold")
    mu, nu = a / a.sum(), b / b.sum()
    h = hilbert(mu, nu)
    _close(reports[0]["lhs_value"], float(np.abs(mu - nu).sum()), "tv")
    _close(reports[0]["rhs_value"], 2.0 if h == "inf" else 2.0 * math.tanh(h / 4.0), "2tanh(H/4)")
    _expect(reports[-1]["lhs_name"] == "KL" and reports[-1]["rhs_name"] == "H", "KL-vs-H report")
    _close(reports[-1]["rhs_value"], h, "H")


def _check_tau(op, out, wd) -> None:
    a = load_array(wd / op["check"]["matrix"])
    _check_phi_tau(json.loads(out), _phi_of_matrix(a), with_diameter=True)


def _check_tau_kernel(op, out, wd) -> None:
    doc = json.loads(out)
    _expect(list(doc) == ["phi", "tau"], f"keys {list(doc)}")
    _check_phi_tau(doc, log_phi(load_array(wd / op["check"]["grid"])), with_diameter=False)


def _check_verify(op, out, wd) -> None:
    doc = json.loads(out)
    trials = int(op["argv"][op["argv"].index("--trials") + 1])
    _expect(doc["passed"] is True, "verification did not pass")
    _expect(doc["trials"] == trials, f"trials {doc['trials']!r}, want {trials}")
    _expect(doc["max_violation"] <= 1e-10, f"max_violation {doc['max_violation']!r}")
    _check_phi_tau(doc, _phi_of_matrix(load_array(wd / op["check"]["matrix"])), True)


def stationary(P: np.ndarray) -> np.ndarray:
    """The stationary law pi = pi P of an irreducible chain, by a direct solve."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


def _check_markov(op, out, wd) -> None:
    P = load_array(wd / op["check"]["matrix"])
    mu = load_array(wd / op["check"]["mu0"])
    steps = op["check"]["steps"]
    lines = out.splitlines()
    _expect(lines[0] == "step,hilbert,t,tv,certified_bound", f"header {lines[0]!r}")
    _expect(len(lines) == steps + 2, f"{len(lines) - 1} rows, want {steps + 1}")
    pi = stationary(P)
    tau = _tau(_phi_of_matrix(P))
    mu = mu / mu.sum()
    for k, line in enumerate(lines[1:]):
        step, h, t, tv, bound = line.split(",")
        h, t, tv, bound = float(h), float(t), float(tv), float(bound)
        _expect(int(step) == k, f"row {k} has step {step}")
        _expect(h <= bound + 1e-9, f"step {k}: H {h!r} above its bound {bound!r}")
        # pi comes from power iteration in the program and a solve here.
        _close(h, hilbert(pi, mu), f"step {k} hilbert", 1e-7, 1e-9)
        _close(t, math.tanh(h / 4.0), f"step {k} t")
        _close(tv, float(np.abs(mu - pi).sum()), f"step {k} tv", 1e-7, 1e-9)
        if k == 0:
            h0 = bound
            _close(h0, h, "bound at step 0")
        elif math.isfinite(bound):
            _close(bound, tau**k * h0, f"step {k} bound")
        mu = mu @ P
        mu = mu / mu.sum()


def _check_balls(balls: list[dict], radius: float) -> None:
    """Every ball of a JSON list: vertex counts, and each vertex on its sphere."""
    dim = len(balls[0]["center"]) - 1
    count = 2 * (2**dim - 1)
    for ball in balls:
        _close(ball["radius"], radius, "radius")
        _expect(len(ball["halfspaces"]) == dim * (dim + 1), "halfspace count")
    c = np.array([ball["center"] for ball in balls], dtype=float)
    theta = np.array([ball["theta_vertices"] for ball in balls], dtype=float)
    verts = np.array([ball["simplex_vertices"] for ball in balls], dtype=float)
    _expect(theta.shape == (len(balls), count, dim), f"theta_vertices shape {theta.shape}")
    _expect(verts.shape == (len(balls), count, dim + 1), f"simplex_vertices shape {verts.shape}")
    _expect(bool((verts > 0).all()), "vertex outside the simplex interior")
    _expect(bool(np.abs(verts.sum(axis=2) - 1.0).max() <= 1e-12), "vertex weights do not sum to 1")
    d = np.log(verts) - np.log(c)[:, None, :]
    err = np.abs(d.max(axis=2) - d.min(axis=2) - radius).max()
    _expect(err <= 1e-9, f"a vertex is {err:.3g} off the sphere of radius {radius}")
    chart = np.log(verts[..., 1:]) - np.log(verts[..., :1])
    _expect(bool(np.abs(chart - theta).max() <= 1e-9), "theta vertex does not chart its simplex vertex")


def _center(op, wd) -> np.ndarray:
    c = load_array(wd / op["check"]["center"])
    return c / c.sum()


def _check_ball(op, out, wd) -> None:
    ball = json.loads(out)
    _expect(np.allclose(ball["center"], _center(op, wd), rtol=1e-12, atol=1e-15), "center")
    _check_balls([ball], op["check"]["radius"])


def _check_tile(op, out, wd) -> None:
    balls = json.loads(out)
    s = op["check"]["shells"]
    _expect(len(balls) == 3 * s * (s + 1) + 1, f"{len(balls)} balls, want {3 * s * (s + 1) + 1}")
    _check_balls(balls, op["check"]["radius"])
    _expect(any(np.allclose(b["center"], _center(op, wd), rtol=1e-9) for b in balls),
            "no ball is centred on the requested point")
    svg = (wd / op["check"]["svg"]).read_text(encoding="utf-8")
    _expect(svg.startswith("<?xml") and svg.rstrip().endswith("</svg>"), "SVG is not a document")
    _expect(svg.count("<path") == len(balls) + 1, "SVG path count is not one per ball plus the frame")


_CHECKS = {
    "dist": _check_dist,
    "bounds": _check_bounds,
    "tau": _check_tau,
    "tau-kernel": _check_tau_kernel,
    "verify": _check_verify,
    "markov": _check_markov,
    "ball": _check_ball,
    "tile": _check_tile,
}


def check_op(op: dict, code, stdout: str, stderr: str, workdir: Path, golden_dir: Path):
    """None when the op's exit code, stderr and stdout are right, else a reason."""
    if code != op["expect"]:
        return f"exit code {code!r}, want {op['expect']}"
    if op["expect"] != 0:
        lines = stderr.splitlines()
        if stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"want one 'error:' line and no stdout, got stderr {stderr!r}"
        return None
    if stderr:
        return f"unexpected stderr {stderr!r}"
    wd = Path(workdir)
    for key, name in op["check"].get("golden", {}).items():
        got = stdout if key == "stdout" else (wd / op["check"][key]).read_text(encoding="utf-8")
        if got != (Path(golden_dir) / name).read_text(encoding="utf-8"):
            return f"{key} differs from golden {name}"
    try:
        _CHECKS[op["cmd"]](op, stdout, wd)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
