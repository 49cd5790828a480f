"""Command-line frontend: distances, contraction coefficients, balls, tilings.

Inputs are flat files, JSON (array or array-of-arrays, object for kernel
grids) or CSV with '#'-prefixed header lines.  All floating-point output is
serialized with ``repr`` (shortest round-trip), infinite distances as the
JSON string "inf", so reruns with identical arguments and seed are
byte-identical.  The default seed is 0 and can be overridden by the
``HILBERT_CONE_SEED`` environment variable or ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import contraction as ctr
from . import simplex as spx
from .core import (
    ExtendedDistance,
    PositiveVector,
    comparable,
    hilbert_distance,
    normalize,
    t_distance,
)
from .errors import HilbertConeError, ValidationError

__all__ = ["InputDocument", "parse_input", "run_command", "main"]

KINDS = ("vector", "matrix", "kernel_grid")


@dataclass(frozen=True)
class InputDocument:
    kind: str
    payload: object


def _check_finite_numbers(rows: list[list[float]], *, allow_negative: bool) -> None:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError("expected a non-empty array of arrays of numbers")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"ragged array: row {i} has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(f"entry at ({i}, {j}) is not a finite number: {v!r}")
            if not allow_negative and v < 0:
                idx = f"index {j}" if len(rows) == 1 else f"({i}, {j})"
                raise ValidationError(f"negative entry at {idx}: {v!r}")


def _parse_csv(text: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(cell) for cell in stripped.split(",")])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ValidationError("no data rows found")
    return rows


def parse_input(text: str, kind: str) -> InputDocument:
    """Parse a JSON or CSV document into a validated numeric payload."""
    if kind not in KINDS:
        raise ValidationError(f"unknown input kind {kind!r}")
    stripped = text.lstrip()
    if stripped.startswith(("[", "{")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        data = _parse_csv(text)

    if kind == "kernel_grid":
        if isinstance(data, dict):
            try:
                lv, ag, xg = data["log_values"], data["a_grid"], data["x_grid"]
            except KeyError as exc:
                raise ValidationError(f"kernel grid document is missing key {exc}") from exc
            _check_finite_numbers([ag], allow_negative=True)
            _check_finite_numbers([xg], allow_negative=True)
        else:
            lv = data
        _check_finite_numbers(lv, allow_negative=True)
        if not isinstance(data, dict):
            # Implicit uniform unit grids; a one-point axis gets [0.0], which GridKernel rejects.
            ag = [i / max(len(lv) - 1, 1) for i in range(len(lv))]
            xg = [j / max(len(lv[0]) - 1, 1) for j in range(len(lv[0]))]
        return InputDocument(kind, {"log_values": lv, "a_grid": ag, "x_grid": xg})

    rows = data
    if kind == "vector":
        if isinstance(data, list) and data and isinstance(data[0], list):
            if len(data) != 1:
                raise ValidationError("expected a single row for a vector input")
            data = data[0]
        rows = [data]
    _check_finite_numbers(rows, allow_negative=False)
    payload = rows[0] if kind == "vector" else rows
    return InputDocument(kind, payload)


def _load(path: str, kind: str) -> InputDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_input(fh.read(), kind)


def _jsonable(obj):
    if isinstance(obj, ExtendedDistance):
        return "inf" if obj.infinite else obj.value
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit_json(obj, out) -> None:
    json.dump(_jsonable(obj), out, indent=2)
    out.write("\n")


def _vector(path: str) -> PositiveVector:
    return PositiveVector(tuple(_load(path, "vector").payload))


def _report_dict(r: bnd.BoundReport) -> dict:
    return {
        "lhs_name": r.lhs_name,
        "rhs_name": r.rhs_name,
        "lhs_value": r.lhs_value,
        "rhs_value": r.rhs_value,
        "slack": r.slack,
        "holds": r.holds,
        "applicable": r.applicable,
    }


def _cmd_dist(args, out) -> int:
    a, b = _vector(args.a), _vector(args.b)
    mu, nu = normalize(a), normalize(b)
    _emit_json(
        {
            "hilbert": hilbert_distance(a, b),
            "t": t_distance(a, b),
            "tv": bnd.tv_distance(mu, nu),
            "kl": bnd.kl_divergence(mu, nu),
            "comparable": comparable(a, b),
        },
        out,
    )
    return 0


def _cmd_tau(args, out) -> int:
    A = ctr.NonnegMatrix(np.asarray(_load(args.matrix, "matrix").payload))
    _emit_json(
        {
            "phi": ctr.birkhoff_phi(A),
            "tau": ctr.birkhoff_tau(A),
            "diameter": ctr.projective_diameter(A),
        },
        out,
    )
    return 0


def _cmd_tau_kernel(args, out) -> int:
    doc = _load(args.grid, "kernel_grid").payload
    K = ctr.GridKernel(
        np.asarray(doc["log_values"]), np.asarray(doc["a_grid"]), np.asarray(doc["x_grid"])
    )
    _emit_json({"phi": ctr.grid_kernel_phi(K), "tau": ctr.grid_kernel_tau(K)}, out)
    return 0


def _ball_dict(ball: spx.BallPolytope) -> dict:
    return {
        "center": list(ball.center.weights),
        "radius": ball.radius,
        "theta_vertices": [list(v.coords) for v in ball.theta_vertices],
        "simplex_vertices": [list(v.weights) for v in ball.simplex_vertices],
        "halfspaces": [list(h) for h in ball.halfspaces],
    }


def _cmd_ball(args, out) -> int:
    center = normalize(_vector(args.center))
    _emit_json(_ball_dict(spx.ball_vertices(center, args.radius)), out)
    return 0


def _cmd_tile(args, out) -> int:
    center = normalize(_vector(args.center))
    balls = spx.tile(center, args.radius, args.shells)
    with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spx.render_svg(balls, spx.View.SIMPLEX_2D))
    _emit_json([_ball_dict(b) for b in balls], out)
    return 0


def _cmd_markov(args, out) -> int:
    P = ctr.NonnegMatrix(np.asarray(_load(args.matrix, "matrix").payload))
    mu0 = normalize(_vector(args.mu0))
    run = ctr.markov_converge(P, mu0, args.steps)
    out.write("step,hilbert,t,tv,certified_bound\n")
    for row in run.steps:
        out.write(f"{row.step},{row.hilbert!r},{row.t!r},{row.tv!r},{row.certified_bound!r}\n")
    return 0


def _cmd_bounds(args, out) -> int:
    mu, nu = normalize(_vector(args.a)), normalize(_vector(args.b))
    xs = [float(i) for i in range(len(mu))]
    reports = [
        bnd.tv_from_t_bound(mu, nu),
        bnd.atar_zeitouni_bound(mu, nu),
        bnd.subset_sup_bound(mu, nu),
        bnd.t_upper_from_tv(mu, nu),
        bnd.w1_bound_from_h(xs, mu, nu, xs[0]),
        bnd.moment_gap_bound(xs, mu, nu, xs[0], 1),
        bnd.moment_gap_bound(xs, mu, nu, xs[0], 2),
        bnd.kl_from_h_bound(mu, nu),
    ]
    _emit_json([_report_dict(r) for r in reports], out)
    return 0


def _cmd_verify(args, out) -> int:
    A = ctr.NonnegMatrix(np.asarray(_load(args.matrix, "matrix").payload))
    report = ctr.verify_contraction(A, args.trials, args.seed)
    _emit_json(
        {
            "phi": report.phi,
            "tau": report.tau,
            "diameter": report.diameter,
            "trials": report.trials,
            "max_violation": report.max_violation,
            "passed": report.passed,
        },
        out,
    )
    return 0 if report.passed else 1


def _build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertcone",
        description="Hilbert projective metric, Birkhoff coefficients, and simplex geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distances between two nonnegative vectors")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("tau", help="Birkhoff coefficient of a nonnegative matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("tau-kernel", help="Birkhoff coefficient of a grid kernel")
    p.add_argument("grid")
    p.set_defaults(func=_cmd_tau_kernel)

    p = sub.add_parser("ball", help="Hilbert ball polytope around a simplex point")
    p.add_argument("center")
    p.add_argument("radius", type=float)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("tile", help="tile S^2 with hexagonal Hilbert balls")
    p.add_argument("center")
    p.add_argument("radius", type=float)
    p.add_argument("shells", type=int)
    p.add_argument("--svg", required=True, help="output path for the SVG rendering")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("markov", help="certified Markov-chain convergence table")
    p.add_argument("matrix")
    p.add_argument("mu0")
    p.add_argument("steps", type=int)
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("bounds", help="all inter-metric bound reports for a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="randomized contraction check for a matrix")
    p.add_argument("matrix")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_command(argv: list[str], out=None) -> int:
    """Run one CLI invocation; returns the exit code (0 ok, 1 domain error, 2 usage)."""
    out = out if out is not None else sys.stdout
    env_seed = os.environ.get("HILBERT_CONE_SEED", "0")
    try:
        default_seed = int(env_seed)
    except ValueError:
        print(f"error: HILBERT_CONE_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
        return 2
    parser = _build_parser(default_seed)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (HilbertConeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
