"""Command-line frontend: distances, contraction coefficients, balls, tilings.

Inputs are flat files, JSON (array or array-of-arrays, object for kernel
grids) or CSV with '#'-prefixed header lines.  The CLI checks that a document
is a non-empty array of arrays of numbers (float() would take a bool or a
numeric string), its kernel grids (in the library's message form) and that no
weight is lost at unit mass; the library type built from it names a ragged row
and checks the values.  All floating-point output is serialized with ``repr``
(shortest round-trip), infinite distances as the JSON string "inf", so reruns
with identical arguments and seed are byte-identical (``verify``: at a fixed
BLAS thread count).  The seed, an integer >= 0, defaults to 0 and can be
overridden by the ``HILBERT_CONE_SEED`` environment variable or ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import reprlib
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import bounds as bnd
from . import contraction as ctr
from . import simplex as spx
from .core import PositiveVector, SimplexPoint, _check_points, _t, hilbert_distance, normalize
from .errors import DomainError, HilbertConeError, ValidationError

__all__ = ["parse_input", "run_command", "main"]

KINDS = ("vector", "matrix", "kernel_grid")
# Integers too large for a float become inf, which the library rejects.  Built once: json.loads
# with a keyword builds a decoder per call.
_DECODER = json.JSONDecoder(parse_int=float)


def _number_rows(rows) -> list[list[float]]:
    """``rows``, checked to be a non-empty array of arrays (maybe ragged) of JSON or CSV numbers."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError("expected a non-empty array of arrays of numbers")
    if set(map(type, chain.from_iterable(rows))) <= {float}:  # one test for the whole document
        return rows
    for i, row in enumerate(rows):  # only to name the entry
        for j, v in enumerate(row):
            if not isinstance(v, float):  # numpy would coerce a bool or a numeric string
                # reprlib bounds the echo of a long string or a deeply nested array
                raise ValidationError(f"entry at ({i}, {j}) is not a number: {reprlib.repr(v)}")
    return rows


def _parse_csv(text: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append(list(map(float, stripped.split(","))))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ValidationError("no data rows found")
    return rows


def parse_input(text: str, kind: str) -> PositiveVector | ctr.NonnegMatrix | ctr.GridKernel:
    """Parse a JSON or CSV document into the library object of ``kind``, which checks values."""
    if kind not in KINDS:
        raise ValidationError(f"unknown input kind {kind!r}")
    stripped = text.lstrip()
    if stripped.startswith(("[", "{")):
        try:
            data = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValidationError("JSON document is nested too deeply") from None
    else:
        data = _parse_csv(text)

    if kind == "matrix":
        return ctr.NonnegMatrix(_number_rows(data))
    if kind == "vector":
        if isinstance(data, list) and data and isinstance(data[0], list):
            if len(data) != 1:
                raise ValidationError("expected a single row for a vector input")
            data = data[0]
        return PositiveVector(_number_rows([data])[0])
    if not isinstance(data, dict):  # a bare matrix of log values
        return ctr.GridKernel(_number_rows(data))
    try:
        lv, ag, xg = data["log_values"], data["a_grid"], data["x_grid"]
    except KeyError as exc:
        raise ValidationError(f"kernel grid document is missing key {exc}") from exc
    lv, ag, xg = _number_rows(lv), _number_rows([ag])[0], _number_rows([xg])[0]
    K = ctr.GridKernel(lv)
    for name, grid, size in zip(("a_grid", "x_grid"), (ag, xg), K.log_values.shape):
        _check_points(grid, size, f"{name} point", "a log_values axis")  # K holds no grid
    return K


def _load(path: str, kind: str) -> PositiveVector | ctr.NonnegMatrix | ctr.GridKernel:
    # A byte that is not UTF-8 fails as a non-number, or is ignored in a comment.  One binary
    # read is cheaper than a text-mode one; the newlines are then translated as text mode's
    # universal newlines would, \r\n and a bare \r to \n.
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_input(text, kind)


def _measure(x: PositiveVector, arg: str) -> SimplexPoint:
    """The unit mass of ``x``, refused where it zeroes a positive weight (no rescale helps)."""
    mu = normalize(x)
    if not all(mu.weights) and mu.weights.count(0.0) > x.weights.count(0.0):
        i = next(i for i, (w, m) in enumerate(zip(x.weights, mu.weights)) if w > m == 0.0)
        raise DomainError(f"argument {arg}: weight at index {i} underflows to 0 at unit mass")
    return mu


def _scalar(v) -> str:
    """``json.dumps(v)`` for a str, bool, None, int or float, except inf: the string "inf"."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return '"inf"' if v > 0 else "-Infinity" if v < 0 else "NaN"
    # bool is a subclass of int, so True and False are spelled before int.__repr__ is reached
    return ("null" if v is None else "true" if v is True else "false" if v is False
            else int.__repr__(v))


def _dict_text(d: dict, pad: str) -> str:
    """``json.dumps(d, indent=2)`` for a non-empty flat dict with str keys, indented by ``pad``."""
    p = pad + "  "
    return (f"{pad}{{\n" + ",\n".join([f"{p}{encode_basestring_ascii(k)}: {_scalar(v)}"
                                        for k, v in d.items()]) + f"\n{pad}}}")


def _emit_json(obj, out) -> None:
    """Write a non-empty flat dict, or a non-empty list of them, as ``json.dump(obj, out,
    indent=2)`` does, with inf as the string "inf" (see README)."""
    if isinstance(obj, list):
        out.write("[\n" + ",\n".join([_dict_text(d, "  ") for d in obj]) + "\n]\n")
    else:
        out.write(_dict_text(obj, "") + "\n")


def _cmd_dist(args, out) -> int:
    a, b = _load(args.a, "vector"), _load(args.b, "vector")
    mu, nu = _measure(a, "a"), _measure(b, "b")
    h = hilbert_distance(a, b)
    _emit_json(
        {
            "hilbert": h,
            "t": _t(h),
            "tv": bnd.tv_distance(mu, nu),
            "kl": bnd.kl_divergence(mu, nu),
            "comparable": h < math.inf,  # H is finite exactly when the supports agree
        },
        out,
    )
    return 0


def _cmd_tau(args, out) -> int:
    A = _load(args.matrix, "matrix")
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
    K = _load(args.grid, "kernel_grid")
    _emit_json({"phi": ctr.birkhoff_phi(K), "tau": ctr.birkhoff_tau(K)}, out)
    return 0


@functools.cache  # one template per row shape; a whole ball's would hold ~6 MB at S^13
def _row(width: int, pad: str, fmt: str) -> str:
    """The ``%`` template of one row of ``width`` numbers in an array indented by ``pad``."""
    return f"{pad}  [\n{pad}    " + f",\n{pad}    ".join([fmt] * width) + f"\n{pad}  ]"


def _rows_text(rows, fmt: str, pad: str) -> str:
    """``json.dumps(rows, indent=2)`` for a non-empty list of equal-length number tuples."""
    row = _row(len(rows[0]), pad, fmt)
    return "[\n" + ",\n".join([row % r for r in rows]) + f"\n{pad}]"


def _write_ball(ball: spx.BallPolytope, out, pad: str = "") -> None:
    """Write ``ball`` as ``json.dump(..., indent=2)`` does, indented by ``pad`` (see README)."""
    r, p = float.__repr__, pad + "  "
    out.write(f'{pad}{{\n{p}"center": [\n{p}  ' + f",\n{p}  ".join(map(r, ball.center.weights))
              + f'\n{p}],\n{p}"radius": {r(ball.radius)},\n{p}"theta_vertices": '
              + _rows_text([v.coords for v in ball.theta_vertices], "%r", p)
              + f',\n{p}"simplex_vertices": '
              + _rows_text([v.weights for v in ball.simplex_vertices], "%r", p)
              + f',\n{p}"halfspaces": ' + _rows_text(ball.halfspaces, "%d", p) + f"\n{pad}}}")


def _cmd_ball(args, out) -> int:
    center = _measure(_load(args.center, "vector"), "center")
    _write_ball(spx.ball_vertices(center, args.radius), out)
    out.write("\n")
    return 0


def _cmd_tile(args, out) -> int:
    center = _measure(_load(args.center, "vector"), "center")
    balls = spx.tile(center, args.radius, args.shells)
    with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spx.render_svg(balls, spx.View.SIMPLEX_2D))
    sep = "[\n"
    for b in balls:  # one ball at a time, so a large tiling streams
        out.write(sep)
        _write_ball(b, out, "  ")
        sep = ",\n"
    out.write("\n]\n")
    return 0


def _cmd_markov(args, out) -> int:
    P = _load(args.matrix, "matrix")
    mu0 = _measure(_load(args.mu0, "vector"), "mu0")
    run = ctr.markov_converge(P, mu0, args.steps)
    out.write("step,hilbert,t,tv,certified_bound\n")
    for row in run.steps:
        out.write(f"{row.step},{row.hilbert!r},{row.t!r},{row.tv!r},{row.certified_bound!r}\n")
    return 0


def _cmd_bounds(args, out) -> int:
    a, b = _load(args.a, "vector"), _load(args.b, "vector")
    mu, nu = _measure(a, "a"), _measure(b, "b")
    _emit_json([vars(r) for r in bnd.bound_reports(mu, nu)], out)
    return 0


def _cmd_verify(args, out) -> int:
    A = _load(args.matrix, "matrix")
    seed = args.env_seed if args.seed is None else args.seed
    report = ctr.verify_contraction(A, args.trials, seed)
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


@functools.cache  # built once per process: the environment is read per call, not here
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each subcommand's own parser by name."""
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def run_command(argv: list[str], out=None) -> int:
    """Run one CLI invocation; returns the exit code (0 ok, 1 domain error, 2 usage)."""
    out = out if out is not None else sys.stdout
    env_seed = os.environ.get("HILBERT_CONE_SEED", "0")
    try:
        default_seed = int(env_seed)
    except ValueError:
        print(f"error: HILBERT_CONE_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
        return 2
    parser, commands = _build_parser()
    # env_seed is no parser option, so the subcommand's defaults leave it in place.
    args = argparse.Namespace(env_seed=default_seed)
    try:
        # The full parser hands a subcommand the rest of argv; parsing it directly costs about
        # half as much.  Help, an unknown or missing command and a leftover argument go to the full
        # parser, which writes every message: a leftover is its error, with its usage line.
        sub = commands.get(argv[0]) if argv else None
        if sub is None or sub.parse_known_args(argv[1:], args)[1]:
            args = parser.parse_args(argv, argparse.Namespace(env_seed=default_seed))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (HilbertConeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a failed allocation; the interpreter's own has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
