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
A well-formed command line is read straight from the command table.  Help, an
unknown command, a leftover or odd token and a bad value go to the argparse
parser built from the same table, which writes every help and error message.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    # A byte that is not UTF-8 fails as a non-number, or is ignored in a comment.  One unbuffered
    # binary read is cheaper than a text-mode one; the newlines are then translated as text
    # mode's universal newlines would, \r\n and a bare \r to \n.
    with open(path, "rb", buffering=0) as fh:
        text = fh.readall().decode("utf-8", "replace")
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


def _emit_json(obj: dict, out) -> None:
    """Write a non-empty flat dict with str keys as ``json.dump(obj, out, indent=2)`` does, with
    inf as the string "inf" (see README)."""
    out.write("{\n" + ",\n".join([f"  {encode_basestring_ascii(k)}: {_scalar(v)}"
                                   for k, v in obj.items()]) + "\n}\n")


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


@functools.cache  # the same block for every ball of one dimension
def _halfspaces_text(halfspaces: tuple, pad: str) -> str:
    return _rows_text(halfspaces, "%d", pad)


class _Reprs(dict):
    """float -> its repr, computed on first lookup.  Keyed by value, it would merge 0.0 and -0.0,
    but no chart coordinate is -0.0: a log-ratio ``x - x`` and a moved one ``b + -b`` round to
    +0.0."""

    def __missing__(self, x: float) -> str:
        s = self[x] = float.__repr__(x)
        return s


def _write_ball(ball: spx.BallPolytope, out, pad: str = "") -> None:
    """Write ``ball`` as ``json.dump(..., indent=2)`` does, indented by ``pad`` (see README)."""
    r, p = float.__repr__, pad + "  "
    # Each chart vertex moves every center coordinate by 0 or +-R: 3n distinct values on S^n.
    coord = _Reprs().__getitem__  # one memo per ball
    out.write(f'{pad}{{\n{p}"center": [\n{p}  ' + f",\n{p}  ".join(map(r, ball.center.weights))
              + f'\n{p}],\n{p}"radius": {r(ball.radius)},\n{p}"theta_vertices": '
              + _rows_text([tuple(map(coord, v.coords)) for v in ball.theta_vertices], "%s", p)
              + f',\n{p}"simplex_vertices": '
              + _rows_text([v.weights for v in ball.simplex_vertices], "%r", p)
              + f',\n{p}"halfspaces": ' + _halfspaces_text(ball.halfspaces, p) + f"\n{pad}}}")


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


# One BoundReport, as an element of a json.dump(..., indent=2) array: its fields in order.
_REPORT = ('  {\n    "lhs_name": %s,\n    "rhs_name": %s,\n    "lhs_value": %s,\n'
           '    "rhs_value": %s,\n    "slack": %s,\n    "holds": %s,\n    "applicable": %s\n  }')
_BOOLS = ("false", "true")


def _cmd_bounds(args, out) -> int:
    a, b = _load(args.a, "vector"), _load(args.b, "vector")
    mu, nu = _measure(a, "a"), _measure(b, "b")
    s, e = _scalar, encode_basestring_ascii
    out.write("[\n" + ",\n".join([
        _REPORT % (e(r.lhs_name), e(r.rhs_name), s(r.lhs_value), s(r.rhs_value), s(r.slack),
                   _BOOLS[r.holds], _BOOLS[r.applicable])
        for r in bnd.bound_reports(mu, nu)]) + "\n]\n")
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


# The command table, which _build_parser and _args both read: each subcommand's help, handler,
# positionals as (name, type) and options as {flag: (type, default, required, help)}.
_COMMANDS = {
    "dist": ("distances between two nonnegative vectors", _cmd_dist, (("a", str), ("b", str)), {}),
    "tau": ("Birkhoff coefficient of a nonnegative matrix", _cmd_tau, (("matrix", str),), {}),
    "tau-kernel": ("Birkhoff coefficient of a grid kernel", _cmd_tau_kernel, (("grid", str),), {}),
    "ball": ("Hilbert ball polytope around a simplex point", _cmd_ball,
             (("center", str), ("radius", float)), {}),
    "tile": ("tile S^2 with hexagonal Hilbert balls", _cmd_tile,
             (("center", str), ("radius", float), ("shells", int)),
             {"--svg": (str, None, True, "output path for the SVG rendering")}),
    "markov": ("certified Markov-chain convergence table", _cmd_markov,
               (("matrix", str), ("mu0", str), ("steps", int)), {}),
    "bounds": ("all inter-metric bound reports for a pair", _cmd_bounds,
               (("a", str), ("b", str)), {}),
    "verify": ("randomized contraction check for a matrix", _cmd_verify, (("matrix", str),),
               {"--trials": (int, 1000, False, None), "--seed": (int, None, False, None)}),
}


@functools.cache  # built once per process, and only for a command line that _args leaves to it
def _build_parser():
    """The full parser, built from the command table."""
    import argparse

    class One(argparse.Action):  # Python 3.11 drops every '--': a positional after a second gets []
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:  # refused through the parser's error(): usage line, exit 2
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="hilbertcone",
        description="Hilbert projective metric, Birkhoff coefficients, and simplex geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, type_ in positionals:
            p.add_argument(dest, type=type_, action=One)
        for flag, (type_, default, required, text) in options.items():
            p.add_argument(flag, type=type_, default=default, required=required, help=text)
        p.set_defaults(func=func)
    return parser


def _args(argv: list[str], env_seed: int) -> SimpleNamespace | None:
    """The namespace the full parser gives a well-formed ``argv``, read from the command table;
    None for anything else, such as an option that is not an exact flag followed by a value not
    starting with '-': the full parser then reads it, and writes any help or error message."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, func, positionals, options = spec
    values = {flag[2:]: default for flag, (_, default, _, _) in options.items()}
    given, seen, tokens = [], set(), iter(argv[1:])
    try:
        for tok in tokens:
            if tok[:1] != "-":
                given.append(tok)
            elif tok in options and (value := next(tokens, "-"))[:1] != "-":
                values[tok[2:]] = options[tok][0](value)
                seen.add(tok)
            else:
                return None
        if len(given) != len(positionals) or any(
                required and flag not in seen for flag, (_, _, required, _) in options.items()):
            return None
        values.update((dest, type_(tok)) for (dest, type_), tok in zip(positionals, given))
    except ValueError:
        return None
    return SimpleNamespace(env_seed=env_seed, command=argv[0], func=func, **values)


def run_command(argv: list[str], out=None) -> int:
    """Run one CLI invocation; returns the exit code (0 ok, 1 domain error, 2 usage)."""
    out = out if out is not None else sys.stdout
    env_seed = os.environ.get("HILBERT_CONE_SEED", "0")
    try:
        default_seed = int(env_seed)
    except ValueError:
        print(f"error: HILBERT_CONE_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
        return 2
    args = _args(argv, default_seed)
    if args is None:
        try:  # env_seed is no parser option, so the subcommand's defaults leave it in place
            args = _build_parser().parse_args(argv, SimpleNamespace(env_seed=default_seed))
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
