"""Run the same random hilbertcone CLI ops against two source trees and compare the outputs.

    python3 tools/cli_diff.py OLD/src NEW/src [SEED [OPS]]

Each tree runs every op in one subprocess.  Per subcommand, the script prints
how many ops gave the same exit code, stdout, stderr and SVG file on both
sides, and the same for the large ops alone ("tau n>=40" and so on).  Then,
for each subcommand with differing ops, it prints up to 3 of them: the argv
and which of exit code, stderr, stdout and SVG differed.  The input files are
deleted on a clean run.  If any op differed, the script keeps them, prints the
directory that holds them, and exits 1; a printed argv then re-runs from that
directory (``cd`` there, then ``hilbertcone`` and the argv).

Most ops draw n in 2..7.  About 5% of the matrix ops draw n in 40..160, where
the diameter pass runs in several blocks, and about 5% of the dist and bounds
ops draw n in 1,000..10,000.  The tau and verify matrices at even n among the
large ones are row-stochastic with full support, as most markov chains are, so
that the orientation a pass of several blocks runs on shows in their counts
too (they take the same draws as the others).  About 5% of the dist and bounds ops (both commands
draw alike) draw both vectors with full support and weights exp(uniform(-s, s)),
s = 350 or 700, instead of lognormal(0, 2) ones with 20% zeros.  At s = 350 the
unit mass keeps every weight above e^-700, and H, on the raw vectors (dist) and
on the unit masses (bounds), reaches its log-space branch.  Most s = 700 pairs
(32 of 41 at seeds 5 and 6) lose a weight to underflow at unit mass, and end at
the CLI's refusal of such a vector.  About 2% of the tau-kernel documents are a
checkerboard of +-8e307: every difference of two log values is finite, but the
diameter, 3.2e308, is past float range.  About 2% more are grid objects whose
a_grid steps from -1.7e308 to 1e308..1.7e308, a step past float range, and 2%
more are grid objects that the CLI refuses: one grid has a point too many, is
not increasing, or holds inf, -inf or nan, or one log value is inf.  About 2%
of the markov chains have a row of 1e308s, whose sum is past float range.
About 3% of all documents are malformed, one of ``MALFORMED``; among them is a
vector with a negative weight, and a matrix with a short row and, in a later
row, a string, which shows which of the two a change names first.
About 2% of the ball and tile centers have one weight from 5e-324, 1e-320 and
2e-310, at the bottom of float range, which can underflow to 0 at unit mass.
About 90% of the verify ops at n >= 40, and 10% of the others, draw --trials in
200..5,000 instead of 20, so that at n >= 40 the trials mostly run in several
blocks (12 and 7 ops of 4,000 at seeds 5 and 6).  About 1% of all ops are
usage errors, which exit 2: a leftover positional, an unknown option, a --trials
or --seed= that is not an integer, an --svg value that starts with '-', a --tri
with no value, or the subcommand alone with its positionals missing.  There is
no -h among them, because help goes to the process's real stdout.  About 10% of
the verify and tile ops are then spelled another way: options before the
positionals, with or without a -- separator between them, --flag=value, an
abbreviated flag, --seed given twice, or --seed -3 (tile has no --seed, so the
last two are usage errors there).  The CLI reads a well-formed command line
straight from its command table and leaves every other form to argparse, so
these shapes exercise both of its paths.
Warnings are shown each time they are raised, as they would be in a process of
their own.
"""

import collections
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNNER = r"""
import contextlib, hashlib, io, json, os, sys, warnings
from hilbertcone.cli import run_command
warnings.simplefilter("always")  # not once per source line: each op is a CLI process of its own
res = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run_command(argv, out)
        except Exception as exc:  # an escaping exception is an output too
            code = f"escaped {type(exc).__name__}: {exc}"
    svg = open("t.svg", "rb").read() if os.path.exists("t.svg") else b""
    res.append([code, err.getvalue(),
                *(hashlib.sha256(b).hexdigest() for b in (out.getvalue().encode(), svg))])
    if svg:
        os.remove("t.svg")
json.dump(res, sys.stdout)
"""
# ball and tile are drawn twice as often as the others; balls go up to S^8, tiles to 3 shells.
COMMANDS = "dist bounds tau tau-kernel verify markov ball ball tile tile".split()
RADII = "1e-300 1e-05 0.1 0.5 1 3 12345.678 720 730 800 1e308 inf nan 0 -1".split()
TINY = [5e-324, 1e-320, 2e-310]  # a center weight that can underflow at unit mass
MALFORMED = ["", '[1, "a"]', "[[1, 2], [3]]", '[[1, 2], [3], ["a", 4]]', "[]", "{}", "1,x",
             "[true, 1]", "nan", "[1, -1, 2]"]
PARTS = ("exit code", "stderr", "stdout", "SVG")  # the fields of one RUNNER result
SHOWN = 3  # differing ops printed per subcommand
USAGE_ERRORS = (lambda a: [*a, "extra"], lambda a: [*a, "--bogus"],
                lambda a: [*a, "--trials", "x"], lambda a: a[:1],
                lambda a: [*a, "--svg", "-t.svg"], lambda a: [*a, "--seed=x"],
                lambda a: [*a, "--tri"])
# Other spellings of a verify or tile command line [cmd, *positionals, flag, value].
RESHAPES = (lambda c, p, f, v: [c, f, v, *p],  # options before the positionals
            lambda c, p, f, v: [c, f, v, "--", *p],
            lambda c, p, f, v: [c, *p, f"{f}={v}"],
            lambda c, p, f, v: [c, *p, f[:-2], v],  # an abbreviation: --tria, --s
            lambda c, p, f, v: [c, "--seed", "4", *p, f, v, "--seed", "5"],  # the last one wins
            lambda c, p, f, v: [c, *p, "--seed", "-3", f, v])  # verify refuses a negative seed
LARGE = {"tau": (40, 160), "verify": (40, 160), "tau-kernel": (40, 160), "markov": (40, 160),
         "dist": (1000, 10000), "bounds": (1000, 10000)}


def make_ops(rng, count: int, work: Path) -> list[tuple[list[str], bool]]:
    """``count`` random argvs, each with a flag that says whether it drew a large n."""
    names = itertools.count()

    def doc(value) -> str:  # 3% of documents are malformed
        path = work / f"d{next(names)}.json"
        bad = rng.random() < 0.03
        path.write_text(MALFORMED[rng.integers(len(MALFORMED))] if bad else json.dumps(value))
        return str(path)

    def vec(n: int, zeros: float = 0.2) -> list[float]:
        return np.where(rng.random(n) < zeros, 0.0, rng.lognormal(0.0, 2.0, n)).tolist()

    def pair(n: int) -> list[str]:  # 5% on one full support, with max/min ratios past float range
        if rng.random() < 0.05:
            s = rng.choice([350.0, 700.0])
            return [doc(np.exp(rng.uniform(-s, s, n)).tolist()) for _ in range(2)]
        return [doc(vec(n)), doc(vec(n + (rng.random() < 0.1)))]

    def chain(n: int) -> list[list[float]]:  # 20% with zeros, off a positive diagonal and n-cycle
        p = rng.uniform(0.05, 1.0, (n, n))
        if rng.random() < 0.2:  # the kept entries make the chain irreducible and aperiodic
            keep = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
            p[(rng.random((n, n)) < 0.3) & ~keep] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        if rng.random() < 0.02:  # a row whose sum overflows
            p[rng.integers(n)] = 1e308
        return p.tolist()

    def kernel(n: int) -> list[list[float]] | dict:
        u = rng.random()
        if u < 0.02:  # a +-8e307 checkerboard, diameter 3.2e308
            parity = np.add.outer(np.arange(n), np.arange(n + 1)) % 2
            return np.where(parity, -8e307, 8e307).tolist()
        lv = rng.normal(0.0, 2.0, (n, n + 1)).tolist()
        if u < 0.04:  # an a_grid step past float range
            return {"log_values": lv, "a_grid": [-1.7e308, *np.linspace(1e308, 1.7e308, n - 1)],
                    "x_grid": list(range(n + 1))}
        if u < 0.06:  # a document the CLI refuses: one flawed grid, or an infinite log value
            grids = [list(range(n)), list(range(n + 1))]
            g, flaw = grids[rng.integers(2)], rng.integers(4)
            if flaw == 0:  # one point too many
                g.append(len(g))
            elif flaw == 1:  # not increasing at the last point
                g[-1] = 0
            elif flaw == 2:
                g[rng.integers(len(g))] = float(rng.choice([np.inf, -np.inf, np.nan]))
            else:
                lv[rng.integers(n)][rng.integers(n + 1)] = np.inf
            return {"log_values": lv, "a_grid": grids[0], "x_grid": grids[1]}
        return lv

    def center(n: int) -> list[float]:  # 2% with one weight at the bottom of float range
        w = vec(n, 0.05)
        if rng.random() < 0.02:
            w[rng.integers(n)] = TINY[rng.integers(len(TINY))]
        return w

    def trials(n: int) -> int:  # large for 90% at n >= 40, 10% below: blocks of 2**15 // n
        return int(rng.integers(200, 5001)) if rng.random() < (0.9 if n >= 40 else 0.1) else 20

    def start(n: int) -> list[float]:  # 20% on a face of the simplex
        w = vec(n, 0.0)
        if rng.random() < 0.2:
            w[rng.integers(n)] = 0.0
        return w

    def square(n: int) -> list[list[float]]:  # row-stochastic, full support at even n >= 40
        if n < 40 or n % 2:
            return [vec(n, 0.1) for _ in range(n)]
        p = np.array([vec(n, 0.0) for _ in range(n)])
        return (p / p.sum(axis=1, keepdims=True)).tolist()

    args = {
        "dist": pair,
        "tau": lambda n: [doc(square(n))],
        "verify": lambda n: [doc(square(n)), "--trials", trials(n)],
        "tau-kernel": lambda n: [doc(kernel(n))],
        "markov": lambda n: [doc(chain(n)), doc(start(n)), rng.integers(0, 81)],
        "ball": lambda n: [doc(center(n + int(rng.integers(0, 3)))), rng.choice(RADII)],
        "tile": lambda n: [doc(center(3 + (rng.random() < 0.05))), rng.choice(RADII),
                           rng.integers(-1, 4), "--svg", "t.svg"],
    }
    args["bounds"] = args["dist"]
    ops = []
    for cmd in rng.choice(COMMANDS, count).tolist():
        large = cmd in LARGE and rng.random() < 0.05
        lo, hi = LARGE[cmd] if large else (2, 7)
        argv = [cmd, *map(str, args[cmd](int(rng.integers(lo, hi + 1))))]
        if rng.random() < 0.01:
            argv = USAGE_ERRORS[rng.integers(len(USAGE_ERRORS))](argv)
        ops.append((argv, large))
    for argv, _ in ops:  # drawn after the ops above, so that their draws stay as they were
        if argv[0] in ("verify", "tile") and rng.random() < 0.1:
            argv[:] = RESHAPES[rng.integers(len(RESHAPES))](argv[0], argv[1:-2], *argv[-2:])
    return ops


def run_side(src: str, ops, work: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(ops), env=env,
                          cwd=work, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(old_src: str, new_src: str, seed: str = "0", ops: str = "4000") -> int:
    work = Path(tempfile.mkdtemp(prefix="cli_diff_"))
    try:
        drawn = make_ops(np.random.default_rng(int(seed)), int(ops), work)
        argvs = [argv for argv, _ in drawn]
        old, new = [run_side(src, argvs, work) for src in (old_src, new_src)]
    except BaseException:
        shutil.rmtree(work)
        raise
    tally = collections.defaultdict(collections.Counter)
    differing = collections.defaultdict(list)
    for (argv, large), a, b in zip(drawn, old, new):
        keys = [argv[0], "total"]
        if large:
            keys.append(f"{argv[0]} n>={LARGE[argv[0]][0]}")
        for key in keys:
            tally[key]["identical" if a == b else "differing"] += 1
        if a != b:
            differing[argv[0]].append((argv, [part for part, x, y in zip(PARTS, a, b) if x != y]))
    for cmd in sorted(tally, key=lambda k: (k == "total", k)):
        print(f"{cmd:16s} identical {tally[cmd]['identical']:5d}  "
              f"differing {tally[cmd]['differing']:5d}")
    if not differing:
        shutil.rmtree(work)
        return 0
    for cmd in sorted(differing):
        for argv, parts in differing[cmd][:SHOWN]:
            print(f"differs in {', '.join(parts)}: {' '.join(argv)}")
    print(f"inputs kept in {work}; run a printed argv from there")
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
