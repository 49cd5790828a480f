"""Run the same random hilbertcone CLI ops against two source trees and compare the outputs.

    python3 tools/cli_diff.py OLD/src NEW/src [SEED [OPS]]

Each tree runs every op in one subprocess.  Per subcommand, the script prints
how many ops gave the same exit code, stdout, stderr and SVG file on both
sides.  It exits 1 if any op differed.
"""

import collections
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNNER = r"""
import contextlib, hashlib, io, json, os, sys
from hilbertcone.cli import run_command
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
MALFORMED = ["", '[1, "a"]', "[[1, 2], [3]]", "[]", "{}", "1,x", "[true, 1]", "nan"]


def make_ops(rng, count: int, work: Path) -> list[list[str]]:
    names = itertools.count()

    def doc(value) -> str:  # 3% of documents are malformed
        path = work / f"d{next(names)}.json"
        bad = rng.random() < 0.03
        path.write_text(MALFORMED[rng.integers(len(MALFORMED))] if bad else json.dumps(value))
        return str(path)

    def vec(n: int, zeros: float = 0.2) -> list[float]:
        return np.where(rng.random(n) < zeros, 0.0, rng.lognormal(0.0, 2.0, n)).tolist()

    def chain(n: int) -> list[list[float]]:  # positive, so the stationary search ends quickly
        p = rng.uniform(0.05, 1.0, (n, n))
        return (p / p.sum(axis=1, keepdims=True)).tolist()

    args = {
        "dist": lambda n: [doc(vec(n)), doc(vec(n + (rng.random() < 0.1)))],
        "tau": lambda n: [doc([vec(n, 0.1) for _ in range(n)])],
        "verify": lambda n: [doc([vec(n, 0.1) for _ in range(n)]), "--trials", "20"],
        "tau-kernel": lambda n: [doc(rng.normal(0.0, 2.0, (n, n + 1)).tolist())],
        "markov": lambda n: [doc(chain(n)), doc(vec(n, 0.0)), rng.integers(0, 30)],
        "ball": lambda n: [doc(vec(n + int(rng.integers(0, 3)), 0.05)), rng.choice(RADII)],
        "tile": lambda n: [doc(vec(3 + (rng.random() < 0.05), 0.05)), rng.choice(RADII),
                           rng.integers(-1, 4), "--svg", "t.svg"],
    }
    args["bounds"] = args["dist"]
    return [[cmd, *map(str, args[cmd](int(rng.integers(2, 8))))]
            for cmd in rng.choice(COMMANDS, count).tolist()]


def run_side(src: str, ops, work: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(ops), env=env,
                          cwd=work, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(old_src: str, new_src: str, seed: str = "0", ops: str = "4000") -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = make_ops(np.random.default_rng(int(seed)), int(ops), Path(tmp))
        old, new = [run_side(src, argvs, Path(tmp)) for src in (old_src, new_src)]
    tally = collections.defaultdict(collections.Counter)
    for argv, a, b in zip(argvs, old, new):
        for key in (argv[0], "total"):
            tally[key]["identical" if a == b else "differing"] += 1
    for cmd in sorted(tally, key=lambda k: (k == "total", k)):
        print(f"{cmd:10s} identical {tally[cmd]['identical']:5d}  "
              f"differing {tally[cmd]['differing']:5d}")
    return 1 if tally["total"]["differing"] else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
