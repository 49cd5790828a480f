"""Seeded op sequences and input files for the benchmark workloads.

Generation uses numpy only, never ``hilbertcone``: the program under test
receives nothing but the files written here.  Every op is a plain dict

    {"id", "cmd", "argv", "expect", "kind", "size", "check"}

where ``argv`` is relative to the work directory, ``expect`` the exit code,
``kind`` one of ``ok`` / ``golden`` / ``malformed``, ``size`` the op's
leading dimension (used to pick warm-up ops) and ``check`` what the oracle
needs.  Sizes are drawn one per stratum of their range, so that every seed
gives a different sequence with nearly the same cost profile; that keeps the
end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-small", "large-inputs", "ball-tile")

# The byte-exact golden cases: input documents as tests/test_cli.py writes
# them, argv and oracle parameters ("{name}" is the path of input "name"),
# and the golden files under tests/golden/ that stdout and the SVG must match.
GOLDEN_OPS = (
    ("dist", {"a": "[1, 1]", "b": "[9, 1]"}, ["{a}", "{b}"],
     {"a": "{a}", "b": "{b}"}, {"stdout": "dist_19.json"}),
    ("bounds", {"a": "[1, 1]", "b": "[9, 1]"}, ["{a}", "{b}"],
     {"a": "{a}", "b": "{b}"}, {"stdout": "bounds_19.json"}),
    ("tau", {"m": "[[2, 1], [1, 2]]"}, ["{m}"], {"matrix": "{m}"}, {"stdout": "tau_2x2.json"}),
    ("markov", {"p": "[[0.75, 0.25], [0.25, 0.75]]", "mu0": "[0.9, 0.1]"}, ["{p}", "{mu0}", "5"],
     {"matrix": "{p}", "mu0": "{mu0}", "steps": 5}, {"stdout": "markov_5.csv"}),
    ("ball", {"c": "[1, 1, 1]"}, ["{c}", "0.5"],
     {"center": "{c}", "radius": 0.5}, {"stdout": "ball_u3.json"}),
    ("tile", {"c": "[1, 1, 1]"}, ["{c}", "0.5", "1", "--svg", "{svg}"],
     {"center": "{c}", "radius": 0.5, "shells": 1, "svg": "{svg}"},
     {"stdout": "tile_1.json", "svg": "tile_1.svg"}),
)

# Inputs that must end in exit code 1 with one "error:" line but, at the
# time the benchmark was written, escape run_command as an exception.  They
# run outside the timed loop and are reported as cli.probe_escapes.
PROBE_OPS = (
    ("tau", "[]"),
    ("tau-kernel", "[[1, 2, 3]]"),
)


def _spread(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` values, one uniformly inside each of ``count`` equal strata of [lo, hi]."""
    vals = lo + (np.arange(count) + rng.random(count)) / count * (hi - lo)
    rng.shuffle(vals)
    return vals


def _ints(rng, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi], one drawn inside each of ``count`` equal strata."""
    return [int(v) for v in np.floor(_spread(rng, count, lo, hi + 1 - 1e-9))]


def _json(a) -> str:
    return json.dumps(np.asarray(a, dtype=float).tolist())


def _csv(a) -> str:
    rows = np.atleast_2d(a)
    return "# generated\n" + "".join(",".join(repr(float(x)) for x in r) + "\n" for r in rows)


class _Builder:
    """Collects ops and writes their input files under ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "svg").mkdir(exist_ok=True)
        self.ops: list[dict] = []

    def file(self, name: str, text: str) -> str:
        rel = f"in/op{len(self.ops)}_{name}"
        (self.workdir / rel).write_text(text, encoding="utf-8")
        return rel

    def add(self, cmd, argv, *, size, kind="ok", expect=0, check=None) -> None:
        self.ops.append({
            "id": len(self.ops), "cmd": cmd, "argv": [cmd, *argv], "expect": expect,
            "kind": kind, "size": size, "check": check or {},
        })


def _positive(rng, n, spread=3.0):
    return np.exp(rng.uniform(-spread, spread, size=n))


def _with_zeros(rng, v, share):
    v = v.copy()
    k = max(1, int(round(share * len(v))))
    v[rng.choice(len(v), size=min(k, len(v) - 1), replace=False)] = 0.0
    return v


def _matrix(rng, n, zeros: bool):
    a = np.exp(rng.uniform(-2.0, 2.0, size=(n, n)))
    if zeros:
        a[rng.random((n, n)) < 0.05] = 0.0
        a[0, 1] = 0.0  # at least one zero entry, so phi = 0
        for i in range(n):  # keep the matrix allowable
            if a[i].sum() == 0:
                a[i, i] = 1.0
            if a[:, i].sum() == 0:
                a[i, i] = 1.0
    return a


def _stochastic(rng, n, zeros: bool):
    a = _matrix(rng, n, zeros)
    np.fill_diagonal(a, np.maximum(np.diag(a), 1e-3))  # aperiodic
    return a / a.sum(axis=1, keepdims=True)


def _kernel(rng, n, bare: bool):
    """A noisy Gaussian log-kernel on uniform n-point grids, as JSON."""
    a = np.linspace(0.0, 1.0, n)
    width = rng.uniform(0.2, 1.0)
    lv = -((a[:, None] - a[None, :]) ** 2) / (2 * width**2) + rng.normal(0, 0.05, size=(n, n))
    if bare:
        return _json(lv)
    return json.dumps({"log_values": lv.tolist(), "a_grid": a.tolist(), "x_grid": a.tolist()})


def _vector_text(rng, v, csv_share=0.25):
    return _csv(v) if rng.random() < csv_share else _json(v)


def _add_dist_like(b, rng, cmd, n, zero_pattern=None, csv_share=0.25):
    x = _positive(rng, n)
    y = _positive(rng, n)
    if zero_pattern == "same":
        x = _with_zeros(rng, x, 0.2)
        y = np.where(x == 0, 0.0, y)
    elif zero_pattern == "other":
        y = _with_zeros(rng, y, 0.2)
    argv = [b.file("a", _vector_text(rng, x, csv_share)),
            b.file("b", _vector_text(rng, y, csv_share))]
    b.add(cmd, argv, size=n, check={"a": argv[0], "b": argv[1]})


def _add_tau(b, rng, n, zeros, csv=False):
    a = _matrix(rng, n, zeros)
    m = b.file("m", _csv(a) if csv else _json(a))
    b.add("tau", [m], size=n, check={"matrix": m})


def _add_tau_kernel(b, rng, n, bare):
    g = b.file("g", _kernel(rng, n, bare))
    b.add("tau-kernel", [g], size=n, check={"grid": g})


def _add_verify(b, rng, n, zeros, trials):
    m = b.file("m", _json(_matrix(rng, n, zeros)))
    b.add("verify", [m, "--trials", str(trials), "--seed", str(int(rng.integers(1 << 30)))],
          size=n, check={"matrix": m})


def _add_markov(b, rng, n, zeros, steps):
    p = b.file("p", _json(_stochastic(rng, n, zeros)))
    mu = _positive(rng, n)
    mu0 = b.file("mu0", _json(mu / mu.sum()))
    b.add("markov", [p, mu0, str(steps)], size=n,
          check={"matrix": p, "mu0": mu0, "steps": steps})


def _add_ball(b, rng, dim):
    c = b.file("c", _json(_positive(rng, dim + 1, 1.0)))
    r = f"{rng.uniform(0.1, 2.0):.3f}"
    b.add("ball", [c, r], size=dim, check={"center": c, "radius": float(r)})


def _add_tile(b, rng, shells):
    c = b.file("c", _json(_positive(rng, 3, 1.0)))
    r = f"{rng.uniform(0.05, 0.5):.3f}"
    svg = f"svg/op{len(b.ops)}.svg"
    b.add("tile", [c, r, str(shells), "--svg", svg], size=shells,
          check={"center": c, "radius": float(r), "shells": shells, "svg": svg})


def _add_golden(b, case) -> None:
    cmd, files, argv, check, golden = case
    paths = {k: b.file(k + ".json", text) for k, text in files.items()}
    paths["svg"] = f"svg/op{len(b.ops)}.svg"
    check = {k: v.format(**paths) if isinstance(v, str) else v for k, v in check.items()}
    b.add(cmd, [a.format(**paths) for a in argv], size=0, kind="golden",
          check={**check, "golden": golden})


def _add_malformed(b, rng, which: int) -> None:
    """One document that parse/validation must reject with exit code 1."""
    n = int(rng.integers(3, 9))
    v = _positive(rng, n)
    kind = ("ragged", "negative", "nan", "bad-json")[which % 4]
    if kind == "ragged":
        rows = [[float(x) for x in _positive(rng, n)] for _ in range(n)]
        rows[int(rng.integers(n))].pop()
        b.add("tau", [b.file("m", json.dumps(rows))], size=n, kind="malformed", expect=1)
    elif kind == "negative":
        w = v.copy()
        w[int(rng.integers(n))] *= -1.0
        b.add("dist", [b.file("a", _json(v)), b.file("b", _vector_text(rng, w, 0.5))],
              size=n, kind="malformed", expect=1)
    elif kind == "nan":
        a = _stochastic(rng, n, False).tolist()
        a[int(rng.integers(n))][int(rng.integers(n))] = float("nan")
        b.add("verify", [b.file("m", json.dumps(a)), "--trials", "10"],
              size=n, kind="malformed", expect=1)
    else:
        text = _json(v)
        b.add("bounds", [b.file("a", text[: int(rng.integers(1, len(text) - 1))]),
                         b.file("b", _json(v))], size=n, kind="malformed", expect=1)


def _cli_small(b: _Builder, rng) -> None:
    # 200 ops a pass: the 6 golden commands, 6 malformed documents (3%) and a
    # fixed count per subcommand, so that the mix is the same for every seed.
    plan = []
    plan += [("dist", n) for n in _ints(rng, 40, 3, 32)]
    plan += [("bounds", n) for n in _ints(rng, 24, 3, 32)]
    plan += [("tau", n) for n in _ints(rng, 28, 2, 16)]
    plan += [("tau-kernel", n) for n in _ints(rng, 18, 2, 16)]
    plan += [("verify", n) for n in _ints(rng, 18, 2, 16)]
    plan += [("markov", n) for n in _ints(rng, 20, 2, 8)]
    plan += [("ball", n) for n in _ints(rng, 22, 2, 5)]
    plan += [("tile", s) for s in _ints(rng, 18, 0, 2)]
    plan += [("golden", i) for i in range(len(GOLDEN_OPS))]
    plan += [("malformed", i) for i in range(6)]
    for j in rng.permutation(len(plan)):
        cmd, n = plan[j]
        if cmd in ("dist", "bounds"):
            pattern = rng.choice([None, None, None, "same", "other"]) if cmd == "dist" else None
            _add_dist_like(b, rng, cmd, n, pattern)
        elif cmd == "tau":
            _add_tau(b, rng, n, zeros=rng.random() < 0.15, csv=rng.random() < 0.25)
        elif cmd == "tau-kernel":
            _add_tau_kernel(b, rng, n, bare=rng.random() < 0.5)
        elif cmd == "verify":
            _add_verify(b, rng, n, zeros=rng.random() < 0.15, trials=200)
        elif cmd == "markov":
            _add_markov(b, rng, n, zeros=False, steps=int(rng.integers(5, 31)))
        elif cmd == "ball":
            _add_ball(b, rng, n)
        elif cmd == "tile":
            _add_tile(b, rng, n)
        elif cmd == "golden":
            _add_golden(b, GOLDEN_OPS[n])
        else:
            _add_malformed(b, rng, n)


def _every(rng, items: list, count: int) -> set:
    """``count`` of ``items`` at evenly spaced ranks of their size, from a random offset."""
    ranked = sorted(items, key=lambda item: item[1])
    step = len(ranked) / count
    start = rng.random() * step
    return {ranked[int(start + j * step)] for j in range(count)}


def _large_inputs(b: _Builder, rng) -> None:
    # 100 ops a pass.  10% of the matrices (8 of 80) carry zero entries, the
    # phi = 0 short-circuit, and a quarter of the tau inputs are CSV.  Both
    # are spread evenly over the sizes, so that every seed costs the same.
    mats = {c: [(c, n, i) for i, n in enumerate(_ints(rng, 20, 100, 250))]
            for c in ("tau", "verify", "tau-kernel", "markov")}
    zeros = _every(rng, mats["tau"], 3) | _every(rng, mats["verify"], 3)
    zeros |= _every(rng, mats["markov"], 2)
    csv = _every(rng, mats["tau"], 5)
    plan = [(c, n, (c, n, i) in zeros, (c, n, i) in csv)
            for ops in mats.values() for c, n, i in ops]
    plan += [("dist", n, False, False) for n in _ints(rng, 10, 1000, 10000)]
    plan += [("bounds", n, False, False) for n in _ints(rng, 10, 1000, 10000)]
    for j in rng.permutation(len(plan)):
        cmd, n, zero, as_csv = plan[j]
        if cmd == "tau":
            _add_tau(b, rng, n, zero, as_csv)
        elif cmd == "verify":
            _add_verify(b, rng, n, zero, trials=2000)
        elif cmd == "tau-kernel":
            _add_tau_kernel(b, rng, n, bare=False)
        elif cmd == "markov":
            _add_markov(b, rng, n, zero, steps=50)
        else:
            _add_dist_like(b, rng, cmd, n, csv_share=0.0)


def _ball_tile(b: _Builder, rng) -> None:
    # 100 ops a pass: balls on S^6..S^9 (126..1022 vertices) and tilings with
    # 3..12 shells (37..469 hexagons), each with its SVG rendering.
    plan = [("ball", n) for n in _ints(rng, 50, 6, 9)]
    plan += [("tile", s) for s in _ints(rng, 50, 3, 12)]
    for j in rng.permutation(len(plan)):
        cmd, n = plan[j]
        if cmd == "ball":
            _add_ball(b, rng, n)
        else:
            _add_tile(b, rng, n)


_GENERATORS = {"cli-small": _cli_small, "large-inputs": _large_inputs, "ball-tile": _ball_tile}


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``workdir``; return its ops."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    b = _Builder(Path(workdir))
    _GENERATORS[workload](b, rng)
    return b.ops


def probe_ops(workdir: Path) -> list[dict]:
    """The known-defect probe inputs, written under ``workdir``."""
    b = _Builder(Path(workdir))
    (b.workdir / "probe").mkdir(exist_ok=True)
    for cmd, text in PROBE_OPS:
        path = f"probe/{len(b.ops)}.json"
        (b.workdir / path).write_text(text, encoding="utf-8")
        b.add(cmd, [path], size=0, kind="malformed", expect=1)
    return b.ops


def digest(ops: list[dict], workdir: Path) -> str:
    """sha256 over the op list and the bytes of every input file it names."""
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for path in sorted((Path(workdir) / "in").iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
