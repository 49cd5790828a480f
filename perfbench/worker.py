"""The workload process: set-up, checked pass, timed loop, optional traced loop.

run.py starts it with the work directory as current directory, PYTHONPATH
pointing at the checkout's ``src`` and the BLAS thread settings fixed:

    python3 worker.py SPEC.json RESULT.json [--setup-only]

``setup_s`` is timed from just before ``import hilbertcone`` to the end of the
untimed warm-up ops.  With ``--setup-only`` the process stops there.
Otherwise every op runs once and is checked by the oracle (outside any timed
region), the known-defect probes run once, and the op sequence is then
repeated in passes for the timed budget, every output compared byte for byte
with the checked one.  With tracing on, half the budget runs untraced and
half with the wrappers of tracing.py installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_op(cli, op: dict):
    """One in-process CLI call: (seconds, exit code or escaped exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run_command(op["argv"], out=out)
        except Exception as exc:  # an escaping exception is a measured failure
            code = f"escaped {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def _digest(op: dict, code, out: str, err: str) -> bytes:
    h = hashlib.sha256(f"{code}\0{err}\0{out}".encode())
    svg = op["check"].get("svg")
    if svg and code == 0:
        h.update(Path(svg).read_bytes())
    return h.digest()


MAX_SPANS = 200_000  # spans kept in memory: whole ops of the first traced pass


def _passes(cli, ops, digests, bad, budget_s, min_passes, tracer=None):
    """Repeat the op sequence until the budget is spent (at least ``min_passes``).

    Returns per-op latency lists, the ids of ops whose output differed from
    the checked one, the number of failed executions (an op in ``bad``
    failed its check) and one dict of figures per pass.
    """
    lat: list[list[float]] = [[] for _ in ops]
    mismatches = []
    failed = 0
    pass_figures = []
    start = time.perf_counter()
    passes = 0
    while True:
        if tracer is not None:
            tracer.reset()
        out_bytes = 0
        op_time = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.record = passes == 0 and len(tracer.spans) < MAX_SPANS
                tracer.begin_op(op["id"])
            seconds, code, out, err = run_op(cli, op)
            if tracer is not None:
                tracer.end_op()
            lat[i].append(seconds)
            op_time += seconds
            out_bytes += len(out)  # the CLI writes ASCII only
            if _digest(op, code, out, err) != digests[i]:
                mismatches.append(op["id"])
                failed += 1
            elif i in bad:
                failed += 1
        passes += 1
        figures = {"op_time_s": op_time, "cli.out_bytes": out_bytes}
        if tracer is not None:
            figures.update(tracer.figures(op_time))
        pass_figures.append(figures)
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + 0.5 * elapsed / passes >= budget_s:
            return lat, sorted(set(mismatches)), failed, pass_figures


def main(argv: list[str]) -> int:
    spec_path, result_path = Path(argv[0]), Path(argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    ops = spec["ops"]

    t0 = time.perf_counter()
    from hilbertcone import cli
    for i in spec["warmup"]:
        run_op(cli, ops[i])
    setup_s = time.perf_counter() - t0

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the checkout under {src}", file=sys.stderr)
        return 1
    result: dict = {"setup_s": setup_s}
    if "--setup-only" in argv:
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return 0

    import numpy as np
    import oracle

    golden = Path(spec["golden"])
    failures = []
    digests = []
    for op in ops:
        _, code, out, err = run_op(cli, op)
        reason = oracle.check_op(op, code, out, err, Path.cwd(), golden)
        if reason is not None:
            failures.append({"id": op["id"], "argv": op["argv"], "reason": reason})
        digests.append(_digest(op, code, out, err))
    bad = {f["id"] for f in failures}
    probes = []
    for op in spec["probes"]:
        _, code, out, err = run_op(cli, op)
        probes.append({"argv": op["argv"], "outcome": str(code),
                       "ok": oracle.check_op(op, code, out, err, Path.cwd(), golden) is None})

    budget = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    checked = time.perf_counter()
    lat, mismatches, failed, figures = _passes(cli, ops, digests, bad, budget,
                                               2 if spec["trace"] else 3)
    result.update(
        lat=lat, pass_figures=figures, failures=failures, probes=probes,
        attempted=len(ops) * (1 + len(lat[0])), failed=len(failures) + failed,
        mismatches=mismatches,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__, check_s=checked - t0 - setup_s,
        timed_s=time.perf_counter() - checked,
    )

    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            tlat, tmismatches, tfailed, tfigures = _passes(cli, ops, digests, bad, budget, 2,
                                                           tracer)
        finally:
            tracer.uninstall()
        result.update(trace_lat=tlat, trace_figures=tfigures)
        result["attempted"] += len(ops) * len(tlat[0])
        result["failed"] += tfailed
        result["trace_mismatches"] = tmismatches
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans"] = len(tracer.spans)

    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
