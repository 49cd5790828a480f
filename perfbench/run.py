"""End-to-end and per-layer benchmark of the hilbertcone CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 40 --trace 0

The op sequence and its input files are generated from ``--seed`` (numpy
only, see workloads.py) under ``.perfbench_out/``; the program receives only
those files.  Each workload runs in fresh worker processes (worker.py) that
call ``hilbertcone.cli.run_command`` in-process, one op after another: a
closed loop with one client.  BLAS libraries get one thread in those
processes; the machine's settings are not touched.

Workloads (why each was chosen):

- ``cli-small``: all 8 subcommands on small inputs, the 6 golden commands
  and 3% malformed documents.  The interactive and scripting user; per-call
  cost (argparse, parse, serialise) dominates, so a kernel-only change should
  leave it unchanged.
- ``large-inputs``: tau / verify / tau-kernel / markov on 100..250 square
  matrices (10% with zero entries) and dist / bounds on 1e3..1e4 vectors.
  The O(n^3) phi pass, core's scalar loops and parse_input on big documents.
- ``ball-tile``: balls on S^6..S^9 and tilings with 3..12 shells plus SVG.
  Dominated by simplex, per-vertex construction and serialisation; no
  contraction work, so a contraction change should leave it unchanged.
  BENCHMARK.json leaves it out: on a shared 2-vCPU host its throughput
  moved 1.85x between the host's slow and fast periods (13.9..25.8 ops/s
  over 10 runs), beyond the largest regression bound.  Run it by hand.

End-to-end metrics (``--trace 0``).  The timed loop repeats the op sequence
in passes.  On a shared host CPU speed swings by up to 2x for seconds to
minutes at a time, so each op's latency is the least of its repeats, and
the figures are computed from those per-op latencies:

- ``ops_per_s``: ops in the sequence / sum of their latencies;
- ``latency_p50_ms``, ``latency_p90_ms``: percentiles over the ops (at least
  100 a workload, so at least 10 lie beyond p90);
- ``setup_s``: median over 5 fresh processes of the time from before
  ``import hilbertcone`` to the end of the warm-up ops (one per subcommand);
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

Failed ops (an escaping exception, a wrong exit code, or output the oracle
rejects or that differs from the checked output) are counted against the
ops attempted; ``fail_ratio`` is printed in the summary.

``--trace 1`` splits the budget between an untraced and a traced loop and
reports the per-layer figures of tracing.py (per pass of the op sequence,
medians over passes) plus ``trace.overhead`` (traced / untraced ops_per_s).
The spans of the first traced pass (whole ops, at most 200,000 spans) go to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``: a header line naming
the fields, then one JSON array per span.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it records provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_RUNS = 5
RUN_LIMIT_S = 170  # every worker must have ended by then; a run may take 180 s
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent


def warmup_ids(ops: list[dict]) -> list[int]:
    """Per subcommand, the well-formed op of median size: a seed-stable warm-up."""
    by_cmd: dict[str, list[dict]] = {}
    for op in ops:
        if op["kind"] == "ok":
            by_cmd.setdefault(op["cmd"], []).append(op)
    picks = []
    for group in by_cmd.values():
        group = sorted(group, key=lambda op: (op["size"], op["id"]))
        picks.append(group[(len(group) - 1) // 2]["id"])
    return sorted(picks)


def summarize(lat: list[list[float]]) -> dict:
    """End-to-end figures from per-op latency lists (one entry per pass)."""
    best = sorted(min(samples) for samples in lat)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": 1000.0 * statistics.median(best),
        "latency_p90_ms": 1000.0 * deciles[8],
        "ops": len(best),
        "passes": len(lat[0]),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _worker(workdir: Path, spec_path: Path, name: str, env: dict, setup_only: bool,
            deadline: float) -> dict:
    result_path = workdir / f"{name}.result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills the worker and waits for it when the timeout expires.
    done = subprocess.run(cmd, cwd=workdir, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker {name} exited with code {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate the inputs, run the worker processes and return their results."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = workloads.generate(workload, seed, workdir)
        op_digest = workloads.digest(ops, workdir)
        spec = {
            "ops": ops, "warmup": warmup_ids(ops), "probes": workloads.probe_ops(workdir),
            "src": str(root / "src"), "golden": str(root / "tests" / "golden"),
            "seconds": seconds, "trace": trace,
            "spans": str(out_dir / f"spans-{workload}-seed{seed}.jsonl"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        # Set-up is timed in fresh processes before and after the main one.
        setups = [_worker(workdir, spec_path, f"setup{i}", env, True, deadline)["setup_s"]
                  for i in range(SETUP_RUNS // 2)]
        main = _worker(workdir, spec_path, "main", env, False, deadline)
        setups.append(main["setup_s"])
        setups += [_worker(workdir, spec_path, f"setup{i}", env, True, deadline)["setup_s"]
                   for i in range(SETUP_RUNS // 2, SETUP_RUNS - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    main["setups"] = setups
    main["op_digest"] = op_digest
    return main


def report(workload: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final result object."""
    base = summarize(res["lat"])
    setup_s = statistics.median(res["setups"])
    attempted, failed = res["attempted"], res["failed"]
    n, passes = base["ops"], base["passes"]
    print(f"workload {workload}  seed {seed}  {n} ops a pass  {passes} timed passes  "
          f"(closed loop, 1 client)")
    print(f"  ops_per_s       {base['ops_per_s']:12.4f} 1/s  ({n} per-op latencies, "
          f"each the least of {passes} repeats)")
    print(f"  latency_p50_ms  {base['latency_p50_ms']:12.4f} ms   ({n} samples)")
    print(f"  latency_p90_ms  {base['latency_p90_ms']:12.4f} ms   ({n} samples, "
          f"{n - int(0.9 * n)} beyond p90)")
    print(f"  setup_s         {setup_s:12.4f} s    (median of {len(res['setups'])} processes)")
    print(f"  peak_rss_mb     {res['peak_rss_mb']:12.4f} MB")
    print(f"  fail_ratio      {failed / attempted:12.4f}      ({failed} of {attempted} attempted)")
    for f in res["failures"][:10]:
        print(f"  FAILED op {f['id']} {' '.join(f['argv'])}: {f['reason']}")
    if res["mismatches"] or res.get("trace_mismatches"):
        print(f"  output changed between passes for ops {res['mismatches']}, "
              f"with tracing for ops {res.get('trace_mismatches')}")
    for p in res["probes"]:
        state = "ok" if p["ok"] else "KNOWN DEFECT"
        print(f"  probe {p['argv'][0]} on {p['argv'][1]}: exit {p['outcome']} "
              f"[{state}; want exit 1 with one 'error:' line]")

    if trace:
        traced = summarize(res["trace_lat"])
        figures = {k: statistics.median(f[k] for f in res["trace_figures"])
                   for k in res["trace_figures"][0] if k != "op_time_s"}
        figures["cli.probe_escapes"] = sum(p["outcome"].startswith("escaped")
                                           for p in res["probes"])
        figures["trace.overhead"] = traced["ops_per_s"] / base["ops_per_s"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(figures.items())}
        print(f"  traced: {traced['passes']} passes, {res['spans']} spans written; "
              "per-layer figures are per pass of the op sequence")
        for k, m in metrics.items():
            print(f"  {k:38s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {
            "ops_per_s": {"value": base["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": base["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": base["latency_p90_ms"], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def provenance(root: Path, args, res: dict) -> dict:
    return {
        "commit": _git_commit(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "op_digest": res["op_digest"],
        "python": platform.python_version(), "numpy": res["numpy"], "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "blas_threads": BLAS_ENV,
    }


def _unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".bytes") or name == "cli.out_bytes":
        return "bytes"
    if name.endswith((".share", ".overhead")):
        return "ratio"
    if name.endswith("_per_op"):
        return "calls/op"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    for needed in (root / "src" / "hilbertcone" / "cli.py", root / "tests" / "golden"):
        if not needed.exists():
            print(f"error: {needed} not found; run from the root of a hilbertcone checkout",
                  file=sys.stderr)
            return 2
    try:
        res = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, res, bool(args.trace))
    prov = provenance(root, args, res)
    raw = root / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"provenance": prov, "result": result, "raw": res}), encoding="utf-8")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
