"""Tests of the benchmark itself: seeding, the oracle and the tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def _golden_ops(workdir: Path) -> list[dict]:
    b = workloads._Builder(workdir)
    for case in workloads.GOLDEN_OPS:
        workloads._add_golden(b, case)
    return b.ops


def _golden_outputs(op: dict, workdir: Path) -> str:
    """The golden stdout of ``op``; also puts its golden SVG where the op writes one."""
    golden = op["check"]["golden"]
    if "svg" in golden:
        (workdir / op["check"]["svg"]).write_text((GOLDEN / golden["svg"]).read_text())
    return (GOLDEN / golden["stdout"]).read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(tmp_path, workload):
    digests = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        ops = workloads.generate(workload, seed, tmp_path / name)
        assert len(ops) >= 100
        digests[name] = workloads.digest(ops, tmp_path / name)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_oracle_accepts_the_goldens(tmp_path):
    for op in _golden_ops(tmp_path):
        out = _golden_outputs(op, tmp_path)
        assert oracle.check_op(op, 0, out, "", tmp_path, GOLDEN) is None, op["cmd"]


def _perturb(cmd: str, out: str) -> str:
    if cmd == "markov":
        lines = out.splitlines(keepends=True)
        step, h, rest = lines[2].split(",", 2)
        lines[2] = f"{step},{float(h) * (1 + 1e-6)!r},{rest}"
        return "".join(lines)
    doc = json.loads(out)
    if cmd == "dist":
        doc["hilbert"] *= 1 + 1e-6
    elif cmd == "bounds":
        doc[0]["lhs_value"] *= 1 + 1e-6
    elif cmd == "tau":
        doc["phi"] *= 1 + 1e-6
    elif cmd == "ball":
        doc["simplex_vertices"][0][0] *= 1 + 1e-6
    elif cmd == "tile":
        doc.pop()
    return json.dumps(doc, indent=2) + "\n"


def test_oracle_rejects_perturbed_outputs(tmp_path):
    for op in _golden_ops(tmp_path):
        out = _golden_outputs(op, tmp_path)
        assert oracle.check_op(op, 0, out + " ", "", tmp_path, GOLDEN) is not None
        semantic = {**op, "check": {k: v for k, v in op["check"].items() if k != "golden"}}
        assert oracle.check_op(semantic, 0, out, "", tmp_path, GOLDEN) is None
        assert oracle.check_op(semantic, 0, _perturb(op["cmd"], out), "", tmp_path,
                               GOLDEN) is not None, op["cmd"]


def test_oracle_wants_one_error_line_for_bad_input(tmp_path):
    op = workloads.probe_ops(tmp_path)[0]
    assert oracle.check_op(op, 1, "", "error: empty matrix\n", tmp_path, GOLDEN) is None
    assert oracle.check_op(op, 0, "", "", tmp_path, GOLDEN) is not None
    assert oracle.check_op(op, 1, "", "Traceback\nerror: x\n", tmp_path, GOLDEN) is not None
    assert oracle.check_op(op, "escaped IndexError", "", "", tmp_path, GOLDEN) is not None


def test_oracle_accepts_the_program_on_a_generated_workload(tmp_path, monkeypatch):
    from hilbertcone import cli

    ops = workloads.generate("cli-small", 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    for op in ops:
        _, code, out, err = run_op(cli, op)
        assert oracle.check_op(op, code, out, err, tmp_path, GOLDEN) is None, op["argv"]


def _namespaces():
    import hilbertcone.cli  # noqa: F401  (loads every layer)

    mods = {name: m for name, m in sys.modules.items()
            if name == "hilbertcone" or name.startswith("hilbertcone.")}
    snapshot = {(name, key): value for name, m in mods.items() for key, value in vars(m).items()}
    for layer, names in tracing.CONSTRUCTORS.items():
        for cls_name in names:
            cls = getattr(mods[f"hilbertcone.{layer}"], cls_name)
            snapshot.update({(cls_name, key): value for key, value in vars(cls).items()})
    return snapshot


def test_tracer_patches_every_binding_and_restores_it(tmp_path, monkeypatch):
    import hilbertcone
    from hilbertcone import cli, contraction, core

    before = _namespaces()
    ops = _golden_ops(tmp_path)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.hilbert_distance is not before[("hilbertcone.core", "hilbert_distance")]
        assert contraction.hilbert_distance is core.hilbert_distance
        assert cli.hilbert_distance is core.hilbert_distance
        assert hilbertcone.hilbert_distance is core.hilbert_distance
        tracer.record = True
        for op in ops:
            tracer.begin_op(op["id"])
            _, code, out, err = run_op(cli, op)
            tracer.end_op()
            # With tracing on, stdout and the SVG still match the goldens byte for byte.
            assert oracle.check_op(op, code, out, err, tmp_path, GOLDEN) is None, op["cmd"]
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    figures = tracer.figures(op_time=1.0)
    assert tracer.calls["cli.run_command"] == len(ops)
    assert figures["core.construct.calls"] > 0 and figures["contraction.phi.calls"] > 0
    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[4] is None]
    assert [s[1] for s in roots] == ["cli.run_command"] * len(ops)
    for span_id, name, start, end, parent, op_id in spans.values():
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[2] <= start and end <= p[3] and p[5] == op_id


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(10000))

    wrapped_inner = tracer._wrap(inner, "core.inner")
    wrapped_outer = tracer._wrap(lambda: wrapped_inner() + wrapped_inner(), "bounds.outer")
    assert wrapped_outer() == 2 * inner()
    assert tracer.calls["core.inner"] == 2
    child = tracer.incl["core.inner"]
    assert tracer.self_time["bounds.outer"] == pytest.approx(tracer.incl["bounds.outer"] - child)
    assert tracer.layer_self("core") == pytest.approx(child)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_summary_statistics():
    import run

    lat = [[0.002, 0.001, 0.003]] * 50 + [[0.010, 0.011]] * 50
    s = run.summarize([list(x) for x in lat])
    assert s["ops"] == 100
    assert s["latency_p50_ms"] == pytest.approx(5.5)
    assert s["ops_per_s"] == pytest.approx(100 / (50 * 0.001 + 50 * 0.010))
