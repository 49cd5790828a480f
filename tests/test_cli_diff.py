"""tools/cli_diff.py on two trees: a clean run leaves nothing, a differing one keeps its inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cli_diff(old, new, tmp):
    env = {**os.environ, "TMPDIR": str(tmp), "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_diff.py"), str(old), str(new),
                           "5", "40"], capture_output=True, text=True, env=env, timeout=300)


def test_clean_run_exits_0_and_leaves_no_directory(tmp_path):
    (tmp_path / "tmp").mkdir()
    proc = cli_diff(SRC, SRC, tmp_path / "tmp")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differing     0" in proc.stdout.splitlines()[-1]
    assert list((tmp_path / "tmp").iterdir()) == []


def test_differing_run_keeps_inputs_that_rerun(tmp_path):
    patched = tmp_path / "patched"
    shutil.copytree(SRC / "hilbertcone", patched / "hilbertcone")
    cli = patched / "hilbertcone" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"comparable": h < math.inf') == 1
    cli.write_text(text.replace('"comparable": h < math.inf', '"comparable": None'),
                   encoding="utf-8")
    (tmp_path / "tmp").mkdir()
    proc = cli_diff(SRC, patched, tmp_path / "tmp")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    (work,) = (tmp_path / "tmp").iterdir()
    assert lines[-1] == f"inputs kept in {work}; run a printed argv from there"
    shown = [line.split(": ", 1)[1].split() for line in lines if line.startswith("differs in")]
    assert shown and all(argv[0] == "dist" for argv in shown)
    env = {**os.environ, "PYTHONPATH": str(patched)}
    rerun = subprocess.run([sys.executable, "-m", "hilbertcone", *shown[0]], cwd=work,
                           capture_output=True, text=True, env=env, timeout=120)
    assert rerun.returncode == 0, rerun.stderr
    assert '"comparable": null' in rerun.stdout
