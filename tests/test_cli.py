import argparse
import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hilbertcone import (
    CertificationError,
    GridKernel,
    NonnegMatrix,
    PositiveVector,
    SimplexPoint,
    ValidationError,
    ball_vertices,
    normalize,
    tile,
)
from hilbertcone import bounds, cli, contraction, simplex
from hilbertcone.cli import _write_ball, parse_input, run_command
from hilbertcone.errors import HilbertConeError

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def text_mode_outcome(path, kind):
    """What parse_input makes of the file read in text mode, or the error it raises."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return outcome(lambda: parse_input(fh.read(), kind))


def outcome(make):
    try:
        obj = make()
    except HilbertConeError as exc:
        return type(exc), str(exc)
    return type(obj), obj.weights if isinstance(obj, PositiveVector) else obj.entries.tolist()


LOAD_DOCUMENTS = {
    "CRLF JSON": b"[[1, 2],\r\n [3, 4]]\r\n",
    "CRLF CSV": b"# w\r\n1,2\r\n3,4\r\n",
    "bare CR CSV": b"1,2\r3,4\r",
    "CR before CRLF": b"# a\r\r\n1,2\r\n\r3,4",
    "BOM JSON": b"\xef\xbb\xbf[[1, 2], [3, 4]]",
    "BOM CSV": b"\xef\xbb\xbf1,2\n3,4",
    "invalid UTF-8 in a CSV comment": b"# caf\xe9 \xff\xfe\r\n1,2\n3,4\n",
    "invalid UTF-8 in a CSV row": b"1,2\n3,\xff4\n",
    "invalid UTF-8 in JSON": b"[[1, 2], [3, \xc3]]",
    "line separator": b"1,2\xe2\x80\xa83,4",
    "JSON error after bare CRs": b"[1,\r2,\r\r]",
    "JSON error after CRLFs": b"[[1, 2],\r\n [3, x]]",
}


@pytest.mark.parametrize("kind", ["vector", "matrix"])
@pytest.mark.parametrize("data", LOAD_DOCUMENTS.values(), ids=LOAD_DOCUMENTS.keys())
def test_load_reads_as_text_mode_does(tmp_path, data, kind):
    path = tmp_path / "doc"
    path.write_bytes(data)
    assert outcome(lambda: cli._load(str(path), kind)) == text_mode_outcome(path, kind)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.sampled_from([b"1", b"2.5", b",", b"\r", b"\n", b"\r\n", b"#", b" ",
                                       b"[", b"]", b"\xff", b"\xef\xbb\xbf", b"\xc3",
                                       b"\xe2\x80\xa8"]), max_size=30),
       kind=st.sampled_from(["vector", "matrix"]))
def test_load_reads_random_bytes_as_text_mode_does(parts, kind):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc"
        path.write_bytes(b"".join(parts))
        assert outcome(lambda: cli._load(str(path), kind)) == text_mode_outcome(path, kind)


class TestParseInput:
    def test_json_vector(self):
        doc = parse_input("[1, 2, 3]", "vector")
        assert type(doc) is PositiveVector
        assert doc.weights == (1.0, 2.0, 3.0)

    def test_csv_matrix(self):
        doc = parse_input("# identity\n1,0\n0,1\n", "matrix")
        assert type(doc) is NonnegMatrix
        assert doc.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_single_row_json_matrix_as_vector(self):
        assert parse_input("[[1, 2, 3]]", "vector").weights == (1.0, 2.0, 3.0)

    def test_negative_names_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            parse_input("[1, -2]", "vector")

    def test_ragged(self):
        with pytest.raises(ValidationError, match="ragged"):
            parse_input("[[1, 2], [3]]", "matrix")

    @pytest.mark.parametrize("doc, message", [
        ('[[1, 2], [3, 4], [5, true]]', "entry at (2, 1) is not a number: True"),
        ('[[1, 2], [3, "4"], [null, 6]]', "entry at (1, 1) is not a number: '4'"),
        ('[[1, 2], [], [[3], 4]]', "entry at (2, 0) is not a number: [3.0]"),
    ])
    def test_first_leaf_that_is_not_a_number_is_named(self, doc, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_input(doc, "matrix")

    def test_json_error_location(self):
        with pytest.raises(ValidationError, match="line 1, column"):
            parse_input("[1, 2,", "vector")

    def test_csv_error_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_input("1,2\n1,x\n", "matrix")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            parse_input('[1, "a"]', "vector")

    def test_kernel_grid_object(self):
        doc = parse_input(
            '{"log_values": [[0, -1], [-1, 0]], "a_grid": [0, 1], "x_grid": [0, 1]}',
            "kernel_grid",
        )
        assert type(doc) is GridKernel
        assert doc.log_values.tolist() == [[0.0, -1.0], [-1.0, 0.0]]

    def test_kernel_grid_bare_matrix(self):
        doc = parse_input("[[0, -1], [-1, 0]]", "kernel_grid")
        assert type(doc) is GridKernel
        assert doc.log_values.tolist() == [[0.0, -1.0], [-1.0, 0.0]]

    def test_kernel_grid_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            parse_input('{"log_values": [[0]]}', "kernel_grid")

    def test_empty(self):
        with pytest.raises(ValidationError):
            parse_input("\n# only comments\n", "vector")

    @pytest.mark.parametrize("doc", ["[1, true]", '[1, "2"]', "[1, null]", "[1, [2]]"])
    def test_entries_must_be_json_numbers(self, doc):
        with pytest.raises(ValidationError, match=r"entry at \(0, 1\) is not a number"):
            parse_input(doc, "vector")

    @pytest.mark.parametrize("doc, kind, match", [
        ("[1, Infinity]", "vector", "index 1"),
        ("[[1, 2], [3, NaN]]", "matrix", r"\(1, 1\) is not finite"),
        ("[[1, 2], [-3, 4]]", "matrix", r"\(1, 0\) is negative"),
        ('{"log_values": [[0, 0], [0, 0]], "a_grid": [0, Infinity], "x_grid": [0, 1]}',
         "kernel_grid", "a_grid point at index 1 is not finite: inf"),
        ('{"log_values": [[0, Infinity], [0, 0]], "a_grid": [0, 1], "x_grid": [0, 1]}',
         "kernel_grid", r"log kernel value at \(0, 1\) is not finite: inf"),
    ])
    def test_values_are_checked_by_the_library_type(self, doc, kind, match):
        with pytest.raises(ValidationError, match=match):
            parse_input(doc, kind)


class TestCommands:
    def test_dist(self, tmp_path):
        a = write(tmp_path, "a.json", "[1, 1]")
        b = write(tmp_path, "b.json", "[2, 1]")
        code, out = run(["dist", a, b])
        assert code == 0
        doc = json.loads(out)
        assert doc["hilbert"] == pytest.approx(math.log(2), abs=1e-12)
        assert doc["comparable"] is True

    def test_dist_infinite_as_string(self, tmp_path):
        a = write(tmp_path, "a.json", "[1, 0]")
        b = write(tmp_path, "b.json", "[1, 1]")
        code, out = run(["dist", a, b])
        assert code == 0
        doc = json.loads(out)
        assert doc["hilbert"] == "inf"
        assert doc["t"] == 1.0

    def test_tau_matches_golden(self, tmp_path):
        m = write(tmp_path, "m.json", "[[2, 1], [1, 2]]")
        code, out = run(["tau", m])
        assert code == 0
        assert out == (GOLDEN / "tau_2x2.json").read_text(encoding="utf-8")
        doc = json.loads(out)
        assert doc == {
            "phi": 0.25,
            "tau": 0.3333333333333333,
            "diameter": 1.3862943611198906,
        }

    def test_dist_matches_golden(self, tmp_path):
        a = write(tmp_path, "a.json", "[1, 1]")
        b = write(tmp_path, "b.json", "[9, 1]")
        code, out = run(["dist", a, b])
        assert code == 0
        assert out == (GOLDEN / "dist_19.json").read_text(encoding="utf-8")

    def test_bounds_matches_golden(self, tmp_path):
        a = write(tmp_path, "a.json", "[1, 1]")
        b = write(tmp_path, "b.json", "[9, 1]")
        code, out = run(["bounds", a, b])
        assert code == 0
        assert out == (GOLDEN / "bounds_19.json").read_text(encoding="utf-8")
        for rep in json.loads(out):
            assert rep["holds"] is True

    def test_markov_matches_golden(self, tmp_path):
        p = write(tmp_path, "p.json", "[[0.75, 0.25], [0.25, 0.75]]")
        mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
        code, out = run(["markov", p, mu0, "5"])
        assert code == 0
        assert out == (GOLDEN / "markov_5.csv").read_text(encoding="utf-8")

    def test_ball_matches_golden(self, tmp_path):
        c = write(tmp_path, "c.json", "[1, 1, 1]")
        code, out = run(["ball", c, "0.5"])
        assert code == 0
        assert out == (GOLDEN / "ball_u3.json").read_text(encoding="utf-8")
        doc = json.loads(out)
        assert len(doc["theta_vertices"]) == 6
        assert len(doc["halfspaces"]) == 6

    def test_tile_matches_golden(self, tmp_path):
        c = write(tmp_path, "c.json", "[1, 1, 1]")
        svg_path = tmp_path / "tile.svg"
        code, out = run(["tile", c, "0.5", "1", "--svg", str(svg_path)])
        assert code == 0
        assert out == (GOLDEN / "tile_1.json").read_text(encoding="utf-8")
        assert svg_path.read_text(encoding="utf-8") == (GOLDEN / "tile_1.svg").read_text(
            encoding="utf-8"
        )
        assert len(json.loads(out)) == 7

    def test_tau_at_a_tiny_diameter(self, tmp_path):
        # tau = tanh(diameter / 4); the quotient (1 - sqrt(phi)) / (1 + sqrt(phi)) printed 0.0.
        m = write(tmp_path, "m.json", "[[1, 1], [1, 0.9999999999999999]]")
        assert run(["tau", m]) == (0, (
            '{\n  "phi": 0.9999999999999999,\n  "tau": 2.7755575615628914e-17,\n'
            '  "diameter": 1.1102230246251565e-16\n}\n'
        ))

    def test_tau_kernel(self, tmp_path):
        g = write(tmp_path, "g.json", "[[0, -1], [-1, 0]]")
        code, out = run(["tau-kernel", g])
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_verify(self, tmp_path):
        m = write(tmp_path, "m.json", "[[2, 1], [1, 2]]")
        code, out = run(["verify", m, "--trials", "200", "--seed", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["trials"] == 200


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        m = write(tmp_path, "m.json", "[[3, 1], [2, 5]]")
        outs = {run(["verify", m, "--trials", "300", "--seed", "11"])[1] for _ in range(3)}
        assert len(outs) == 1

    def test_env_seed(self, tmp_path, monkeypatch):
        m = write(tmp_path, "m.json", "[[3, 1], [2, 5]]")
        outs = set()
        for seed in ("77", "78"):  # one process: the variable is read on every call
            monkeypatch.setenv("HILBERT_CONE_SEED", seed)
            _, env_out = run(["verify", m, "--trials", "100"])
            monkeypatch.delenv("HILBERT_CONE_SEED")
            _, flag_out = run(["verify", m, "--trials", "100", "--seed", seed])
            assert env_out == flag_out
            outs.add(env_out)
        assert len(outs) == 2


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, _ = run(["tau"])
        assert code == 2
        code, _ = run(["no-such-command"])
        assert code == 2

    def test_domain_error_is_1(self, tmp_path):
        bad = write(tmp_path, "bad.json", "[1, -2]")
        code, _ = run(["dist", bad, bad])
        assert code == 1

    def test_missing_file_is_1(self):
        code, _ = run(["tau", "/nonexistent/file.json"])
        assert code == 1

    def test_not_stochastic_is_1(self, tmp_path):
        p = write(tmp_path, "p.json", "[[0.8, 0.4], [0.5, 0.5]]")
        mu0 = write(tmp_path, "mu0.json", "[0.5, 0.5]")
        code, _ = run(["markov", p, mu0, "3"])
        assert code == 1


def single_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


class TestCleanErrors:
    def test_tau_on_empty_array(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", "[]")
        assert run(["tau", m]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.parametrize("command", ["tau", "tau-kernel", "markov"])
    def test_ragged_rows_named(self, tmp_path, capsys, command):
        argv = [command, write(tmp_path, "m.json", "[[1, 2], [3]]")]
        if command == "markov":
            argv += [write(tmp_path, "mu0.json", "[0.5, 0.5]"), "3"]
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == "error: ragged array: row 1 has 1 entries, expected 2\n"

    def test_tau_kernel_on_single_row(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", "[[1, 2, 3]]")
        assert run(["tau-kernel", g]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc", [
        "[[1e308, 1e308], [-1e308, -1e308]]",
        json.dumps({"log_values": [[1e308] * 3, [0.0] * 3, [-1e308] * 3],
                    "a_grid": [0, 1, 2], "x_grid": [0, 1, 2]}),
        "[[1e308, -1e308], [-1e308, 1e308]]",
    ], ids=["rank-one", "rank-one-grid", "full-rank"])
    def test_tau_kernel_past_float_range(self, tmp_path, capsys, doc):
        # Finite log values whose differences overflow used to print NaN (or warn).
        g = write(tmp_path, "g.json", doc)
        assert run(["tau-kernel", g]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 60], ids=["one block", "pruned blocks"])
    def test_tau_kernel_diameter_past_float_range(self, tmp_path, capsys, n):
        # Every difference of two log values is finite, but an oscillation (up to twice the
        # span) is not: this printed phi 0.0 and tau 1.0 with a numpy warning and exited 0.
        board = [[8e307 if (i + j) % 2 == 0 else -8e307 for j in range(n)] for i in range(n)]
        g = write(tmp_path, "g.json", json.dumps(board))
        assert run(["tau-kernel", g]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    def test_tau_kernel_half_float_range(self, tmp_path):
        g = write(tmp_path, "g.json", "[[4e307, -4e307], [-4e307, 4e307]]")
        assert run(["tau-kernel", g]) == (0, '{\n  "phi": 0.0,\n  "tau": 1.0\n}\n')

    @pytest.mark.filterwarnings("error")
    def test_tau_kernel_grid_spanning_float_range(self, tmp_path, capsys):
        # The grid step a_grid[1] - a_grid[0] overflows; testing it printed a numpy warning.
        lv = [[0, 1], [1, 0]]
        doc = {"log_values": lv, "a_grid": [-1.7e308, 1.7e308], "x_grid": [0, 1]}
        plain = run(["tau-kernel", write(tmp_path, "m.json", json.dumps(lv))])
        assert plain[0] == 0
        assert run(["tau-kernel", write(tmp_path, "g.json", json.dumps(doc))]) == plain
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_markov_row_sum_past_float_range(self, tmp_path, capsys):
        # The row sum overflows to inf; taking it printed a numpy warning before the error.
        p = write(tmp_path, "p.json", "[[1e308, 1e308], [1, 1]]")
        mu0 = write(tmp_path, "mu0.json", "[0.5, 0.5]")
        assert run(["markov", p, mu0, "3"]) == (1, "")
        assert capsys.readouterr().err == "error: matrix is not row-stochastic within 1e-10\n"

    def test_verify_trials_cap(self, tmp_path, monkeypatch, capsys):
        def no_draw(seed):
            raise AssertionError("sampling started")

        monkeypatch.setattr(contraction.np.random, "default_rng", no_draw)
        m = write(tmp_path, "m.json", "[[2, 1], [1, 2]]")
        start = time.perf_counter()
        assert run(["verify", m, "--trials", "100000000"]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert single_error_line(capsys)

    def test_non_integer_seed_variable_is_usage_error(self, tmp_path, monkeypatch, capsys):
        m = write(tmp_path, "m.json", "[[3, 1], [2, 5]]")
        p = write(tmp_path, "p.json", "[[0.75, 0.25], [0.25, 0.75]]")
        v = write(tmp_path, "v.json", "[1, 2, 3]")
        mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
        svg = str(tmp_path / "t.svg")
        monkeypatch.setenv("HILBERT_CONE_SEED", "abc")
        for argv in (["verify", m, "--trials", "10"], ["dist", v, v], ["bounds", v, v],
                     ["tau", m], ["tau-kernel", m], ["ball", v, "0.5"],
                     ["tile", v, "0.5", "1", "--svg", svg], ["markov", p, mu0, "3"]):
            assert run(argv) == (2, ""), argv
            assert single_error_line(capsys), argv

    def test_negative_seed(self, tmp_path, monkeypatch, capsys):
        m = write(tmp_path, "m.json", "[[3, 1], [2, 5]]")
        assert run(["verify", m, "--seed", "-1"]) == (1, "")
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        monkeypatch.setenv("HILBERT_CONE_SEED", "-5")
        assert run(["verify", m]) == (1, "")
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"

    def test_positional_after_a_second_double_dash_is_usage_error(self, tmp_path, capsys):
        """Python 3.11's argparse drops every '--' and gives the positional after a second one
        [], which escaped the handler as a TypeError."""
        a, c = write(tmp_path, "a.json", "[1, 2, 3]"), write(tmp_path, "c.json", "[1, 1, 1]")
        for argv, usage, dest in ((["dist", "--", a, "--"], "dist [-h] a b", "b"),
                                  (["ball", c, "--", "--"], "ball [-h] center radius", "radius")):
            assert run(argv) == (2, ""), argv
            cmd = argv[0]
            assert capsys.readouterr().err == (f"usage: hilbertcone {usage}\nhilbertcone {cmd}: "
                                               f"error: argument {dest}: expected one argument\n")

    def test_allocation_failure(self, tmp_path):
        # The child may map 64 MiB more than it has mapped once imported.
        pytest.importorskip("resource")
        if not Path("/proc/self/statm").exists():
            pytest.skip("needs /proc/self/statm to read the mapped size")
        child = ("import resource, sys\n"
                 "from hilbertcone.cli import main\n"
                 "pages = int(open('/proc/self/statm').read().split()[0])\n"
                 "limit = pages * resource.getpagesize() + (1 << 26)\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                 "main()\n")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

        def limited(*argv):
            return subprocess.run([sys.executable, "-c", child, *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        # 5 * 10^6 trials of a 2x2 matrix, the most verify takes, run in blocks of about
        # 2 MB; all at once they would start with a 76 MiB array.
        proc = limited("verify", write(tmp_path, "m.json", "[[2, 1], [1, 2]]"),
                       "--trials", "5000000")
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
        # A million Markov rows (~0.4 GB) fail in the interpreter, whose MemoryError has no text.
        proc = limited("markov", write(tmp_path, "p.json", "[[0.75, 0.25], [0.25, 0.75]]"),
                       write(tmp_path, "mu0.json", "[0.9, 0.1]"), "1000000")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")

    def test_certificate_violation(self, tmp_path, monkeypatch, capsys):
        # A forced tau = 0 claims pi is reached in one step, false for this chain.
        monkeypatch.setattr(contraction, "birkhoff_tau", lambda P: 0.0)
        chain = [[0.75, 0.25], [0.25, 0.75]]
        with pytest.raises(CertificationError, match="exceeds certified bound"):
            contraction.markov_converge(chain, SimplexPoint((0.9, 0.1)), 5)
        p = write(tmp_path, "p.json", json.dumps(chain))
        mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
        assert run(["markov", p, mu0, "5"]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.parametrize("a", ["[1e308, 1e308]", "[" + "9" * 400 + ", 1]"],
                             ids=["mass-overflow", "400-digit-int"])
    def test_dist_past_float_range(self, tmp_path, capsys, a):
        b = write(tmp_path, "b.json", "[1, 1]")
        assert run(["dist", write(tmp_path, "a.json", a), b]) == (1, "")
        assert single_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    def test_verify_on_overflowing_image(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", "[[1.3e307]]")
        assert run(["verify", m]) == (1, "")
        assert single_error_line(capsys)

    def test_document_that_is_not_utf8(self, tmp_path, capsys):
        bad, latin = tmp_path / "bad.json", tmp_path / "latin.csv"
        bad.write_bytes(b"[[1, 2], [3, \xff]]")
        latin.write_bytes(b"# caf\xe9\n2,1\n1,2\n")
        assert run(["tau", str(bad)]) == (1, "")
        assert single_error_line(capsys)
        golden = (GOLDEN / "tau_2x2.json").read_text(encoding="utf-8")
        assert run(["tau", str(latin)]) == (0, golden)

    def test_ball_above_the_dimension_cap(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", json.dumps([1.0] * 30))
        start = time.perf_counter()
        assert run(["ball", c, "0.5"]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert single_error_line(capsys)

    @pytest.mark.parametrize("cmd", ["ball", "tile"])
    def test_center_weight_that_underflows_at_unit_mass(self, tmp_path, capsys, cmd):
        # 5e-324 / 2 rounds to 0: the error names that weight, not a zero in the document.
        svg = str(tmp_path / "t.svg")
        extra = {"ball": [], "tile": ["1", "--svg", svg]}[cmd]
        c = write(tmp_path, "c.json", "[5e-324, 1, 1]")
        assert run([cmd, c, "0.5", *extra]) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: argument center: weight at index 0 underflows to 0 at unit mass\n"
        # The center is refused before the radius is checked.
        assert run([cmd, c, "-1", *extra]) == (1, "")
        assert capsys.readouterr().err == err
        # A zero the user wrote still gets the interior message.
        z = write(tmp_path, "z.json", "[0, 1, 1]")
        assert run([cmd, z, "0.5", *extra]) == (1, "")
        assert capsys.readouterr().err == ("error: chart is only defined on the simplex interior "
                                           "(no zero weights)\n")
        # Beside a written zero, the lost weight is the one named.
        zt = write(tmp_path, "zt.json", "[0, 5e-324, 1, 1]")
        assert run([cmd, zt, "0.5", *extra]) == (1, "")
        assert capsys.readouterr().err == err.replace("index 0", "index 1")

    @pytest.mark.parametrize("cmd", ["dist", "bounds"])
    def test_pair_weight_that_underflows_at_unit_mass(self, tmp_path, capsys, cmd):
        # H of this pair is 1206.6, but its unit masses lose 3 and 2 weights to underflow
        # and would sit on faces at H = inf: this printed "kl": "inf" and inapplicable bounds.
        rng = np.random.default_rng(3)
        ws = [np.exp(rng.uniform(-700, 700, 6)).tolist() for _ in "ab"]
        a, b = (write(tmp_path, f"{name}.json", json.dumps(w)) for name, w in zip("ab", ws))
        ones = write(tmp_path, "ones.json", json.dumps([1.0] * 6))
        assert run([cmd, a, b]) == (1, "")
        assert capsys.readouterr().err == ("error: argument a: weight at index 0 underflows "
                                           "to 0 at unit mass\n")
        assert run([cmd, ones, b]) == (1, "")
        assert capsys.readouterr().err == ("error: argument b: weight at index 1 underflows "
                                           "to 0 at unit mass\n")
        # Both documents load before either is scaled: a malformed b names its own fault.
        bad = write(tmp_path, "bad.json", "[1, \"x\"]")
        assert run([cmd, a, bad]) == (1, "")
        assert capsys.readouterr().err == "error: entry at (0, 1) is not a number: 'x'\n"

    def test_markov_start_weight_that_underflows_at_unit_mass(self, tmp_path, capsys):
        # This printed a face-start table, H(mu_0, pi) = inf, for a mu0 the user never wrote.
        p = write(tmp_path, "p.json", "[[0.75, 0.25], [0.25, 0.75]]")
        mu0 = write(tmp_path, "mu0.json", "[5e-324, 3]")
        assert run(["markov", p, mu0, "3"]) == (1, "")
        assert capsys.readouterr().err == ("error: argument mu0: weight at index 0 underflows "
                                           "to 0 at unit mass\n")

    def test_written_zero_is_not_refused(self, tmp_path):
        # Only a zero that scaling made is refused; one the document holds keeps its output.
        z, ones = write(tmp_path, "z.json", "[0, 1, 1]"), write(tmp_path, "ones.json", "[1, 1, 1]")
        assert run(["dist", z, ones]) == (0, (
            '{\n  "hilbert": "inf",\n  "t": 1.0,\n  "tv": 0.6666666666666667,\n'
            '  "kl": 0.4054651081081645,\n  "comparable": false\n}\n'))
        reports = bounds.bound_reports(normalize(PositiveVector((0.0, 1.0, 1.0))),
                                       normalize(PositiveVector((1.0, 1.0, 1.0))))
        expected = io.StringIO()
        cli._emit_json([vars(r) for r in reports], expected)
        assert run(["bounds", z, ones]) == (0, expected.getvalue())
        p = write(tmp_path, "p.json", "[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]")
        assert run(["markov", p, z, "2"]) == (0, (
            "step,hilbert,t,tv,certified_bound\n"
            "0,inf,1.0,0.6666666666666572,inf\n"
            "1,0.40546510810814307,0.10102051443363852,0.1666666666666572,inf\n"
            "2,0.09531017980430355,0.023823036596963734,0.04166666666665719,inf\n"))

    def test_markov_above_the_step_cap(self, tmp_path, monkeypatch, capsys):
        # 10^8 steps would keep ~39 GB of rows; the count is refused before the walk.
        monkeypatch.setattr(contraction, "_iterates", None)  # a walk would raise TypeError
        p = write(tmp_path, "p.json", "[[0.75, 0.25], [0.25, 0.75]]")
        mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
        start = time.perf_counter()
        assert run(["markov", p, mu0, "100000000"]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: steps must be <= 1000000, got 100000000\n"

    def test_tile_above_the_shell_cap(self, tmp_path, capsys):
        # 10^6 shells would be 3 * 10^12 balls; the count is refused before the lattice.
        c, svg = write(tmp_path, "c.json", "[1, 1, 1]"), tmp_path / "t.svg"
        start = time.perf_counter()
        for shells in ("101", "1000000"):
            assert run(["tile", c, "0.01", shells, "--svg", str(svg)]) == (1, "")
            assert capsys.readouterr().err == f"error: shells must be <= 100, got {shells}\n"
        assert time.perf_counter() - start < 1.0
        assert not svg.exists()

    @pytest.mark.parametrize("command, doc", [
        ("dist", "[" * 1000 + "]" * 1000),
        ("tau", "[" * 1000 + "1" + "]" * 1000),
        ("tau-kernel", '{"log_values": ' + "[" * 1000 + "]" * 1000 + "}"),
    ])
    def test_deeply_nested_document(self, tmp_path, capsys, command, doc):
        argv = [command, write(tmp_path, "deep.json", doc)]
        if command == "dist":
            argv.append(write(tmp_path, "v.json", "[1, 2]"))
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == "error: JSON document is nested too deeply\n"

    def test_nested_entry_is_echoed_briefly(self, tmp_path, capsys):
        v = write(tmp_path, "v.json", "[1, 2]")
        f = write(tmp_path, "deep.json", "[" * 50 + "1" + "]" * 50)
        assert run(["dist", f, v]) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: entry at (0, 0) is not a number: [[[[[[[...]]]]]]]\n"
        f = write(tmp_path, "s.json", '[1, "%s"]' % ("x" * 100))
        assert run(["dist", f, v]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: entry at (0, 1) is not a number: 'xxx") and len(err) < 100

    @pytest.mark.parametrize("depth", [900, 1000])
    def test_deeply_nested_document_in_a_subprocess(self, tmp_path, depth):
        f = write(tmp_path, "deep.json", "[" * depth + "1" + "]" * depth)
        v = write(tmp_path, "v.json", "[1, 2]")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "hilbertcone", "dist", f, v],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert len(proc.stderr) < 100, proc.stderr

    def test_periodic_chain_has_no_stationary_distribution(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", "[[0, 1], [1, 0]]")
        mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
        assert run(["markov", p, mu0, "5"]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: no stationary distribution") and err.count("\n") == 1
        assert "H=4.394449154672439" in err


    @pytest.mark.parametrize("radius, message", [
        ("inf", "theta coordinate at index 0 is not finite: inf"),
        ("1e308", "coordinate spread 1e+308 underflows a softmax weight to 0"),
        ("800", "coordinate spread 800 underflows a softmax weight to 0"),
        ("730", "vertex misses the sphere by 7.2e-07"),
    ])
    def test_ball_past_float_range(self, tmp_path, capsys, radius, message):
        c = write(tmp_path, "c.json", "[1, 1, 1]")
        assert run(["ball", c, radius]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def _ball_dict(ball):
    """A ball in the layout the CLI writes: the test oracle for its writer, with json.dumps."""
    return {
        "center": ball.center.weights,
        "radius": ball.radius,
        "theta_vertices": [v.coords for v in ball.theta_vertices],
        "simplex_vertices": [v.weights for v in ball.simplex_vertices],
        "halfspaces": ball.halfspaces,
    }


_centers = st.lists(st.floats(0.01, 100.0), min_size=2, max_size=9)  # S^1..S^8
_radii = st.sampled_from(["1e-300", "1e-05", "0.1", "0.5", "2.5"])


@settings(max_examples=40, deadline=None)
@given(weights=_centers, radius=_radii,
       reprs=st.lists(st.sampled_from([1e-05, 1e16, 0.1, 12345.678, 5e-324]) | st.floats(
           allow_nan=False, allow_infinity=False), max_size=3))
def test_ball_writer_matches_json_dump(weights, radius, reprs):
    with tempfile.TemporaryDirectory() as d:
        c = Path(d, "c.json")
        c.write_text(json.dumps(weights))
        code, out = run(["ball", str(c), radius])
    assert code == 0
    ball = ball_vertices(normalize(PositiveVector(tuple(weights))), float(radius))
    assert out == json.dumps(_ball_dict(ball), indent=2) + "\n"
    # Radii whose repr the ball above cannot reach: 1e+16, 5e-324, a negative exponent.
    for r in reprs:
        buf = io.StringIO()
        _write_ball(dataclasses.replace(ball, radius=r), buf)
        assert buf.getvalue() == json.dumps(_ball_dict(ball) | {"radius": r}, indent=2)


@settings(max_examples=20, deadline=None)
@given(weights=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
       radius=_radii, shells=st.integers(0, 3))
def test_tile_writer_matches_json_dump(weights, radius, shells):
    with tempfile.TemporaryDirectory() as d:
        c = Path(d, "c.json")
        c.write_text(json.dumps(weights))
        code, out = run(["tile", str(c), radius, str(shells), "--svg", str(Path(d, "t.svg"))])
    assert code == 0
    balls = tile(normalize(PositiveVector(tuple(weights))), float(radius), shells)
    assert out == json.dumps([_ball_dict(b) for b in balls], indent=2) + "\n"


_strings = st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9", "\u2028", "\U0001f600"]) | st.text()
_scalars = (st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -math.inf, math.nan])
            | st.booleans() | st.integers() | st.none() | _strings)
_flat_dicts = st.dictionaries(_strings, _scalars, min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(obj=_flat_dicts | st.lists(_flat_dicts, min_size=1, max_size=4))
def test_report_writer_matches_json_dump(obj):
    buf = io.StringIO()
    cli._emit_json(obj, buf)
    rows = [{k: "inf" if v == math.inf else v for k, v in r.items()}
            for r in (obj if isinstance(obj, list) else [obj])]
    assert buf.getvalue() == json.dumps(rows if isinstance(obj, list) else rows[0], indent=2) + "\n"


def _run_full_parse(argv):
    """The CLI with every argv through the full parser: the oracle for run_command's dispatch."""
    buf = io.StringIO()
    try:
        args = cli._build_parser().parse_args(argv, argparse.Namespace(env_seed=0))
        code = args.func(args, buf)
    except SystemExit as exc:
        code = int(exc.code or 0)
    except (HilbertConeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    return code, buf.getvalue()


DOCUMENTS = {"a": "[1, 2, 3]", "b": "[3, 2, 1]", "c": "[1, 1, 1]", "m": "[[1, 2], [3, 4]]"}


@pytest.mark.parametrize("argv", [
    "", "-h", "nope",
    "dist", "dist -h", "dist a",
    "dist a b extra", "verify m --bogus", "verify m --trials x",  # leftovers, then a bad value
    "tile c 0.5 1", "-- dist a b", "dist -- a b", "ball c -1",
])
def test_dispatch_matches_the_full_parser(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HILBERT_CONE_SEED", raising=False)
    for name, text in DOCUMENTS.items():
        write(tmp_path, name, text)
    expected = (*_run_full_parse(argv.split()), capsys.readouterr())
    assert (*run(argv.split()), capsys.readouterr()) == expected


VALID = {str: [*DOCUMENTS, "t.svg", "nope", ""], float: ["0.5", "2", "1e-3"], int: ["2", "1", "0"]}
ODD = [["-t.svg"], ["-0.5"], ["-3"], ["x"], ["1.5"], ["a"], [""], ["--"], ["-h"], ["--help"],
       ["--trials"], ["--svg"], ["--tri"], ["--se"], ["--trials=5"], ["--seed=-3"], ["-x"],
       ["--seed", "5"], ["--tri", "5"]]


@st.composite
def argvs(draw):
    """A well-formed command line, its options anywhere among its positionals, with up to two
    odd tokens put in place of a token or beside one; or no command, or an unknown one."""
    cmd = draw(st.sampled_from([*cli._COMMANDS, *cli._COMMANDS, "nope", "", "-h", "--"]))
    _, _, positionals, options = cli._COMMANDS.get(cmd, (None, None, [("a", str)], {}))
    units = [[draw(st.sampled_from(VALID[type_]))] for _, type_ in positionals]
    for flag, (type_, *_) in options.items():
        for _ in range(draw(st.sampled_from([1, 0, 2]))):  # given twice, the last one wins
            unit = [flag, draw(st.sampled_from(VALID[type_]))]
            units.insert(draw(st.integers(0, len(units))), unit)
    argv = [t for unit in units for t in unit]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = draw(st.sampled_from(ODD))
    return [cmd, *argv]


def _outputs(call, argv):
    """``call(argv)`` on fresh documents in the current directory (a tile may have written its
    SVG over one), with sys.stdout and sys.stderr captured: argparse writes to them.  An
    escaping exception is an output too, so both paths must fail alike."""
    for name, text in DOCUMENTS.items():
        Path(name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as so, \
            contextlib.redirect_stderr(io.StringIO()) as se:
        try:
            result = call(argv)
        except Exception as exc:
            result = f"escaped {type(exc).__name__}: {exc}"
    return result, so.getvalue(), se.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
@example(argv=["tile", "c", "0.5", "--svg", "t.svg", "1"])
@example(argv=["tile", "c", "0.5", "1", "--svg", "-t.svg"])  # a value argparse refuses
@example(argv=["verify", "--trials", "20", "m", "--seed", "3", "--seed", "4"])
@example(argv=["markov", "m", "", "2"])
@example(argv=["tile", "--svg", "a", "a", "0.5", "2"])  # the SVG replaces the center document
def test_argv_read_from_the_table_matches_argparse(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("HILBERT_CONE_SEED", None)
        os.chdir(tmp)  # documents and SVGs by relative name
        try:
            args = cli._args(argv, 0)
            if args is not None:
                full, leftover = cli._build_parser().parse_known_args(
                    argv, argparse.Namespace(env_seed=0))
                assert (vars(args), leftover) == (vars(full), [])
            assert _outputs(run, argv) == _outputs(_run_full_parse, argv)
        finally:
            os.chdir(cwd)


def test_help_is_the_parsers_text(monkeypatch, capsys):
    """Top-level and per-command help, byte for byte as the add_parser blocks printed it."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    for argv in [["-h"], *([cmd, "-h"] for cmd in cli._COMMANDS)]:
        assert run(argv) == (0, "")
    assert capsys.readouterr().out == (Path(__file__).parent / "cli_help.txt").read_text()


def test_well_formed_command_imports_no_argparse(tmp_path):
    m = write(tmp_path, "m.json", "[[1, 2], [3, 4]]")
    script = ("import sys\nfrom hilbertcone.cli import run_command\n"
              f"code = run_command(['verify', '--trials', '20', {m!r}, '--seed', '3'])\n"
              "print(code, 'argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr


def _report_text(lhs_name, rhs_name, lhs, rhs, slack, applicable):
    return (f'  {{\n    "lhs_name": "{lhs_name}",\n    "rhs_name": "{rhs_name}",\n'
            f'    "lhs_value": {lhs},\n    "rhs_value": {rhs},\n    "slack": {slack},\n'
            f'    "holds": true,\n    "applicable": {applicable}\n  }}')


class TestInfiniteOutput:
    """Exact stdout where a value is infinite; the texts were produced by the seed CLI."""

    A, B = "[1, 1, 2]", "[1, 0, 1]"  # not comparable: mu has mass where nu has none
    M = "[[1, 0], [1, 1]]"  # a zero entry: phi = 0 and the diameter is infinite

    def test_dist_on_non_comparable_pair(self, tmp_path):
        a, b = write(tmp_path, "a.json", self.A), write(tmp_path, "b.json", self.B)
        assert run(["dist", a, b]) == (0, (
            '{\n  "hilbert": "inf",\n  "t": 1.0,\n  "tv": 0.5,\n  "kl": "inf",\n'
            '  "comparable": false\n}\n'
        ))

    def test_tau_with_zero_entry(self, tmp_path):
        m = write(tmp_path, "m.json", self.M)
        assert run(["tau", m]) == (0, '{\n  "phi": 0.0,\n  "tau": 1.0,\n  "diameter": "inf"\n}\n')

    def test_verify_with_zero_entry(self, tmp_path):
        m = write(tmp_path, "m.json", self.M)
        assert run(["verify", m, "--trials", "50", "--seed", "3"]) == (0, (
            '{\n  "phi": 0.0,\n  "tau": 1.0,\n  "diameter": "inf",\n  "trials": 50,\n'
            '  "max_violation": -0.001402170908941177,\n  "passed": true\n}\n'
        ))

    def test_bounds_on_mismatched_supports(self, tmp_path):
        a, b = write(tmp_path, "a.json", self.A), write(tmp_path, "b.json", self.B)
        inf = '"inf"'
        reports = [
            ("tv", "2*tanh(H/4)", 0.5, 2.0, 1.5, "true"),
            ("tv", "(2/log3)*H", 0.5, inf, inf, "false"),
            ("sup_A |mu(A)-nu(A)|", "T", 0.25, 1.0, 0.75, "true"),
            ("T", "tv/(4*min-mass)", 1.0, inf, inf, "false"),
            ("W1", "(e^H-1)*m1(mu)", 0.25, inf, inf, "false"),
            ("|moment-gap q=1|", "K_1(mu)*(e^H-1)", 0.25, inf, inf, "false"),
            ("|moment-gap q=2|", "K_2(mu)*(e^H-1)", 0.25, inf, inf, "false"),
            ("KL", "H", inf, inf, inf, "false"),
        ]
        expected = "[\n" + ",\n".join(_report_text(*r) for r in reports) + "\n]\n"
        assert run(["bounds", a, b]) == (0, expected)


class TestKernelGridDocument:
    """The CLI checks a kernel document's grids itself: GridKernel holds only log values."""

    LV = [[0.0, -1.0, -2.0], [-1.0, 0.0, -1.0]]  # 2 rows (a_grid), 3 columns (x_grid)
    OUT = '{\n  "phi": 0.1353352832366127,\n  "tau": 0.46211715726000974\n}\n'

    @pytest.mark.parametrize("a_grid, x_grid, message", [
        ([0, 1, 2], [0, 1, 2], "3 a_grid points for a log_values axis of length 2"),
        ([0, 1], [0, 1], "2 x_grid points for a log_values axis of length 3"),
        ([1, 1], [0, 1, 2],
         "a_grid points must be strictly increasing: index 1 holds 1.0 after 1.0"),
        ([0, 1], [0, 2, 1],
         "x_grid points must be strictly increasing: index 2 holds 1.0 after 2.0"),
        ([0, math.nan], [0, 1, 2], "a_grid point at index 1 is not finite: nan"),
        ([0, 1], [math.inf, 0, -math.inf], "x_grid point at index 0 is not finite: inf"),
    ], ids=["a-length", "x-length", "a-repeated", "x-decreasing", "a-nan", "x-infinity"])
    def test_bad_grid_is_refused(self, tmp_path, capsys, a_grid, x_grid, message):
        doc = json.dumps({"log_values": self.LV, "a_grid": a_grid, "x_grid": x_grid})
        assert run(["tau-kernel", write(tmp_path, "g.json", doc)]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_log_value_is_named_before_a_bad_grid(self, tmp_path, capsys):
        doc = json.dumps({"log_values": [[0.0, math.inf], [0.0, 0.0]], "a_grid": [1, 0],
                          "x_grid": [0, 1]})
        assert run(["tau-kernel", write(tmp_path, "g.json", doc)]) == (1, "")
        assert capsys.readouterr().err == "error: log kernel value at (0, 1) is not finite: inf\n"

    def test_grids_do_not_change_the_output(self, tmp_path, capsys):
        bare = write(tmp_path, "m.json", json.dumps(self.LV))
        doc = json.dumps({"log_values": self.LV, "a_grid": [-5, 1e308], "x_grid": [0, 1, 9]})
        assert run(["tau-kernel", bare]) == (0, self.OUT)
        assert run(["tau-kernel", write(tmp_path, "g.json", doc)]) == (0, self.OUT)
        assert capsys.readouterr().err == ""

    def test_cli_builds_no_grid(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "numpy" not in imported


def test_cli_calls_only_public_library_names():
    """Every bnd.X, ctr.X and spx.X in cli.py is in that module's __all__."""
    modules = {"bnd": bounds, "ctr": contraction, "spx": simplex}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {alias for alias, _ in used} == set(modules)
    assert sorted(f"{a}.{x}" for a, x in used if x not in modules[a].__all__) == []


def test_one_phi_pass_per_op(tmp_path, monkeypatch):
    """tau, tau-kernel, verify and markov each run the O(n^3) pass once, on C-order logs."""
    passes = []
    real = contraction._pairwise_diameter
    monkeypatch.setattr(
        contraction, "_pairwise_diameter", lambda L: passes.append(L.flags.c_contiguous) or real(L)
    )
    # Non-symmetric, so the pass runs on the transpose of one of them.
    m = write(tmp_path, "m.json", "[[3, 2], [1, 5]]")
    p = write(tmp_path, "p.json", "[[0.7, 0.3], [0.2, 0.8]]")
    mu0 = write(tmp_path, "mu0.json", "[0.9, 0.1]")
    g = write(tmp_path, "g.json", "[[0, -1, 2], [-1, 0, 1]]")
    for argv in (["tau", m], ["tau-kernel", g], ["verify", m, "--trials", "10"],
                 ["markov", p, mu0, "3"]):
        passes.clear()
        assert run(argv)[0] == 0
        assert passes == [True], argv


_scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(10**300, 10**400),
    st.floats(0.0, 10.0),
    st.floats(1e300, 1.7976931348623157e308),
    st.sampled_from([5e-324, 1e-310, -1.0, -8e307, 8e307, math.inf, math.nan]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_rows = st.lists(_scalars, min_size=1, max_size=4)
_json_docs = st.one_of(
    _rows,
    st.lists(_rows, min_size=0, max_size=4),
    st.lists(st.lists(_rows, max_size=2), max_size=2),
    st.fixed_dictionaries({"log_values": st.lists(_rows, max_size=3), "a_grid": _rows,
                           "x_grid": _rows}),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
).map(json.dumps)
_csv_docs = st.lists(_rows, min_size=0, max_size=4).map(
    lambda rows: "\n".join(",".join(map(str, r)) for r in rows)
)
# Half the documents are valid 3-entry vectors or 3-state chains, so that
# markov and tile get past parsing.  Positive chains end the stationary search
# in a few steps.
_vector3 = st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3)
_chain3 = st.lists(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3), min_size=3,
                   max_size=3).map(lambda m: [[v / sum(r) for v in r] for r in m])
_documents = st.sampled_from([
    _vector3.map(json.dumps).map(str.encode),
    _chain3.map(json.dumps).map(str.encode),
    st.one_of(_json_docs, _csv_docs, st.text(max_size=20)).map(str.encode),
    st.binary(max_size=20),
]).flatmap(lambda documents: documents)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("error")  # a warning would reach stderr beside the error line
@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(
        ["dist", "bounds", "tau", "tau-kernel", "verify", "ball", "markov", "tile"]
    ),
    first=_documents,
    second=_documents,
    radius=st.sampled_from(["0.5", "1e308", "0", "nan", "inf", "800"]),
    count=st.sampled_from(["2", "0", "-1"]),
)
def test_any_document_ends_cleanly(command, first, second, radius, count):
    with tempfile.TemporaryDirectory() as d:
        a, b = Path(d, "a"), Path(d, "b")
        a.write_bytes(first)
        b.write_bytes(second)
        argv = {
            "dist": [command, str(a), str(b)],
            "bounds": [command, str(a), str(b)],
            "ball": [command, str(a), radius],
            "verify": [command, str(a), "--trials", "20"],
            "markov": [command, str(a), str(b), count],
            "tile": [command, str(a), radius, count, "--svg", str(Path(d, "t.svg"))],
        }.get(command, [command, str(a)])
        code, out = run(argv)
    assert code in (0, 1, 2)
    if command == "markov" and out:
        header, *rows = out.splitlines()
        assert header == "step,hilbert,t,tv,certified_bound"
        assert not any(math.isnan(float(v)) for row in rows for v in row.split(","))
    elif out:
        json.loads(out, parse_constant=_reject_constant)
