import ast
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


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
        assert doc.a_grid.tolist() == [0, 1]

    def test_kernel_grid_bare_matrix(self):
        doc = parse_input("[[0, -1], [-1, 0]]", "kernel_grid")
        assert doc.a_grid.tolist() == [0.0, 1.0]
        assert doc.x_grid.tolist() == [0.0, 1.0]

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
         "kernel_grid", "a_grid must be finite"),
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

    def test_allocation_failure(self, tmp_path):
        # 5 * 10^6 trials of a 2x2 matrix (the most verify takes) start with a 76 MiB array;
        # the child may map 64 MiB more than it has mapped once imported.
        pytest.importorskip("resource")
        if not Path("/proc/self/statm").exists():
            pytest.skip("needs /proc/self/statm to read the mapped size")
        m = write(tmp_path, "m.json", "[[2, 1], [1, 2]]")
        child = ("import resource, sys\n"
                 "from hilbertcone.cli import main\n"
                 "pages = int(open('/proc/self/statm').read().split()[0])\n"
                 "limit = pages * resource.getpagesize() + (1 << 26)\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                 "main()\n")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child, "verify", m, "--trials", "5000000"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate ") and proc.stderr.count("\n") == 1

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
        assert err == ("error: center weight at index 0 underflows to 0 at unit mass; "
                       "rescale the weights\n")
        # The center is refused before the radius is checked.
        assert run([cmd, c, "-1", *extra]) == (1, "")
        assert capsys.readouterr().err == err
        # A zero the user wrote still gets the interior message.
        z = write(tmp_path, "z.json", "[0, 1, 1]")
        assert run([cmd, z, "0.5", *extra]) == (1, "")
        assert capsys.readouterr().err == ("error: chart is only defined on the simplex interior "
                                           "(no zero weights)\n")

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
        ("inf", "theta coordinates must be finite"),
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
