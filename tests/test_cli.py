import io
import json
import math
from pathlib import Path

import pytest

from hilbertcone import CertificationError, SimplexPoint, ValidationError
from hilbertcone import contraction
from hilbertcone.cli import parse_input, run_command

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
        assert doc.kind == "vector"
        assert doc.payload == [1, 2, 3]

    def test_csv_matrix(self):
        doc = parse_input("# identity\n1,0\n0,1\n", "matrix")
        assert doc.payload == [[1.0, 0.0], [0.0, 1.0]]

    def test_single_row_json_matrix_as_vector(self):
        assert parse_input("[[1, 2, 3]]", "vector").payload == [1, 2, 3]

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
        assert doc.payload["a_grid"] == [0, 1]

    def test_kernel_grid_bare_matrix(self):
        doc = parse_input("[[0, -1], [-1, 0]]", "kernel_grid")
        assert doc.payload["a_grid"] == [0.0, 1.0]
        assert doc.payload["x_grid"] == [0.0, 1.0]

    def test_kernel_grid_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            parse_input('{"log_values": [[0]]}', "kernel_grid")

    def test_empty(self):
        with pytest.raises(ValidationError):
            parse_input("\n# only comments\n", "vector")


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
        monkeypatch.setenv("HILBERT_CONE_SEED", "77")
        _, env_out = run(["verify", m, "--trials", "100"])
        monkeypatch.delenv("HILBERT_CONE_SEED")
        _, flag_out = run(["verify", m, "--trials", "100", "--seed", "77"])
        assert env_out == flag_out


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

    def test_non_integer_seed_variable_is_usage_error(self, tmp_path, monkeypatch, capsys):
        m = write(tmp_path, "m.json", "[[3, 1], [2, 5]]")
        monkeypatch.setenv("HILBERT_CONE_SEED", "abc")
        assert run(["verify", m, "--trials", "10"]) == (2, "")
        assert single_error_line(capsys)

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
