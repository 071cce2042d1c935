import io
import json

import pytest

import genutil as gu
from wellcovered.cli import main
from wellcovered.linalg import (
    basis_from_json,
    make_system,
    same_solution_space,
    system_from_json,
)
from wellcovered.systems import bruteforce_system

BULL = "5\n0 1\n1 2\n2 3\n3 4\n1 3\n"
C8 = "8\n" + "\n".join(f"{i} {(i + 1) % 8}" for i in range(8)) + "\n"
P4 = "4\n0 1\n1 2\n2 3\n"
FORK = "5\n0 1\n1 2\n2 3\n2 4\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bull_file(tmp_path):
    p = tmp_path / "bull.txt"
    p.write_text(BULL)
    return str(p)


class TestSystemVerb:
    def test_bull_text(self, capsys, bull_file):
        code, out, err = run(capsys, ["system", bull_file])
        assert code == 0 and not err
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2
        assert all("= 0" in l for l in lines)

    def test_bull_json_row_equivalent_to_published(self, capsys, bull_file):
        code, out, _ = run(capsys, ["system", bull_file, "--output", "json"])
        assert code == 0
        system = system_from_json(json.loads(out))
        published = make_system(5, [(0, 0, -1, 1, -1), (-1, 1, -1, 0, 0)])
        assert same_solution_space(system, published)

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["system"], stdin=BULL, monkeypatch=monkeypatch)
        assert code == 0 and len(out.splitlines()) == 2

    def test_text_output_builds_no_json(self, capsys, bull_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("JSON rendering built for text output")

        monkeypatch.setattr("wellcovered.cli.system_to_json", refuse)
        monkeypatch.setattr("wellcovered.cli.basis_to_json", refuse)
        code, out, _ = run(capsys, ["system", bull_file])
        assert code == 0 and len(out.splitlines()) == 2
        code, out, _ = run(capsys, ["basis", bull_file])
        assert code == 0 and len(out.splitlines()) == 3

    def test_json_output_builds_no_text(self, capsys, bull_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("text rendering built for JSON output")

        monkeypatch.setattr("wellcovered.cli.system_to_text", refuse)
        code, out, _ = run(capsys, ["system", bull_file, "--output", "json"])
        assert code == 0 and len(json.loads(out)["rows"]) == 2

    def test_deterministic(self, capsys, bull_file):
        _, out1, _ = run(capsys, ["system", bull_file, "--output", "json"])
        _, out2, _ = run(capsys, ["system", bull_file, "--output", "json"])
        assert out1 == out2


class TestDimensionVerb:
    def test_c8_is_zero(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["dimension"], stdin=C8, monkeypatch=monkeypatch)
        assert code == 0 and out.strip() == "0"

    def test_bull(self, capsys, bull_file):
        code, out, _ = run(capsys, ["dimension", bull_file])
        assert code == 0 and out.strip() == "3"

    def test_json(self, capsys, bull_file):
        code, out, _ = run(capsys, ["dimension", bull_file, "--output", "json"])
        assert json.loads(out) == {"dimension": 3}


class TestBasisVerb:
    def test_bull_text(self, capsys, bull_file):
        code, out, _ = run(capsys, ["basis", bull_file])
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_bull_json_roundtrip(self, capsys, bull_file):
        code, out, _ = run(capsys, ["basis", bull_file, "--output", "json"])
        basis = basis_from_json(json.loads(out))
        assert basis.dimension == 3
        published = bruteforce_system(gu.bull())
        from wellcovered.linalg import evaluate

        for vec in basis.vectors:
            assert evaluate(published, vec)


class TestIsWellCoveredVerb:
    def test_c4_yes(self, capsys, monkeypatch):
        c4 = "4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(
            capsys, ["is-well-covered"], stdin=c4, monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() == "yes"

    def test_auto_recognizes_once(self, capsys, monkeypatch):
        import wellcovered.systems as systems

        g = gu.random_cograph(gu.seeded(8), 12)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        calls = []
        real = systems.is_p4_free
        monkeypatch.setattr(
            systems, "is_p4_free", lambda h: calls.append(h) or real(h)
        )
        code, out, _ = run(
            capsys, ["is-well-covered"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() in ("yes", "no")
        assert len(calls) == 1

    def test_bull_no(self, capsys, bull_file):
        code, out, _ = run(capsys, ["is-well-covered", bull_file])
        assert code == 0 and out.strip() == "no"

    def test_bruteforce_witness(self, capsys, bull_file):
        code, out, _ = run(
            capsys, ["is-well-covered", bull_file, "--strategy", "bruteforce"]
        )
        assert code == 0
        assert out.splitlines()[0] == "no"
        assert "witness" in out
        assert "weight 2" in out and "weight 3" in out

    def test_bruteforce_witness_json(self, capsys, bull_file):
        code, out, _ = run(
            capsys,
            [
                "is-well-covered",
                bull_file,
                "--strategy",
                "bruteforce",
                "--output",
                "json",
            ],
        )
        data = json.loads(out)
        assert data["well_covered"] is False
        assert data["witness"]["weight_a"] == 2
        assert data["witness"]["weight_b"] == 3


class TestCheckWeightingVerb:
    def test_member(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1\n1\n0\n0\n0\n")
        code, out, _ = run(
            capsys, ["check-weighting", bull_file, "--weights", str(w)]
        )
        assert code == 0 and out.strip() == "yes"

    def test_non_member_rational(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1\n1\n1/2\n0\n0\n")
        code, out, _ = run(
            capsys, ["check-weighting", bull_file, "--weights", str(w)]
        )
        assert code == 0 and out.strip() == "no"

    def test_wrong_length(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1\n1\n")
        code, _, err = run(
            capsys, ["check-weighting", bull_file, "--weights", str(w)]
        )
        assert code == 1 and "5 vertices" in err


class TestMdtreeVerb:
    def test_bull_text(self, capsys, bull_file):
        code, out, _ = run(capsys, ["mdtree", bull_file])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("prime")
        assert sum(1 for l in lines if "leaf" in l) == 5

    def test_json_structure(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["mdtree", "--output", "json"],
            stdin="3\n0 1\n0 2\n1 2\n",
            monkeypatch=monkeypatch,
        )
        data = json.loads(out)
        assert data["kind"] == "series"
        assert data["vertices"] == [0, 1, 2]
        assert data["quotient"]["edges"] == [[0, 1], [0, 2], [1, 2]]
        assert len(data["children"]) == 3


class TestRecognizeVerb:
    def test_p4(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["recognize"], stdin=P4, monkeypatch=monkeypatch
        )
        assert code == 0
        flags = dict(l.split(": ") for l in out.splitlines())
        assert flags["prime"] == "yes"
        assert flags["p4-free"] == "no"
        assert flags["claw-free"] == "yes"
        assert flags["fork-free"] == "yes"
        assert flags["connected"] == "yes"
        assert flags["co-connected"] == "yes"


class TestInputFormats:
    def test_graph6(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["dimension", "--format", "graph6"],
            stdin=gu.graph6_encode(gu.bull()) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0 and out.strip() == "3"


class TestExitCodes:
    def test_parse_error(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, ["dimension"], stdin="3\n0 9\n", monkeypatch=monkeypatch
        )
        assert code == 1 and "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["dimension", "/nonexistent/g.txt"])
        assert code == 1 and err

    def test_strategy_inapplicable(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["system", "--strategy", "forkfree"],
            stdin=FORK,
            monkeypatch=monkeypatch,
        )
        assert code == 2 and "fork" in err

    def test_cograph_inapplicable(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["system", "--strategy", "cograph"],
            stdin=P4,
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_cap_exceeded(self, capsys, monkeypatch):
        edges = "\n".join(f"{2 * i} {2 * i + 1}" for i in range(5))
        code, _, err = run(
            capsys,
            ["system", "--strategy", "bruteforce", "--mis-cap", "5"],
            stdin=f"10\n{edges}\n",
            monkeypatch=monkeypatch,
        )
        assert code == 3 and "cap" in err
