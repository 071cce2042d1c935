import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil as gu
import wellcovered.cli as cli
import wellcovered.modular as modular
import wellcovered.systems as systems
from wellcovered.cli import _json_pieces, _mdtree_json, _mdtree_text, _vset, main
from wellcovered.graph import Graph
from wellcovered.independent_sets import CapExceededError
from wellcovered.linalg import (
    basis_from_json,
    make_system,
    null_space_basis,
    same_solution_space,
    system_from_json,
)
from wellcovered.modular import md_tree
from wellcovered.systems import bruteforce_system

BULL = "5\n0 1\n1 2\n2 3\n3 4\n1 3\n"
C8 = "8\n" + "\n".join(f"{i} {(i + 1) % 8}" for i in range(8)) + "\n"
P4 = "4\n0 1\n1 2\n2 3\n"
FORK = "5\n0 1\n1 2\n2 3\n2 4\n"
K23 = "5\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n"
# prime and fork-free, with a claw at vertex 2 (its neighbours 0, 1, 3)
CLAW_PRIME = "6\n0 2\n0 5\n1 2\n1 4\n1 5\n2 3\n3 4\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, targets):
    """Wrap each (module, name) so that a call appends its name to the
    returned list."""
    calls = []
    for mod, name in targets:
        real = getattr(mod, name)
        monkeypatch.setattr(
            mod,
            name,
            lambda *a, real=real, name=name: calls.append(name) or real(*a),
        )
    return calls


# the decomposition, the folds and the fork decisions of the system and
# query routes, for record_calls
DECISIONS = [
    (systems, "_md_nodes"),
    (systems, "md_fold"),
    (systems, "_tree_flags"),
    (systems, "_finds_fork"),
]

DEEP_N = 1500


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory):
    """A threshold graph whose decomposition tree is a path of DEEP_N - 1
    internal nodes, deeper than Python's default recursion limit."""
    g = gu.threshold(DEEP_N)
    p = tmp_path_factory.mktemp("deep") / "threshold.txt"
    p.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    return str(p)


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

    @pytest.mark.parametrize("strategy", ["auto", "forkfree"])
    def test_cograph_decomposed_once(self, capsys, monkeypatch, strategy):
        # a cograph's tree has no prime node, so it is fork-free with no
        # flags fold, and the one fold is the cograph walk
        g = gu.random_cograph(gu.seeded(9), 60)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        calls = record_calls(monkeypatch, DECISIONS)
        argv = ["system", "--strategy", strategy]
        code, out, _ = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and out
        assert calls == ["_md_nodes", "md_fold"]

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

    def test_deep_tree_all_strategies_agree(self, capsys, deep_file):
        outs = set()
        for strategy in ("modular", "forkfree", "cograph"):
            code, out, err = run(
                capsys, ["dimension", deep_file, "--strategy", strategy]
            )
            assert code == 0, err
            outs.add(out)
        assert len(outs) == 1

    def test_json(self, capsys, bull_file):
        code, out, _ = run(capsys, ["dimension", bull_file, "--output", "json"])
        assert json.loads(out) == {"dimension": 3}

    @pytest.mark.parametrize("verb", ["dimension", "is-well-covered", "system"])
    def test_auto_tests_forks_once(self, capsys, monkeypatch, verb):
        # the bull is prime and fork-free but not a cograph. dimension folds
        # its one decomposition with no fork test, and its one prime
        # quotient, the bull, is claw-free. is-well-covered (which prints a
        # brute-force witness on a fork) and system read the fork flag off
        # that decomposition once before folding it: one claw scan of the
        # bull, the quotient, and no fork scan, as it is claw-free. system's
        # anti-neighborhood subproblems then fold their own graphs
        calls = record_calls(monkeypatch, DECISIONS)
        scans = gu.record_scans(monkeypatch, modular)
        code, out, _ = run(capsys, [verb], stdin=BULL, monkeypatch=monkeypatch)
        flags = ["_tree_flags"] if verb != "dimension" else []
        lines = 2 if verb == "system" else 1
        assert code == 0 and len(out.splitlines()) == lines
        assert calls[:3] == ["_md_nodes", *flags, "md_fold"][:3]
        assert calls.count("_tree_flags") == len(flags)
        assert "_finds_fork" not in calls
        assert [(name, m.bit_count()) for name, m in scans] == [
            ("is_claw_free", 5)
        ] * len(flags)

    @pytest.mark.parametrize("verb", ["dimension", "basis", "check-weighting"])
    def test_auto_runs_no_whole_graph_recognizer(
        self, capsys, monkeypatch, tmp_path, verb
    ):
        # modules substituted into the spider (P5 with a pendant at its
        # middle vertex), a prime quotient with a claw and a fork: the
        # query fold scans that quotient for both, and never the graph
        import wellcovered.systems as systems

        spider = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        g = gu.substitute(spider, [gu.complete(3), gu.edgeless(2)] * 3)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        weights = tmp_path / "w.txt"
        weights.write_text("0\n" * g.n)
        calls = []
        for name in ("is_claw_free", "_finds_fork"):
            real = getattr(systems, name)
            monkeypatch.setattr(
                systems,
                name,
                lambda h, real=real, name=name: calls.append((name, h)) or real(h),
            )
        extra = ["--weights", str(weights)] if verb == "check-weighting" else []
        code, _, err = run(
            capsys, [verb, *extra], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert g.n == 15
        assert [(name, h.n) for name, h in calls] == [
            ("is_claw_free", 6),
            ("_finds_fork", 6),
        ]

    @pytest.mark.parametrize(
        "verb", ["system", "dimension", "basis", "is-well-covered", "check-weighting"]
    )
    def test_auto_fork_scans_see_at_most_twice_a_quotient(
        self, capsys, monkeypatch, tmp_path, verb
    ):
        # cliques substituted into a prime skeleton: fork-free, with one
        # prime node, decomposed once per call. system and is-well-covered
        # read the fork flag off the decomposition: claw scans of at most
        # three vertices per child, fork scans of at most two, never the
        # whole graph. The query route scans only the quotient, to pick its
        # solver. The clique substitution of a prime line graph is
        # claw-free, so it has no fork scan; the P4 with its second vertex
        # doubled holds a claw, so its clique substitution has one
        doubled = gu.substitute(gu.path(4), [gu.edgeless(k) for k in (1, 2, 1, 1)])
        graphs = [
            gu.line_graph_clique_substitution(gu.seeded(3)),
            gu.substitute(doubled, [gu.complete(3)] * 5),
        ]
        flags = verb in ("system", "is-well-covered")
        for g, claw_free in zip(graphs, (True, False)):
            nodes = md_tree(g).iter_nodes()
            primes = [x.quotient.n for x in nodes if x.kind == "prime"]
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            weights = tmp_path / "w.txt"
            weights.write_text("0\n" * g.n)
            with monkeypatch.context() as m:
                # sizes of the decomposed vertex sets: system's
                # anti-neighborhood subproblems decompose smaller ones
                decomposed = []
                m.setattr(
                    systems,
                    "_md_nodes",
                    lambda h, within=None, real=systems._md_nodes: decomposed.append(
                        gu.scanned_mask(h, within).bit_count()
                    ) or real(h, within),
                )
                scans = gu.record_scans(m, modular)
                solver_scans = gu.record_scans(m, systems)
                extra = ["--weights", str(weights)] if verb == "check-weighting" else []
                code, _, err = run(capsys, [verb, *extra], stdin=text, monkeypatch=m)
            assert code == 0, err
            assert len(primes) == 1 and decomposed.count(g.n) == 1
            (q,) = primes
            expected = ["is_claw_free"] + ["_finds_fork"] * (not claw_free)
            assert [name for name, _ in scans] == expected * flags
            bound = {"is_claw_free": 3 * q, "_finds_fork": 2 * q}
            sizes = [(name, s.bit_count()) for name, s in scans]
            assert all(k <= bound[name] and k < g.n for name, k in sizes)
            # the query route's solver choice: the quotient is claw-free
            solver = [("is_claw_free", q)] * (verb != "system")
            assert [(name, s.bit_count()) for name, s in solver_scans] == solver
        assert graphs[0].n == 157 and graphs[1].n == 15

    def test_fork_substitution(self, capsys, monkeypatch):
        # whole-graph brute force at k = 8 exits 3 at the default cap
        for k in range(1, 9):
            g = gu.fork_substitution(k)
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            code, out, err = run(
                capsys, ["dimension"], stdin=text, monkeypatch=monkeypatch
            )
            assert (code, out) == (0, f"{5 * k - 2}\n"), err

    @pytest.mark.parametrize(
        "graph, flags, expected, ranked",
        [
            (K23, [], "4", 0),  # cograph
            (BULL, [], "3", 0),  # fork-free, not a cograph
            (BULL, ["--strategy", "bruteforce"], "3", 1),
        ],
        ids=["cograph", "forkfree", "bruteforce"],
    )
    def test_ranks_only_bruteforce_systems(
        self, capsys, monkeypatch, graph, flags, expected, ranked
    ):
        # every system but the brute-force chain is independent by
        # construction, so dimension is n minus its row count
        import wellcovered.cli as cli
        import wellcovered.linalg as linalg
        import wellcovered.systems as systems

        calls = []
        real = linalg.rank

        def counting(s):
            calls.append(s)
            return real(s)

        for mod in (linalg, systems, cli):
            monkeypatch.setattr(mod, "rank", counting, raising=False)
        code, out, _ = run(
            capsys, ["dimension", *flags], stdin=graph, monkeypatch=monkeypatch
        )
        assert code == 0 and out == expected + "\n"
        assert len(calls) == ranked

    def test_fork_plus_isolated_vertices(self, capsys, monkeypatch):
        # auto falls back to brute force; each maximal independent set holds
        # the 1000 isolated vertices, deeper than the recursion limit
        code, out, err = run(
            capsys,
            ["dimension"],
            stdin="1005\n" + FORK.split("\n", 1)[1],
            monkeypatch=monkeypatch,
        )
        assert code == 0 and out == "1003\n", err

    def test_bruteforce_isolated_vertices(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            ["dimension", "--strategy", "bruteforce"],
            stdin="1200\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0 and out == "1200\n", err


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

    def test_matches_bruteforce_at_and_near_full_rank(self, capsys, monkeypatch):
        # at dimension 0 the query route's n independent rows leave an
        # empty basis, printed as the brute-force chain's null space is:
        # the seed-106 G(34, 0.3), certified by the span's probe, and
        # small random graphs of dimension 0 and 1. The last graph's
        # brute-force chain has n rows of rank n - 1, so its count of rows
        # says nothing
        rng = gu.seeded(191)
        graphs = [gu.seeded_gnp(106)]
        dims = []
        while len(graphs) < 16:
            g = gu.random_graph(rng, rng.randint(6, 12), rng.uniform(0.4, 0.7))
            dim = systems.well_covered_dimension(g)
            if dim <= 1 and dims.count(dim) < 8:
                graphs.append(g)
                dims.append(dim)
        chain = Graph.from_edges(9, [
            (0, 1), (0, 2), (0, 4), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6),
            (1, 8), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4),
            (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 8), (5, 6), (6, 8),
            (5, 7),
        ])
        assert len(bruteforce_system(chain)) == 9
        assert systems.well_covered_dimension(chain) == 1
        for g in graphs + [chain]:
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            for output in ("text", "json"):
                outs = [
                    run(capsys, ["basis", "--output", output, *extra],
                        stdin=text, monkeypatch=monkeypatch)
                    for extra in ([], ["--strategy", "bruteforce"])
                ]
                assert outs[0] == outs[1]
                assert outs[0][0] == 0
            assert basis_from_json(json.loads(outs[0][1])) == null_space_basis(
                bruteforce_system(g)
            )

    def test_caps_below_the_moon_moser_bound_exit_3(self, capsys, monkeypatch):
        # the seed-106 G(34, 0.3) has 772 maximal independent sets: below
        # that cap the query route fails as the brute force does, with no
        # probe cutting the enumeration short
        g = gu.seeded_gnp(106)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        for cap, code in ((771, 3), (772, 0)):
            for verb in ("dimension", "basis"):
                outs = [
                    run(capsys, [verb, "--mis-cap", str(cap), *extra],
                        stdin=text, monkeypatch=monkeypatch)
                    for extra in ([], ["--strategy", "bruteforce"])
                ]
                assert outs[0] == outs[1]
                assert outs[0][0] == code


class TestIsWellCoveredVerb:
    def test_c4_yes(self, capsys, monkeypatch):
        c4 = "4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(
            capsys, ["is-well-covered"], stdin=c4, monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() == "yes"

    def test_auto_recognizes_once(self, capsys, monkeypatch):
        # a cograph's tree has no prime node: one decomposition recognizes
        # it, with no fork scan and no flags fold before the one fold
        g = gu.random_cograph(gu.seeded(8), 12)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        calls = record_calls(monkeypatch, DECISIONS)
        code, out, _ = run(
            capsys, ["is-well-covered"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() in ("yes", "no")
        assert calls == ["_md_nodes", "md_fold"]

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

    def test_witness_matches_reference_key(self, capsys, monkeypatch):
        # the witness is read off the canonical order; it must be the pair
        # the (size, sorted members) key picks, also when several largest
        # or smallest sets tie
        rng = gu.seeded(137)
        ties = 0
        for _ in range(150):
            g = gu.random_graph(rng, rng.randint(1, 11), rng.random())
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            code, out, _ = run(
                capsys,
                ["is-well-covered", "--strategy", "bruteforce", "--output", "json"],
                stdin=text,
                monkeypatch=monkeypatch,
            )
            sets = gu.brute_mis(g)
            sizes = [len(s) for s in sets]
            assert code == 0
            data = json.loads(out)
            assert data["well_covered"] == (len(set(sizes)) == 1)
            if data["well_covered"]:
                assert data["witness"] is None
                continue
            small, large = gu.witness_reference(sets)
            assert (data["witness"]["set_a"], data["witness"]["set_b"]) == (
                sorted(small),
                sorted(large),
            )
            ties += sizes.count(len(large)) > 1
        assert ties >= 20

    def test_witness_matches_sorted_enumeration(self):
        # read off the bitmasks, the witness is the pair the canonically
        # sorted enumeration gives, and a cap fails as it did
        rng = gu.seeded(149)

        def outcome(find, g, cap):
            try:
                return find(g, cap)
            except CapExceededError as exc:
                return str(exc)

        capped = 0
        for _ in range(300):
            g = gu.random_graph(rng, rng.randint(0, 16), rng.random())
            cap = rng.choice((1, 8, 40, 10**6))
            expected = outcome(gu.enumerated_witness, g, cap)
            capped += isinstance(expected, str)
            assert outcome(systems._enumerated_witness, g, cap) == expected
        assert 30 <= capped <= 200

    @pytest.mark.parametrize(
        "verb", ["dimension", "basis", "is-well-covered", "system"]
    )
    def test_forkfree_tests_forks_once(self, capsys, monkeypatch, verb):
        # one decomposition and one flags fold before any solving. The
        # bull is prime and claw-free, so it needs no fork scan and is
        # folded; the fork's one prime node holds a claw and is scanned
        # once for forks, and the graph is refused unfolded
        calls = record_calls(monkeypatch, DECISIONS + [(modular, "_finds_fork")])
        code, _, _ = run(
            capsys,
            [verb, "--strategy", "forkfree"],
            stdin=BULL,
            monkeypatch=monkeypatch,
        )
        assert code == 0 and calls[:3] == ["_md_nodes", "_tree_flags", "md_fold"]
        assert calls.count("_tree_flags") == 1 and "_finds_fork" not in calls
        # a prime fork-free graph with a claw: the flags fold scans it for
        # forks, and the fold does not scan its quotient, the graph, again.
        # is-well-covered reads the same flags under auto
        auto = [[]] if verb == "is-well-covered" else []
        for extra in [["--strategy", "forkfree"], *auto]:
            calls.clear()
            code, _, err = run(
                capsys, [verb, *extra], stdin=CLAW_PRIME, monkeypatch=monkeypatch
            )
            assert code == 0, err
            assert calls[:4] == ["_md_nodes", "_tree_flags", "_finds_fork", "md_fold"]
            assert calls.count("_finds_fork") == 1
        calls.clear()
        code, _, err = run(
            capsys,
            [verb, "--strategy", "forkfree"],
            stdin=FORK,
            monkeypatch=monkeypatch,
        )
        assert code == 2 and calls == ["_md_nodes", "_tree_flags", "_finds_fork"]
        assert err == (
            "error: graph contains an induced fork; the fork-free strategy "
            "does not apply\n"
        )


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

    def test_huge_exponent_refused(self, capsys, bull_file, tmp_path):
        # 10**exp is never built: the first line took seconds to parse
        w = tmp_path / "w.txt"
        for big in ("1e10000000", "1e-10000000", "1E+4301", "2.5e-0_4301"):
            w.write_text(f"1\n\n{big}\n0\n0\n0\n")
            code, out, err = run(
                capsys, ["check-weighting", bull_file, "--weights", str(w)]
            )
            assert code == 1 and out == ""
            assert err == (
                "error: weights line 3: decimal exponent beyond 4300 in "
                "magnitude\n"
            )
        w.write_text("1e4300\n1e-4300\n0\n0\n0\n")
        code, out, _ = run(
            capsys, ["check-weighting", bull_file, "--weights", str(w)]
        )
        assert code == 0 and out.strip() == "no"

    def test_not_a_rational(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.txt"
        for bad in ("1/0", "x", "1.5.2"):
            w.write_text(f"1\n{bad}\n0\n0\n0\n")
            code, out, err = run(
                capsys, ["check-weighting", bull_file, "--weights", str(w)]
            )
            assert (code, out) == (1, "")
            assert err == f"error: weights line 2: not a rational: {bad!r}\n"

    def test_undecodable_weights_file(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.bin"
        w.write_bytes(b"\xff\xfe1\n")
        code, out, err = run(
            capsys, ["check-weighting", bull_file, "--weights", str(w)]
        )
        assert code == 1 and out == "" and "cannot read" in err


class TestMdtreeVerb:
    @pytest.mark.parametrize(
        "fmt, stdin",
        [("edge-list", "0\n"), ("graph6", "?\n")],
        ids=["edge-list", "graph6"],
    )
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_empty_graph_refused(self, capsys, monkeypatch, fmt, stdin, output):
        # the empty graph has no decomposition tree: exit 2 with one error
        # line, as for an inapplicable strategy, and not an exception
        argv = ["mdtree", "--format", fmt, "--output", output]
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: modular decomposition requires at least one vertex\n"

    def test_deep_tree_text(self, capsys, deep_file):
        code, out, err = run(capsys, ["mdtree", deep_file])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 2 * DEEP_N - 1
        assert lines[0].startswith("parallel {v_1, v_2, ")
        assert lines[1] == "  leaf v_1"
        assert lines[2].startswith("  series {v_2, v_3, ")
        assert lines[-1] == "  " * (DEEP_N - 1) + f"leaf v_{DEEP_N}"

    def test_deep_tree_json_streams(self, capsys, monkeypatch, deep_file):
        # the JSON layout nests two levels per tree level, and its
        # indentation makes the text about 2.4 GB: it is written in pieces
        # from an explicit stack, and never held at once
        class Sink:
            size = kinds = largest = 0
            head = tail = ""

            def write(self, piece):
                self.size += len(piece)
                self.kinds += piece.count('"kind"')
                self.largest = max(self.largest, len(piece))
                self.head = (self.head + piece[:40])[:40]
                self.tail = (self.tail + piece[-4:])[-4:]

            def writelines(self, pieces):
                for piece in pieces:
                    self.write(piece)

        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        code = main(["mdtree", deep_file, "--output", "json"])
        assert code == 0 and capsys.readouterr().err == ""
        assert sink.kinds == 2 * DEEP_N - 1
        assert sink.head.startswith('{\n  "kind": "parallel"')
        assert sink.tail == "]\n}\n"
        assert sink.size > 2 * 10**9 and sink.largest < 4 * 10**6

    def test_json_matches_json_dumps(self, capsys, monkeypatch):
        # every verb's JSON, as json.dumps(obj, indent=2) renders it, on
        # the small graph families the desk workload runs
        import wellcovered.cli as cli

        rng = gu.seeded(151)
        graphs = [gu.bull(), gu.petersen(), gu.path(1), Graph.from_edges(3, [])]
        for i in range(60):
            n = 5 + i % 12
            graphs.append(
                (
                    gu.random_graph(rng, n, rng.random()),
                    gu.random_tree(rng, n),
                    gu.cycle(n),
                    gu.random_cograph(rng, n),
                    gu.shuffled_substitution(rng, (4, 6), (1, 3)),
                    gu.line_graph(gu.random_graph(rng, 6, 0.5)),
                )[i % 6]
            )
        for g in graphs:
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            for verb, extra in (
                ("system", []),
                ("dimension", []),
                ("basis", []),
                ("is-well-covered", []),
                ("is-well-covered", ["--strategy", "bruteforce"]),
                ("mdtree", []),
                ("recognize", []),
            ):
                argv = [verb, "--output", "json", *extra]
                outs = []
                for pieces in (
                    cli._json_pieces,
                    lambda obj: [json.dumps(obj, indent=2)],
                ):
                    with monkeypatch.context() as m:
                        m.setattr(cli, "_json_pieces", pieces)
                        outs.append(run(capsys, argv, stdin=text, monkeypatch=m))
                assert outs[0] == outs[1] and outs[0][0] == 0

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_text_matches_reference(self, seed, cograph):
        rng = gu.seeded(seed)
        if cograph:
            g = gu.random_cograph(rng, rng.randint(1, 40))
        else:
            g = gu.shuffled_substitution(rng, (4, 7), (1, 6))
        tree = md_tree(g)
        assert _mdtree_text(tree) == gu.mdtree_text_reference(tree)

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(), inner),
            max_leaves=40,
        )
    )
    def test_pieces_join_to_json_dumps(self, obj):
        assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2)

    def test_mdtree_json_matches_reference(self):
        # trees shallow enough for the recursive builder and json.dumps
        rng = gu.seeded(157)
        graphs = [gu.threshold(n) for n in (1, 2, 3, 250)]
        graphs += [gu.random_threshold(rng, 200), gu.random_cograph(rng, 300)]
        graphs += [gu.shuffled_substitution(rng, (4, 7), (1, 6)) for _ in range(30)]
        graphs += [
            gu.random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(60)
        ]
        for g in graphs:
            tree = md_tree(g)
            obj = _mdtree_json(tree)
            assert obj == gu.mdtree_json_reference(tree)
            assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2)

    @given(st.sets(st.integers(0, 200)))
    def test_vertex_sets_match_reference(self, vertices):
        assert _vset(vertices) == gu.vset_reference(vertices)


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

    def test_splits_the_cotree_once(self, capsys, monkeypatch):
        # the bull is prime: one decomposition, one fold of it, one claw
        # scan of the bull itself, and no fork scan, as a claw-free graph
        # has no fork
        calls = record_calls(
            monkeypatch,
            [
                (modular, "_md_nodes"),
                (modular, "md_fold"),
                (modular, "is_claw_free"),
                (modular, "_finds_fork"),
            ],
        )
        code, out, _ = run(
            capsys, ["recognize"], stdin=BULL, monkeypatch=monkeypatch
        )
        flags = dict(l.split(": ") for l in out.splitlines())
        assert code == 0 and flags["fork-free"] == "yes"
        assert flags["p4-free"] == "no"
        assert calls == ["_md_nodes", "md_fold", "is_claw_free"]

    def test_root_flags_from_one_split(self, capsys, monkeypatch):
        # prime, connected and co-connected come from the root of the one
        # decomposition, and agree with the whole-graph tests they replace
        rng = gu.seeded(73)
        seen = set()
        for i in range(200):
            g = gu.random_graph(rng, i % 11, rng.random())
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            with monkeypatch.context() as m:
                calls = record_calls(m, [(modular, "_md_nodes")])
                code, out, _ = run(
                    capsys, ["recognize", "--output", "json"], stdin=text, monkeypatch=m
                )
            flags = json.loads(out)
            expected = (
                gu.is_prime(g),
                len(gu.top_down_component_masks(g)) <= 1,
                len(gu.top_down_co_component_masks(g)) <= 1,
            )
            got = (flags["prime"], flags["connected"], flags["co_connected"])
            assert code == 0 and got == expected
            assert calls == ["_md_nodes"]
            seen.add(expected)
        assert len(seen) == 4

    @pytest.mark.parametrize("family", ["gnp", "cograph_substitution", "substitution"])
    def test_flags_match_whole_graph_oracles(self, capsys, monkeypatch, family):
        # all six flags against whole-graph scans, the cotree split, the
        # root's walks and, on graphs of at most seven vertices, a search
        # of every vertex tuple
        from wellcovered.graph import is_claw_free
        make = {
            "gnp": lambda rng: gu.random_graph(rng, rng.randint(0, 13), rng.random()),
            "cograph_substitution": lambda rng: gu.shuffled_substitution(
                rng, (4, 6), (1, 3), gu.random_cograph
            ),
            "substitution": lambda rng: gu.shuffled_substitution(rng, (4, 6), (1, 3)),
        }[family]
        rng = gu.seeded(71)
        tallies = {}
        for _ in range(150):
            g = make(rng)
            text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            code, out, _ = run(
                capsys, ["recognize", "--output", "json"], stdin=text, monkeypatch=monkeypatch
            )
            expected = {
                "claw_free": is_claw_free(g),
                "fork_free": gu.is_fork_free(g),
                "p4_free": gu.top_down_p4_free(g),
                "prime": gu.is_prime(g),
                "connected": len(gu.top_down_component_masks(g)) <= 1,
                "co_connected": len(gu.top_down_co_component_masks(g)) <= 1,
            }
            if g.n <= 7:
                for name, pattern in (
                    ("claw_free", gu.claw()),
                    ("fork_free", gu.fork()),
                    ("p4_free", gu.path(4)),
                ):
                    assert expected[name] == (not gu.has_induced(g, pattern))
            assert code == 0 and json.loads(out) == expected
            for name, value in expected.items():
                tallies[name, value] = tallies.get((name, value), 0) + 1
        # every flag is seen both ways on G(n, p); a substitution into a
        # prime skeleton is connected, co-connected and not P4-free
        for name in ("claw_free", "fork_free") if family != "gnp" else expected:
            assert tallies.get((name, True), 0) >= 5, name
            assert tallies.get((name, False), 0) >= 5, name

    def test_scans_see_at_most_thrice_a_quotient(self, capsys, monkeypatch):
        # cliques substituted into a prime line graph: one decomposition,
        # one fold of it, and each scan sees at most three vertices of each
        # child of the prime node
        g = gu.line_graph_clique_substitution(gu.seeded(3))
        primes = [x.quotient.n for x in md_tree(g).iter_nodes() if x.kind == "prime"]
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        folds = record_calls(monkeypatch, [(modular, "_md_nodes"), (modular, "md_fold")])
        scanned = []
        for name in ("is_claw_free", "_finds_fork"):
            real = getattr(modular, name)
            monkeypatch.setattr(
                modular,
                name,
                lambda h, within=None, real=real: scanned.append(
                    gu.scanned_mask(h, within)
                ) or real(h, within),
            )
        code, out, _ = run(
            capsys, ["recognize"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0 and out == (
            "claw-free: yes\nfork-free: yes\np4-free: no\nprime: no\n"
            "connected: yes\nco-connected: yes\n"
        )
        assert g.n == 157 and len(primes) == 1
        assert folds == ["_md_nodes", "md_fold"]
        assert scanned and all(s.bit_count() <= 3 * max(primes) for s in scanned)


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
    def test_vertex_count_over_the_bound(self, capsys, monkeypatch):
        for stdin in ("10000000", "50001\n"):
            code, out, err = run(
                capsys, ["dimension"], stdin=stdin, monkeypatch=monkeypatch
            )
            assert code == 1 and out == ""
            assert "exceeds the limit of 50000" in err

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

    @pytest.mark.parametrize("strategy, status", [("forkfree", 2), ("auto", 3)])
    def test_cap_hit_below_a_fork(self, capsys, monkeypatch, strategy, status):
        # C7 and a fork: the fold solves C7 first, and the cap of 2 stops
        # its anti-neighbourhood brute force before the fork is met. A
        # graph with a fork is still inapplicable under forkfree; auto would
        # hit the cap on the whole graph too
        c7 = "".join(f"{i} {(i + 1) % 7}\n" for i in range(7))
        fork = "7 8\n8 9\n9 10\n9 11\n"
        code, out, err = run(
            capsys,
            ["system", "--strategy", strategy, "--mis-cap", "2"],
            stdin=f"12\n{c7}{fork}",
            monkeypatch=monkeypatch,
        )
        assert code == status and out == ""
        assert ("fork" in err) == (strategy == "forkfree")

    def test_cograph_inapplicable(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["system", "--strategy", "cograph"],
            stdin=P4,
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_memory_error(self, capsys, bull_file, monkeypatch):
        import wellcovered.cli as cli

        def exhausted(args, g):
            raise MemoryError

        _, help_text = cli._VERBS["dimension"]
        monkeypatch.setitem(cli._VERBS, "dimension", (exhausted, help_text))
        code, out, err = run(capsys, ["dimension", bull_file])
        assert code == 4 and out == ""
        assert err == "error: resource limit reached: MemoryError()\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["dimension"],
            ["basis", "--output", "json"],
            ["is-well-covered", "--strategy", "modular"],
            ["check-weighting", "--weights", "ONES"],
        ],
    )
    def test_cap_hit_on_a_quotient_of_full_rank(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # the prime quotient is the Petersen graph, which has a fork: its 15
        # maximal independent sets are over the cap of 14, although its
        # rank of 10 is full after 12 of them
        g = gu.substitute(gu.petersen(), [gu.edgeless(2)] + [gu.complete(1)] * 9)
        ones = tmp_path / "ones.txt"
        ones.write_text("1\n" * g.n)
        argv = [str(ones) if a == "ONES" else a for a in argv]
        code, out, err = run(
            capsys,
            argv + ["--mis-cap", "14"],
            stdin=f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()),
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: maximal independent set cap 14 exceeded; "
            "brute-force system unavailable\n"
        )

    def test_cap_exceeded(self, capsys, monkeypatch):
        edges = "\n".join(f"{2 * i} {2 * i + 1}" for i in range(5))
        code, _, err = run(
            capsys,
            ["system", "--strategy", "bruteforce", "--mis-cap", "5"],
            stdin=f"10\n{edges}\n",
            monkeypatch=monkeypatch,
        )
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("cap", [2**63 - 1, 10**20])
    def test_caps_past_sys_maxsize(self, capsys, monkeypatch, cap):
        # a cap of any size bounds the enumeration as the default does:
        # same bytes and exit 0, on the bull and, under auto, on a fork
        cases = [
            (BULL, ["system", "--strategy", "bruteforce"]),
            (BULL, ["system", "--strategy", "modular"]),
            (BULL, ["system"]),
            (BULL, ["dimension", "--strategy", "bruteforce"]),
            (FORK, ["system"]),
        ]
        for text, argv in cases:
            expected = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
            assert expected[0] == 0
            got = run(
                capsys, argv + ["--mis-cap", str(cap)], stdin=text,
                monkeypatch=monkeypatch,
            )
            assert got == expected


README = Path(__file__).resolve().parent.parent / "README.md"
VERBS = (
    "system",
    "dimension",
    "basis",
    "is-well-covered",
    "check-weighting",
    "mdtree",
    "recognize",
)


def readme_examples():
    """(argv, stdin, stdout) of each `$ printf ... | wellcovered ...` line
    in the README, with the lines below it up to a blank line as stdout."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ printf "):
            continue
        feed, command = line[2:].split(" | ")
        stdin = shlex.split(feed)[1].replace("\\n", "\n")
        out = []
        for shown in lines[i + 1:]:
            if not shown or shown.startswith("```"):
                break
            out.append(shown + "\n")
        examples.append((shlex.split(command)[1:], stdin, "".join(out)))
    return examples


def exits_with(capsys, argv):
    """Exit status of an argparse exit, with the captured stdout and stderr."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestCommandLineContract:
    def test_readme_examples(self, capsys, monkeypatch):
        examples = readme_examples()
        assert [argv[0] for argv, _, _ in examples] == [
            "system",
            "dimension",
            "is-well-covered",
            "is-well-covered",
        ]
        for argv, stdin, expected in examples:
            code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
            assert (code, out, err) == (0, expected, "")

    def test_runs_as_a_package(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wellcovered", "dimension"],
            input=BULL,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n", "")

    def test_mis_cap_below_one_refused(self, capsys, bull_file):
        code, out, err = exits_with(capsys, ["dimension", bull_file, "--mis-cap", "0"])
        assert code == 2 and out == "" and "--mis-cap" in err

    def test_check_weighting_needs_weights(self, capsys, bull_file):
        code, out, err = exits_with(capsys, ["check-weighting", bull_file])
        assert code == 2 and out == "" and "--weights" in err

    def test_weights_refused_by_other_verbs(self, capsys, bull_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1\n1\n0\n0\n0\n")
        code, out, err = exits_with(
            capsys, ["dimension", bull_file, "--weights", str(w)]
        )
        assert code == 2 and out == "" and "--weights" in err

    def test_unknown_verb(self, capsys, bull_file):
        code, out, err = exits_with(capsys, ["size", bull_file])
        assert code == 2 and out == "" and "size" in err

    def test_help_lists_every_verb(self, capsys):
        code, out, _ = exits_with(capsys, ["--help"])
        assert code == 0
        for verb in VERBS:
            assert re.search(rf"^ +{verb} ", out, re.MULTILINE), verb

    def test_options_before_the_verb(self, capsys, bull_file, tmp_path):
        argv = ["--output", "json", "--strategy", "modular", "dimension", bull_file]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out) == {"dimension": 3}
        w = tmp_path / "w.txt"
        w.write_text("1\n1\n0\n0\n0\n")
        code, out, _ = run(
            capsys, ["--weights", str(w), "check-weighting", bull_file]
        )
        assert code == 0 and out == "yes\n"

    def test_options_between_verb_and_input(self, capsys, bull_file):
        code, out, _ = run(capsys, ["dimension", "--output", "json", bull_file])
        assert code == 0 and json.loads(out) == {"dimension": 3}

    def test_main_builds_no_parser(self, capsys, bull_file, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for verb in ("dimension", "recognize"):
            code, _, _ = run(capsys, [verb, bull_file])
            assert code == 0
        assert built == []


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the pipe's read end is closed before the program starts, so its
        # first write to stdout fails whatever the timing
        g = gu.path(200)
        graph = tmp_path / "p200.txt"
        graph.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wellcovered.cli", "mdtree", str(graph)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""


class TestSparseRowsMatchDenseOracles:
    """Every byte of ``system``, ``basis``, ``dimension``,
    ``is-well-covered`` and ``check-weighting`` is what the dense row layer
    the library had before (``gu.dense_rows_patched``) prints, with the
    same exit codes and diagnostics."""

    @staticmethod
    def _graphs():
        rng = gu.seeded(53)
        graphs = [
            gu.random_graph(rng, n, p)
            for n in range(0, 15)
            for p in (0.2, 0.5)
        ]
        graphs += [gu.shuffled_substitution(rng, (4, 6), (1, 4)) for _ in range(6)]
        graphs += [gu.line_graph(gu.random_graph(rng, 6, 0.6)) for _ in range(4)]
        graphs += [
            gu.disjoint_union(
                *[gu.random_tree(rng, rng.randint(1, 6)) for _ in range(3)]
            )
            for _ in range(4)
        ]
        graphs += [gu.disjoint_union(*[gu.complete(3)] * 5), gu.bull(), gu.fork()]
        return graphs

    def _outputs(self, capsys, tmp_path, graphs):
        out = []
        for i, g in enumerate(graphs):
            path = tmp_path / f"g{i}.txt"
            path.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
            weights = []
            for k, w in enumerate(([1] * g.n, [(v % 3) - 1 for v in range(g.n)])):
                wp = tmp_path / f"w{i}_{k}.txt"
                wp.write_text("".join(f"{x}\n" for x in w))
                weights.append(["--weights", str(wp)])
            verbs = [("system", []), ("basis", []), ("dimension", []),
                     ("is-well-covered", []), ("check-weighting", weights[0]),
                     ("check-weighting", weights[1])]
            for cap, output, strategy, (verb, extra) in product(
                ([], ["--mis-cap", "1"], ["--mis-cap", "5"]),
                ("text", "json"),
                ("auto", "modular", "bruteforce"),
                verbs,
            ):
                argv = [verb, str(path), "--output", output,
                        "--strategy", strategy, *cap, *extra]
                out.append((argv, *run(capsys, argv)))
        return out

    def test_byte_identical(self, capsys, tmp_path, monkeypatch):
        graphs = self._graphs()
        sparse = self._outputs(capsys, tmp_path, graphs)
        with monkeypatch.context() as m:
            gu.dense_rows_patched(m)
            dense = self._outputs(capsys, tmp_path, graphs)
        assert sparse == dense
        codes = {code for _, code, _, _ in sparse}
        assert codes == {0, 3}
