import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

import genutil as gu
from wellcovered.graph import (
    Graph,
    _finds_fork,
    complement,
    induced_subgraph,
    is_claw_free,
    iter_bits,
    mask_of,
)
from wellcovered.independent_sets import (
    DEFAULT_MIS_CAP,
    CapExceededError,
    _greedy,
)
from wellcovered.linalg import (
    LinearSystem,
    _diff_row,
    empty_system,
    evaluate,
    extract_independent_subsystem,
    make_system,
    null_space_basis,
    rank,
    same_solution_space,
)
from wellcovered.modular import _independent_triple, _md_nodes, md_tree, recognize
from wellcovered.systems import (
    STRATEGIES,
    SolverConfig,
    StrategyError,
    _anti_neighborhoods,
    _fold_system,
    _generating_candidates,
    _mis_span,
    _moon_moser,
    _query_prime_solver,
    _query_system,
    _reduced_chain,
    _strong_cliques,
    bruteforce_system,
    clawfree_system,
    cograph_system,
    forkfree_system,
    is_w_well_covered,
    is_well_covered,
    modular_system,
    well_covered_basis,
    well_covered_dimension,
    well_covered_witness,
    well_covering_system,
)

BULL_BASIS = [(1, 1, 0, 0, 0), (0, 1, 1, 1, 0), (0, 0, 0, 1, 1)]


def brute(g):
    return bruteforce_system(g)


class TestBruteforceSystem:
    def test_bull(self):
        s = brute(gu.bull())
        assert len(s) == 2
        assert rank(s) == 2
        for b in BULL_BASIS:
            assert evaluate(s, b)

    def test_complete(self):
        for n in (1, 2, 4):
            s = brute(gu.complete(n))
            assert len(s) == n - 1
            gu.system_rows_int(s)  # raises unless all entries are integers
            assert n - rank(s) == 1

    def test_edgeless(self):
        for n in (0, 1, 3):
            s = brute(gu.edgeless(n))
            assert len(s) == 0 and s.num_vars == n

    def test_cap(self):
        g = gu.disjoint_union(*[gu.complete(2)] * 4)
        with pytest.raises(CapExceededError):
            bruteforce_system(g, cap=10)

    def test_unit_coefficients(self):
        rng = gu.seeded(41)
        for _ in range(40):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            s = brute(g)
            assert all(c in (-1, 0, 1) for row in s.rows for c in row)

    def test_cap_below_one(self):
        expected = (ValueError, "cap must be >= 1")
        for g in (gu.bull(), gu.edgeless(0)):
            for cap in (0, -3):
                for build in (bruteforce_system, gu.enumerated_bruteforce_system):
                    assert _terms_or_error(lambda: build(g, cap)) == expected

    def test_memory_per_enumerated_set(self):
        # one bitmask per set is kept until the cap is passed; the sorted
        # member tuples and frozensets the chain once built took about
        # 2.5 KB per set on P_60, against about 40 B
        cap = 4000
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                bruteforce_system(gu.path(60), cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 250 * cap

    @pytest.mark.parametrize(
        "call, strategy",
        [(well_covering_system, "modular"), (well_covered_dimension, "bruteforce")],
        ids=["system-modular", "dimension-bruteforce"],
    )
    def test_reduced_chain_memory_per_set(self, call, strategy):
        # a reduced chain offers each row to one row store as it is built
        # and builds no unreduced system: of the 23 833 maximal independent
        # sets of P_36, one bitmask and one sort key per set are kept, about
        # 134 B per set, where building the whole chain first took 330 B
        g, sets = gu.path(36), 23833
        tracemalloc.start()
        try:
            call(g, SolverConfig(strategy))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * sets


def _terms_or_error(build):
    """The variable count, terms and tags of the system ``build()``
    returns, or the type and message of the error it raises."""
    try:
        s = build()
    except (ValueError, StrategyError, CapExceededError) as exc:
        return type(exc), str(exc)
    return s.num_vars, s.terms, s.tags


def _chain_graphs():
    rng = gu.seeded(173)
    graphs = [gu.random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(80)]
    return graphs + [gu.petersen(), gu.bull(), gu.path(30)]


@pytest.mark.parametrize("cap", [1, 2, 5, 50, DEFAULT_MIS_CAP])
def test_bruteforce_matches_sorted_sets_chain(cap):
    # the chain sorts the bitmasks, where it once sorted member tuples and
    # turned each back into a mask: the same terms, tags and errors
    raised = 0
    for g in _chain_graphs():
        got = _terms_or_error(lambda: bruteforce_system(g, cap))
        assert got == _terms_or_error(lambda: gu.enumerated_bruteforce_system(g, cap))
        raised += got[0] is CapExceededError
    assert (raised > 0) == (cap < DEFAULT_MIS_CAP)


def test_strategies_match_on_the_sorted_sets_chain(monkeypatch):
    # every strategy that reaches the brute force builds the same system,
    # or raises the same error, when the chain is read off sorted sets
    import wellcovered.systems as systems

    strategies = ("auto", "modular", "forkfree", "bruteforce")
    cfgs = [SolverConfig(strategy, 50) for strategy in strategies]
    graphs = _chain_graphs()

    def outcomes():
        return [
            _terms_or_error(lambda: well_covering_system(g, cfg))
            for g in graphs
            for cfg in cfgs
        ]

    got = outcomes()
    calls = []

    def oracle(g, cap=DEFAULT_MIS_CAP):
        calls.append(g.n)
        return gu.enumerated_bruteforce_system(g, cap)

    monkeypatch.setattr(systems, "bruteforce_system", oracle)
    assert got == outcomes()
    assert len(calls) >= len(graphs)
    assert sum(o[0] is CapExceededError for o in got) > 0


class TestMisSpan:
    def test_matches_bruteforce_system(self, monkeypatch):
        # the span certified over GF(2), with the null-space test after the
        # enumeration, spans the rows of the canonical chain and keeps only
        # independent ones; both cases of the null-space test are met: rows
        # it keeps (dependent mod 2, independent over Q) and rows it drops.
        # Each null vector is read as (value, column mask) pairs, which
        # give back the canonical basis, Fraction values among them
        import wellcovered.systems as systems

        rng = gu.seeded(2)
        spans = []
        fractional = 0
        real = systems._null_masks

        def counting(n, rows):
            nonlocal fractional
            spans[-1] += 1
            null = real(n, rows)
            dense = []
            for pairs in null:
                values = [0] * n
                for x, m in pairs:
                    for c in iter_bits(m):
                        values[c] = x
                dense.append(tuple(values))
            s = make_system(n, [[dict(r).get(c, 0) for c in range(n)] for r in rows])
            assert dense == [v.values for v in null_space_basis(s).vectors]
            fractional += any(
                isinstance(x, Fraction) for pairs in null for x, _ in pairs
            )
            return null

        monkeypatch.setattr(systems, "_null_masks", counting)
        for _ in range(600):
            g = gu.random_graph(rng, rng.randint(8, 16), rng.random())
            spans.append(0)
            s = _mis_span(g)
            assert len(s) == rank(s) <= g.n
            assert same_solution_space(s, bruteforce_system(g))
        fallbacks = sum(1 for k in spans if k)
        kept_over_q = sum(k - 1 for k in spans if k)
        assert fallbacks >= 100 and kept_over_q >= 3 and fractional >= 1

    def test_small_graphs(self):
        for g in (gu.edgeless(0), gu.edgeless(3), gu.complete(4), gu.bull()):
            s = _mis_span(g)
            assert len(s) == rank(s)
            assert same_solution_space(s, bruteforce_system(g))

    def test_cap_counts_past_full_rank(self):
        # the Petersen graph has 15 maximal independent sets, and its rank
        # of 10 is full before the last of them: the enumeration still
        # counts to the cap, and fails with the canonical chain's message
        g = gu.petersen()
        s = _mis_span(g, cap=15)
        assert len(s) == 10
        assert max(int(t.removeprefix("mis-diff i=")) for t in s.tags) < 14
        for build in (_mis_span, bruteforce_system):
            with pytest.raises(CapExceededError) as exc:
                build(g, cap=14)
            assert str(exc.value) == (
                "maximal independent set cap 14 exceeded; "
                "brute-force system unavailable"
            )

    @staticmethod
    def _count_draws(monkeypatch):
        """Wrap the enumeration and the probe: the returned lists get one
        entry per call, the number of sets that call yielded."""
        import wellcovered.systems as systems

        drawn, probed = [], []
        for name, log in (("_mis_masks", drawn), ("_probe_masks", probed)):
            real = getattr(systems, name)

            def counting(*args, real=real, log=log):
                log.append(0)
                for m in real(*args):
                    log[-1] += 1
                    yield m

            monkeypatch.setattr(systems, name, counting)
        return drawn, probed

    def test_stops_at_full_rank_within_the_moon_moser_bound(self, monkeypatch):
        # a G(34, 0.3) of dimension 0 with 772 maximal independent sets:
        # the enumeration is short of full rank after 2|Q| = 68 of them
        # (it reaches it at the 258th), and the probe, spliced in before
        # set 68, certifies it, so set 68 is the last drawn and is not
        # used. As no graph on 34 vertices has more than _moon_moser(34)
        # maximal independent sets, no cap at least that can be passed.
        # Under a smaller cap no probe runs: the enumeration keeps the
        # rows of its first 258 sets, counts on, and fails past the cap
        g = gu.seeded_gnp(106)
        drawn, probed = self._count_draws(monkeypatch)
        assert _moon_moser(34) <= DEFAULT_MIS_CAP
        s = _mis_span(g)
        assert len(s) == 34 and drawn == [69] and 0 < probed[0] <= 68
        # the row that completes the rank lies inside the probe
        assert 68 <= int(s.tags[-1].removeprefix("mis-diff i=")) < 68 + 68
        assert same_solution_space(s, bruteforce_system(g))
        assert _moon_moser(34) > 772
        del drawn[:], probed[:]
        counted = _mis_span(g, cap=772)
        assert drawn == [772] and probed == [] and len(counted) == 34
        assert counted.tags[-1] == "mis-diff i=257"
        assert same_solution_space(counted, s)
        with pytest.raises(CapExceededError, match="cap 771 exceeded"):
            _mis_span(g, cap=771)

    def test_probe_certifies_full_rank(self, monkeypatch):
        # on G(n <= 34, p) of dimension 0 with more than 2n maximal
        # independent sets, the probe mostly certifies rank n before the
        # enumeration does: the enumeration draws set 2n, before which the
        # probe is spliced, and no later set. Its rows span those of the
        # canonical chain
        drawn, probed = self._count_draws(monkeypatch)
        rng = gu.seeded(173)
        certified = 0
        for _ in range(40):
            g = gu.random_graph(rng, rng.randint(18, 34), rng.uniform(0.2, 0.45))
            del drawn[:], probed[:]
            s = _mis_span(g)
            if len(s) < g.n:
                continue
            if probed:
                assert drawn[0] >= 2 * g.n + 1
                certified += drawn[0] == 2 * g.n + 1
            assert rank(s) == g.n
            assert same_solution_space(s, bruteforce_system(g))
        assert certified >= 20

    def test_no_probe_where_the_cap_may_be_passed(self, monkeypatch):
        # below the Moon-Moser bound the enumeration must count to the cap,
        # so no probe may end it early
        import wellcovered.systems as systems

        def refuse(g, count):
            raise AssertionError("probe under a cap the enumeration may pass")

        monkeypatch.setattr(systems, "_probe_masks", refuse)
        g = gu.seeded_gnp(106)
        assert len(_mis_span(g, cap=772)) == 34
        for cap in (1, 69, 771):
            with pytest.raises(CapExceededError, match=f"cap {cap} exceeded"):
                _mis_span(g, cap=cap)
        rng = gu.seeded(179)
        for _ in range(20):
            g = gu.random_graph(rng, rng.randint(12, 30), rng.uniform(0.2, 0.45))
            s = _mis_span(g, cap=_moon_moser(g.n) - 1)
            assert same_solution_space(s, bruteforce_system(g))

    def test_probe_rows_stay_when_it_falls_short(self, monkeypatch):
        # where the probe runs and cannot reach rank n, as the dimension is
        # positive, its rows and the two at its ends stay in the one
        # echelon: the span is independent, spans the canonical chain's
        # rows, and the enumeration still draws every set
        drawn, probed = self._count_draws(monkeypatch)
        graphs = [gu.seeded_gnp(107)]  # dimension 1: the probe falls short
        rng = gu.seeded(181)
        graphs += [
            gu.random_graph(rng, rng.randint(12, 34), rng.uniform(0.2, 0.45))
            for _ in range(100)
        ]
        short = with_probe_rows = 0
        for g in graphs:
            del drawn[:], probed[:]
            s = _mis_span(g)
            if not probed or len(s) == g.n:
                continue
            short += 1
            assert probed == [2 * g.n]
            assert drawn == [len(gu.enumerate_mis(g).sets)]
            assert len(s) == rank(s) < g.n
            assert same_solution_space(s, bruteforce_system(g))
            at = [int(t.removeprefix("mis-diff i=")) for t in s.tags]
            with_probe_rows += any(2 * g.n <= i <= 4 * g.n for i in at)
            if g is graphs[0]:
                assert len(s) == 33 and with_probe_rows == 1
        assert short >= 20 and with_probe_rows >= 10


def _moon_moser_graph(m):
    """Disjoint triangles, with one K4 or one K2 for the other residues
    of m mod 3: a graph on m vertices with the most maximal independent
    sets."""
    q, r = divmod(m, 3)
    sizes = {0: [3] * q, 1: [3] * (q - 1) + [4] if q else [1], 2: [3] * q + [2]}[r]
    return gu.disjoint_union(*[gu.complete(k) for k in sizes])


def test_moon_moser_bounds_every_mis_count():
    # Moon and Moser (1965): no graph on m vertices has more maximal
    # independent sets, and _moon_moser_graph(m) has exactly that many
    rng = gu.seeded(157)
    for _ in range(300):
        g = gu.random_graph(rng, rng.randint(0, 12), rng.random())
        assert len(gu.enumerate_mis(g).sets) <= _moon_moser(g.n)
    for m in range(1, 16):
        g = _moon_moser_graph(m)
        assert g.n == m
        assert len(gu.enumerate_mis(g).sets) == _moon_moser(m)
    assert _moon_moser(0) == 1


def test_one_counter_answers_at_the_count_and_raises_below_it():
    # the enumeration alone counts the sets against the cap, for every
    # brute force: a graph with exactly k maximal independent sets answers
    # at cap k as under the default cap, and raises at cap k - 1. On the
    # Moon-Moser graphs cap k is the bound, so the span may stop at full
    # rank; at cap k - 1 it counts to the end
    import wellcovered.systems as systems

    extremal = [(_moon_moser_graph(m), True) for m in range(2, 14)]
    others = [gu.petersen(), gu.path(10), gu.bull(), gu.seeded_gnp(106, 16)]
    for g, at_bound in extremal + [(g, False) for g in others]:
        k = len(gu.enumerate_mis(g).sets)
        assert (k == _moon_moser(g.n)) == at_bound
        answers = [
            (bruteforce_system, lambda s, t: s == t),
            (_mis_span, same_solution_space),
            (systems._enumerated_witness, lambda s, t: s == t),
        ]
        for build, same in answers:
            assert same(build(g, k), build(g, DEFAULT_MIS_CAP))
            with pytest.raises(CapExceededError) as exc:
                build(g, k - 1)
            assert str(exc.value).startswith(
                f"maximal independent set cap {k - 1} exceeded"
            )


class TestLiftSubgraphSystem:
    def test_identity(self):
        s = make_system(3, [(1, -1, 0)], ["t"])
        assert gu.lift_subgraph_system(s, (0, 1, 2), 3) == s

    def test_single_var_into_larger(self):
        s = make_system(1, [(1,)], ["t"])
        out = gu.lift_subgraph_system(s, (3,), 5)
        assert out.rows == ((0, 0, 0, 1, 0),)
        assert out.tags == ("t",)

    def test_sub_support_only(self):
        sub, vmap = induced_subgraph(gu.bull(), {0, 1, 2})
        lifted = gu.lift_subgraph_system(brute(sub), vmap, 5)
        for row in lifted.rows:
            assert row[3] == 0 and row[4] == 0

    def test_map_violations(self):
        s = make_system(2, [(1, 1)])
        with pytest.raises(ValueError):
            gu.lift_subgraph_system(s, (0,), 4)
        with pytest.raises(ValueError):
            gu.lift_subgraph_system(s, (0, 0), 4)
        with pytest.raises(ValueError):
            gu.lift_subgraph_system(s, (0, 4), 4)


class TestCombineDisjointUnion:
    def test_two_edges(self):
        k2 = gu.complete(2)
        parts = [(brute(k2), (0, 1)), (brute(k2), (2, 3))]
        s = gu.combine_disjoint_union(parts, 4)
        g = gu.disjoint_union(k2, k2)
        assert same_solution_space(s, brute(g))
        assert g.n - rank(s) == 1 + 1  # dimensions add over components

    def test_two_edgeless_pairs(self):
        # empty part systems union to the empty system; full dimension
        parts = [(empty_system(2), (0, 1)), (empty_system(2), (2, 3))]
        s = gu.combine_disjoint_union(parts, 4)
        assert s == empty_system(4)
        assert same_solution_space(s, brute(gu.edgeless(4)))

    def test_bull_plus_isolated(self):
        g = gu.disjoint_union(gu.bull(), gu.edgeless(1))
        parts = [(brute(gu.bull()), (0, 1, 2, 3, 4)), (empty_system(1), (5,))]
        s = gu.combine_disjoint_union(parts, 6)
        assert same_solution_space(s, brute(g))
        assert 6 - rank(s) == 4  # dimensions add over components

    def test_single_part(self):
        s = brute(gu.bull())
        assert gu.combine_disjoint_union([(s, (0, 1, 2, 3, 4))], 5) == s

    def test_gap_and_overlap(self):
        with pytest.raises(ValueError):
            gu.combine_disjoint_union([(empty_system(1), (0,))], 2)
        with pytest.raises(ValueError):
            gu.combine_disjoint_union(
                [(empty_system(1), (0,)), (empty_system(1), (0,))], 1
            )

    def test_random_components(self):
        rng = gu.seeded(43)
        for _ in range(40):
            gs = [
                gu.random_graph(rng, rng.randint(1, 4), rng.random())
                for _ in range(rng.randint(2, 3))
            ]
            g = gu.disjoint_union(*gs)
            parts = []
            off = 0
            for h in gs:
                parts.append((brute(h), tuple(range(off, off + h.n))))
                off += h.n
            assert same_solution_space(
                gu.combine_disjoint_union(parts, g.n), brute(g)
            )


class TestCombineJoin:
    def test_k2_as_join_of_points(self):
        g = gu.complete(2)
        parts = [
            (empty_system(1), (0,), {0}),
            (empty_system(1), (1,), {1}),
        ]
        s = gu.combine_join(parts, g)
        assert s.rows == ((1, -1),)
        assert s.tags == ("join-eq j=1",)

    def test_k23(self):
        g = gu.complete_bipartite(2, 3)
        parts = [
            (empty_system(2), (0, 1), {0, 1}),
            (empty_system(3), (2, 3, 4), {2, 3, 4}),
        ]
        s = gu.combine_join(parts, g)
        assert s.rows == ((1, 1, -1, -1, -1),)
        assert g.n - rank(s) == 4
        assert same_solution_space(s, brute(g))

    def test_random_joins(self):
        rng = gu.seeded(45)
        for _ in range(40):
            gs = [
                gu.random_graph(rng, rng.randint(1, 4), rng.random())
                for _ in range(rng.randint(2, 3))
            ]
            if sum(h.n for h in gs) > 10:
                continue
            g = gu.join(*gs)
            parts = []
            off = 0
            for h in gs:
                mis_local = gu.enumerate_mis(h).sets[0]
                parts.append(
                    (
                        brute(h),
                        tuple(range(off, off + h.n)),
                        {v + off for v in mis_local},
                    )
                )
                off += h.n
            assert same_solution_space(gu.combine_join(parts, g), brute(g))

    def test_not_maximal_rejected(self):
        g = gu.complete_bipartite(2, 3)
        parts = [
            (empty_system(2), (0, 1), {0}),  # {0} not maximal in the 2K1 side
            (empty_system(3), (2, 3, 4), {2, 3, 4}),
        ]
        with pytest.raises(ValueError, match="maximal"):
            gu.combine_join(parts, g)

    def test_not_independent_rejected(self):
        g = gu.join(gu.complete(2), gu.edgeless(1))
        parts = [
            (empty_system(2), (0, 1), {0, 1}),
            (empty_system(1), (2,), {2}),
        ]
        with pytest.raises(ValueError, match="independent"):
            gu.combine_join(parts, g)

    def test_needs_two_parts(self):
        with pytest.raises(ValueError):
            gu.combine_join([(empty_system(1), (0,), {0})], gu.edgeless(1))


class TestLiftQuotientSystem:
    def test_direct_substitution(self):
        qsys = make_system(2, [(1, -1)], ["pair"])
        out = gu.lift_quotient_system(qsys, [{0}, {1, 2}], 4)
        assert out.rows == ((1, -1, -1, 0),)
        assert out.tags == ("subst[pair]",)

    def test_empty_quotient_system(self):
        out = gu.lift_quotient_system(empty_system(3), [{0}, {1}, {2}], 3)
        assert out == empty_system(3)

    def test_k23_matches_join_route(self):
        g = gu.complete_bipartite(2, 3)
        # quotient of the two sides is a single edge
        qsys = brute(gu.complete(2))
        via_quotient = gu.lift_quotient_system(qsys, [{0, 1}, {2, 3, 4}], 5)
        parts = [
            (empty_system(2), (0, 1), {0, 1}),
            (empty_system(3), (2, 3, 4), {2, 3, 4}),
        ]
        via_join = gu.combine_join(parts, g)
        assert same_solution_space(via_quotient, via_join)

    def test_identity_keeps_the_rows(self):
        # one vertex per module, module j holding vertex j: the rows are
        # kept as they are, with the new tags; any other map spreads them
        qsys = make_system(3, [(1, -1, 0), (0, Fraction(1, 2), -1)], ["a", ""])
        out = gu.lift_quotient_system(qsys, [{0}, {1}, {2}], 3)
        assert out.rows == qsys.rows
        assert out.tags == ("subst[a]", "subst")
        swapped = gu.lift_quotient_system(qsys, [{1}, {0}, {2}], 3)
        assert swapped.rows == ((-1, 1, 0), (Fraction(1, 2), 0, -1))
        wider = gu.lift_quotient_system(qsys, [{0}, {1}, {2}], 4)
        assert wider.rows == ((1, -1, 0, 0), (0, Fraction(1, 2), -1, 0))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            gu.lift_quotient_system(make_system(2, [(1, -1)]), [{0}], 3)

    def test_overlapping_sets(self):
        with pytest.raises(ValueError):
            gu.lift_quotient_system(make_system(2, [(1, -1)]), [{0}, {0, 1}], 3)


class TestModularSystem:
    def test_bull_prime_root(self):
        s = modular_system(gu.bull())
        assert same_solution_space(s, brute(gu.bull()))
        assert len(s) == rank(s) == 2

    def test_p4(self):
        s = modular_system(gu.path(4))
        assert len(s) == 2
        assert same_solution_space(s, brute(gu.path(4)))
        assert 4 - rank(s) == 2

    def test_c4(self):
        s = modular_system(gu.cycle(4))
        assert same_solution_space(s, brute(gu.cycle(4)))

    def test_zero_and_one_vertex(self):
        assert modular_system(gu.edgeless(0)) == empty_system(0)
        assert modular_system(gu.edgeless(1)) == empty_system(1)

    def test_random_oracle_equivalence(self):
        rng = gu.seeded(47)
        for _ in range(60):
            g = gu.random_graph(rng, rng.randint(1, 9), rng.random())
            s = modular_system(g)
            assert len(s) <= g.n
            assert len(s) == rank(s)  # linearly independent
            assert same_solution_space(s, brute(g))

    def test_plugin_base_solver(self):
        calls = []

        def plugin(h):
            calls.append(h.n)
            return bruteforce_system(h)

        s = gu.modular_system_with(gu.bull(), plugin)
        assert calls == [5]  # the bull is prime, handed over whole
        assert same_solution_space(s, brute(gu.bull()))

    def test_plugin_output_reduced(self):
        def padded(h):
            base = bruteforce_system(h)
            return make_system(
                h.n, base.rows + base.rows, list(base.tags) + list(base.tags)
            )

        s = gu.modular_system_with(gu.bull(), padded)
        assert len(s) == rank(s)
        assert same_solution_space(s, brute(gu.bull()))


class TestCographSystem:
    def test_k1(self):
        assert cograph_system(gu.edgeless(1)) == empty_system(1)

    def test_k23(self):
        s = cograph_system(gu.complete_bipartite(2, 3))
        assert len(s) <= 4
        assert same_solution_space(s, brute(gu.complete_bipartite(2, 3)))

    def test_complete_multipartite_112(self):
        g = gu.join(gu.edgeless(1), gu.edgeless(1), gu.edgeless(2))
        s = cograph_system(g)
        assert len(s) <= 3
        assert same_solution_space(s, brute(g))

    def test_non_cograph_rejected(self):
        with pytest.raises(StrategyError, match="modular|forkfree"):
            cograph_system(gu.path(4))

    def test_equals_modular_system(self):
        # the cograph walk is the modular walk without a prime step, and on
        # a cotree the modular walk reduces nothing
        rng = gu.seeded(51)
        for _ in range(100):
            g = gu.random_cograph(rng, rng.randint(1, 40))
            assert cograph_system(g) == modular_system(g)

    def test_random_cographs(self):
        rng = gu.seeded(49)
        for _ in range(60):
            g = gu.random_cograph(rng, rng.randint(1, 10))
            s = cograph_system(g)
            assert len(s) <= max(g.n - 1, 0)
            assert all(c in (-1, 0, 1) for row in s.rows for c in row)
            assert same_solution_space(s, brute(g))
            assert g.n - rank(s) >= 1  # cographs always have solutions


class TestAntiNeighborhoodSystem:
    def test_k2(self):
        s = gu.anti_neighborhood_system(gu.complete(2), brute)
        assert s.rows == ((1, -1),)
        assert s.tags == ("anti-eq j=1",)

    def test_bull(self):
        s = gu.anti_neighborhood_system(gu.bull(), brute)
        assert same_solution_space(s, brute(gu.bull()))

    def test_c5(self):
        s = gu.anti_neighborhood_system(gu.cycle(5), brute)
        assert same_solution_space(s, brute(gu.cycle(5)))
        assert len(s) == sum(1 for _ in s.rows)

    def test_size_formula(self):
        g = gu.cycle(5)
        s = gu.anti_neighborhood_system(g, brute)
        subsizes = 0
        for v in range(g.n):
            gj, _ = gu.delete_closed_neighborhood(g, v)
            subsizes += len(brute(gj))
        assert len(s) == subsizes + g.n - 1

    def test_random_oracle_equivalence(self):
        rng = gu.seeded(51)
        for _ in range(60):
            g = gu.random_graph(rng, rng.randint(1, 9), rng.random())
            s = gu.anti_neighborhood_system(g, brute)
            assert same_solution_space(s, brute(g))

    def test_sub_solver_variable_count_checked(self):
        with pytest.raises(ValueError, match="variables"):
            gu.anti_neighborhood_system(gu.bull(), lambda h: empty_system(h.n + 1))


def _prime_quotients(g):
    """The prime quotients of ``g``'s decomposition tree, as copies."""
    return [
        induced_subgraph(g, x.reps)[0]
        for x in md_tree(g).iter_nodes()
        if x.kind == "prime"
    ]


class TestAntiNeighborhoods:
    # the one anti-neighborhood loop folds each G - N[v] in place and stops
    # at |Q| rows; the copy-and-lift oracle copies, solves and lifts every
    # G - N[v], and its rows are then reduced. Rows, tags and exceptions
    # must be the same

    @staticmethod
    def quotients():
        rng = gu.seeded(181)
        qs = [gu.line_graph(gu.prism(12))]
        for _ in range(3):
            qs += _prime_quotients(gu.line_graph_clique_substitution(rng))
        while len(qs) < 20:
            qs += _prime_quotients(gu.random_forkfree(rng, 16))
        assert all(gu.is_fork_free(q) for q in qs)
        return qs

    def outcome(self, build):
        try:
            s = build()
        except CapExceededError as e:
            return str(e)
        return s.terms, s.tags

    def test_matches_copy_and_lift_oracle(self):
        # on some quotients a cap of 3 to 11 is passed only by a G - N[v]
        # left once |Q| rows are kept, which must still be solved to raise
        quotients, raised = self.quotients(), 0
        for cap in (DEFAULT_MIS_CAP, 50000, 300, 30, *range(3, 12)):
            base = partial(bruteforce_system, cap=cap)

            def sub(h):
                return gu.modular_system_with(h, base)

            for q in quotients:
                got = self.outcome(
                    lambda: _anti_neighborhoods(
                        q, partial(_reduced_chain, cap=cap), cap
                    )
                )
                expected = self.outcome(
                    lambda: extract_independent_subsystem(
                        gu.anti_neighborhood_system(q, sub)
                    )
                )
                assert got == expected
                # the two high caps are passed by no enumeration
                assert cap < 50000 or not isinstance(got, str)
                raised += isinstance(got, str)
        assert raised >= 3


def _masked_cases(seed, count):
    """(g, mask, h, vmap): G(n <= 14, p) with a random vertex mask, and the
    copy ``induced_subgraph(g, mask)`` with its sorted vertex map."""
    rng = gu.seeded(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        g = gu.random_graph(rng, n, rng.random())
        mask = rng.getrandbits(n)
        yield (g, mask, *induced_subgraph(g, iter_bits(mask)))


def _back(vmap, mask):
    """A mask over the copy's vertices, mapped back to the host's."""
    return mask_of(vmap[i] for i in iter_bits(mask))


class TestVertexMaskCalls:
    # each call on g[mask] reads g in place; it must equal the same call on
    # the copy induced_subgraph(g, mask), mapped back by its vertex map

    def test_md_nodes(self):
        def back(vmap, node):
            kind, x, blocks = node
            if blocks is None:
                return kind, vmap[x], None
            return kind, _back(vmap, x), [_back(vmap, b) for b in blocks]

        internal = 0
        for g, mask, h, vmap in _masked_cases(71, 1000):
            got = [(k, x, b if b is None else list(b))
                   for k, x, b in _md_nodes(g, mask)]
            assert got == [back(vmap, node) for node in _md_nodes(h)]
            internal += any(b is not None for _, _, b in got)
        assert internal >= 500

    def test_claw_and_fork_scans(self):
        seen = set()
        for g, mask, h, _ in _masked_cases(72, 1500):
            claw_free, fork = is_claw_free(g, mask), _finds_fork(g, mask)
            assert (claw_free, fork) == (is_claw_free(h), _finds_fork(h))
            seen.add((claw_free, fork))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_independent_triple(self):
        sizes = set()
        for g, mask, h, vmap in _masked_cases(73, 1000):
            if mask:
                got = _independent_triple(g, mask)
                assert got == _back(vmap, _independent_triple(h, h.full_mask))
                sizes.add(got.bit_count())
        assert sizes == {1, 2, 3}

    def test_greedy(self):
        for g, mask, h, vmap in _masked_cases(74, 1000):
            got = _greedy(g, iter_bits(mask))
            assert got == _back(vmap, _greedy(h, range(h.n)))

    @pytest.mark.parametrize("route", ["brute", "query"])
    def test_fold(self, route):
        # an empty mask has no nodes and a one-vertex mask one leaf: both
        # fold to no rows over all of g's variables
        def solver():
            if route == "brute":
                return partial(_reduced_chain, cap=DEFAULT_MIS_CAP)
            return _query_prime_solver(DEFAULT_MIS_CAP, False)

        rows = 0
        for g, mask, h, vmap in _masked_cases(75, 600):
            got = _fold_system(g, _md_nodes(g, mask), solver())
            sub = _fold_system(h, _md_nodes(h), solver())
            assert got == gu.lift_subgraph_system(sub, vmap, g.n)
            rows += len(got)
            for v in (g.n - 1, 0):
                for within in (0, 1 << v):
                    assert _fold_system(g, _md_nodes(g, within), solver()) == (
                        empty_system(g.n)
                    )
        assert rows >= 800


class TestForkfreeSystem:
    def test_large_cograph_equals_cograph_system(self):
        # a cograph has no induced P4, so no fork: its tree has no prime
        # node, no flags are read, and the fold is the cograph walk
        g = gu.random_cograph(gu.seeded(52), 200)
        assert forkfree_system(g) == cograph_system(g)

    def test_bull(self):
        s = forkfree_system(gu.bull())
        assert len(s) <= 5
        assert len(s) == rank(s)
        assert all(c in (-1, 0, 1) for row in s.rows for c in row)
        assert same_solution_space(s, brute(gu.bull()))

    def test_cographs_match_cograph_route(self):
        rng = gu.seeded(53)
        for _ in range(25):
            g = gu.random_cograph(rng, rng.randint(1, 12))
            assert same_solution_space(forkfree_system(g), cograph_system(g))

    def test_fork_rejected(self):
        with pytest.raises(StrategyError, match="fork"):
            forkfree_system(gu.fork())

    def test_random_forkfree(self):
        rng = gu.seeded(55)
        for _ in range(50):
            g = gu.random_forkfree(rng, 10)
            s = forkfree_system(g)
            assert len(s) <= g.n
            assert len(s) == rank(s)
            assert all(c in (-1, 0, 1) for row in s.rows for c in row)
            assert same_solution_space(s, brute(g))

    def test_random_forkfree_clawfree_base(self):
        # the query route under forkfree: claw-free prime quotients go to
        # clawfree_system, the others through the anti-neighbourhoods
        cfg = SolverConfig(strategy="forkfree")
        rng = gu.seeded(56)
        for _ in range(100):
            g = gu.random_forkfree(rng, 12)
            s = _query_system(g, cfg)
            assert len(s) == rank(s) <= g.n
            assert all(c in (-1, 0, 1) for row in s.rows for c in row)
            assert same_solution_space(s, brute(g))


def co_triangle_free(rng, n):
    """The complement of a random triangle-free graph: claw-free, since a
    claw's three leaves are a triangle of the complement."""
    adj = [0] * n
    for u, v in gu.random_graph(rng, n, rng.uniform(0.1, 0.5)).edges():
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return complement(Graph(n, tuple(adj)))


def clawfree_line_graph(rng, max_n):
    while True:
        h = gu.random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.8))
        g = gu.line_graph(h)
        if 1 <= g.n <= max_n:
            return g


def clique_substitution(rng, max_n):
    """Cliques substituted into a prime claw-free seed stay claw-free."""
    seed = rng.choice([s for s in gu.clawfree_prime_seeds() if s.n <= max_n])
    sizes = [1] * seed.n
    for _ in range(rng.randint(0, max_n - seed.n)):
        sizes[rng.randrange(seed.n)] += 1
    return gu.substitute(seed, [gu.complete(k) for k in sizes])


CLAWFREE_FAMILIES = {
    "random_clawfree": lambda rng: gu.random_clawfree(rng, 14),
    "co_triangle_free": lambda rng: co_triangle_free(rng, rng.randint(1, 14)),
    "line_graph": lambda rng: clawfree_line_graph(rng, 14),
    "clique_substitution": lambda rng: clique_substitution(rng, 14),
}


class TestClawfreeSystem:
    @pytest.mark.parametrize("family", sorted(CLAWFREE_FAMILIES))
    def test_matches_bruteforce(self, family):
        rng = gu.seeded(sum(map(ord, family)))
        for _ in range(150):
            g = CLAWFREE_FAMILIES[family](rng)
            assert is_claw_free(g)
            s = clawfree_system(g)
            assert len(s) == rank(s) <= g.n  # independent by construction
            assert all(c in (-1, 0, 1) for row in s.rows for c in row)
            assert same_solution_space(s, brute(g))

    def test_rows_as_in_search_order(self, monkeypatch):
        # skipping candidates with an empty clique before the span test,
        # testing edges on a union-find and later rows on class sums,
        # refuting by the packing bound, and skipping by the strong
        # cliques' certificate and stopping at rank n - d, accept the same
        # rows as forward span tests first and a brute-force test of every
        # new row
        import wellcovered.systems as systems

        certified = []  # the graphs whose certificate found a strong clique
        real = systems._strong_cliques
        monkeypatch.setattr(
            systems, "_strong_cliques",
            lambda h: (strong := real(h)) and certified.append(h) or strong,
        )
        rng = gu.seeded(83)
        stopped = [gu.rook(m) for m in range(3, 9)]
        stopped += [gu.rook(m, m + 1) for m in range(4, 7)]
        stopped += [gu.line_graph(gu.complete(m)) for m in range(4, 11, 2)]
        graphs = stopped + [gu.rook(2), gu.rook(2, 3), gu.rook(3, 4)]
        graphs += [gu.rook(m, m + 3) for m in range(2, 5)]
        graphs += [gu.line_graph(gu.complete(m)) for m in range(3, 11, 2)]
        graphs += [f(n) for f in (gu.path, gu.cycle) for n in range(3, 41)]
        graphs += [gu.line_graph(gu.random_tree(rng, rng.randint(2, 40)))
                   for _ in range(60)]
        for family in sorted(CLAWFREE_FAMILIES):
            graphs += [CLAWFREE_FAMILIES[family](rng) for _ in range(40)]
        for g in graphs:
            s = clawfree_system(g)
            assert (list(s.rows), list(s.tags)) == gu.clawfree_rows_in_search_order(g)
        # on these the certificate found strong cliques, and so stopped the
        # loop at rank n - d
        assert all(any(h is g for h in certified) for g in stopped)

    def test_left_out_candidates_have_an_empty_clique(self):
        # _generating_candidates yields the oracle's own enumeration of
        # every edge, induced P3 and induced C4 in its order, less P3s
        # only, and each P3 it leaves out has an empty clique N(d) & R
        # computed vertex by vertex
        rng = gu.seeded(29)
        left_out = 0
        for family in sorted(CLAWFREE_FAMILIES):
            for _ in range(60):
                g = CLAWFREE_FAMILIES[family](rng)
                offered = list(_generating_candidates(g))
                kept, expected = set(offered), []
                for kind, xs, ys in gu.generating_candidates(g):
                    candidate = (kind, mask_of(xs), mask_of(ys))
                    if candidate in kept:
                        expected.append(candidate)
                    else:
                        assert kind == "p3"
                        assert not all(gu.generating_cliques(g, xs, ys))
                        left_out += 1
                assert offered == expected
        assert left_out

    @pytest.mark.parametrize("m", range(6, 10))
    def test_rook_p3s_never_reach_the_cliques(self, m, monkeypatch):
        # every P3 a-c-b of K_m x K_m has the common neighbour of a and b
        # off N[c], so none is offered: the clique lists and the clique
        # test see only edges and the new C4s. No edge is generating, so
        # after 2n = 2m^2 edges refused in a row the certificate keeps the
        # m row and m - 1 column cliques, which tell the ends of every other
        # edge apart: at most 2m^2 of the m^2 (m - 1) edges are tested
        import wellcovered.systems as systems

        calls = Counter()
        last = [None]  # the kind of the candidate whose cliques were listed
        real_cliques, real_meets = systems._generating_cliques, systems.meets_all_cliques
        real_strong = systems._is_strong

        def cliques(g, x, y):
            last[0] = {(1, 1): "edge", (1, 2): "p3", (2, 2): "c4"}[
                x.bit_count(), y.bit_count()]
            calls["cliques", last[0]] += 1
            return real_cliques(g, x, y)

        def meets(g, family):
            calls["meets", last[0]] += 1
            return real_meets(g, family)

        def strong(g, clique, base):
            last[0] = "strong"
            calls["strong"] += 1
            return real_strong(g, clique, base)

        monkeypatch.setattr(systems, "_generating_cliques", cliques)
        monkeypatch.setattr(systems, "meets_all_cliques", meets)
        monkeypatch.setattr(systems, "_is_strong", strong)
        s = clawfree_system(gu.rook(m))
        assert m * m - len(s) == 2 * m - 1
        assert calls["cliques", "p3"] == calls["meets", "p3"] == 0
        assert calls["cliques", "edge"] == calls["meets", "edge"] <= 2 * m * m
        assert calls["strong"] == calls["meets", "strong"] == 2 * m - 1
        assert calls["cliques", "c4"] and calls["meets", "c4"]

    def test_certificate_cliques_are_strong(self):
        # each clique the certificate keeps meets every maximal independent
        # set, and their indicators are independent
        rng = gu.seeded(61)
        graphs = [gu.random_clawfree(rng, 14) for _ in range(200)]
        graphs += [CLAWFREE_FAMILIES[family](rng)
                   for family in sorted(CLAWFREE_FAMILIES) for _ in range(50)]
        graphs += [gu.rook(m) for m in range(1, 5)]
        graphs += [gu.line_graph(gu.complete(m)) for m in range(2, 8)]
        kept = 0
        for g in graphs:
            strong = _strong_cliques(g)
            sets = [mask_of(s) for s in gu.enumerate_mis(g).sets]
            assert all(c & m for c in strong for m in sets)
            indicators = [[int(v in iter_bits(c)) for v in range(g.n)] for c in strong]
            assert rank(make_system(g.n, indicators)) == len(strong)
            kept += len(strong)
        assert kept

    def test_certificate_work_grows_as_the_rows(self, monkeypatch):
        # on K_m x K_m the edges before the certificate, its strongness
        # tests and the C4 span tests up to rank (m - 1)^2 grow about as
        # m^2: doubling m multiplies the meets_all_cliques and _reduce calls
        # by at most 4.5, where testing every edge and every C4 took about
        # 8 and 19 times as many
        import wellcovered.systems as systems

        counts = {}
        for m in (6, 12):
            calls = Counter()
            for name in ("meets_all_cliques", "_reduce"):
                real = getattr(systems, name)
                monkeypatch.setattr(
                    systems, name,
                    lambda *a, real=real, name=name: calls.update([name]) or real(*a),
                )
            assert len(clawfree_system(gu.rook(m))) == (m - 1) ** 2
            monkeypatch.undo()
            counts[m] = calls
        for name in ("meets_all_cliques", "_reduce"):
            assert counts[12][name] <= 4.5 * counts[6][name]

    @pytest.mark.parametrize("m", range(4, 9))
    def test_rook_dimension(self, m):
        s = clawfree_system(gu.rook(m))
        assert len(s) == rank(s)
        assert m * m - len(s) == 2 * m - 1

    def test_small_graphs(self):
        assert clawfree_system(gu.edgeless(0)) == empty_system(0)
        assert clawfree_system(gu.edgeless(3)) == empty_system(3)
        assert same_solution_space(clawfree_system(gu.bull()), brute(gu.bull()))
        assert len(clawfree_system(gu.complete(6))) == 5

    def test_rook_dimension_enumerates_nothing(self, monkeypatch):
        # auto sends the claw-free prime K7 x K7 to clawfree_system: no
        # anti-neighbourhood K6 x K6 is enumerated
        import wellcovered.independent_sets as independent_sets
        import wellcovered.systems as systems

        calls = []
        for mod in (systems, independent_sets):
            real = mod._mis_masks

            def counting(h, *args, real=real):
                calls.append(h)
                return real(h, *args)

            monkeypatch.setattr(mod, "_mis_masks", counting)
        assert well_covered_dimension(gu.rook(7)) == 13
        assert calls == []

    def test_claw_free_test_routes_every_quotient(self, monkeypatch):
        # on the query route, claw-free prime quotients go to
        # clawfree_system, those with a fork (Petersen's, for one) to the
        # streamed span of the enumeration, and the rest through the
        # anti-neighbourhoods
        import wellcovered.systems as systems

        rng = gu.seeded(71)
        # prime and fork-free, with the claw 4; 0, 2, 5
        forkfree_clawed = Graph.from_edges(
            6, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (4, 5)]
        )
        clawed = [gu.petersen(), gu.fork(), forkfree_clawed] + [
            Graph.from_edges(s.n + 3, s.edges() + [(0, s.n + k) for k in range(3)])
            for s in gu.clawfree_prime_seeds()
        ]
        graphs = []
        for skeleton in clawed + gu.clawfree_prime_seeds():
            sizes = [1 + (rng.random() < 0.2) for _ in range(skeleton.n)]
            g = gu.substitute(skeleton, [gu.complete(k) for k in sizes])
            graphs.append((g, brute(g)))
        # the anti-neighborhood reduction is _anti_neighborhoods, one call
        # per fork-free quotient
        logs = {"clawfree_system": [], "_mis_span": [],
                "_anti_neighborhoods": []}
        for name, log in logs.items():
            real = getattr(systems, name)

            def logging(h, *args, real=real, log=log, **kwargs):
                log.append(h)
                return real(h, *args, **kwargs)

            monkeypatch.setattr(systems, name, logging)
        for strategy in ("modular", "forkfree"):
            for g, expected in graphs:
                try:
                    s = _query_system(g, SolverConfig(strategy=strategy))
                except StrategyError:
                    continue
                assert same_solution_space(s, expected)
                assert len(s) == rank(s)
        seen = logs["clawfree_system"]
        assert seen and all(is_claw_free(h) for h in seen)
        enumerated = logs["_mis_span"]
        assert enumerated and not any(gu.is_fork_free(h) for h in enumerated)
        reduced = logs["_anti_neighborhoods"]
        assert reduced and all(gu.is_fork_free(h) for h in reduced)
        assert not any(is_claw_free(h) for h in reduced)


class TestQueries:
    def test_bull_dimension(self):
        assert well_covered_dimension(gu.bull()) == 3

    def test_long_cycles_and_petersen(self):
        assert well_covered_dimension(gu.cycle(8)) == 0
        assert well_covered_dimension(gu.petersen()) == 0

    def test_is_well_covered(self):
        assert is_well_covered(gu.cycle(4))
        assert not is_well_covered(gu.bull())
        assert is_well_covered(gu.complete(5))

    def test_is_w_well_covered(self):
        assert is_w_well_covered(gu.bull(), (1, 1, 0, 0, 0))
        assert not is_w_well_covered(gu.bull(), (1, 1, 1, 1, 1))

    def test_auto_dispatch_output(self):
        for g in (gu.complete_bipartite(2, 3), gu.bull(), gu.petersen()):
            s = well_covering_system(g)
            assert same_solution_space(s, brute(g))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(strategy="magic")
        with pytest.raises(ValueError):
            SolverConfig(mis_cap=0)
        assert SolverConfig.__slots__ == ("strategy", "mis_cap")

    def test_config_is_frozen(self):
        # a field set after construction would skip the checks: a bogus
        # strategy took auto's chain on the fork, and mis_cap = True let
        # the fork's quotient enumerate nothing
        cfg = SolverConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.strategy = "bogus"
        with pytest.raises(FrozenInstanceError):
            cfg.mis_cap = True
        assert cfg == SolverConfig("auto", DEFAULT_MIS_CAP)

    def test_mis_cap_must_be_an_int(self):
        import wellcovered.systems as systems

        for cap in (2.5, True, "5", Fraction(5)):
            with pytest.raises(TypeError):
                SolverConfig(mis_cap=cap)
        # the library's capped enumerations check it too: a float cap never
        # equals a count, so P_10's 16 sets gave 15 rows at cap 1.5
        for build in (bruteforce_system, _mis_span, systems._enumerated_witness):
            for cap in (1.5, 16.0, True, "5", Fraction(5)):
                with pytest.raises(TypeError):
                    build(gu.path(10), cap)
            with pytest.raises(CapExceededError):
                build(gu.path(10), 1)

    def test_caps_of_any_size(self):
        # a cap at or past sys.maxsize bounds nothing on the bull or the fork,
        # and auto takes the brute force on the fork
        for g in (gu.bull(), gu.fork()):
            for strategy in ("auto", "bruteforce", "modular"):
                expected = well_covering_system(g, SolverConfig(strategy))
                dimension = well_covered_dimension(g, SolverConfig(strategy))
                for cap in (2**63 - 1, 10**20):
                    cfg = SolverConfig(strategy, cap)
                    assert well_covering_system(g, cfg) == expected
                    assert well_covered_dimension(g, cfg) == dimension


class TestQueryRoute:
    @pytest.mark.parametrize("strategy", ["auto", "modular"])
    def test_fork_substitution_dimension(self, strategy):
        cfg = SolverConfig(strategy=strategy)
        for k in range(1, 9):
            g = gu.fork_substitution(k)
            assert well_covered_dimension(g, cfg) == 5 * k - 2
            assert not is_w_well_covered(g, (1,) * g.n, cfg)

    def test_fork_substitution_enumerates_no_large_graph(self, monkeypatch):
        # the fork substitution has forks, but its one prime quotient is a
        # P4: no graph of more than 5 vertices may be enumerated
        import wellcovered.independent_sets as independent_sets
        import wellcovered.systems as systems

        sizes = []
        for mod in (systems, independent_sets):
            real = mod._mis_masks

            def counting(h, *args, real=real):
                sizes.append(h.n)
                return real(h, *args)

            monkeypatch.setattr(mod, "_mis_masks", counting)
        for strategy in ("auto", "modular"):
            for k in range(1, 9):
                well_covered_dimension(
                    gu.fork_substitution(k), SolverConfig(strategy=strategy)
                )
                assert max(sizes, default=0) <= 5, (strategy, k)

    def test_random_graphs_match_system_route(self):
        rng = gu.seeded(73)
        with_fork = 0
        for _ in range(150):
            g = gu.random_graph(rng, rng.randint(1, 12), rng.random())
            with_fork += not gu.is_fork_free(g)
            s = _query_system(g)
            assert len(s) == rank(s) <= g.n
            assert same_solution_space(s, well_covering_system(g))
            dims = set()
            for strategy in STRATEGIES:
                try:
                    s = _query_system(g, SolverConfig(strategy=strategy))
                except StrategyError:
                    continue
                assert same_solution_space(s, well_covering_system(g))
                dims.add(well_covered_dimension(g, SolverConfig(strategy=strategy)))
            assert dims == {g.n - rank(s)}
        assert with_fork >= 30


@pytest.fixture(scope="module")
def verb_graphs():
    """Complements of diamond-free graphs, the paper's fork-free class
    beyond the claw-free graphs, and G(n, p), on at most 12 vertices."""
    rng = gu.seeded(211)
    graphs = [gu.diamond_free_complement(n, seed) for n in range(13) for seed in range(4)]
    graphs += [gu.random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(60)]
    return graphs


def _result(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (StrategyError, CapExceededError) as exc:
        return type(exc), str(exc)


class TestVerbs:
    # the library calls behind the basis, is-well-covered and recognize
    # verbs, against the brute-force and whole-graph oracles

    def test_diamond_free_complements(self):
        diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        claws = 0
        for n in range(13):
            for seed in range(4):
                g = gu.diamond_free_complement(n, seed)
                assert g.n == n and not gu.has_induced(complement(g), diamond)
                assert gu.is_fork_free(g)
                claws += gu.has_induced(g, gu.claw())
        assert claws >= 10

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_basis_is_the_bruteforce_null_space(self, verb_graphs, strategy):
        cfg = SolverConfig(strategy)
        refused = 0
        for g in verb_graphs:
            applies = {
                "cograph": gu.top_down_p4_free(g), "forkfree": gu.is_fork_free(g)
            }.get(strategy, True)
            if applies:
                assert well_covered_basis(g, cfg) == null_space_basis(
                    bruteforce_system(g)
                )
            else:
                refused += 1
                with pytest.raises(StrategyError):
                    well_covered_basis(g, cfg)
        assert (refused >= 10) == (strategy in ("cograph", "forkfree"))

    @pytest.mark.parametrize("cap", [DEFAULT_MIS_CAP, 6])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_witness(self, verb_graphs, strategy, cap):
        # enumerated under bruteforce, and under auto on a graph with a
        # fork; elsewhere the answer of is_well_covered, with no witness
        cfg = SolverConfig(strategy, cap)
        witnesses = 0
        for g in verb_graphs:
            got = _result(lambda: well_covered_witness(g, cfg))
            if strategy == "bruteforce" or (
                strategy == "auto" and not gu.is_fork_free(g)
            ):
                assert got == _result(lambda: gu.enumerated_witness(g, cap))
                witnesses += type(got) is tuple and got[1] is not None
            else:
                assert got == _result(lambda: (is_well_covered(g, cfg), None))
        assert (witnesses >= 10) == (strategy in ("auto", "bruteforce"))

    def test_recognize_matches_oracles(self, verb_graphs):
        for g in verb_graphs:
            flags = recognize(g)
            fork_free = (
                not gu.has_induced(g, gu.fork()) if g.n <= 8 else gu.is_fork_free(g)
            )
            assert (flags["claw_free"], flags["fork_free"], flags["p4_free"]) == (
                not gu.has_induced(g, gu.claw()),
                fork_free,
                not gu.has_induced(g, gu.path(4)),
            )


class TestWeightingSoundness:
    def test_null_space_equalizes_all_mis(self):
        rng = gu.seeded(57)
        for _ in range(40):
            g = gu.random_graph(rng, rng.randint(1, 8), rng.random())
            s = well_covering_system(g)
            mis = gu.enumerate_mis(g).sets
            for vec in null_space_basis(s).vectors:
                weights = {vec.weight(m) for m in mis}
                assert len(weights) == 1


class TestModuleMISAssembly:
    def test_assembled_sets_match_direct_enumeration(self):
        # sets meeting each module in nothing or a maximal independent set,
        # with the met modules maximal independent in the quotient, are
        # exactly the maximal independent sets of the composed graph
        rng = gu.seeded(59)
        for _ in range(30):
            seed = gu.random_graph(rng, rng.randint(2, 4), rng.random())
            modules = [
                gu.random_graph(rng, rng.randint(1, 3), rng.random())
                for _ in range(seed.n)
            ]
            g = gu.substitute(seed, modules)
            if g.n > 10 or g.n == seed.n:
                continue
            blocks = [
                frozenset(
                    range(
                        sum(m.n for m in modules[:j]),
                        sum(m.n for m in modules[: j + 1]),
                    )
                )
                for j in range(seed.n)
            ]
            quot, reps = gu.quotient(g, blocks)
            per_block = []
            for block in blocks:
                sub, vmap = induced_subgraph(g, block)
                per_block.append(
                    [
                        frozenset(vmap[i] for i in m)
                        for m in gu.enumerate_mis(sub).sets
                    ]
                )
            assembled = set()
            for qmis in gu.enumerate_mis(quot).sets:
                selected = sorted(qmis)
                for choice in product(*(per_block[j] for j in selected)):
                    assembled.add(frozenset().union(*choice))
            assert assembled == set(gu.enumerate_mis(g).sets)


# Rows and tags of modular_system and forkfree_system as recorded from the
# earlier recursive walk, one string per row ('+' is 1, '-' is -1, '.' is 0).
# Each graph has a prime node under a series or a parallel node, where the
# walk decides whether to reduce; in c8_join_c8 the series reduction drops
# the join row, because both prime children have well-covered dimension 0.
RECORDED_GRAPHS = {
    "p4_join_2k1": lambda: gu.join(gu.path(4), gu.edgeless(2)),
    "bull_plus_k2": lambda: gu.disjoint_union(gu.bull(), gu.complete(2)),
    "c8_join_c8": lambda: gu.join(gu.cycle(8), gu.cycle(8)),
    "p4_sub": lambda: gu.substitute(
        gu.path(4),
        [gu.edgeless(1), gu.join(gu.path(4), gu.edgeless(1)),
         gu.edgeless(1), gu.edgeless(1)],
    ),
}

RECORDED_ROWS = [
    ('modular', 'p4_join_2k1', [
        ('..+-..', 'subst[mis-diff i=1]'),
        ('+-....', 'subst[mis-diff i=2]'),
        ('+.+.--', 'join-eq j=1'),
    ]),
    ('forkfree', 'p4_join_2k1', [
        ('..+-..', 'subst[join-eq j=1]'),
        ('+-....', 'subst[join-eq j=1]'),
        ('+.+.--', 'join-eq j=1'),
    ]),
    ('modular', 'bull_plus_k2', [
        ('..+-+..', 'subst[mis-diff i=1]'),
        ('+-.+-..', 'subst[mis-diff i=2]'),
        ('.....+-', 'join-eq j=1'),
    ]),
    ('forkfree', 'bull_plus_k2', [
        ('..+-+..', 'subst[join-eq j=1]'),
        ('+-+....', 'subst[join-eq j=1]'),
        ('.....+-', 'join-eq j=1'),
    ]),
    ('modular', 'c8_join_c8', [
        ('....+-+.........', 'subst[mis-diff i=1]'),
        ('..+-............', 'subst[mis-diff i=2]'),
        ('.....+-.........', 'subst[mis-diff i=3]'),
        ('+-...-+-........', 'subst[mis-diff i=4]'),
        ('.....+-+........', 'subst[mis-diff i=5]'),
        ('...+-...........', 'subst[mis-diff i=6]'),
        ('......+-........', 'subst[mis-diff i=7]'),
        ('.+-.............', 'subst[mis-diff i=8]'),
        ('............+-+.', 'subst[mis-diff i=1]'),
        ('..........+-....', 'subst[mis-diff i=2]'),
        ('.............+-.', 'subst[mis-diff i=3]'),
        ('........+-...-+-', 'subst[mis-diff i=4]'),
        ('.............+-+', 'subst[mis-diff i=5]'),
        ('...........+-...', 'subst[mis-diff i=6]'),
        ('..............+-', 'subst[mis-diff i=7]'),
        ('.........+-.....', 'subst[mis-diff i=8]'),
    ]),
    ('forkfree', 'c8_join_c8', [
        ('....+-+.........', 'subst[subst[mis-diff i=1]]'),
        ('..+-............', 'subst[subst[mis-diff i=2]]'),
        ('.....+-.........', 'subst[subst[mis-diff i=3]]'),
        ('.....+-+........', 'subst[subst[mis-diff i=1]]'),
        ('...+-...........', 'subst[subst[mis-diff i=2]]'),
        ('......+-........', 'subst[subst[mis-diff i=3]]'),
        ('+...-+.-........', 'subst[subst[mis-diff i=2]]'),
        ('+-...-+-........', 'subst[subst[mis-diff i=2]]'),
        ('............+-+.', 'subst[subst[mis-diff i=1]]'),
        ('..........+-....', 'subst[subst[mis-diff i=2]]'),
        ('.............+-.', 'subst[subst[mis-diff i=3]]'),
        ('.............+-+', 'subst[subst[mis-diff i=1]]'),
        ('...........+-...', 'subst[subst[mis-diff i=2]]'),
        ('..............+-', 'subst[subst[mis-diff i=3]]'),
        ('........+...-+.-', 'subst[subst[mis-diff i=2]]'),
        ('........+-...-+-', 'subst[subst[mis-diff i=2]]'),
    ]),
    ('modular', 'p4_sub', [
        ('...+-...', 'subst[mis-diff i=1]'),
        ('.+-.....', 'subst[mis-diff i=2]'),
        ('.+.+.-..', 'join-eq j=1'),
        ('......+-', 'subst[mis-diff i=1]'),
        ('+-.-....', 'subst[mis-diff i=2]'),
    ]),
    ('forkfree', 'p4_sub', [
        ('...+-...', 'subst[join-eq j=1]'),
        ('.+-.....', 'subst[join-eq j=1]'),
        ('.+.+.-..', 'join-eq j=1'),
        ('......+-', 'subst[join-eq j=1]'),
        ('+-.-....', 'subst[join-eq j=1]'),
    ]),
]


@pytest.mark.parametrize(
    "pipeline, graph, expected",
    RECORDED_ROWS,
    ids=[f"{p}-{g}" for p, g, _ in RECORDED_ROWS],
)
def test_recorded_rows_and_tags(pipeline, graph, expected):
    build = {"modular": modular_system, "forkfree": forkfree_system}[pipeline]
    s = build(RECORDED_GRAPHS[graph]())
    got = [("".join(".+-"[c] for c in row), tag) for row, tag in zip(s.rows, s.tags)]
    assert got == expected


DISPATCH_FAMILIES = {
    "cograph": lambda rng: gu.random_cograph(rng, rng.randint(1, 30)),
    "threshold": lambda rng: gu.random_threshold(rng, rng.randint(1, 30)),
    "substitution": lambda rng: gu.shuffled_substitution(rng, (4, 6), (1, 3)),
    "gnp": lambda rng: gu.random_graph(rng, rng.randint(1, 12), rng.random()),
}


@pytest.mark.parametrize("family", DISPATCH_FAMILIES)
def test_auto_matches_three_way_dispatch(family):
    # auto resolves with the fork test alone: on a graph with no induced
    # P4 the fork-free fold meets no prime node, so it prints what the
    # cograph walk prints, and elsewhere it takes the same route
    rng = gu.seeded(131)
    for _ in range(40):
        g = DISPATCH_FAMILIES[family](rng)
        s, expected = well_covering_system(g), gu.three_way_auto_system(g)
        assert (s.rows, s.tags) == (expected.rows, expected.tags)


LIBRARY_CALLS = {
    "well_covering_system": well_covering_system,
    "well_covered_dimension": well_covered_dimension,
    "well_covered_basis": well_covered_basis,
    "is_well_covered": is_well_covered,
    "is_w_well_covered": is_w_well_covered,
    "well_covered_witness": well_covered_witness,
}


def test_route_matches_the_earlier_dispatch():
    # one route picks every fold: each call under each strategy, at the
    # default cap and at cap 5, returns or raises what the per-call
    # dispatch did. The query systems under bruteforce are now reduced,
    # which changes no answer. Longer chains, whose reduction keeps few of
    # their rows, run at the default cap and at 50 000, which is below
    # the Moon-Moser bound of every G - N[v] of the prism's line graph
    rng = gu.seeded(181)
    # test_cli's CLAW_PRIME: prime and fork-free, with a claw at vertex 2
    claw_prime = Graph.from_edges(
        6, [(0, 2), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4)]
    )
    graphs = [
        gu.edgeless(0),
        gu.complete(1),
        gu.path(4),
        gu.fork(),
        gu.bull(),
        claw_prime,
        gu.fork_substitution(2),
    ]
    graphs += [
        gu.random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(100)
    ]
    graphs += [gu.random_cograph(rng, rng.randint(1, 12)) for _ in range(30)]
    graphs += [gu.random_forkfree(rng, 12) for _ in range(30)]
    chains = [gu.path(n) for n in (10, 20, 30)] + [gu.cycle(10), gu.cycle(20)]
    chains += [gu.seeded_gnp(106), gu.seeded_gnp(107)]
    chains += [gu.line_graph(gu.prism(12))]
    cases = [(g, (DEFAULT_MIS_CAP, 5)) for g in graphs]
    cases += [(g, (DEFAULT_MIS_CAP, 50000)) for g in chains]
    raised = set()
    for g, caps in cases:
        w = tuple(rng.randint(-2, 2) for _ in range(g.n))
        for strategy, cap in product(STRATEGIES, caps):
            cfg = SolverConfig(strategy, cap)
            got = gu.answers(LIBRARY_CALLS, g, cfg, w)
            assert got == gu.answers(gu.dispatch_oracle, g, cfg, w), (g, cfg)
            raised.update(
                r[0]
                for r in got.values()
                if isinstance(r, tuple) and isinstance(r[0], type)
            )
    assert raised == {StrategyError, CapExceededError}


def _nested_substitution(rng, levels):
    """Small prime substitutions joined to, unioned with and substituted
    into a module of the next one in turn: prime nodes under series nodes,
    under parallel nodes and inside modules."""
    g = gu.shuffled_substitution(rng, (4, 5), (1, 2))
    for level in range(levels):
        if level % 3 == 2:
            inner = [g]  # the first module of the next prime skeleton

            def module(rng, k):
                return inner.pop() if inner else gu.random_graph(rng, k, rng.random())

            g = gu.shuffled_substitution(rng, (4, 5), (1, 2), module)
        else:
            h = gu.shuffled_substitution(rng, (4, 5), (1, 2))
            g = (gu.join if level % 3 == 0 else gu.disjoint_union)(g, h)
    return g


FOLD_CALLS = [
    (build, strategy)
    for build, strategies in (
        (well_covering_system, ("auto", "modular", "forkfree", "cograph")),
        (_query_system, ("auto", "forkfree")),
    )
    for strategy in strategies
]


def _fold_outcomes(g):
    """The terms and tags of each call of ``FOLD_CALLS`` on ``g``, or the
    type and message of the error it raises."""
    out = []
    for build, strategy in FOLD_CALLS:
        try:
            s = build(g, SolverConfig(strategy))
        except (StrategyError, CapExceededError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((s.terms, s.tags))
    return out


def test_fold_rows_match_the_former_fold(monkeypatch):
    # the fold keeps its rows in one linalg._Rows and puts each row into
    # its echelon once, where the former fold reduced a subtree's rows
    # again at each series node with a prime below and at each prime node
    # with rows below: every row, tag and error stays as it was
    rng = gu.seeded(341)
    graphs = [
        gu.random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(300)
    ]
    graphs += [gu.random_cograph(rng, rng.randint(1, 20)) for _ in range(60)]
    graphs += [gu.random_forkfree(rng, 14) for _ in range(60)]
    graphs += [
        _nested_substitution(rng, levels) for levels in (1, 2, 3) for _ in range(20)
    ]
    graphs += [gu.prime_chain(k) for k in (*range(1, 8), 30)]
    # C8 is prime with dimension 0, so its rows span every row on its
    # vertices: a join row or a lifted row over two copies is dependent
    c8, k1 = gu.cycle(8), gu.complete(1)
    graphs += [
        gu.shuffled(rng, h)[0]
        for h in (
            gu.join(c8, c8),
            gu.join(gu.disjoint_union(c8, gu.path(4)), k1),
            gu.substitute(gu.path(4), [c8, c8, k1, gu.complete(2)]),
            gu.disjoint_union(
                gu.join(c8, gu.complete(2)),
                gu.substitute(gu.path(4), [c8, k1, c8, k1]),
            ),
        )
    ]
    got = [_fold_outcomes(g) for g in graphs]
    raised = {r[0] for outcome in got for r in outcome if isinstance(r[0], type)}
    assert raised == {StrategyError}
    gu.former_fold_patched(monkeypatch)
    for g, outcome in zip(graphs, got):
        assert _fold_outcomes(g) == outcome, g


def test_prime_chain_puts_each_row_into_the_echelon_once(monkeypatch):
    # every level of the chain has a prime P4 under a series node: each
    # fold row enters the echelon at most once, so the kernel runs O(n)
    # times, where reducing each subtree's rows again at every level runs
    # it O(n^2) times (3925 -> 15350 for the dimension)
    import wellcovered.linalg as linalg
    import wellcovered.systems as systems

    calls = [0]
    real = linalg._reduce

    def counting(echelon, work):
        calls[0] += 1
        return real(echelon, work)

    monkeypatch.setattr(linalg, "_reduce", counting)
    monkeypatch.setattr(systems, "_reduce", counting)
    # the dimension is 2k, and the system has 3k rows
    for build, read, per_level in (
        (well_covered_dimension, int, 2),
        (well_covering_system, len, 3),
    ):
        counts = []
        for k in (50, 100):
            calls[0] = 0
            assert read(build(gu.prime_chain(k))) == per_level * k
            assert calls[0] <= 2 * 5 * k
            counts.append(calls[0])
        assert counts[1] <= 2.5 * counts[0]


@pytest.mark.parametrize("strategy", ["auto", "forkfree"])
def test_fork_scans_see_at_most_twice_the_quotient(monkeypatch, strategy):
    # the fork flag is read off the one decomposition before any solving:
    # at each prime node, in fold order, a claw scan of at most three
    # vertices per child while no claw is known, then a fork scan of at
    # most two per child, and no whole-graph scan. The rows are those of
    # the three-way dispatch; with a fork, auto takes the brute force and
    # forkfree refuses
    import wellcovered.modular as modular
    import wellcovered.systems as systems

    scans = gu.record_scans(monkeypatch, modular)
    decompositions = []
    real_nodes = systems._md_nodes
    monkeypatch.setattr(
        systems,
        "_md_nodes",
        lambda h, within=None: decompositions.append((h, within))
        or real_nodes(h, within),
    )
    # the P4 with its second vertex doubled: a prime node with a child that
    # is not a clique, so its scans are larger than its quotient, and it
    # holds a claw but no fork
    doubled = gu.substitute(gu.path(4), [gu.edgeless(k) for k in (1, 2, 1, 1)])
    g = gu.join(gu.disjoint_union(gu.bull(), doubled), gu.bull())
    cfg = SolverConfig(strategy)
    expected = gu.three_way_auto_system(g)
    scans.clear()
    decompositions.clear()
    s = well_covering_system(g, cfg)
    assert (s.rows, s.tags) == (expected.rows, expected.tags)
    # the anti-neighborhood subproblems decompose smaller vertex sets
    whole = [
        (h, within)
        for h, within in decompositions
        if gu.scanned_mask(h, within).bit_count() == g.n
    ]
    assert whole == [(g, None)]
    quotients = [len(x.reps) for x in md_tree(g).iter_nodes() if x.kind == "prime"]
    assert quotients == [5, 4, 5]
    assert [(name, s.bit_count()) for name, s in scans] == [
        ("is_claw_free", 5),  # the bull
        ("is_claw_free", 5),  # the doubled P4: a claw
        ("_finds_fork", 5),  # the doubled P4: no fork
        ("_finds_fork", 5),  # the second bull, as a claw is known
    ]
    scans.clear()
    decompositions.clear()
    g = gu.disjoint_union(gu.bull(), gu.fork())
    if strategy == "forkfree":
        with pytest.raises(StrategyError, match="induced fork"):
            well_covering_system(g, cfg)
    else:
        assert well_covering_system(g, cfg) == bruteforce_system(g)
    assert decompositions == [(g, None)]
    assert [(name, s.bit_count()) for name, s in scans] == [
        ("is_claw_free", 5),
        ("is_claw_free", 5),
        ("_finds_fork", 5),
    ]


@pytest.mark.parametrize("strategy", ["auto", "forkfree"])
def test_fork_decided_before_any_prime_solver(monkeypatch, strategy):
    # a fork-free prime component numbered before a fork: the fork flag is
    # read off the decomposition first, so no prime quotient is solved.
    # auto's system is the brute force on the whole graph, and forkfree
    # refuses both system and the queries
    import wellcovered.systems as systems

    g = gu.disjoint_union(gu.path(6), gu.fork())
    solved = []
    for name in ("bruteforce_system", "clawfree_system", "_anti_neighborhoods"):
        real = getattr(systems, name)
        monkeypatch.setattr(
            systems,
            name,
            lambda h, *a, real=real, name=name, **k: solved.append((name, h.n))
            or real(h, *a, **k),
        )
    cfg = SolverConfig(strategy)
    if strategy == "forkfree":
        for build in (well_covering_system, _query_system):
            with pytest.raises(StrategyError, match="induced fork"):
                build(g, cfg)
        assert solved == []
    else:
        assert len(well_covering_system(g, cfg)) > 0
        assert solved == [("bruteforce_system", g.n)]


FORK_FAMILIES = {
    "gnp": lambda rng: gu.random_graph(rng, rng.randint(1, 13), rng.random()),
    # a series module whose first child is one vertex and whose later
    # child is not a clique: a sample read off its first child alone would
    # miss the forks whose two leaves lie in the later one
    "cograph_substitution": lambda rng: gu.shuffled_substitution(
        rng, (4, 6), (1, 3), gu.random_cograph
    ),
}


@pytest.mark.parametrize("family", FORK_FAMILIES)
def test_forkfree_refuses_exactly_the_graphs_with_a_fork(family):
    # the fork flag that system and the queries read off the decomposition
    # scans no whole graph, yet must refuse a graph iff it has an induced
    # fork, and on a fork-free graph system prints the rows of the
    # three-way dispatch
    rng = gu.seeded(139)
    cfg = SolverConfig("forkfree")
    forks = 0
    for _ in range(120):
        g = FORK_FAMILIES[family](rng)
        has_fork = gu.has_induced(g, gu.fork())
        forks += has_fork
        if has_fork:
            for build in (well_covering_system, _query_system):
                with pytest.raises(StrategyError, match="induced fork"):
                    build(g, cfg)
            continue
        s, expected = well_covering_system(g, cfg), gu.three_way_auto_system(g)
        assert (s.rows, s.tags) == (expected.rows, expected.tags)
        assert same_solution_space(_query_system(g, cfg), s)
    assert 20 <= forks <= 110


def _outcome(build):
    """The rows and tags ``build()`` returns, or the message it raises."""
    try:
        s = build()
    except CapExceededError as exc:
        return str(exc)
    return s.rows, s.tags


@pytest.mark.parametrize("cap", [1, 2, 5, 50, 120, DEFAULT_MIS_CAP])
def test_early_stop_matches_eager_oracle(cap):
    # the anti-neighborhood reduction stops solving once |Q| rows are kept,
    # and after that solves only the subproblems that might pass the cap:
    # rows, tags and exceptions are those of the eager three-way dispatch
    rng = gu.seeded(163)
    graphs = [gu.random_forkfree(rng, 14) for _ in range(40)]
    graphs += [
        gu.substitute(s, [gu.complete(rng.randint(1, 3)) for _ in range(s.n)])
        for s in gu.clawfree_prime_seeds()
        for _ in range(2)
    ]
    graphs += [gu.line_graph(gu.prism(k)) for k in (8, 10, 12)]
    # the 8-prism's line graph with its rungs numbered first: the rank is
    # full after three of their subproblems, whose prime quotients have at
    # most 109 maximal independent sets, while the later ones have 142, so
    # under a cap of 120 only a later subproblem raises
    es = gu.prism(8).edges()
    rungs_first = sorted(range(len(es)), key=lambda i: es[i][1] - es[i][0] != 8)
    order = [0] * len(es)
    for new, old in enumerate(rungs_first):
        order[old] = new
    graphs.append(gu.relabel(gu.line_graph(gu.prism(8)), order))
    cfg = SolverConfig(mis_cap=cap)
    raised = 0
    for g in graphs:
        got = _outcome(lambda: well_covering_system(g, cfg))
        assert got == _outcome(lambda: gu.three_way_auto_system(g, cap))
        raised += isinstance(got, str)
    assert raised < len(graphs) and (raised > 0) == (cap < DEFAULT_MIS_CAP)


@pytest.mark.parametrize("cap, solved", [(DEFAULT_MIS_CAP, range(1, 7)), (50000, [36])])
def test_prism_line_graph_solves_few_subproblems(monkeypatch, cap, solved):
    # the line graph of the 12-prism has dimension 0 and 36 vertices, and
    # each G - N[v] has 31: the rank is full after a few of them, and the
    # rest are skipped unless _moon_moser(31) passes the cap
    import wellcovered.systems as systems

    g = gu.line_graph(gu.prism(12))
    folds = []
    real = systems._fold_system
    # each fold records the size of the vertex set it folds: its leaves
    monkeypatch.setattr(
        systems,
        "_fold_system",
        lambda h, nodes, *a: folds.append(sum(b is None for _, _, b in nodes))
        or real(h, nodes, *a),
    )
    s = well_covering_system(g, SolverConfig(mis_cap=cap))
    assert len(s) == 36
    assert folds[0] == 36 and set(folds[1:]) == {31}
    assert len(folds) - 1 in solved
    assert _moon_moser(31) > 50000


def test_verbs_copy_no_anti_neighborhood(monkeypatch):
    # each G - N[v] is decomposed and folded as a vertex mask of its graph,
    # so the only graphs the verbs copy are prime quotients that reach a
    # solver, each lifted by one _substitute call; a copy of some G - N[v]
    # would be one more. recognize copies no graph of samples
    import wellcovered.modular as modular
    import wellcovered.systems as systems

    clique_sub = gu.line_graph_clique_substitution(gu.seeded(3))
    root = md_tree(clique_sub)
    # the root is prime and its children are cliques, so the samples, one
    # vertex of each child, are not the whole graph
    assert root.kind == "prime" and len(root.children) < clique_sub.n
    calls = Counter()
    for module, name in (
        (systems, "induced_subgraph"), (modular, "induced_subgraph"),
        (systems, "_substitute"),
    ):
        monkeypatch.setattr(
            module,
            name,
            lambda *a, real=getattr(module, name), key=name: (
                calls.update([key]) or real(*a)
            ),
        )
    for g in (gu.line_graph(gu.prism(12)), clique_sub):
        for strategy in ("auto", "forkfree"):
            cfg = SolverConfig(strategy)
            well_covering_system(g, cfg)
            well_covered_dimension(g, cfg)
            well_covered_basis(g, cfg)
    # the subproblems were solved: their prime quotients are copied
    assert calls["induced_subgraph"]
    assert calls["induced_subgraph"] <= calls["_substitute"]
    calls.clear()
    assert recognize(clique_sub)["fork_free"]
    assert not calls


def test_query_route_matches_bruteforce_at_dimension_zero():
    # at dimension 0 the streamed span and the anti-neighborhood reduction
    # both stop at full rank; dimension and basis are the brute force's
    rng = gu.seeded(167)
    brute_cfg = SolverConfig("bruteforce")
    seen = 0
    for _ in range(300):
        g = gu.random_graph(rng, rng.randint(8, 14), rng.uniform(0.4, 0.7))
        if well_covered_dimension(g, brute_cfg) != 0:
            continue
        seen += 1
        assert well_covered_dimension(g) == 0
        assert len(_query_system(g)) == g.n
        assert null_space_basis(_query_system(g)) == null_space_basis(
            bruteforce_system(g)
        )
    assert seen >= 40


class TestSparseRowsAgainstDenseOracles:
    """The row builders and lifts against the dense ones they replaced."""

    def test_diff_row(self):
        rng = gu.seeded(41)
        for _ in range(400):
            n = rng.choice([1, 5, 40, 200])
            plus, minus = rng.getrandbits(n), rng.getrandbits(n)
            if rng.random() < 0.3:
                minus &= ~plus  # disjoint, as in joins and generating rows
            for a, b in ((plus, minus), (plus, 0), (0, minus), (plus, plus)):
                row = _diff_row(a, b)
                assert row == gu.terms(
                    gu.dense_diff_row(n, iter_bits(a), iter_bits(b))
                )
                assert [c for c, _ in row] == sorted({c for c, _ in row})

    def test_diff_row_examples(self):
        assert _diff_row(0, 0) == ()
        assert _diff_row(0b1001111, 0b1001111) == ()
        assert _diff_row(0b1000010000, 0b0010100001) == (
            (0, -1), (4, 1), (5, -1), (7, -1), (9, 1)
        )
        # past _C_STEP columns, listed in C
        evens, odds = int("01" * 40, 2), int("10" * 40, 2)
        assert _diff_row(evens | 1 << 100, odds | 1 << 100) == tuple(
            (c, 1 if c % 2 == 0 else -1) for c in range(80)
        )

    def test_lifts(self):
        rng = gu.seeded(43)
        for _ in range(200):
            k = rng.randint(0, 6)
            rows = [
                tuple(rng.choice([0, 0, 1, -1, 2, Fraction(-1, 3)]) for _ in range(k))
                for _ in range(rng.randint(0, 4))
            ]
            qsys = make_system(k, rows, [rng.choice(["", "t"]) for _ in rows])
            host_n = k + rng.randint(0, 8)
            order = rng.sample(range(host_n), host_n)
            cuts = sorted(rng.sample(range(1, host_n + 1), k)) if k else []
            sets = [order[a:b] for a, b in zip([0] + cuts, cuts)]
            lifted = gu.lift_quotient_system(qsys, sets, host_n)
            tags = [f"subst[{t}]" if t else "subst" for t in qsys.tags]
            assert lifted == gu.dense_spread(qsys, sets, host_n, tags)
            vmap = rng.sample(range(host_n), k)
            moved = gu.lift_subgraph_system(qsys, vmap, host_n)
            singletons = [(v,) for v in vmap]
            assert moved == gu.dense_spread(qsys, singletons, host_n, qsys.tags)
            for s in (lifted, moved):
                for row in s.terms:
                    assert [c for c, _ in row] == sorted({c for c, _ in row})

    def test_systems_on_the_dense_row_layer(self, monkeypatch):
        # every route builds the same rows and tags when its rows are built
        # dense, one n-tuple at a time
        rng = gu.seeded(47)
        graphs = [
            gu.random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(25)
        ]
        graphs += [gu.shuffled_substitution(rng, (4, 6), (1, 4)) for _ in range(5)]
        graphs += [gu.line_graph(gu.random_graph(rng, 6, 0.6)) for _ in range(5)]
        graphs += [gu.bull(), gu.fork(), gu.petersen(), gu.prism(4)]

        def outcomes():
            out = []
            for g in graphs:
                for build in (well_covering_system, _query_system):
                    for strategy in STRATEGIES:
                        for cap in (1, 5, DEFAULT_MIS_CAP):
                            try:
                                s = build(g, SolverConfig(strategy, cap))
                            except (StrategyError, CapExceededError) as exc:
                                out.append(type(exc))
                                continue
                            out.append((s.num_vars, s.rows, s.tags))
            return out

        sparse = outcomes()
        with monkeypatch.context() as m:
            gu.dense_rows_patched(m)
            dense = outcomes()
        assert sparse == dense


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sparse_graphs():
    """name -> (graph, traced peak of its decomposition)"""
    graphs = {
        "forest30000": gu.disjoint_union(*[gu.complete(3)] * 10_000),
        "path8000": gu.path(8000),
    }
    return {name: (g, _traced_peak(_md_nodes, g)[0]) for name, g in graphs.items()}


@pytest.mark.parametrize(
    "name, build",
    [
        ("forest30000", well_covered_dimension),
        ("forest30000", well_covering_system),
        ("path8000", well_covered_dimension),
    ],
)
def test_memory_linear_over_the_decomposition(sparse_graphs, name, build):
    # vertex sets are bitmasks of up to n bits, so the decomposition alone
    # takes Theta(n^2) bits here (about 86 MB on the forest); the rows must
    # add a constant per vertex and per nonzero on top of that, counting a
    # copy of it for the prime root's quotient. Dense rows took
    # 8 * n * rows bytes: 4.8 GB on the forest
    g, decomposition = sparse_graphs[name]
    peak, result = _traced_peak(build, g)
    system = result if isinstance(result, LinearSystem) else _query_system(g)
    nnz = sum(map(len, system.terms))
    assert peak <= 2 * decomposition + 1000 * (g.n + nnz)
