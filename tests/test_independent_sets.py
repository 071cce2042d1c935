import pytest

import genutil as gu
from wellcovered.graph import Graph
from wellcovered.independent_sets import (
    CapExceededError,
    _cover_refutes,
    _mis_masks,
    greedy_mis,
    meets_all_cliques,
)
from wellcovered.systems import _generating_candidates, _generating_cliques


class TestGreedy:
    def test_edgeless(self):
        assert greedy_mis(gu.edgeless(4), [2, 0, 3, 1]) == frozenset(range(4))

    def test_complete(self):
        assert greedy_mis(gu.complete(5), range(5)) == frozenset({0})

    def test_bull_identity_order(self):
        # picks the three-vertex set along the underlying path
        assert greedy_mis(gu.bull(), range(5)) == frozenset({0, 2, 4})

    def test_order_matters(self):
        assert greedy_mis(gu.bull(), [1, 0, 2, 3, 4]) == frozenset({1, 4})

    def test_bad_order(self):
        with pytest.raises(ValueError):
            greedy_mis(gu.bull(), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            greedy_mis(gu.bull(), [0, 0, 1, 2, 3])
        with pytest.raises(ValueError):
            greedy_mis(gu.bull(), iter([0, 0, 1, 2, 3]))

    def test_order_read_once(self):
        # the permutation check reads the order once, so an iterator or a
        # generator is scanned in full, as a list is
        order = [1, 0, 2, 3, 4]
        expected = frozenset({1, 4})
        assert greedy_mis(gu.bull(), order) == expected
        assert greedy_mis(gu.bull(), iter(order)) == expected
        assert greedy_mis(gu.bull(), (v for v in order)) == expected
        assert greedy_mis(gu.path(3), iter([0, 1, 2])) == frozenset({0, 2})

    def test_result_always_enumerated(self):
        rng = gu.seeded(3)
        for _ in range(100):
            g = gu.random_graph(rng, rng.randint(1, 8), rng.random())
            order = list(range(g.n))
            rng.shuffle(order)
            mis = gu.enumerate_mis(g)
            assert mis.complete
            assert greedy_mis(g, order) in set(mis.sets)


class TestEnumerate:
    def test_bull_golden(self):
        mis = gu.enumerate_mis(gu.bull())
        assert mis.complete
        assert mis.sets == (
            frozenset({0, 2, 4}),
            frozenset({0, 3}),
            frozenset({1, 4}),
        )

    def test_matching_has_2_to_n(self):
        # n disjoint edges: every choice of one endpoint per edge is maximal
        for n in (1, 2, 3, 4):
            g = gu.disjoint_union(*[gu.complete(2)] * n)
            mis = gu.enumerate_mis(g, cap=2**n)
            assert mis.complete and len(mis.sets) == 2**n

    def test_cap_cuts_off(self):
        g = gu.disjoint_union(*[gu.complete(2)] * 4)
        mis = gu.enumerate_mis(g, cap=7)
        assert not mis.complete and len(mis.sets) == 7

    def test_k1(self):
        mis = gu.enumerate_mis(Graph.from_edges(1, []))
        assert mis.complete and mis.sets == (frozenset({0}),)

    def test_zero_vertices(self):
        mis = gu.enumerate_mis(Graph.from_edges(0, []))
        assert mis.complete and mis.sets == (frozenset(),)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            gu.enumerate_mis(gu.bull(), cap=0)

    def test_all_graphs_up_to_3_vertices(self):
        # exhaustive subset filtering agrees on every labeled graph
        for n in range(4):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for picks in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [e for i, e in enumerate(pairs) if picks >> i & 1]
                )
                assert set(gu.enumerate_mis(g).sets) == gu.brute_mis(g)

    def test_random_against_subset_filter(self):
        rng = gu.seeded(5)
        for _ in range(120):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            mis = gu.enumerate_mis(g)
            assert mis.complete
            assert set(mis.sets) == gu.brute_mis(g)

    def test_same_sets_as_recursive_version(self):
        # the explicit stack visits branches in the recursive order, so a cap
        # cuts off the same sets
        rng = gu.seeded(9)
        for _ in range(150):
            g = gu.random_graph(rng, rng.randint(0, 14), rng.random())
            for cap in (1, 2, 3, 7, 10**6):
                assert gu.enumerate_mis(g, cap) == gu.recursive_enumerate_mis(g, cap)

    def test_same_sequence_as_frame_per_branch_version(self):
        # dropping the frames that hold no set changes neither the sets
        # nor their order, which the streamed consumers and caps rely on
        rng = gu.seeded(167)
        graphs = [gu.random_graph(rng, rng.randint(0, 16), rng.random())
                  for _ in range(400)]
        graphs += [gu.random_graph(rng, 34, 0.3) for _ in range(3)]
        graphs += [gu.petersen(), gu.fork_substitution(2), gu.edgeless(5)]
        for g in graphs:
            assert list(_mis_masks(g)) == list(gu.frame_per_branch_mis_masks(g))

    def test_canonical_order(self):
        rng = gu.seeded(6)
        for _ in range(40):
            g = gu.random_graph(rng, rng.randint(1, 8), rng.random())
            sets = gu.enumerate_mis(g).sets
            assert list(sets) == sorted(sets, key=sorted)
            assert len(set(sets)) == len(sets)

    def test_independence_and_maximality(self):
        rng = gu.seeded(8)
        for _ in range(80):
            g = gu.random_graph(rng, rng.randint(1, 9), rng.random())
            for s in gu.enumerate_mis(g).sets:
                members = sorted(s)
                for i, u in enumerate(members):
                    for v in members[i + 1:]:
                        assert not g.has_edge(u, v)
                for v in range(g.n):
                    if v not in s:
                        assert any(g.has_edge(v, u) for u in s)


class TestWellCoveredBruteforce:
    def test_c4(self):
        assert gu.is_well_covered_bruteforce(gu.cycle(4))

    def test_bull(self):
        assert not gu.is_well_covered_bruteforce(gu.bull())

    def test_complete(self):
        for n in (1, 2, 5):
            assert gu.is_well_covered_bruteforce(gu.complete(n))

    def test_cap_undecided(self):
        g = gu.disjoint_union(*[gu.complete(2)] * 5)
        with pytest.raises(CapExceededError, match="undecided"):
            gu.is_well_covered_bruteforce(g, cap=10)


def row_cliques(rows, cols):
    """The row cliques of ``gu.rook(rows, cols)``, as bitmasks."""
    return [((1 << cols) - 1) << (cols * r) for r in range(rows)]


class TestMeetsAllCliques:
    def test_no_cliques_and_empty_clique(self):
        assert meets_all_cliques(gu.path(3), [])
        assert not meets_all_cliques(gu.path(3), [0b011, 0])

    def test_path(self):
        # the ends of P3 are independent; its edges cannot both be met by
        # one vertex unless that vertex is the middle
        assert meets_all_cliques(gu.path(3), [0b001, 0b100])
        assert not meets_all_cliques(gu.path(3), [0b010, 0b001])
        assert meets_all_cliques(gu.path(3), [0b011, 0b110])

    def test_pigeonhole(self):
        # the rows of K8 x K7 are eight cliques; an independent set takes
        # at most one vertex per column, so it meets at most seven of them
        g = gu.rook(8, 7)
        assert not meets_all_cliques(g, row_cliques(8, 7))
        assert meets_all_cliques(g, row_cliques(8, 7)[:7])

    def test_cover_grows_cliques_only(self):
        # 1 and 2 are the ends of the path 1-0-2, and 3 is isolated: no
        # two cliques cover the packing {1}, {2}, {0, 3}, though the two
        # sets {0, 1, 2} and {3} do, and {1, 2, 3} meets all three
        g = Graph.from_edges(4, [(0, 1), (0, 2)])
        assert meets_all_cliques(g, [0b0010, 0b0100, 0b1001])

    @pytest.mark.parametrize("r", range(6, 10))
    def test_pigeonhole_refuted_without_search(self, r):
        # the columns cover the r rows of K_r x K_(r-1) with r - 1 cliques,
        # found with one adjacency read per vertex and no search
        g = gu.rook(r, r - 1)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        assert not meets_all_cliques(counted, row_cliques(r, r - 1))
        assert counted.adj.reads <= r * (r - 1)

    def test_random_against_subsets(self):
        rng = gu.seeded(91)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = gu.random_graph(rng, n, rng.random())
            k = rng.randint(0, 5)
            sets = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(k)]
            assert meets_all_cliques(g, sets) == gu.brute_meets_all(g, sets)
        # genuine clique families: parts of the rows and columns of
        # K_a x K_b, and the cliques N(d) & R that clawfree_system tests
        families = []
        for _ in range(150):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            lines = row_cliques(a, b) + [
                sum(1 << (r * b + c) for r in range(a)) for c in range(b)
            ]
            picked = rng.sample(lines, rng.randint(1, len(lines)))
            families.append((gu.rook(a, b), [
                line & (rng.getrandbits(a * b) | line & -line) for line in picked
            ]))
        while len(families) < 450:
            g = gu.random_clawfree(rng, 12)
            for _, x, y in _generating_candidates(g):
                cliques = _generating_cliques(g, x, y)
                if cliques and all(cliques) and rng.random() < 0.3:
                    families.append((g, cliques))
        fired = missed = 0
        for g, cliques in families:
            expected = gu.brute_meets_all(g, cliques)
            assert meets_all_cliques(g, cliques) == expected
            if _cover_refutes(g, list(dict.fromkeys(cliques))):
                assert not expected
                fired += 1
            else:
                missed += 1
        assert fired and missed
