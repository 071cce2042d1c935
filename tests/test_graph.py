import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil as gu
from wellcovered.graph import (
    MAX_VERTICES,
    Graph,
    GraphParseError,
    co_components,
    complement,
    connected_components,
    delete_closed_neighborhood,
    induced_subgraph,
    is_claw_free,
    is_fork_free,
    is_p4_free,
    parse_graph,
)


def small_graph(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, f in zip(pairs, flags) if f])


graphs = st.composite(small_graph)()


class TestParseEdgeList:
    def test_k2(self):
        g = parse_graph("2\n0 1")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_bull(self):
        g = parse_graph("5\n0 1\n1 2\n2 3\n3 4\n1 3")
        assert g == gu.bull()

    def test_isolated_vertices(self):
        g = parse_graph("3")
        assert g.n == 3 and g.num_edges() == 0

    def test_duplicate_edges_collapse(self):
        g = parse_graph("3\n0 1\n1 0\n0 1")
        assert g.edges() == [(0, 1)]

    def test_blank_lines_skipped(self):
        g = parse_graph("\n2\n\n0 1\n")
        assert g.edges() == [(0, 1)]

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("x", 1),
            ("3\n0", 2),
            ("3\n0 1 2", 2),
            ("3\na b", 2),
            ("3\n0 1\n0 3", 3),
            ("3\n0 1\n-1 2", 3),
            ("2\n1 1", 2),
            ("", 1),
        ],
    )
    def test_errors_name_line(self, text, lineno):
        with pytest.raises(GraphParseError, match=f"line {lineno}"):
            parse_graph(text)

    def test_vertex_count_bound(self):
        assert parse_graph(str(MAX_VERTICES)).n == MAX_VERTICES
        # a 9-byte input must not allocate for the count it declares
        tracemalloc.start()
        try:
            with pytest.raises(GraphParseError, match="exceeds the limit"):
                parse_graph("10000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestParseGraph6:
    def test_known_small(self):
        assert parse_graph("A_", "graph6") == gu.complete(2)
        assert parse_graph("A?", "graph6") == gu.edgeless(2)
        assert parse_graph("Bw", "graph6") == gu.complete(3)

    def test_header_accepted(self):
        assert parse_graph(">>graph6<<A_", "graph6") == gu.complete(2)

    def test_petersen_string(self):
        # nauty's canonical encoding of the (3,5)-cage
        g = parse_graph("IheA@GUAo", "graph6")
        assert g.n == 10
        assert g.num_edges() == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # girth 5: no triangles, no 4-cycles
        assert not gu.has_induced(g, gu.cycle(3))
        assert not gu.has_induced(g, gu.cycle(4))

    def test_roundtrip_random(self):
        rng = gu.seeded(7)
        for _ in range(40):
            g = gu.random_graph(rng, rng.randint(0, 12), rng.random())
            assert parse_graph(gu.graph6_encode(g), "graph6") == g

    @pytest.mark.parametrize("n", [62, 63, 64, 130, 300])
    @pytest.mark.parametrize("p", [0, 0.02, 0.5, 1])
    def test_roundtrip_across_order_forms(self, n, p):
        # n = 62 is the last one-byte order, n >= 63 takes "~" + 3 bytes
        g = gu.random_graph(gu.seeded(n), n, p)
        assert parse_graph(gu.graph6_encode(g), "graph6") == g

    def test_long_order_encoding(self):
        # 3-byte order form: n=100 edgeless needs ceil(4950/6) zero bytes
        text = "~?@c" + "?" * 825
        g = parse_graph(text, "graph6")
        assert g.n == 100 and g.num_edges() == 0

    def test_bad_inputs(self):
        with pytest.raises(GraphParseError):
            parse_graph("", "graph6")
        with pytest.raises(GraphParseError):
            parse_graph("A", "graph6")  # missing data byte
        with pytest.raises(GraphParseError):
            parse_graph("A_~", "graph6")  # trailing junk

    def test_vertex_count_bound(self):
        n = MAX_VERTICES + 1
        order = "".join(chr(63 + (n >> shift & 63)) for shift in range(30, -1, -6))
        with pytest.raises(GraphParseError, match="exceeds the limit"):
            parse_graph("~~" + order, "graph6")

    def test_unknown_format(self):
        with pytest.raises(GraphParseError):
            parse_graph("2\n0 1", "dot")


class TestComplement:
    def test_triangle(self):
        assert complement(gu.complete(3)) == gu.edgeless(3)

    def test_edgeless(self):
        assert complement(gu.edgeless(4)) == gu.complete(4)

    def test_c5_is_pentagram(self):
        expected = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert complement(gu.cycle(5)) == expected

    @settings(max_examples=60, deadline=None)
    @given(graphs)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_bull_middle_is_p3(self):
        sub, vmap = induced_subgraph(gu.bull(), {0, 1, 2})
        assert vmap == (0, 1, 2)
        assert sub == gu.path(3)

    def test_full_set_identity(self):
        g = gu.bull()
        sub, vmap = induced_subgraph(g, range(g.n))
        assert sub == g and vmap == (0, 1, 2, 3, 4)

    def test_empty_set(self):
        sub, vmap = induced_subgraph(gu.bull(), [])
        assert sub.n == 0 and vmap == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(gu.bull(), [0, 7])


class TestComponents:
    def test_two_k2(self):
        g = gu.disjoint_union(gu.complete(2), gu.complete(2))
        assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_bull_connected(self):
        assert connected_components(gu.bull()) == [frozenset(range(5))]

    def test_edgeless(self):
        assert connected_components(gu.edgeless(3)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_co_components_k4(self):
        assert co_components(gu.complete(4)) == [
            frozenset({v}) for v in range(4)
        ]

    def test_co_components_k23(self):
        assert co_components(gu.complete_bipartite(2, 3)) == [
            frozenset({0, 1}),
            frozenset({2, 3, 4}),
        ]

    def test_co_components_edgeless(self):
        assert co_components(gu.edgeless(3)) == [frozenset({0, 1, 2})]

    @settings(max_examples=60, deadline=None)
    @given(graphs)
    def test_both_are_partitions(self, g):
        for blocks in (connected_components(g), co_components(g)):
            seen = set()
            for b in blocks:
                assert b and not (b & seen)
                seen |= b
            assert seen == set(range(g.n))

    @settings(max_examples=60, deadline=None)
    @given(graphs)
    def test_co_components_match_complement(self, g):
        assert co_components(g) == connected_components(complement(g))


class TestDeleteClosedNeighborhood:
    def test_bull_center(self):
        sub, vmap = delete_closed_neighborhood(gu.bull(), 2)
        assert vmap == (0, 4)
        assert sub == gu.edgeless(2)

    def test_complete(self):
        sub, vmap = delete_closed_neighborhood(gu.complete(4), 1)
        assert sub.n == 0 and vmap == ()

    def test_edgeless(self):
        sub, vmap = delete_closed_neighborhood(gu.edgeless(4), 0)
        assert sub == gu.edgeless(3) and vmap == (1, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delete_closed_neighborhood(gu.bull(), 5)


class TestRecognition:
    def test_claw(self):
        g = gu.claw()
        assert not is_claw_free(g)
        assert is_fork_free(g)

    def test_fork(self):
        g = gu.fork()
        assert not is_fork_free(g)
        assert not is_claw_free(g)  # a fork contains a claw

    def test_bull(self):
        g = gu.bull()
        assert is_claw_free(g)
        assert is_fork_free(g)
        assert not is_p4_free(g)

    def test_p4(self):
        g = gu.path(4)
        assert not is_p4_free(g)
        assert is_claw_free(g)
        assert is_fork_free(g)

    def test_against_bruteforce_search(self):
        rng = gu.seeded(11)
        for _ in range(120):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            assert is_claw_free(g) == (not gu.has_induced(g, gu.claw()))
            assert is_fork_free(g) == (not gu.has_induced(g, gu.fork()))
            assert is_p4_free(g) == (not gu.has_induced(g, gu.path(4)))

    def test_implications(self):
        rng = gu.seeded(13)
        for _ in range(150):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            if is_p4_free(g):
                assert is_fork_free(g)
            if is_claw_free(g):
                assert is_fork_free(g)
