import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil as gu
from wellcovered import graph as graph_module
from wellcovered.graph import (
    MAX_VERTICES,
    Graph,
    GraphParseError,
    _finds_fork,
    co_component_masks,
    complement,
    component_masks,
    induced_subgraph,
    is_claw_free,
    iter_bits,
    parse_graph,
)
from wellcovered.modular import recognize


def small_graph(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, f in zip(pairs, flags) if f])


graphs = st.composite(small_graph)()


class TestFromEdges:
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (-1, [], "vertex count must be non-negative"),
            (3, [(0, 3)], r"edge \(0, 3\) out of range for n=3"),
            (3, [(-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
            (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        ],
    )
    def test_errors(self, n, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph.from_edges(n, edges)


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


def parse_outcome(parse, text):
    """The graph ``parse`` returns for ``text``, or the message it raises."""
    try:
        return parse(text)
    except GraphParseError as e:
        return f"GraphParseError: {e}"


def edge_list_text(n, edges):
    """The layout the bench generators and the README write."""
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def threshold2000_text():
    n = 2000
    return edge_list_text(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


MUTANTS = ["0", "1", "7", "9", "00", " ", "  ", "\t", "\n", "\r\n", "\r",
           "\x0b", "\x0c", "\x1c", "\u2028", "+", "-", "_", "x", "\u0663",
           "\uff13"]


@st.composite
def mutated_canonical_texts(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    ends = st.integers(min_value=0, max_value=n + 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    text = edge_list_text(n, edges)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=2))
        text = text[:at] + draw(st.sampled_from(MUTANTS + [""])) + text[at + cut:]
    return text


EXPLICIT_CASES = [
    # line endings and spacing
    "3\r\n0 1\r\n1 2\r\n",
    "3\n0\t1\n1 2\n",
    "3\n\n0 1\n\n1 2\n",
    "\n3\n0 1\n",
    "3\n0 1\n\n",
    "3\n 0 1\n1 2 \n",
    "3\n0  1\n",
    "3\n0 1\n1 2",
    "3\n0 1\x0b1 2\n",
    "3\n0 1\n\x0c",
    "3\n0 1\n\x1c",
    "003\n0 1\n",
    "000003\n0 1\n",
    " 3 \n0 1\n",
    "3 \n0 1\n",
    "5\n0 \n1 2\n3",
    "5\n0 \n 1\n",
    "5\n \n0 1\n",
    "5\n\n0 1 2 3\n",
    "5\n0 1 2 3\n\n",
    # bad tokens
    "3\n0\n",
    "3\n0 1 2\n",
    "3\n007 1\n",
    "9\n007 1\n",
    "3\n+1 2\n",
    "3\n-0 2\n",
    "11\n1_0 2\n",
    "3\n1_0 2\n",
    "5\n\u0663 1\n",
    "5\n\uff13 1\n",
    "3\na b\n",
    "3\n0 1\n-1 2\n",
    # bad edges
    "3\n1 1\n",
    "3\n0 1\n2 2\n",
    "3\n0 3\n",
    "3\n3 0\n",
    "3\n0 1\n1 0\n0 1\n",
    # headers
    "0\n",
    "0",
    "0\n0 1\n",
    "0\n0 0\n",
    f"{MAX_VERTICES + 1}\n",
    f"{MAX_VERTICES + 1}\n0 1\n",
    "9" * 5000 + "\n0 1\n",
    "-3\n0 1\n",
    "x\n0 1\n",
    "",
    "\n",
    " ",
]


class TestCanonicalFastPath:
    """The fast path agrees with the line parser, never raises, and is the
    path canonical text takes."""

    def assert_same(self, text):
        want = parse_outcome(gu.parse_edge_list_lines, text)
        assert parse_outcome(parse_graph, text) == want
        fast = graph_module._parse_canonical(text)
        assert fast is None or fast == want

    @pytest.mark.parametrize("text", EXPLICIT_CASES)
    def test_explicit_cases_match_line_parser(self, text):
        self.assert_same(text)

    @settings(max_examples=400, deadline=None)
    @given(mutated_canonical_texts())
    def test_mutated_texts_match_line_parser(self, text):
        self.assert_same(text)

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        lines = graph_module._parse_lines

        def spy(text):
            calls.append(text)
            return lines(text)

        monkeypatch.setattr(graph_module, "_parse_lines", spy)
        return calls

    @pytest.fixture
    def row_reads(self, monkeypatch):
        calls = []
        row_mask = graph_module._row_mask

        def spy(n, vs):
            calls.append(len(vs))
            return row_mask(n, vs)

        monkeypatch.setattr(graph_module, "_row_mask", spy)
        return calls

    @pytest.fixture
    def allocations(self, monkeypatch):
        """The size of each bytearray the graph module allocates."""
        sizes = []

        def spy(size):
            sizes.append(size)
            return bytearray(size)

        monkeypatch.setattr(graph_module, "bytearray", spy, raising=False)
        return sizes

    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_matrix_gate(self, allocations, slack):
        # n * n == len(data) + slack: the matrix is taken up to equality
        n = 11
        size = n * n - slack
        two_digit = (size - 3) % 4  # lines "u 10\n" of 5 bytes, the rest 4
        edges = [(u, 10) for u in range(two_digit)]
        edges += [(u, v) for u in range(10) for v in range(u + 1, 10)]
        text = edge_list_text(n, edges[:two_digit + (size - 3 - 5 * two_digit) // 4])
        assert len(text) == size
        self.assert_same(text)
        assert (n * n in allocations) == (slack <= 0)

    @pytest.mark.parametrize("text,fast", [
        ("3\n0 1\n1 2\n2 2\n", False),  # self-loop
        ("3\n1 1\n0 1\n", False),
        ("3\n0 1\n1 2\n0 1\n", True),  # duplicate edge
        ("3\n0 1\n1 0\n2 1\n", True),  # reversed edges
        ("3\n2 0\n2 1\n", True),
        ("3\n0 1\n0 3\n", False),  # out of range
        ("3\n0 1\n007 1\n", False),  # not canonical
        ("0\n0 1\n", False),
        ("1\n0 0\n", False),
        ("1\n0 1\n", False),
        ("0\n", True),
        ("1\n", True),
    ])
    def test_matrix_path_cases(self, allocations, text, fast):
        n = int(text.split()[0])
        assert n * n <= len(text)
        self.assert_same(text)
        assert set(allocations) == {n * n}
        assert (graph_module._parse_canonical(text) is not None) == fast

    def test_matrix_path_taken_by_dense_texts(self, fallbacks, allocations):
        k70 = gu.complete(70)
        assert parse_graph(edge_list_text(70, k70.edges())) == k70
        assert parse_graph(threshold2000_text()).num_edges() == 1000 * 1000
        assert allocations == [70 * 70, 2000 * 2000]
        assert fallbacks == []

    def test_no_matrix_for_sparse_texts(self, fallbacks, allocations):
        n = MAX_VERTICES
        star = edge_list_text(n, [(u, n - 1) for u in range(n - 1)])
        for text in (star, f"{n}\n"):
            del allocations[:]
            assert parse_graph(text).n == n
            assert max(allocations, default=0) <= n
        assert fallbacks == []

    def test_mutated_texts_reach_both_layouts(self, monkeypatch):
        built = set()
        for name in ("_matrix_graph", "_list_graph"):
            layout = getattr(graph_module, name)

            def spy(*args, name=name, layout=layout):
                built.add(name)
                return layout(*args)

            monkeypatch.setattr(graph_module, name, spy)

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(mutated_canonical_texts())
        def check(text):
            self.assert_same(text)

        check()
        assert built == {"_matrix_graph", "_list_graph"}

    def test_bench_shaped_texts_take_fast_path(self, fallbacks):
        rng = gu.seeded(12)
        graphs = [gu.edgeless(1), gu.complete(70), gu.threshold(90), gu.petersen()]
        graphs += [gu.random_graph(rng, n, p) for n in (2, 9, 40, 130, 300)
                   for p in (0.05, 0.5)]
        graphs += [gu.random_cograph(rng, n) for n in (20, 150)]
        for g in graphs:
            text = edge_list_text(g.n, g.edges())
            assert parse_graph(text) == g == gu.parse_edge_list_lines(text)
            flipped = edge_list_text(g.n, [(v, u) for u, v in reversed(g.edges())])
            assert parse_graph(flipped) == g
        assert fallbacks == []

    def test_readme_examples_take_fast_path(self, fallbacks):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        quoted = re.findall(r"printf '([^']*)'", readme)
        quoted += re.findall(r'parse_graph\("([^"]*)"\)', readme)
        assert len(quoted) >= 4
        for text in quoted:
            text = text.replace("\\n", "\n")
            assert parse_graph(text) == gu.parse_edge_list_lines(text)
        assert fallbacks == []

    def test_declared_max_vertices_stays_small(self, fallbacks, row_reads):
        n = MAX_VERTICES
        tracemalloc.start()
        try:
            g = parse_graph(f"{n}\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g == gu.edgeless(n)
        assert peak < n * n // 100
        assert fallbacks == [] and row_reads == []

    def test_sparse_vertices_read_no_row(self, fallbacks, row_reads):
        # a star centred on the last vertex: only the centre has many
        # neighbours, and only it may pay for a row of n bytes
        n = MAX_VERTICES
        g = parse_graph(edge_list_text(n, [(u, n - 1) for u in range(n - 1)]))
        assert g.degree(n - 1) == n - 1 and g.adj[0] == 1 << n - 1
        assert fallbacks == [] and row_reads == [n - 1]

    def test_dense_peak_not_above_line_parser(self, fallbacks):
        text = threshold2000_text()
        # the line parser holds every line of the text at once, so its peak
        # is at least their size (tracing it whole takes seconds more)
        lines = text.splitlines()
        line_parser_floor = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
        del lines
        tracemalloc.start()
        try:
            g = parse_graph(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.num_edges() == 1000 * 1000
        assert peak <= line_parser_floor
        assert fallbacks == []


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
        for text, message in (
            ("A!", "byte out of printable range"),  # '!' is below '?'
            (">>graph6<<", "missing order"),
            ("~?@", "truncated 3-byte order"),
            ("~~???", "truncated 6-byte order"),
        ):
            with pytest.raises(GraphParseError, match=f"^graph6: {message}$"):
                parse_graph(text, "graph6")

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


def connected_components(g):
    return [frozenset(iter_bits(b)) for b in component_masks(g)]


def co_components(g):
    return [frozenset(iter_bits(b)) for b in co_component_masks(g)]


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


def walk_cases():
    """(graph, within) pairs: G(n <= 14, p), random cographs, arrival-order
    and alternating threshold graphs, each with the empty, a one-vertex, the
    full and random vertex masks."""
    rng = gu.seeded(29)
    graphs = [gu.threshold(n) for n in (1, 2, 7, 40)]
    for _ in range(60):
        graphs.append(gu.random_graph(rng, rng.randint(0, 14), rng.random()))
        graphs.append(gu.random_cograph(rng, rng.randint(1, 30)))
        graphs.append(gu.random_threshold(rng, rng.randint(1, 60)))
    for g in graphs:
        yield g, None
        yield g, 0
        yield g, g.full_mask
        if g.n:
            yield g, 1 << rng.randrange(g.n)
        for _ in range(4):
            yield g, rng.getrandbits(g.n) if g.n else 0


class TestDirectionOptimizingWalk:
    def test_matches_top_down_walks(self):
        for g, within in walk_cases():
            got = graph_module.component_masks(g, within)
            assert got == gu.top_down_component_masks(g, within)
            got = graph_module.co_component_masks(g, within)
            assert got == gu.top_down_co_component_masks(g, within)

    def test_p4_free_matches_top_down_split(self):
        rng = gu.seeded(31)
        graphs = [g for g, within in walk_cases() if within is None]
        graphs += [gu.shuffled_substitution(rng, (4, 7), (1, 4)) for _ in range(30)]
        found = 0
        for g in graphs:
            p4_free = recognize(g)["p4_free"]
            assert p4_free == gu.top_down_p4_free(g)
            found += not p4_free
        assert 40 <= found <= len(graphs) - 100

    @pytest.mark.parametrize("c_step", [0, 10**9])
    def test_c_and_inline_steps_match_top_down(self, monkeypatch, c_step):
        # c_step 0 takes every step in C, 10**9 none of them
        monkeypatch.setattr(graph_module, "_C_STEP", c_step)
        rng = gu.seeded(41)
        cases = list(walk_cases())
        for g in (
            gu.random_threshold(rng, 300),
            gu.random_cograph(rng, 200),
            gu.random_graph(rng, 120, 0.03),
            gu.random_graph(rng, 120, 0.97),
        ):
            cases += [(g, None), (g, rng.getrandbits(g.n)), (g, g.full_mask >> 7 << 7)]
        for g, within in cases:
            got = graph_module.component_masks(g, within)
            assert got == gu.top_down_component_masks(g, within)
            got = graph_module.co_component_masks(g, within)
            assert got == gu.top_down_co_component_masks(g, within)
        for g in {g for g, _ in cases}:
            assert recognize(g)["p4_free"] == gu.top_down_p4_free(g)

    def test_only_large_steps_run_in_c(self, monkeypatch):
        g = gu.random_threshold(gu.seeded(43), 300)
        listed = []
        real = graph_module._bit_list
        monkeypatch.setattr(
            graph_module, "_bit_list", lambda m: listed.append(m) or real(m)
        )
        assert graph_module.component_masks(g) == gu.top_down_component_masks(g)
        assert listed and all(m.bit_count() > graph_module._C_STEP for m in listed)

    @given(st.integers(0, 2**300))
    def test_bit_list_matches_iter_bits(self, mask):
        assert graph_module._bit_list(mask) == list(graph_module.iter_bits(mask))

    def test_p4_free_runs_one_walk_per_level(self):
        # below the root each block of the fold behind recognize runs only
        # the walk that can split it; over 20 seeds the ratio of rows read
        # to those of the two-walk split was 0.669-0.671
        g = gu.random_threshold(gu.seeded(59), 1200)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        assert recognize(counted)["p4_free"]
        reads = counted.adj.reads
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        assert gu.two_walk_p4_free(counted)
        assert reads * 100 <= counted.adj.reads * 68

    def test_walks_take_both_directions(self):
        # on an arrival-order threshold graph a block's second frontier is
        # most of the graph, so a walk that never scans bottom-up reads
        # every row, as the top-down walk does
        g = gu.random_threshold(gu.seeded(37), 400)
        for walk, oracle in (
            (graph_module.component_masks, gu.top_down_component_masks),
            (graph_module.co_component_masks, gu.top_down_co_component_masks),
        ):
            counted = Graph(g.n, gu.CountingAdj(g.adj))
            oracle(counted)
            top_down = counted.adj.reads
            counted = Graph(g.n, gu.CountingAdj(g.adj))
            walk(counted)
            assert counted.adj.reads * 4 <= top_down * 3


class TestDeleteClosedNeighborhood:
    def test_bull_center(self):
        sub, vmap = gu.delete_closed_neighborhood(gu.bull(), 2)
        assert vmap == (0, 4)
        assert sub == gu.edgeless(2)

    def test_complete(self):
        sub, vmap = gu.delete_closed_neighborhood(gu.complete(4), 1)
        assert sub.n == 0 and vmap == ()

    def test_edgeless(self):
        sub, vmap = gu.delete_closed_neighborhood(gu.edgeless(4), 0)
        assert sub == gu.edgeless(3) and vmap == (1, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gu.delete_closed_neighborhood(gu.bull(), 5)


class TestRecognition:
    # the claw and fork scans on whole graphs, and the flags recognize reads
    # off the decomposition fold

    def test_claw(self):
        g = gu.claw()
        assert not is_claw_free(g) and not _finds_fork(g)
        flags = recognize(g)
        assert not flags["claw_free"] and flags["fork_free"]

    def test_fork(self):
        g = gu.fork()
        assert _finds_fork(g)
        assert not is_claw_free(g)  # a fork contains a claw
        flags = recognize(g)
        assert not flags["fork_free"] and not flags["claw_free"]

    def test_bull(self):
        g = gu.bull()
        assert is_claw_free(g) and not _finds_fork(g)
        flags = recognize(g)
        assert flags["claw_free"] and flags["fork_free"]
        assert not flags["p4_free"] and flags["prime"]

    def test_p4(self):
        g = gu.path(4)
        assert is_claw_free(g) and not _finds_fork(g)
        flags = recognize(g)
        assert flags["claw_free"] and flags["fork_free"]
        assert not flags["p4_free"] and flags["prime"]

    def test_against_bruteforce_search(self):
        rng = gu.seeded(11)
        for _ in range(120):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            claw = gu.has_induced(g, gu.claw())
            fork = gu.has_induced(g, gu.fork())
            p4 = gu.has_induced(g, gu.path(4))
            assert (is_claw_free(g), _finds_fork(g)) == (not claw, fork)
            flags = recognize(g)
            got = (flags["claw_free"], flags["fork_free"], flags["p4_free"])
            assert got == (not claw, not fork, not p4)

    def test_implications(self):
        rng = gu.seeded(13)
        for _ in range(150):
            g = gu.random_graph(rng, rng.randint(0, 8), rng.random())
            flags = recognize(g)
            if flags["p4_free"] or flags["claw_free"]:
                assert flags["fork_free"]
            if flags["prime"]:
                assert flags["connected"] and flags["co_connected"]
