import math

import pytest

import genutil as gu
import wellcovered.modular as modular
from wellcovered.graph import Graph, induced_subgraph, iter_bits, mask_of
from wellcovered.modular import _md_nodes, md_fold, md_tree


class TestIsModule:
    def test_whole_vertex_set(self):
        g = gu.bull()
        assert gu.is_module(g, range(g.n))

    def test_singletons(self):
        g = gu.bull()
        for v in range(g.n):
            assert gu.is_module(g, {v})

    def test_p4_middle_pair(self):
        assert not gu.is_module(gu.path(4), {1, 2})

    def test_k23_sides(self):
        g = gu.complete_bipartite(2, 3)
        assert gu.is_module(g, {0, 1})
        assert gu.is_module(g, {2, 3, 4})
        assert not gu.is_module(g, {0, 2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gu.is_module(gu.bull(), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gu.is_module(gu.bull(), {0, 9})

    def test_against_definition(self):
        rng = gu.seeded(31)
        for _ in range(50):
            g = gu.random_graph(rng, rng.randint(1, 7), rng.random())
            mods = set(gu.brute_modules(g))
            from itertools import combinations

            for r in range(1, g.n + 1):
                for combo in combinations(range(g.n), r):
                    assert gu.is_module(g, combo) == (frozenset(combo) in mods)


class TestMaximalStrongModules:
    def test_edgeless(self):
        assert gu.maximal_strong_modules(gu.edgeless(3)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_p4_prime(self):
        assert gu.maximal_strong_modules(gu.path(4)) == [
            frozenset({v}) for v in range(4)
        ]

    def test_bull_prime(self):
        assert gu.maximal_strong_modules(gu.bull()) == [
            frozenset({v}) for v in range(5)
        ]

    def test_k23(self):
        assert gu.maximal_strong_modules(gu.complete_bipartite(2, 3)) == [
            frozenset({0, 1}),
            frozenset({2, 3, 4}),
        ]

    def test_too_small(self):
        with pytest.raises(ValueError):
            gu.maximal_strong_modules(gu.edgeless(1))

    def test_matches_bruteforce(self):
        rng = gu.seeded(33)
        for _ in range(120):
            g = gu.random_graph(rng, rng.randint(2, 7), rng.random())
            assert gu.maximal_strong_modules(g) == gu.brute_maximal_strong_modules(g)
        # prime roots whose lowest vertex often sits in a larger module
        checked = lowest_in_module = 0
        while checked < 100:
            g = gu.shuffled_substitution(rng, (4, 5), (1, 2))
            if g.n <= 9:
                blocks = gu.maximal_strong_modules(g)
                assert blocks == gu.brute_maximal_strong_modules(g)
                checked += 1
                lowest_in_module += len(blocks[0]) > 1
        assert lowest_in_module >= 20


class TestPrimeSplit:
    """The vertex-partitioning split against the closure search and the
    definition."""

    def prime_splits(self, g):
        """(split, closure, within) at every prime node of g."""
        found = []
        real = modular._strong_module_masks

        def split(h, within):
            got = real(h, within)
            found.append((got, gu.closure_strong_module_masks(h, within), within))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modular, "_strong_module_masks", split)
            _md_nodes(g)
        return found

    def test_matches_closure_on_substitutions(self):
        rng = gu.seeded(41)
        nodes = lowest_in_module = 0
        for _ in range(150):
            g = gu.shuffled_substitution(rng, (4, 9), (1, 6))
            for got, expected, _ in self.prime_splits(g):
                assert got == expected
                nodes += 1
                lowest_in_module += got[0].bit_count() > 1
        assert nodes >= 150 and lowest_in_module >= 50

    def test_matches_closure_on_random_graphs(self):
        rng = gu.seeded(43)
        for _ in range(400):
            g = gu.random_graph(rng, rng.randint(4, 14), rng.random())
            for got, expected, _ in self.prime_splits(g):
                assert got == expected

    def test_sweep_matches_oracles(self):
        # prime nodes of G(n <= 16, p), shuffled substitutions and line
        # graphs, at the root and below it; each split is checked against
        # the closure search, and against the definition on g[within]
        # when that has at most 10 vertices
        rng = gu.seeded(61)
        nodes = below_root = lowest_in_module = by_definition = 0
        for i in range(2700):
            if i % 3 == 0:
                g = gu.random_graph(rng, rng.randint(4, 16), rng.random())
            elif i % 3 == 1:
                g = gu.shuffled_substitution(rng, (4, 8), (1, 4))
            else:
                g = gu.line_graph(gu.random_graph(rng, rng.randint(4, 7), rng.random()))
            for got, expected, within in self.prime_splits(g):
                assert got == expected
                nodes += 1
                below_root += within != g.full_mask
                lowest_in_module += got[0].bit_count() > 1
                if within.bit_count() <= 10:
                    h, vmap = induced_subgraph(g, iter_bits(within))
                    brute = [mask_of(vmap[u] for u in b)
                             for b in gu.brute_maximal_strong_modules(h)]
                    assert got == brute
                    by_definition += 1
        assert nodes >= 2000 and by_definition >= 700
        assert below_root >= 300 and lowest_in_module >= 500

    @pytest.mark.parametrize("family, n", [
        ("path", 500), ("path", 2000), ("cycle", 500), ("cycle", 2000),
        ("line", 40),
    ])
    def test_adjacency_reads_near_linear(self, family, n):
        # each vertex reads its row once per split that puts it on the
        # smaller side, at most log2(n) times, and forcing the module of
        # the lowest vertex stops at the first part found outside it
        if family == "line":
            g = gu.line_graph(gu.random_graph(gu.seeded(11), 12, 0.6))
        else:
            g = getattr(gu, family)(n)
        assert g.n == n and gu.is_prime(g)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        blocks = modular._strong_module_masks(counted, counted.full_mask)
        assert blocks == [1 << v for v in range(g.n)]
        m = sum(map(int.bit_count, g.adj)) // 2
        assert counted.adj.reads <= 2 * (n + m) * math.ceil(math.log2(n))


class TestQuotient:
    def test_k23(self):
        q, reps = gu.quotient(gu.complete_bipartite(2, 3), [{0, 1}, {2, 3, 4}])
        assert q == gu.complete(2)
        assert reps == (0, 2)

    def test_all_singletons(self):
        g = gu.bull()
        q, reps = gu.quotient(g, [{v} for v in range(g.n)])
        assert q == g and reps == (0, 1, 2, 3, 4)

    def test_two_disjoint_edges(self):
        g = gu.disjoint_union(gu.complete(2), gu.complete(2))
        q, reps = gu.quotient(g, [{0, 1}, {2, 3}])
        assert q == gu.edgeless(2) and reps == (0, 2)

    def test_non_module_block(self):
        with pytest.raises(ValueError, match="not a module"):
            gu.quotient(gu.path(4), [{0, 1}, {2, 3}])

    def test_bad_partitions(self):
        g = gu.complete(3)
        with pytest.raises(ValueError):
            gu.quotient(g, [{0, 1}])
        with pytest.raises(ValueError):
            gu.quotient(g, [{0, 1}, {1, 2}])
        with pytest.raises(ValueError):
            gu.quotient(g, [{0, 1}, {2}, set()])


class TestIsPrime:
    def test_examples(self):
        assert gu.is_prime(gu.path(4))
        assert not gu.is_prime(gu.cycle(4))  # complement disconnected
        assert not gu.is_prime(Graph.from_edges(1, []))
        assert not gu.is_prime(gu.complete(2))
        assert gu.is_prime(gu.bull())
        assert gu.is_prime(gu.cycle(5))

    def test_matches_definition(self):
        def reachable(g, adjacent):
            seen = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for v in range(g.n):
                    if v not in seen and adjacent(u, v):
                        seen.add(v)
                        frontier.append(v)
            return len(seen) == g.n

        rng = gu.seeded(35)
        for _ in range(80):
            g = gu.random_graph(rng, rng.randint(1, 7), rng.random())
            if g.n < 2:
                expected = False
            else:
                expected = (
                    reachable(g, g.has_edge)
                    and reachable(g, lambda u, v: u != v and not g.has_edge(u, v))
                    and all(
                        len(m) in (1, g.n) for m in gu.brute_modules(g)
                    )
                )
            assert gu.is_prime(g) == expected


class TestMDTree:
    def test_single_vertex(self):
        t = md_tree(Graph.from_edges(1, []))
        assert t.is_leaf and t.vertex == 0 and t.vertex_set == frozenset({0})

    def test_triangle(self):
        t = md_tree(gu.complete(3))
        assert t.kind == "series"
        assert len(t.children) == 3
        assert all(c.is_leaf for c in t.children)
        assert t.quotient == gu.complete(3)

    def test_bull(self):
        t = md_tree(gu.bull())
        assert t.kind == "prime"
        assert len(t.children) == 5
        assert t.quotient == gu.bull()
        assert t.reps == (0, 1, 2, 3, 4)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            md_tree(Graph.from_edges(0, []))

    def test_deep_threshold(self):
        # deeper than the recursion limit: 2n - 1 nodes on a path of n - 1
        # internal nodes, each with its leaf as the first child
        n = 1500
        nodes = list(md_tree(gu.threshold(n)).iter_nodes())
        expected = []
        for v in range(n - 1):
            expected.append(("series" if v % 2 else "parallel", v, n - 1, n - v))
            expected.append(("leaf", v, v, 1))
        expected.append(("leaf", n - 1, n - 1, 1))
        # min, max and size pin each vertex set to a range
        got = [
            (t.kind, min(t.vertex_set), max(t.vertex_set), len(t.vertex_set))
            for t in nodes
        ]
        assert got == expected

    def test_deep_threshold_eq_hash_repr(self):
        n = 1500
        g = gu.threshold(n)
        a, b = md_tree(g), md_tree(g)
        assert a == b and hash(a) == hash(b)
        # toggling the last edge changes the tree only near its bottom
        adj = list(g.adj)
        adj[n - 2] ^= 1 << (n - 1)
        adj[n - 1] ^= 1 << (n - 2)
        c = md_tree(Graph(n, tuple(adj)))
        assert hash(c) == hash(a) and c != a and a != c
        assert repr(a) == "MDNode(kind='parallel', vertices=1500, children=2)"

    def test_invariants_random(self):
        rng = gu.seeded(37)
        for _ in range(120):
            g = gu.random_graph(rng, rng.randint(1, 8), rng.random())
            t = md_tree(g)
            check_md_tree_invariants(g, t)


    def test_node_sets_are_leaf_unions(self):
        # every internal node's set is the leaves below it and its mask
        rng = gu.seeded(41)
        graphs = [gu.threshold(1500)]
        graphs += [gu.shuffled_substitution(rng, (4, 9), (1, 6)) for _ in range(40)]
        primes = 0
        for g in graphs:
            t = md_tree(g)
            below = {}
            work = [(t, ())]
            while work:
                node, path = work.pop()
                if node.is_leaf:
                    for up in path:
                        below[id(up)].add(node.vertex)
                else:
                    below[id(node)] = set()
                    work.extend((c, path + (node,)) for c in node.children)
            internal = [x for x in t.iter_nodes() if not x.is_leaf]
            assert all(x.vertex_set == below[id(x)] for x in internal)
            # distinct internal nodes have distinct sets
            masks = [mask for _, mask, blocks in _md_nodes(g) if blocks]
            assert len(masks) == len(internal)
            assert {frozenset(iter_bits(m)) for m in masks} == {
                x.vertex_set for x in internal
            }
            primes += any(x.kind == "prime" for x in internal)
        assert primes >= 30

    def test_split_matches_two_walk_oracle(self):
        # a child of a parallel node skips the component walk and a child
        # of a series node the co-component walk; the tree is unchanged
        rng = gu.seeded(47)
        graphs = [gu.threshold(n) for n in (1, 2, 5, 60)]
        for _ in range(40):
            graphs.append(gu.random_cograph(rng, rng.randint(1, 60)))
            graphs.append(gu.random_threshold(rng, rng.randint(1, 80)))
            graphs.append(gu.shuffled_substitution(rng, (4, 7), (1, 6)))
            graphs.append(gu.random_graph(rng, rng.randint(1, 14), rng.random()))
        kinds = set()
        for g in graphs:
            order = []
            md_fold(_md_nodes(g), lambda v: None, lambda *node: order.append(node[:3]))
            assert order == gu.two_walk_post_order(g)
            kinds.update(kind for kind, _, _ in order)
        assert kinds == {"parallel", "series", "prime"}

    def test_one_walk_per_level(self, monkeypatch):
        # on an arrival-order threshold graph every level below the root
        # runs the one walk that splits it; the two-walk split also runs
        # the other one, which returns a single block. Over 20 seeds the
        # ratio of rows read was 0.671-0.673
        g = gu.random_threshold(gu.seeded(53), 1200)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        t = md_tree(counted)
        reads = counted.adj.reads
        monkeypatch.setattr(modular, "_partition_masks", gu.two_walk_partition)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        assert md_tree(counted) == t
        assert reads * 100 <= counted.adj.reads * 68

    def test_adjacency_reads_halved(self, monkeypatch):
        # on an arrival-order threshold graph each level's walk reads
        # min(frontier, rest) rows a step, about half of what ORing every
        # frontier row reads
        g = gu.random_threshold(gu.seeded(43), 1200)
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        t = md_tree(counted)
        reads = counted.adj.reads
        monkeypatch.setattr(modular, "component_masks", gu.top_down_component_masks)
        monkeypatch.setattr(
            modular, "co_component_masks", gu.top_down_co_component_masks
        )
        counted = Graph(g.n, gu.CountingAdj(g.adj))
        assert md_tree(counted) == t
        assert reads * 2 <= counted.adj.reads


def check_md_tree_invariants(g, t):
    nodes = list(t.iter_nodes())
    leaves = [x for x in nodes if x.is_leaf]
    internal = [x for x in nodes if not x.is_leaf]

    # leaves biject with vertices
    assert sorted(x.vertex for x in leaves) == list(range(g.n))

    # every internal node has >= 2 children, hence the leaf bound holds
    assert all(len(x.children) >= 2 for x in internal)
    assert len(leaves) >= len(internal) + 1

    # edge count of the tree is bounded by twice the leaves minus two
    num_edges = len(nodes) - 1
    if g.n >= 2:
        assert num_edges <= 2 * len(leaves) - 2

    # quotient sizes sum to the number of tree edges
    assert sum(len(x.children) for x in internal) == num_edges
    assert num_edges <= max(2 * g.n - 2, 0)

    for x in nodes:
        if x.is_leaf:
            assert x.vertex_set == frozenset({x.vertex})
            assert x.children == ()
            continue
        # children partition the node's vertex set
        seen = set()
        for c in x.children:
            assert c.vertex_set and not (c.vertex_set & seen)
            seen |= c.vertex_set
        assert seen == x.vertex_set

        # node kinds constrain the quotient and the children
        kinds = [c.kind for c in x.children]
        if x.kind == "parallel":
            assert x.quotient.num_edges() == 0
            assert "parallel" not in kinds
        elif x.kind == "series":
            k = x.quotient.n
            assert x.quotient.num_edges() == k * (k - 1) // 2
            assert "series" not in kinds
        else:
            assert gu.is_prime(x.quotient)

        # children are exactly the maximal strong modules of the subgraph
        from wellcovered.graph import induced_subgraph

        sub, vmap = induced_subgraph(g, x.vertex_set)
        local = [
            frozenset(vmap.index(v) for v in c.vertex_set) for c in x.children
        ]
        assert sorted(local, key=min) == gu.maximal_strong_modules(sub)

        # representatives are the lowest vertex of each child block
        assert x.reps == tuple(min(c.vertex_set) for c in x.children)
