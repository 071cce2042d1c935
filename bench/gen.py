"""Seeded input generators for the benchmark.

Everything here is written from scratch so that the benchmark does not share
code with the package or its tests. A graph is a ``Graph`` of bitmask
adjacency rows; generators that know a structural fact about their output
(a cotree, a substitution skeleton, a leaf count) return it alongside, so the
checks can derive the expected answer without running the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Graph:
    n: int
    adj: list[int]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, adj)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]

    def edge_list_text(self) -> str:
        lines = [str(self.n)] + [f"{u} {v}" for u, v in self.edges()]
        return "\n".join(lines) + "\n"

    def relabel(self, perm: list[int]) -> "Graph":
        """Vertex v becomes perm[v]."""
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


@dataclass
class Cotree:
    """A cotree over vertices 0..n-1: node i is ``kind[i]`` ('L', 'P' or
    'S') with ``children[i]``; a leaf's single entry in ``children`` is its
    vertex. Nodes are listed children before parents; the root is last."""

    kind: list[str] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)

    def add(self, kind: str, children: list[int]) -> int:
        self.kind.append(kind)
        self.children.append(children)
        return len(self.kind) - 1

    @property
    def root(self) -> int:
        return len(self.kind) - 1


@dataclass
class Instance:
    """A generated graph plus what the generator knows about it."""

    family: str
    graph: Graph
    cotree: Cotree | None = None
    leaves: int | None = None
    skeleton: Graph | None = None
    blocks: list[list[int]] | None = None
    prime: bool | None = None


def cotree_graph(tree: Cotree, n: int) -> Graph:
    """The cograph of a cotree: series nodes join their children."""
    verts: list[int] = []  # vertex mask per node
    adj = [0] * n
    for kind, ch in zip(tree.kind, tree.children):
        if kind == "L":
            verts.append(1 << ch[0])
            continue
        masks = [verts[c] for c in ch]
        total = 0
        for m in masks:
            total |= m
        if kind == "S":
            for m in masks:
                other = total & ~m
                rest = m
                while rest:
                    low = rest & -rest
                    adj[low.bit_length() - 1] |= other
                    rest ^= low
        verts.append(total)
    return Graph(n, adj)


def random_cotree(rng: random.Random, n: int) -> Instance:
    """Random cotree whose internal nodes split into three parts.

    Kinds alternate by depth from a series root, and part sizes stay within
    a quarter of each other, so the edge density, and with it the cost of a
    P4 search, varies little between seeds at a fixed ``n``.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    tree = Cotree()
    # iterative post-order build: (vertices, kind, child results or None)
    out: list[int] = []
    work: list[tuple[list[int], str, int | None]] = [(labels, "S", None)]
    while work:
        verts, kind, k = work.pop()
        if k is not None:
            kids = out[-k:]
            del out[-k:]
            out.append(tree.add(kind, kids))
            continue
        if len(verts) == 1:
            out.append(tree.add("L", [verts[0]]))
            continue
        k = min(3, len(verts))
        weights = [rng.uniform(1.0, 1.25) for _ in range(k)]
        scale = len(verts) / sum(weights)
        sizes = [max(1, int(w * scale)) for w in weights]
        sizes[-1] = len(verts) - sum(sizes[:-1])
        while sizes[-1] < 1:
            big = max(range(k - 1), key=lambda i: sizes[i])
            sizes[big] -= 1
            sizes[-1] += 1
        parts = []
        pos = 0
        for s in sizes:
            parts.append(verts[pos:pos + s])
            pos += s
        child_kind = "P" if kind == "S" else "S"
        work.append((verts, kind, k))
        for part in reversed(parts):
            work.append((part, child_kind, None))
    return Instance("cotree", cotree_graph(tree, n), cotree=tree)


def threshold(rng: random.Random, n: int) -> Instance:
    """Threshold graph: each new vertex is isolated or dominating, half of
    them each way in random order.

    Vertices are numbered in the order they are added. Its cotree is a
    caterpillar as deep as the graph is large.
    """
    kinds = ["S"] * ((n - 1) // 2) + ["P"] * (n - 1 - (n - 1) // 2)
    rng.shuffle(kinds)
    tree = Cotree()
    node = tree.add("L", [0])
    for v, kind in zip(range(1, n), kinds):
        leaf = tree.add("L", [v])
        node = tree.add(kind, [node, leaf])
    return Instance("threshold", cotree_graph(tree, n), cotree=tree)


def gnp(rng: random.Random, n: int, p: float, count_mis=None, window=None) -> Instance:
    """G(n, p); given ``count_mis`` and a (low, high) ``window``, redrawn
    until the number of maximal independent sets falls in the window, which
    fixes the size of the brute-force system to within that window."""
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if count_mis is None or window[0] <= count_mis(g) <= window[1]:
            return Instance("gnp", g)


def random_tree(rng: random.Random, n: int) -> Instance:
    """Uniform random labelled tree from a Pruefer sequence (n >= 2)."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u, w))
    g = Graph.from_edges(n, edges)
    leaves = sum(1 for v in range(n) if g.adj[v].bit_count() == 1)
    return Instance("tree", g, leaves=leaves)


def cycle(k: int) -> Instance:
    return Instance("cycle", Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]))


def petersen() -> Instance:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Instance("petersen", Graph.from_edges(10, outer + spokes + inner))


def bull() -> Instance:
    return Instance("bull", Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]))


def line_graph(h: Graph) -> Graph:
    """Vertices are the edges of ``h``, adjacent when they share an end."""
    es = h.edges()
    return Graph.from_edges(len(es), [
        (i, j) for i in range(len(es)) for j in range(i + 1, len(es))
        if set(es[i]) & set(es[j])
    ])


def random_line_graph(rng: random.Random, m: int, is_prime=None, regular: bool = False) -> Instance:
    """Line graph on ``m`` vertices: the line graph of a random connected
    root graph with ``m`` edges.

    The root is a cycle plus random chords, or with ``regular`` a random
    4-regular graph (``m`` even), whose line graphs vary less in structure.
    Given ``is_prime``, roots are redrawn until it accepts the line graph.
    """
    while True:
        h = _regular_root(rng, m) if regular else _cycle_root(rng, m)
        if h is None:
            continue
        order = list(range(m))
        rng.shuffle(order)
        g = line_graph(h).relabel(order)
        if is_prime is None:
            return Instance("line", g)
        if is_prime(g):
            return Instance("line", g, prime=True)


def _cycle_root(rng: random.Random, m: int) -> Graph | None:
    """A Hamiltonian cycle plus random chords, ``m`` edges in all."""
    v = max(4, m // 2)
    while v * (v - 1) // 2 < m:
        v += 1
    perm = list(range(v))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[(i + 1) % v]))) for i in range(v)}
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    rng.shuffle(pairs)
    for e in pairs:
        if len(edges) >= m:
            break
        edges.add(e)
    return Graph.from_edges(v, sorted(edges)) if len(edges) == m else None


def _regular_root(rng: random.Random, m: int) -> Graph | None:
    """A random 4-regular graph with ``m`` edges (configuration model), or
    None when the pairing has a loop, a double edge or two components."""
    stubs = [x for x in range(m // 2) for _ in range(4)]
    rng.shuffle(stubs)
    edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
    if len(edges) != m or any(a == b for a, b in edges):
        return None
    h = Graph.from_edges(m // 2, sorted(edges))
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(h.n):
            if frontier >> v & 1:
                nxt |= h.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return h if seen == (1 << h.n) - 1 else None


def rook(m: int) -> Instance:
    """Line graph of K_{m,m}: m*m cells, adjacent in a shared row or column."""
    cells = [(r, c) for r in range(m) for c in range(m)]
    edges = [
        (i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))
        if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
    ]
    return Instance("rook", Graph.from_edges(len(cells), edges))


# Prime claw-free skeletons for substitution. P5 is the line graph of P6 and
# C5 of C5; the bull and the line graph of the triangular prism round it out.
def _path(k):
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def skeletons() -> list[Graph]:
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
    return [_path(5), cycle(5).graph, bull().graph, line_graph(prism)]


def clique_substitution(rng: random.Random, skeleton: Graph, n: int) -> Instance:
    """Replace each skeleton vertex by a clique, ``n`` vertices in all.

    Substituting cliques into a claw-free graph keeps it claw-free, so the
    result is fork-free; it is not P4-free because the skeleton is prime.
    """
    q = skeleton.n
    sizes = [1] * q
    for _ in range(n - q):
        sizes[rng.randrange(q)] += 1
    labels = list(range(n))
    rng.shuffle(labels)
    blocks = []
    pos = 0
    for s in sizes:
        blocks.append(sorted(labels[pos:pos + s]))
        pos += s
    edges = []
    for b in blocks:
        edges += [(b[i], b[j]) for i in range(len(b)) for j in range(i + 1, len(b))]
    for a, b in skeleton.edges():
        edges += [(u, v) for u in blocks[a] for v in blocks[b]]
    return Instance("substitution", Graph.from_edges(n, edges),
                    skeleton=skeleton, blocks=blocks)
