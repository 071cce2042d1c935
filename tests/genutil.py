"""Shared test helpers: named graphs, random generators, independent oracles.

Oracles here deliberately avoid the library's own code paths. Maximal
independent sets come from filtering all vertex subsets, module structure
from testing all subsets against the definition, ranks from integer
fraction-free (Bareiss) elimination, and pattern containment from explicit
injective embeddings. The Fraction elimination loops the library used before
its integer kernel, and the dense integer kernel it used before its sparse
one, are kept here, unchanged, as differential oracles for it, and so are
its recursive maximal independent set enumeration and its stack
enumeration before it dropped the frames that hold no set
(``frame_per_branch_mis_masks``), its closure search for
the maximal strong modules of a prime node, and the quotient and
system-combining helpers that no solver path used: ``quotient``,
``combine_disjoint_union`` and ``combine_join``. Whether an independent set
meets a family of sets is decided by trying every independent subset of
their union, and the claw-free base's rows are rebuilt in the order of
tests it first used, span test before search, over an enumeration of
its own of every edge, induced P3 and induced C4. A copy of the edge-list
line parser as it stood before the canonical fast path is the reference
that every edge-list parse is compared with. Three earlier choices of the
front end are kept as oracles too: the three-way ``auto`` dispatch of
``well_covering_system``, which tested for induced P4s before forks, the
key that picked the ``is-well-covered`` witness pair, and that witness
read off the sorted enumeration, before it was read off the bitmasks.
The per-call strategy dispatch that ``systems`` had before one route
picked every fold is kept verbatim as ``dispatch_oracle``, with
``answers`` to compare its calls with the library's; it reduces a
built brute-force chain with ``_reduced``, as the library did before it
streamed each reduced chain into its row store. The fold and the
anti-neighborhood reduction as they were before the fold kept its rows in
one row store, reducing a subtree's rows again at each node that tests
rows, are kept verbatim, with ``former_fold_patched`` to run the library
on them.
The component and co-component walks as they were before each step
chose a direction (every step ORs the rows of its whole frontier) are
kept as oracles for the direction-optimizing walk, with the cotree split
they drove. The whole-graph fork test the library ran before it read
recognition off the decomposition tree is kept as ``is_fork_free``.
The dense row layer the library had before it stored rows by their terms
(``dense_diff_row``, ``dense_spread``, ``dense_format_equation`` with
its ``system_to_text`` and ``system_to_json``, and ``dense_evaluate``) is
kept verbatim as the oracle of the sparse one; ``dense_rows_patched``
runs the library on it. Ten helpers that the library once exported but
no solver path ran live here unchanged: ``enumerate_mis`` with its
``MISList``, ``is_well_covered_bruteforce``, ``is_module``, ``is_prime``,
``maximal_strong_modules``, the checked ``lift_quotient_system`` and
``lift_subgraph_system``, ``delete_closed_neighborhood``, whose copy of
G - N[v] the anti-neighborhood reduction no longer makes, and the
copy-and-lift ``anti_neighborhood_system``, which solves each such copy
with any solver and lifts its rows back; with them,
``enumerated_bruteforce_system`` is the brute-force chain as it was read
off the sorted enumeration, before it sorted the bitmasks, and
``modular_system_with`` is the modular fold with any prime solver, as
``modular_system`` once took one.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, islice, permutations
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Sequence

from wellcovered.graph import (
    Graph,
    GraphParseError,
    _check_order,
    _finds_fork,
    co_component_masks,
    component_masks,
    induced_subgraph,
    iter_bits,
    mask_of,
)
from wellcovered.independent_sets import (
    DEFAULT_MIS_CAP,
    CapExceededError,
    _greedy,
    _mis_masks,
)
from wellcovered.linalg import (
    Basis,
    LinearSystem,
    Row,
    WeightVector,
    _check_entries,
    _diff_row,
    _insert,
    _trusted_system,
    empty_system,
    evaluate,
    extract_independent_subsystem,
    null_space_basis,
    rank,
)
from wellcovered.modular import (
    PARALLEL,
    PRIME,
    SERIES,
    _md_nodes,
    _partition_masks,
    _strong_module_masks,
    _tree_flags,
    md_fold,
)
from wellcovered.systems import (
    SolverConfig,
    StrategyError,
    _anti_neighborhoods,
    _enumerated_witness,
    _fold_system,
    _moon_moser,
    _query_prime_solver,
    _substitute,
    bruteforce_system,
    cograph_system,
)


# ---------------------------------------------------------------------------
# reference parser


def parse_edge_list_lines(text: str) -> Graph:
    """Parse the edge-list format: first line "n", then lines "u v".

    The explicit vertex count makes isolated vertices representable; it may
    be at most ``MAX_VERTICES``. Blank lines are ignored. Errors name the
    offending 1-based line number.
    """
    n = None
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: expected vertex count, got {line!r}"
                ) from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be >= 0")
            _check_order(n, f"line {lineno}: ")
            masks = [0] * n
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {lineno}: expected an edge 'u v', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer vertex in {line!r}"
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"line {lineno}: vertex index out of range (n={n}) in {line!r}"
            )
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if n is None:
        raise GraphParseError("line 1: missing vertex count")
    return Graph(n, tuple(masks))


# ---------------------------------------------------------------------------
# named graphs


def edgeless(n):
    return Graph.from_edges(n, [])


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def bull():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])


def claw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def fork():
    # a pendant path of length 2 plus two extra leaves at its far end
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def disjoint_union(*graphs):
    n = sum(g.n for g in graphs)
    edges = []
    off = 0
    for g in graphs:
        edges.extend((u + off, v + off) for u, v in g.edges())
        off += g.n
    return Graph.from_edges(n, edges)


def join(*graphs):
    g = disjoint_union(*graphs)
    edges = set(g.edges())
    off = 0
    blocks = []
    for h in graphs:
        blocks.append(range(off, off + h.n))
        off += h.n
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            edges.update((u, v) for u in blocks[i] for v in blocks[j])
    return Graph.from_edges(g.n, sorted(edges))


def substitute(seed, modules):
    """Replace each seed vertex by a module graph; seed edges become
    complete bipartite connections between the corresponding blocks."""
    assert len(modules) == seed.n
    offsets = []
    n = 0
    for m in modules:
        offsets.append(n)
        n += m.n
    edges = []
    for j, m in enumerate(modules):
        edges.extend((u + offsets[j], v + offsets[j]) for u, v in m.edges())
    for u, v in seed.edges():
        for a in range(modules[u].n):
            for b in range(modules[v].n):
                edges.append((offsets[u] + a, offsets[v] + b))
    return Graph.from_edges(n, edges)


def rook(m, k=None):
    """K_m x K_k, by default K_m x K_m: cells of an m x k board, numbered
    row by row and adjacent in a shared row or column."""
    k = m if k is None else k
    return Graph.from_edges(
        m * k,
        [(a, b) for a in range(m * k) for b in range(a + 1, m * k)
         if a // k == b // k or a % k == b % k],
    )


def relabel(g, order):
    """``g`` with each vertex v renamed ``order[v]``."""
    return Graph.from_edges(g.n, [(order[u], order[v]) for u, v in g.edges()])


def fork_substitution(k):
    """The fork with each vertex replaced by k disjoint copies of K2: n = 10k,
    well-covered dimension 5k - 2. It has forks, but its prime quotient is
    the fork's own quotient P4, with the two leaves' modules merged."""
    return substitute(fork(), [disjoint_union(*[complete(2)] * k)] * 5)


def prime_chain(k):
    """G_0 empty and G_(i+1) = (G_i + P4) joined to one new vertex, for
    k levels: n = 5k, and the decomposition tree is a chain of k series
    nodes, each over a parallel node that holds the next level and a prime
    P4. Level i has vertices 5i..5i+4, its P4 5i-5i+1-5i+2-5i+3 and 5i+4
    adjacent to every vertex before it. Dimension 2k, with 3k rows."""
    edges = []
    for i in range(k):
        b = 5 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3)]
        edges += [(u, b + 4) for u in range(b + 4)]
    return Graph.from_edges(5 * k, edges)


# ---------------------------------------------------------------------------
# random generators (all driven by an explicit random.Random for determinism)


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def seeded_gnp(seed, n=34, p=0.3):
    """G(n, p) drawn as the command-line checks draw it: one
    ``random.Random(seed)`` draw per vertex pair, in order."""
    r = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if r.random() < p]
    )


def random_tree(rng, n):
    """Uniform random labeled tree via a Pruefer sequence."""
    if n <= 1:
        return edgeless(n)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_cograph(rng, n):
    """Random cotree with 2..4 children per internal node."""
    adj = [0] * n
    stack = [(list(range(n)), rng.random() < 0.5)]
    while stack:
        verts, is_join = stack.pop()
        if len(verts) == 1:
            continue
        k = rng.randint(2, min(len(verts), 4))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, len(verts)), k - 1))
        parts = []
        prev = 0
        for c in cuts + [len(verts)]:
            parts.append(verts[prev:c])
            prev = c
        if is_join:
            masks = [sum(1 << v for v in part) for part in parts]
            total = sum(masks)
            for part, m in zip(parts, masks):
                other = total & ~m
                for v in part:
                    adj[v] |= other
        for part in parts:
            stack.append((part, not is_join))
    return Graph(n, tuple(adj))


def random_threshold(rng, n):
    """Threshold graph with vertices numbered in the order they arrive:
    each vertex after the first is isolated or dominating, at random."""
    adj = [0] * n
    for v in range(1, n):
        if rng.random() < 0.5:
            adj[v] = (1 << v) - 1
            for u in range(v):
                adj[u] |= 1 << v
    return Graph(n, tuple(adj))


def shuffled(rng, g):
    """``g`` relabelled by a random permutation, and that permutation."""
    order = list(range(g.n))
    rng.shuffle(order)
    return relabel(g, order), order


def shuffled_substitution(rng, skeleton_n, module_n, module=None):
    """A random prime skeleton with a graph substituted for each vertex,
    with sizes drawn from the (low, high) ranges, under a random vertex
    order, so that the lowest vertex of a prime node often sits in a larger
    module. ``module(rng, k)`` makes each module graph, by default G(k, p)
    with p uniform."""
    module = module or (lambda rng, k: random_graph(rng, k, rng.random()))
    while True:
        skel = random_graph(rng, rng.randint(*skeleton_n), rng.uniform(0.3, 0.7))
        if is_prime(skel):
            break
    modules = [module(rng, rng.randint(*module_n)) for _ in range(skel.n)]
    return shuffled(rng, substitute(skel, modules))[0]


def prime_line_graph(rng, k, p, n_range):
    """The line graph of G(k, p), drawn again until it is prime and its
    order lies in the (low, high) range. Line graphs have no claw."""
    while True:
        g = line_graph(random_graph(rng, k, p))
        if n_range[0] <= g.n <= n_range[1] and is_prime(g):
            return g


def line_graph_clique_substitution(rng):
    """Cliques of 5..25 vertices substituted into a prime line graph on
    8..14 vertices, under a random vertex order: claw-free, so fork-free."""
    skel = prime_line_graph(rng, 7, 0.6, (8, 14))
    g = substitute(skel, [complete(rng.randint(5, 25)) for _ in range(skel.n)])
    return shuffled(rng, g)[0]


def random_greedy_mis(rng, g):
    """The maximal independent set that a greedy scan in a random vertex
    order picks, as a sorted list."""
    order = list(range(g.n))
    rng.shuffle(order)
    chosen = 0
    for v in order:
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    return list(iter_bits(chosen))


def line_graph(h):
    """Vertices are the edges of h; adjacent when they share an endpoint.
    Line graphs contain no induced claw."""
    es = h.edges()
    adj_edges = []
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if set(es[i]) & set(es[j]):
                adj_edges.append((i, j))
    return Graph.from_edges(len(es), adj_edges)


def prism(k):
    """The k-prism C_k x K_2: cycles 0..k-1 and k..2k-1, joined by the
    rungs (i, k + i). Its line graph, on 3k vertices, is prime and
    claw-free, and of dimension 0 for the k used in the tests."""
    cycles = [(i, (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, cycles + [(k + a, k + b) for a, b in cycles] + rungs)


def random_clawfree(rng, max_n):
    from wellcovered.graph import is_claw_free

    while True:
        style = rng.randrange(3)
        if style == 0:
            h = random_graph(rng, rng.randint(4, 6), rng.uniform(0.3, 0.6))
            g = line_graph(h)
            if 1 <= g.n <= max_n:
                return g
        elif style == 1:
            g = random_graph(rng, rng.randint(1, max_n), rng.uniform(0.55, 0.95))
            if is_claw_free(g):
                return g
        else:
            g = rng.choice(
                [path(rng.randint(1, max_n)), cycle(rng.randint(3, max_n)),
                 complete(rng.randint(1, min(6, max_n)))]
            )
            if g.n <= max_n:
                return g


_CLAWFREE_PRIME_SEEDS = None


def clawfree_prime_seeds():
    """Small prime claw-free graphs used as substitution skeletons."""
    global _CLAWFREE_PRIME_SEEDS
    if _CLAWFREE_PRIME_SEEDS is None:
        from wellcovered.graph import complement, is_claw_free

        candidates = [
            path(4), path(5), path(6), path(7),
            cycle(5), cycle(6), cycle(7),
            bull(), complement(path(5)), complement(path(6)),
        ]
        _CLAWFREE_PRIME_SEEDS = [
            g for g in candidates if is_prime(g) and is_claw_free(g)
        ]
        assert len(_CLAWFREE_PRIME_SEEDS) >= 6
    return _CLAWFREE_PRIME_SEEDS


def random_forkfree(rng, max_n):
    """Random graph with no induced fork.

    Mixes three sources: cographs, claw-free graphs, and substitutions of
    modules into small prime claw-free skeletons. Substituting cliques never
    creates a fork; substituting general cographs can (a two-vertex
    independent module at the end of an induced 4-vertex path completes a
    fork), so those candidates are filtered.
    """
    while True:
        style = rng.randrange(4)
        if style == 0:
            g = random_cograph(rng, rng.randint(1, max_n))
        elif style == 1:
            g = random_clawfree(rng, max_n)
        else:
            seed = rng.choice(clawfree_prime_seeds())
            if seed.n > max_n:
                continue
            budget = max_n - seed.n
            modules = []
            for _ in range(seed.n):
                extra = rng.randint(0, min(2, budget))
                budget -= extra
                size = 1 + extra
                if style == 2 or size == 1:
                    modules.append(complete(size))
                else:
                    modules.append(random_cograph(rng, size))
            g = substitute(seed, modules)
        if g.n <= max_n and is_fork_free(g):
            return g


def diamond_free_complement(n, seed):
    """The complement of a greedy random diamond-free graph H on n
    vertices, built from 6n seeded edge tries; the paper's fork-free class
    beyond the claw-free graphs. A diamond is two triangles on a common
    edge, so H keeps every edge in at most one triangle: a tried edge is
    rejected if its ends have two common neighbours, or if its one common
    neighbour already closes a triangle on one of the two other edges. The
    complement of a fork holds a diamond, so the result is fork-free, and
    a triangle of H with a vertex outside it is a claw in the result."""
    rng = random.Random(seed)
    adj = [0] * n
    for _ in range(6 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or adj[u] >> v & 1:
            continue
        common = adj[u] & adj[v]
        if common & (common - 1):
            continue
        if common:
            w = common.bit_length() - 1
            if adj[w] & (adj[u] | adj[v]):
                continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(adj)))


# ---------------------------------------------------------------------------
# former public helpers that no solver path ran, kept unchanged as oracles:
# the sorted enumeration and the brute-force chain read off it, the
# well-coveredness test on it, the module and primality tests, the
# checked quotient lift, and the copy of G - N[v]


@dataclass(frozen=True)
class MISList:
    """An enumeration result: maximal independent sets plus a completeness flag.

    ``complete`` is False when the enumeration was cut off at the cap, in
    which case ``sets`` holds exactly ``cap`` of the maximal independent sets.
    """

    sets: tuple[frozenset[int], ...] = ()
    complete: bool = True


def enumerate_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> MISList:
    """Enumerate maximal independent sets, at most ``cap`` of them.

    If the graph has at most ``cap`` maximal independent sets, all of them
    are returned with complete=True; otherwise exactly ``cap`` of them with
    complete=False. Sets are listed in canonical order (lexicographic by
    sorted member list).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    found = list(islice(_mis_masks(g, cap + 1), cap + 1))
    ordered = sorted(tuple(iter_bits(m)) for m in found[:cap])
    return MISList(tuple(map(frozenset, ordered)), len(found) <= cap)


def enumerated_bruteforce_system(g: Graph, cap: int = DEFAULT_MIS_CAP) -> LinearSystem:
    """``systems.bruteforce_system`` as it stood before it sorted the
    bitmasks: the chain over the sets of ``enumerate_mis``, each turned
    back into a mask."""
    mis = enumerate_mis(g, cap)
    if not mis.complete:
        raise CapExceededError(
            f"maximal independent set cap {cap} exceeded; "
            f"brute-force system unavailable"
        )
    masks = [mask_of(m) for m in mis.sets]
    rows = tuple(map(_diff_row, masks, masks[1:]))
    tags = tuple(f"mis-diff i={i}" for i in range(1, len(masks)))
    return _trusted_system(g.n, rows, tags)


def is_well_covered_bruteforce(g: Graph, cap: int = DEFAULT_MIS_CAP) -> bool:
    """True iff all maximal independent sets have equal cardinality.

    Raises CapExceededError when the enumeration is incomplete at ``cap``,
    since well-coveredness is then undecided.
    """
    mis = enumerate_mis(g, cap)
    if not mis.complete:
        raise CapExceededError(
            f"more than {cap} maximal independent sets; "
            f"well-coveredness undecided at this cap"
        )
    return len({len(s) for s in mis.sets}) <= 1


def is_module(g: Graph, m: Iterable[int]) -> bool:
    """True iff every outside vertex is complete or anticomplete to ``m``."""
    mask = mask_of(m)
    if mask == 0:
        raise ValueError("a module must be nonempty")
    if mask & ~g.full_mask:
        raise ValueError(f"vertex set not within 0..{g.n - 1}")
    for v in iter_bits(g.full_mask & ~mask):
        seen = g.adj[v] & mask
        if seen != 0 and seen != mask:
            return False
    return True


def maximal_strong_modules(g: Graph) -> list[frozenset[int]]:
    """The unique partition of the vertex set into maximal strong modules.

    For a disconnected graph these are the components; for a graph with
    disconnected complement, the co-components; otherwise the maximal proper
    modules (pairwise disjoint in that case). Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError("maximal strong modules require at least 2 vertices")
    _, blocks = _partition_masks(g, g.full_mask)
    return [frozenset(iter_bits(b)) for b in blocks]


def is_prime(g: Graph) -> bool:
    """True iff g and its complement are connected and every module is
    trivial (a singleton or the whole vertex set). One-vertex graphs are not
    prime by convention."""
    if g.n < 2:
        return False
    kind, blocks = _partition_masks(g, g.full_mask)
    return kind == PRIME and all(b.bit_count() == 1 for b in blocks)


def lift_quotient_system(
    quotient_sys: LinearSystem,
    module_mis: Sequence[Iterable[int]],
    host_n: int,
) -> LinearSystem:
    """Substitute module independent-set sums for quotient variables.

    Each quotient equation's coefficient a_j spreads onto all host variables
    in module_mis[j]. Sound because a maximal independent set of the host
    graph meets module j either not at all or in a maximal independent set
    of the module, and the met modules form a maximal independent set of the
    quotient.
    """
    sets = [frozenset(s) for s in module_mis]
    if len(sets) != quotient_sys.num_vars:
        raise ValueError(
            f"{len(sets)} module sets for a quotient system over "
            f"{quotient_sys.num_vars} variables"
        )
    seen: set[int] = set()
    for s in sets:
        if not s:
            raise ValueError("empty module independent set")
        for v in s:
            if not 0 <= v < host_n:
                raise ValueError(f"vertex {v} out of range for host_n={host_n}")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two module sets")
            seen.add(v)
    return _substitute(quotient_sys, sets, host_n)


def delete_closed_neighborhood(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced by the vertices outside N[v], with its vertex map."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    keep = g.full_mask & ~g.adj[v] & ~(1 << v)
    return induced_subgraph(g, iter_bits(keep))


def lift_subgraph_system(
    sub: LinearSystem, vertex_map: Sequence[int], host_n: int
) -> LinearSystem:
    """Re-index a subgraph's system into host-graph variables.

    The coefficient at sub-index i moves to host index vertex_map[i]; all
    other host coefficients are zero. Tags are preserved.
    """
    vmap = tuple(vertex_map)
    if len(vmap) != sub.num_vars:
        raise ValueError(
            f"vertex map of length {len(vmap)} for a system over "
            f"{sub.num_vars} variables"
        )
    if len(set(vmap)) != len(vmap):
        raise ValueError("vertex map entries must be distinct")
    if any(not 0 <= v < host_n for v in vmap):
        raise ValueError(f"vertex map entry out of range for host_n={host_n}")
    rows = tuple(tuple(sorted((vmap[j], c) for j, c in row)) for row in sub.terms)
    return _trusted_system(host_n, rows, tuple(sub.tags))


def anti_neighborhood_system(g: Graph, sub_solver) -> LinearSystem:
    """Combine systems of all G - N[v] with chained equations.

    Every maximal independent set containing v consists of v plus a maximal
    independent set of G - N[v]; the chained equations between the sets
    I_j + {v_j} therefore tie the per-vertex subsystems together into a
    well-covering system of G. Size is the sum of the subsystem sizes plus
    n - 1. Each G - N[v] is copied for ``sub_solver``, and its system is
    lifted back with the checks of ``lift_subgraph_system``.
    """
    rows, tags, anchored = [], [], []
    for j in range(g.n):
        keep = g.full_mask & ~g.adj[j] & ~(1 << j)
        h, vmap = induced_subgraph(g, iter_bits(keep))
        sub = lift_subgraph_system(sub_solver(h), vmap, g.n)
        rows.extend(sub.terms)
        tags.extend(sub.tags)
        anchored.append(_greedy(g, iter_bits(keep)) | 1 << j)
    for j in range(g.n - 1):
        rows.append(_diff_row(anchored[j], anchored[j + 1]))
        tags.append(f"anti-eq j={j + 1}")
    return _trusted_system(g.n, tuple(rows), tuple(tags))


def _reduced(solver):
    """``solver`` with its rows reduced to an independent subset, as the
    library reduced the brute-force chain before it streamed it."""
    return lambda q: extract_independent_subsystem(solver(q))


def modular_system_with(g: Graph, prime_solver) -> LinearSystem:
    """The modular fold of ``g`` with any ``prime_solver``, whose rows are
    reduced on each prime quotient."""
    return _fold_system(g, _md_nodes(g), _reduced(prime_solver))


# ---------------------------------------------------------------------------
# independent oracles


def brute_mis(g):
    """All maximal independent sets by filtering the 2^n vertex subsets."""
    out = []
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            s = set(combo)
            if any(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                continue
            if any(
                all(not g.has_edge(v, u) for u in s)
                for v in range(g.n)
                if v not in s
            ):
                continue
            out.append(frozenset(s))
    return set(out)


def recursive_enumerate_mis(g, cap):
    """The recursive Tomita-style enumeration the library used before its
    explicit stack, unchanged; recurses once per vertex of the set it grows,
    so only for graphs with small independent sets."""
    if g.n == 0:
        return MISList((frozenset(),), True)
    full = g.full_mask
    nonadj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    found = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            found.append(r)
            return len(found) <= cap
        pivot = -1
        best = -1
        for u in iter_bits(p | x):
            size = (p & nonadj[u]).bit_count()
            if size > best:
                best = size
                pivot = u
        for v in iter_bits(p & ~nonadj[pivot]):
            if not expand(r | (1 << v), p & nonadj[v], x & nonadj[v]):
                return False
            p &= ~(1 << v)
            x |= 1 << v
        return True

    complete = expand(0, full, 0)
    if not complete:
        found = found[:cap]
    sets = sorted((frozenset(iter_bits(m)) for m in found), key=sorted)
    return MISList(tuple(sets), complete)


def frame_per_branch_mis_masks(g):
    """``independent_sets._mis_masks`` as it stood before it dropped the
    frames that hold no set: every branch with a nonempty p or x pushes a
    frame, and the pivot is found with ``iter_bits``."""
    if g.n == 0:
        yield 0
        return
    full = g.full_mask
    nonadj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]

    def frame(r, p, x):
        pivot = -1
        best = -1
        for u in iter_bits(p | x):
            size = (p & nonadj[u]).bit_count()
            if size > best:
                best = size
                pivot = u
        return [r, p, x, p & ~nonadj[pivot]]

    stack = [frame(0, full, 0)]
    while stack:
        top = stack[-1]
        r, p, x, todo = top
        if not todo:
            stack.pop()
            continue
        bit = todo & -todo
        top[1:] = p & ~bit, x | bit, todo & ~bit
        outside = nonadj[bit.bit_length() - 1]
        if p & outside or x & outside:
            stack.append(frame(r | bit, p & outside, x & outside))
        else:
            yield r | bit


def brute_meets_all(g, sets):
    """Whether some independent vertex set meets every set in ``sets`` (a
    list of bitmasks), by trying each vertex of the first set not yet met
    that is independent of those chosen: every such independent set holds
    one of them."""
    if not all(sets):
        return False
    union = 0
    for s in sets:
        union |= s
    stack = [(0, union)]  # (chosen, vertices that may still join it)
    while stack:
        chosen, free = stack.pop()
        unmet = next((s for s in sets if not s & chosen), None)
        if unmet is None:
            return True
        for v in iter_bits(unmet & free):
            stack.append((chosen | 1 << v, free & ~g.adj[v] & ~(1 << v)))
    return False


def generating_candidates(g):
    """(kind, X, Y) of every edge, induced P3 and induced C4 of ``g``, as
    sets, in the order of ``systems._generating_candidates`` but with no
    candidate left out: the edges u-v (u < v) as ({u}, {v}), the P3s
    a-c-b (a < b) as ({c}, {a, b}) by centre c, then the C4s as diagonals
    ({x1, x2}, {y1, y2}), x1 the lowest vertex, x1 < x2 and y1 < y2, in
    lexicographic order of (x1, x2, y1, y2)."""
    adjacent = g.has_edge
    for u, v in combinations(range(g.n), 2):
        if adjacent(u, v):
            yield "edge", {u}, {v}
    for c in range(g.n):
        for a, b in combinations(range(g.n), 2):
            if adjacent(c, a) and adjacent(c, b) and not adjacent(a, b):
                yield "p3", {c}, {a, b}
    for x1, x2 in combinations(range(g.n), 2):
        if adjacent(x1, x2):
            continue
        for y1, y2 in combinations(range(x1 + 1, g.n), 2):
            if (not adjacent(y1, y2)
                    and all(adjacent(x, y) for x in (x1, x2) for y in (y1, y2))):
                yield "c4", {x1, x2}, {y1, y2}


def generating_cliques(g, xs, ys):
    """The sets N(d) & R, for d in D in increasing order (see
    ``systems._generating_cliques``), as bitmasks computed vertex by
    vertex; an empty one means (X, Y) is not generating."""
    nx = {u for v in xs for u in iter_bits(g.adj[v])}
    ny = {u for v in ys for u in iter_bits(g.adj[v])}
    rest = set(range(g.n)) - nx - ny - xs - ys
    return [mask_of(rest & set(iter_bits(g.adj[d])))
            for d in sorted((nx ^ ny) - xs - ys)]


def clawfree_rows_in_search_order(g):
    """(rows, tags) of ``systems.clawfree_system`` by the order of tests it
    used first: each candidate of ``generating_candidates``, every edge,
    induced P3 and induced C4 with none left out, gets a span test, then,
    if its row is new, the brute-force test of ``generating_cliques``."""
    echelon, rows, tags = {}, [], []
    for kind, xs, ys in generating_candidates(g):
        if len(echelon) == g.n:
            break
        row = tuple((v in xs) - (v in ys) for v in range(g.n))
        col = _insert(echelon, terms(row))
        if col is None:
            continue
        if brute_meets_all(g, generating_cliques(g, xs, ys)):
            rows.append(row)
            tags.append(f"generating {kind}")
        else:
            del echelon[col]
    return rows, tags


def brute_modules(g):
    """All modules (nonempty subsets indistinguishable from outside)."""
    mods = []
    for r in range(1, g.n + 1):
        for combo in combinations(range(g.n), r):
            s = set(combo)
            ok = True
            for v in range(g.n):
                if v in s:
                    continue
                links = {u for u in s if g.has_edge(u, v)}
                if links and links != s:
                    ok = False
                    break
            if ok:
                mods.append(frozenset(s))
    return mods


def brute_maximal_strong_modules(g):
    """Definition-based partition into maximal strong modules (n >= 2)."""
    mods = brute_modules(g)
    strong = []
    for m in mods:
        if all(
            not (m & m2) or m <= m2 or m2 <= m
            for m2 in mods
        ):
            strong.append(m)
    proper = [m for m in strong if len(m) < g.n]
    maximal = [
        m for m in proper if not any(m < m2 for m2 in proper)
    ]
    return sorted(maximal, key=min)


def splitter_closure_mask(g, seed, within):
    """Smallest module of g[within] that holds ``seed``: add every vertex
    that sees some but not all of the set, until none is left."""
    m = seed
    while True:
        add = 0
        for v in iter_bits(within & ~m):
            seen = g.adj[v] & m
            if seen != 0 and seen != m:
                add |= 1 << v
        if not add:
            return m
        m |= add


def closure_strong_module_masks(g, within):
    """Maximal proper modules of g[within] when it is connected and
    co-connected; they are pairwise disjoint and partition the vertex set."""
    blocks = []
    unassigned = within
    while unassigned:
        v = unassigned & -unassigned
        block = v
        for u in iter_bits(within & ~v):
            m = splitter_closure_mask(g, v | (1 << u), within)
            if m != within:
                block |= m
        blocks.append(block)
        unassigned &= ~block
    return sorted(blocks, key=lambda b: b & -b)


def quotient(g, p):
    """Quotient of ``g`` by a partition into modules: the induced subgraph
    on the lowest vertex of each block, with those vertices ascending."""
    masks = [mask_of(b) for b in p]
    union = mask_of(v for b in p for v in b)
    # disjoint exactly when adding the masks carries nothing
    if not all(masks) or sum(masks) != union or union != g.full_mask:
        raise ValueError("blocks are empty, overlap or leave a gap")
    for mask in masks:
        if not is_module(g, iter_bits(mask)):
            raise ValueError(f"block {sorted(iter_bits(mask))} is not a module")
    return induced_subgraph(g, [(m & -m).bit_length() - 1 for m in masks])


def _lift_parts(parts, host_n):
    """Rows and tags of the (system, vertex_map, ...) parts in host
    variables; the maps must partition the host vertices."""
    maps = [vmap for _, vmap, *_ in parts]
    if sorted(v for vmap in maps for v in vmap) != list(range(host_n)):
        raise ValueError("part maps overlap or leave a gap")
    rows, tags = [], []
    for sub, vmap, *_ in parts:
        lifted = lift_subgraph_system(sub, vmap, host_n)
        rows.extend(lifted.rows)
        tags.extend(lifted.tags)
    return rows, tags


def combine_disjoint_union(parts, host_n):
    """Union of the parts' (system, vertex_map) pairs, lifted into host
    variables; a well-covering system when the parts are the connected
    components of the host graph."""
    rows, tags = _lift_parts(parts, host_n)
    return LinearSystem(host_n, tuple(rows), tuple(tags))


def combine_join(parts, g):
    """Systems of the co-components plus chained set-weight equations.

    ``parts`` lists (system, vertex_map, mis) per co-component, with ``mis``
    a maximal independent set of that part in host indices. Every maximal
    independent set of the host lies inside one co-component, so the k - 1
    chained equations suffice.
    """
    if len(parts) < 2:
        raise ValueError("a join needs at least two parts")
    rows, tags = _lift_parts(parts, g.n)
    sets = [frozenset(mis) for _, _, mis in parts]
    for (_, vmap, _), mis in zip(parts, sets):
        if any(g.has_edge(u, w) for u, w in combinations(sorted(mis), 2)):
            raise ValueError("set is not independent in its part")
        if not all(v in mis or g.adj[v] & mask_of(mis) for v in vmap):
            raise ValueError("independent set not maximal in its part")
    for j, (a, b) in enumerate(zip(sets, sets[1:]), start=1):
        rows.append(tuple((v in a) - (v in b) for v in range(g.n)))
        tags.append(f"join-eq j={j}")
    return LinearSystem(g.n, tuple(rows), tuple(tags))


def three_way_auto_system(g, cap=DEFAULT_MIS_CAP):
    """``well_covering_system`` under ``auto`` as it once dispatched: the
    cograph walk if ``g`` has no induced P4, else the capped brute force if
    it has a fork, else the modular walk with the anti-neighborhood
    reduction at each prime quotient and the capped brute force below."""
    if top_down_p4_free(g):
        return cograph_system(g)
    if not is_fork_free(g):
        return bruteforce_system(g, cap)
    base = partial(bruteforce_system, cap=cap)
    sub = partial(modular_system_with, prime_solver=base)
    return modular_system_with(g, lambda q: anti_neighborhood_system(q, sub))


# ``systems._fold_system`` and ``systems._anti_neighborhoods`` as they were
# before the fold kept its rows in one ``linalg._Rows``: a series node with
# a prime below and a prime node with rows below reduce all of their
# subtree's rows again, and the reduction offers each row to its own
# echelon. Verbatim, but for the names of the two and of the fold that the
# reduction calls; ``former_fold_patched`` runs the library on them.


def _former_fold_system(
    g: Graph,
    nodes: list[tuple],
    prime_solver: Callable[[Graph], LinearSystem],
) -> LinearSystem:
    """``modular_system``'s fold over ``nodes``, from ``_md_nodes(g,
    within)``: a system of g[within] over g's n variables, with no rows for
    no nodes; only prime quotients are copied out of g. ``prime_solver``'s
    rows must be independent; they are not reduced."""
    if not nodes:
        return empty_system(g.n)
    # a subtree folds to (start, mis, prime_below): its rows, over all n
    # host variables, are rows[start:], mis is a bitmask of one of its
    # maximal independent sets, and prime_below says if it has a prime node
    rows: list[Row] = []
    tags: list[str] = []

    def reduce_from(start: int) -> None:
        kept = extract_independent_subsystem(
            _trusted_system(g.n, tuple(rows[start:]), tuple(tags[start:]))
        )
        rows[start:] = kept.terms
        tags[start:] = kept.tags

    def leaf(v: int) -> tuple[int, int, bool]:
        return len(rows), 1 << v, False

    def node(kind, mask, reps, children) -> tuple[int, int, bool]:
        starts, mis, below = zip(*children)
        start, prime_below = starts[0], any(below)
        if kind == PARALLEL:
            return start, reduce(or_, mis), prime_below
        if kind == SERIES:
            for j, (a, b) in enumerate(zip(mis, mis[1:]), start=1):
                rows.append(_diff_row(a, b))
                tags.append(f"join-eq j={j}")
            if prime_below:
                reduce_from(start)
            return start, mis[0], prime_below
        if len(reps) == g.n:
            # every child is a single vertex: g is its own quotient
            quot, sets = g, [(v,) for v in reps]
        else:
            quot, _ = induced_subgraph(g, reps)
            sets = [list(iter_bits(m)) for m in mis]
        children_rows = len(rows) > start
        # the children's vertex sets are disjoint, so their mis are too
        substituted = _substitute(prime_solver(quot), sets, g.n)
        rows.extend(substituted.terms)
        tags.extend(substituted.tags)
        # lifting onto disjoint sets keeps the quotient rows independent,
        # but not of the children's rows
        if children_rows:
            reduce_from(start)
        picked = _greedy(quot, range(quot.n))
        chosen = reduce(or_, (mis[j] for j in iter_bits(picked)))
        return start, chosen, True

    md_fold(nodes, leaf, node)
    assert len(rows) <= g.n
    return _trusted_system(g.n, tuple(rows), tuple(tags))


def _former_anti_neighborhoods(
    q: Graph, prime_solver: Callable[[Graph], LinearSystem], cap: int
) -> LinearSystem:
    """The anti-neighborhood reduction of Q = ``q``, its rows independent.

    Every maximal independent set containing v_j is v_j plus a maximal
    independent set of Q - N[v_j], so the systems of all Q - N[v_j] with
    the chained equations between the sets I_j + {v_j} form a well-covering
    system of Q. Each Q - N[v_j] is folded in place, as the vertex mask
    ``keep`` of Q, with ``prime_solver`` at its prime quotients, whose rows
    must be independent; each row, then each chained equation, is kept iff
    it is new to one echelon. Once |Q| rows are kept, a Q - N[v_j] left is
    solved only if its enumerations could pass ``cap``, which keeps the
    exceptions of solving them all.
    """
    echelon: dict[int, dict[int, int]] = {}
    rows: list[Row] = []
    tags: list[str] = []

    def offer(terms: Iterable[Row], row_tags: Iterable[str]) -> None:
        for row, tag in zip(terms, row_tags):
            if len(echelon) == q.n:
                return
            if _insert(echelon, row) is not None:
                rows.append(row)
                tags.append(tag)

    anchored: list[int] = []  # bitmasks of the sets I_j + {v_j}
    for j in range(q.n):
        keep = q.full_mask & ~q.adj[j] & ~(1 << j)
        if len(echelon) < q.n or _moon_moser(keep.bit_count()) > cap:
            sub = _former_fold_system(q, _md_nodes(q, keep), prime_solver)
            offer(sub.terms, sub.tags)
        anchored.append(_greedy(q, iter_bits(keep)) | 1 << j)
    offer(
        map(_diff_row, anchored, anchored[1:]),
        (f"anti-eq j={j}" for j in range(1, q.n)),
    )
    return _trusted_system(q.n, tuple(rows), tuple(tags))


def former_fold_patched(monkeypatch):
    """Run ``systems`` on the former fold and anti-neighborhood reduction,
    until ``monkeypatch`` undoes it."""
    import wellcovered.systems as systems

    monkeypatch.setattr(systems, "_fold_system", _former_fold_system)
    monkeypatch.setattr(systems, "_anti_neighborhoods", _former_anti_neighborhoods)


# ``systems``' strategy dispatch as it was before one route picked every
# fold: the bodies of ``well_covering_system``, ``_query_system`` with the
# brute-force branches of ``well_covered_dimension`` and
# ``well_covered_basis``, and ``well_covered_witness``, verbatim, with the
# helpers and the builders they called
_FORK_FOUND = (
    "graph contains an induced fork; the fork-free strategy does not apply"
)


def _fork_free(g, nodes):
    prime = any(kind == PRIME for kind, _, _ in nodes)
    return not prime or _tree_flags(g, nodes)["fork_free"]


def _dispatch_cograph_system(g):
    def refuse(q):
        raise StrategyError(
            "graph has an induced 4-vertex path; the cograph "
            "strategy does not apply (use modular or forkfree)"
        )

    system = _fold_system(g, _md_nodes(g), refuse)
    assert len(system) <= max(g.n - 1, 0)
    return system


def _dispatch_modular_system(g, cfg=None):
    cap = (cfg or SolverConfig()).mis_cap
    return _fold_system(g, _md_nodes(g), _reduced(partial(bruteforce_system, cap=cap)))


def _dispatch_system(g, cfg=None):
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return bruteforce_system(g, cfg.mis_cap)
    if cfg.strategy == "cograph":
        return _dispatch_cograph_system(g)
    if cfg.strategy == "modular":
        return _dispatch_modular_system(g, cfg)
    nodes = _md_nodes(g)
    if _fork_free(g, nodes):
        base = _reduced(partial(bruteforce_system, cap=cfg.mis_cap))
        return _fold_system(
            g, nodes, lambda q: _anti_neighborhoods(q, base, cfg.mis_cap)
        )
    if cfg.strategy == "forkfree":
        raise StrategyError(_FORK_FOUND)
    return bruteforce_system(g, cfg.mis_cap)


def _dispatch_query_system(g, cfg=None):
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return bruteforce_system(g, cfg.mis_cap)
    if cfg.strategy == "cograph":
        return _dispatch_cograph_system(g)
    nodes = _md_nodes(g)
    fork_free = cfg.strategy == "forkfree"
    if fork_free and not _fork_free(g, nodes):
        raise StrategyError(_FORK_FOUND)
    return _fold_system(g, nodes, _query_prime_solver(cfg.mis_cap, fork_free))


def _dispatch_dimension(g, cfg=None):
    cfg = cfg or SolverConfig()
    system = _dispatch_query_system(g, cfg)
    return g.n - (rank(system) if cfg.strategy == "bruteforce" else len(system))


def _dispatch_basis(g, cfg=None):
    cfg = cfg or SolverConfig()
    system = _dispatch_query_system(g, cfg)
    if cfg.strategy != "bruteforce" and len(system) == g.n:
        return Basis(())
    return null_space_basis(system)


def _dispatch_is_well_covered(g, cfg=None):
    return evaluate(_dispatch_query_system(g, cfg), (1,) * g.n)


def _dispatch_is_w_well_covered(g, w, cfg=None):
    return evaluate(_dispatch_query_system(g, cfg), w)


def _dispatch_witness(g, cfg=None):
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return _enumerated_witness(g, cfg.mis_cap)
    if cfg.strategy != "auto":
        return _dispatch_is_well_covered(g, cfg), None
    nodes = _md_nodes(g)
    if not _fork_free(g, nodes):
        return _enumerated_witness(g, cfg.mis_cap)
    system = _fold_system(g, nodes, _query_prime_solver(cfg.mis_cap, True))
    return evaluate(system, (1,) * g.n), None


# the earlier dispatch by the names of the library calls it answered
dispatch_oracle = {
    "well_covering_system": _dispatch_system,
    "well_covered_dimension": _dispatch_dimension,
    "well_covered_basis": _dispatch_basis,
    "is_well_covered": _dispatch_is_well_covered,
    "is_w_well_covered": _dispatch_is_w_well_covered,
    "well_covered_witness": _dispatch_witness,
}


def answers(calls, g, cfg, w):
    """Each call of ``calls``, a dict like ``dispatch_oracle``, on ``g``
    under ``cfg`` (and ``w`` for ``is_w_well_covered``): what it returns, a
    system as its variable count, terms and tags, or the type and message
    of the StrategyError or CapExceededError it raises."""
    out = {}
    for name, call in calls.items():
        args = (g, w, cfg) if name == "is_w_well_covered" else (g, cfg)
        try:
            result = call(*args)
        except (StrategyError, CapExceededError) as exc:
            out[name] = type(exc), str(exc)
            continue
        if isinstance(result, LinearSystem):
            result = result.num_vars, result.terms, result.tags
        out[name] = result
    return out


def enumerated_witness(g, cap):
    """``systems._enumerated_witness`` as it stood before it read the bitmask
    stream: the canonically sorted enumeration, then its first smallest
    and its last largest set."""
    mis = enumerate_mis(g, cap)
    if not mis.complete:
        raise CapExceededError(f"maximal independent set cap {cap} exceeded")
    small = min(mis.sets, key=len)
    large = max(reversed(mis.sets), key=len)
    covered = len(small) == len(large)
    return covered, None if covered else (small, large)


def witness_reference(sets):
    """The ``is-well-covered`` witness pair as once chosen: the least and
    the greatest maximal independent set under (size, sorted members)."""
    key = lambda s: (len(s), sorted(s))
    return min(sets, key=key), max(sets, key=key)


def top_down_component_masks(g, within=None):
    """``graph.component_masks`` as it was before its walks chose a
    direction: every step ORs the rows of the whole frontier."""
    rem = g.full_mask if within is None else within
    blocks = []
    while rem:
        start = rem & -rem
        comp = 0
        frontier = start
        while frontier:
            comp |= frontier
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & rem & ~comp
        blocks.append(comp)
        rem &= ~comp
    return blocks


def top_down_co_component_masks(g, within=None):
    """``graph.co_component_masks`` as it was before its walks chose a
    direction."""
    rem = g.full_mask if within is None else within
    blocks = []
    while rem:
        start = rem & -rem
        comp = 0
        frontier = start
        while frontier:
            comp |= frontier
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rem & ~g.adj[v] & ~(1 << v)
            frontier = nxt & ~comp
        blocks.append(comp)
        rem &= ~comp
    return blocks


def top_down_p4_free(g):
    """``graph.is_p4_free``, the cotree split the library once ran on the
    whole graph, driven by the top-down walks."""
    work = [g.full_mask]
    while work:
        within = work.pop()
        if within & (within - 1):
            blocks = top_down_component_masks(g, within)
            if len(blocks) == 1:
                blocks = top_down_co_component_masks(g, within)
                if len(blocks) == 1:
                    return False
            work.extend(blocks)
    return True


def is_fork_free(g):
    """``graph.is_fork_free`` as it was, a whole-graph scan: with no induced
    P4 there is no fork, else the exhaustive scan of centres decides."""
    return top_down_p4_free(g) or not _finds_fork(g)


def two_walk_partition(g, within, parent=None):
    """``modular._partition_masks`` as it was before it took the kind of
    the parent node: the component walk, then the co-component walk, at
    every level; ``parent`` is ignored."""
    comps = component_masks(g, within)
    if len(comps) >= 2:
        return "parallel", comps
    cocomps = co_component_masks(g, within)
    if len(cocomps) >= 2:
        return "series", cocomps
    return "prime", _strong_module_masks(g, within)


def two_walk_p4_free(g):
    """``graph.is_p4_free`` as it was before it alternated the walks: the
    component walk, then the co-component walk, on every block."""
    work = [g.full_mask]
    while work:
        within = work.pop()
        if within & (within - 1):
            blocks = component_masks(g, within)
            if len(blocks) == 1:
                blocks = co_component_masks(g, within)
                if len(blocks) == 1:
                    return False
            work.extend(blocks)
    return True


def two_walk_post_order(g):
    """(kind, mask, reps) of each internal node of the decomposition tree
    of ``g``, in post-order, split by ``two_walk_partition``."""
    out = []
    work = [(g.full_mask, None)]
    while work:
        mask, split = work.pop()
        if split is None:
            if mask & (mask - 1):
                split = two_walk_partition(g, mask)
                work.append((mask, split))
                work.extend((b, None) for b in reversed(split[1]))
        else:
            kind, blocks = split
            out.append((kind, mask, tuple((b & -b).bit_length() - 1 for b in blocks)))
    return out


def has_induced(g, pattern):
    """Brute-force induced-subgraph containment via injective embeddings."""
    k = pattern.n
    if k > g.n:
        return False
    for combo in combinations(range(g.n), k):
        for perm in permutations(combo):
            if all(
                g.has_edge(perm[i], perm[j]) == pattern.has_edge(i, j)
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return True
    return False


def bareiss_rank(int_rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in int_rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


# The three Fraction elimination loops below are the library's former rank,
# extract_independent_subsystem and null_space_basis, kept verbatim.


def _q(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _canon(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def fraction_rank(s):
    """Rank of the coefficient matrix over the rationals."""
    rows = [list(r) for r in s.rows if any(r)]
    nrows = len(rows)
    r = 0
    for col in range(s.num_vars):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / _q(prow[col])
        for i in range(r + 1, nrows):
            ri = rows[i]
            if ri[col]:
                f = _q(ri[col]) * inv
                for c in range(col, s.num_vars):
                    ri[c] = ri[c] - f * prow[c]
        r += 1
        if r == nrows:
            break
    return r


def fraction_extract(s):
    """A row basis made of original rows, in their original order."""
    echelon = []  # (pivot col, reduced row)
    kept = []
    for idx, row in enumerate(s.rows):
        work = list(row)
        for pc, er in echelon:
            if work[pc]:
                f = _q(work[pc]) / _q(er[pc])
                for c in range(pc, s.num_vars):
                    work[c] = work[c] - f * er[c]
        lead = next((c for c in range(s.num_vars) if work[c]), None)
        if lead is None:
            continue
        echelon.append((lead, work))
        echelon.sort(key=lambda t: t[0])
        kept.append(idx)
    return LinearSystem(
        s.num_vars,
        tuple(s.rows[i] for i in kept),
        tuple(s.tags[i] for i in kept),
    )


def _fraction_rref(s):
    """Reduced row echelon form as a list of (pivot column, row) pairs."""
    rows = [[_q(x) for x in r] for r in s.rows if any(r)]
    pivots = []
    r = 0
    for col in range(s.num_vars):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / prow[col]
        for c in range(col, s.num_vars):
            prow[c] *= inv
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                ri = rows[i]
                for c in range(col, s.num_vars):
                    ri[c] -= f * prow[c]
        pivots.append((col, prow))
        r += 1
        if r == len(rows):
            break
    return pivots


def fraction_rref_basis(s):
    """Canonical null-space basis: one vector per free RREF column."""
    pivots = _fraction_rref(s)
    pivot_cols = {pc for pc, _ in pivots}
    vectors = []
    for free in range(s.num_vars):
        if free in pivot_cols:
            continue
        vals = [0] * s.num_vars
        vals[free] = 1
        for pc, row in pivots:
            vals[pc] = _canon(-row[free])
        vectors.append(WeightVector(tuple(vals)))
    return Basis(tuple(vectors))


# The dense integer kernel below is the library's former _integer_row,
# _primitive, _cancel, _insert and _echelon, kept verbatim: rows are lists of
# num_vars ints.


def _dense_integer_row(row):
    """The row times the lcm of its denominators."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row]
    return [x.numerator * (d // x.denominator) for x in row]


def _dense_primitive(row, pivot):
    """The row divided by its content, with a nonnegative entry at ``pivot``."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return row if g in (0, 1) else [x // g for x in row]


def _dense_cancel(row, er, col):
    """A combination of ``row`` and ``er`` that is zero at ``col``.

    ``er[col]`` must be nonzero. Entries left of ``col`` that are zero in
    both rows stay zero.
    """
    g = gcd(er[col], row[col])
    a, b = er[col] // g, row[col] // g
    if a == 1:
        return [x - b * y for x, y in zip(row, er)]
    # the result is zero at col, so only its content is divided out
    return _dense_primitive([a * x - b * y for x, y in zip(row, er)], col)


def _dense_insert(echelon, row):
    """Reduce ``row`` against ``echelon`` and, if anything is left, store it."""
    n = len(row)
    work = _dense_integer_row(row)
    lead = 0
    while True:
        lead = next((c for c in range(lead, n) if work[c]), n)
        er = echelon.get(lead)
        if er is None:
            break
        work = _dense_cancel(work, er, lead)
    if lead == n:
        return None
    echelon[lead] = _dense_primitive(work, lead)
    return lead


def dense_echelon(s):
    """(kept row indices, echelon of dense primitive rows) of the rows of
    ``s`` in input order, by the former dense integer kernel."""
    echelon = {}
    kept = []
    for idx, row in enumerate(s.rows):
        if len(echelon) == s.num_vars:
            break
        if _dense_insert(echelon, row) is not None:
            kept.append(idx)
    return kept, echelon


def system_rows_int(system):
    """System rows as plain ints; fails if any entry is non-integral."""
    out = []
    for row in system.rows:
        ints = []
        for x in row:
            f = Fraction(x)
            assert f.denominator == 1
            ints.append(f.numerator)
        out.append(ints)
    return out


def leaf_count(g):
    """Degree-1 vertices (tree leaves)."""
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


class CountingAdj(tuple):
    """An adjacency tuple that counts the reads made through it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def scanned_mask(g, within=None):
    """The vertex mask that a call on g with ``within`` reads."""
    return g.full_mask if within is None else within


def record_scans(monkeypatch, module):
    """Wrap ``module``'s claw and fork scans (``is_claw_free``,
    ``_finds_fork``), passing ``within`` through; the returned list gets a
    (name, scanned vertex mask) pair per call."""
    scans = []
    for name in ("is_claw_free", "_finds_fork"):
        real = getattr(module, name)

        def scan(h, within=None, real=real, name=name):
            scans.append((name, scanned_mask(h, within)))
            return real(h, within)

        monkeypatch.setattr(module, name, scan)
    return scans


def graph6_encode(g):
    """Independent graph6 encoder for round-trip tests (n <= 258047): the
    order is one byte up to n = 62, else "~" and three 6-bit bytes."""
    assert g.n <= 258047
    if g.n <= 62:
        chars = [chr(63 + g.n)]
    else:
        chars = ["~"] + [chr(63 + ((g.n >> shift) & 63)) for shift in (12, 6, 0)]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


# The renderers below are the library's former format_equation, JSON
# coefficient pairs, vertex-set names and text mdtree, kept verbatim as
# references for the output layer.


def format_equation_reference(row):
    terms = []
    for i, c in enumerate(row):
        if c == 0:
            continue
        mag = abs(_q(c))
        name = f"x_{i + 1}"
        body = name if mag == 1 else f"{mag}*{name}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0 = 0"
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text + " = 0"


def json_pairs_reference(row):
    return [[_q(x).numerator, _q(x).denominator] for x in row]


def _vname_reference(v):
    return f"v_{v + 1}"


def vset_reference(vertices):
    return "{" + ", ".join(_vname_reference(v) for v in sorted(vertices)) + "}"


def mdtree_text_reference(tree):
    lines, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            lines.append(f"{'  ' * depth}leaf {_vname_reference(node.vertex)}")
        else:
            lines.append(f"{'  ' * depth}{node.kind} {vset_reference(node.vertex_set)}")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)


def mdtree_json_reference(node):
    """The ``mdtree --output json`` object as the recursive builder once
    made it; the recursion limit bounds the depth it can reach."""
    obj = {"kind": node.kind, "vertices": sorted(node.vertex_set)}
    if node.is_leaf:
        obj["vertex"] = node.vertex
    else:
        obj["quotient"] = {"reps": list(node.reps), "edges": node.quotient.edges()}
        obj["children"] = [mdtree_json_reference(c) for c in node.children]
    return obj


def seeded(seed):
    return random.Random(seed)


def threshold(n):
    """Threshold graph built by adding vertices n-1, n-2, ..., 0 in turn,
    vertex v dominating (adjacent to all present) when v is odd and
    isolated when v is even. Its decomposition tree alternates parallel and
    series nodes, each with one leaf and one internal node as children (the
    last has two leaves): n - 1 internal nodes on a single path, as deep as
    any tree on n leaves. The leaf is the lower child of every node, so the
    cograph system's rows have at most three nonzero entries and stay
    triangular under elimination."""
    odd = 0
    for v in range(1, n, 2):
        odd |= 1 << v
    full = (1 << n) - 1
    adj = []
    for v in range(n):
        higher = full & ~((2 << v) - 1) if v % 2 else 0
        adj.append(higher | odd & ((1 << v) - 1))
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# the dense row layer, as the library had it before rows were stored by
# their terms: every row an n-tuple


def terms(row):
    """The (col, coeff) pairs of the nonzero entries of a dense row, as
    ``LinearSystem.terms`` holds a row."""
    return tuple((c, x) for c, x in enumerate(row) if x)


def dense_diff_row(n, plus, minus):
    """Indicator difference row; coefficients stay in {-1, 0, 1}."""
    row = [0] * n
    for v in plus:
        row[v] += 1
    for v in minus:
        row[v] -= 1
    return tuple(row)


def dense_spread(system, sets, host_n, tags):
    """The rows with the coefficient of variable j on every host variable
    in sets[j]; the one loop of both lifts."""
    rows = []
    for row in system.rows:
        out = [0] * host_n
        for j, c in enumerate(row):
            if c != 0:
                for v in sets[j]:
                    out[v] = c
        rows.append(tuple(out))
    return LinearSystem(host_n, tuple(rows), tuple(tags))


def dense_evaluate(s, w):
    """True iff ``w`` satisfies every equation of ``s``."""
    values = tuple(w)
    _check_entries(values)
    if len(values) != s.num_vars:
        raise ValueError(
            f"weight vector of length {len(values)} for a system over "
            f"{s.num_vars} variables"
        )
    for row in s.rows:
        if sum(c * x for c, x in zip(row, values)) != 0:
            return False
    return True


def dense_format_equation(row):
    text = " ".join(
        f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c)}*'}x_{i + 1}"
        for i, c in enumerate(row)
        if c
    )
    if not text:
        return "0 = 0"
    # the first term carries no "+" and no space after its sign
    return (text[2:] if text[0] == "+" else "-" + text[2:]) + " = 0"


def dense_system_to_text(s):
    lines = []
    for row, tag in zip(s.rows, s.tags):
        line = dense_format_equation(row)
        if tag:
            line += f"  # {tag}"
        lines.append(line)
    return "\n".join(lines)


def dense_system_to_json(s):
    return {
        "num_vars": s.num_vars,
        "rows": [[[x.numerator, x.denominator] for x in row] for row in s.rows],
        "tags": list(s.tags),
    }


def dense_rows_patched(monkeypatch):
    """Make the library build, lift, evaluate and print its rows with the
    dense row layer: each row is built as an n-tuple and handed on as its
    terms."""
    import wellcovered.cli as cli
    import wellcovered.systems as systems

    def diff_row(plus, minus):
        n = (plus | minus).bit_length()
        return terms(dense_diff_row(n, iter_bits(plus), iter_bits(minus)))

    def substitute(quotient_sys, sets, host_n):
        tags = [f"subst[{t}]" if t else "subst" for t in quotient_sys.tags]
        return dense_spread(quotient_sys, sets, host_n, tags)

    monkeypatch.setattr(systems, "_diff_row", diff_row)
    monkeypatch.setattr(systems, "_substitute", substitute)
    monkeypatch.setattr(systems, "evaluate", dense_evaluate)
    monkeypatch.setattr(cli, "system_to_text", dense_system_to_text)
    monkeypatch.setattr(cli, "system_to_json", dense_system_to_json)
