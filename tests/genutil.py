"""Shared test helpers: named graphs, random generators, independent oracles.

Oracles here deliberately avoid the library's own code paths. Maximal
independent sets come from filtering all vertex subsets, module structure
from testing all subsets against the definition, ranks from integer
fraction-free (Bareiss) elimination, and pattern containment from explicit
injective embeddings. The Fraction elimination loops the library used before
its integer kernel are kept here, unchanged, as differential oracles for it.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from wellcovered.graph import Graph
from wellcovered.linalg import Basis, LinearSystem, WeightVector


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


# ---------------------------------------------------------------------------
# random generators (all driven by an explicit random.Random for determinism)


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


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
        from wellcovered.modular import is_prime

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
    from wellcovered.graph import is_fork_free

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


def graph6_encode(g):
    """Independent graph6 encoder for round-trip tests (n <= 62)."""
    assert g.n <= 62
    chars = [chr(63 + g.n)]
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


def seeded(seed):
    return random.Random(seed)
