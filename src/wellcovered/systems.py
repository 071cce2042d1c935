"""Construction of well-covering systems.

A well-covering system of a graph is a homogeneous linear system, with one
variable per vertex, whose solution set is exactly the space of vertex
weightings under which all maximal independent sets have the same total
weight. This module builds such systems along several routes:

* ``bruteforce_system``: enumerate all maximal independent sets and chain
  consecutive weight-difference equations. Always sound; exponential in the
  worst case, so it is capped. The chain of consecutive sets is written
  once (``_chain``, its rows built as they are read): the brute force, the
  join equations of the fold and the anti-neighborhood equations use it.
  Where the brute-force chain is reduced (``_reduced_chain``), each row is
  offered to one row store as it is built, so no unreduced chain is held,
  and none is built once the store is full.
* ``modular_system``: walk the modular decomposition tree bottom-up. A
  disconnected graph takes the union of its components' systems; a join
  takes the union of the co-components' systems plus chained equations
  between one maximal independent set per co-component; a prime quotient is
  solved by the capped brute force, whose equations are reduced and
  re-expanded by substituting, for each quotient vertex, the sum over a
  maximal independent set of the corresponding module (``_substitute``,
  the one lift). The rows of a prime step whose children have rows, and
  of a join with a prime node below it, are each kept iff new to the
  echelon of the rows before them, which keeps the system at most n
  equations. A join with no prime node below needs no test: every node
  of a cotree has a well-covered weighting that gives its chosen set a
  nonzero weight, so the chained equations are independent of the
  co-components' rows. Such rows are owed to the echelon, and a node
  puts in those of its own subtree before it tests a row, so each row
  enters the one echelon of a fold (``linalg._Rows``) at most once. The
  fold (``_fold_system``), which every route
  below shares with its own solver at prime quotients, reads one
  decomposition (``modular._md_nodes``) and writes each row once, by its
  terms over the n variables (see ``linalg``): a difference of two vertex
  sets costs the vertices in one and not the other, and a lifted quotient
  row the vertices it is spread onto, never n entries.
* ``cograph_system``: the fold with a prime solver that refuses. On
  graphs without induced 4-vertex paths only parallel and series nodes
  occur, so no row is reduced, and a counting argument bounds the size by
  n - 1.
* ``_anti_neighborhoods``: the anti-neighborhood reduction of a prime
  quotient Q, written once: the systems of the graphs Q - N[v], one per
  vertex v, each folded in place as a vertex mask of Q, with chained
  equations relating the sets I_v + {v}, each row kept in one row store
  iff it is new to its echelon.
* ``clawfree_system``: for claw-free graphs, one equation per generating
  subgraph (an edge, an induced P3 or an induced C4; Levit and Tankus
  2015) that is not implied by those before it. An induced P3 a-c-b
  whose ends have a common neighbour outside N[c] is never generating
  and is not offered: in a claw-free graph a vertex with two non-adjacent
  neighbours p, q has all its neighbours in N[p] + N[q]. A candidate is
  skipped without a test when its row is in the span, so the rows are
  independent by construction; the rest are skipped at the first empty
  one of the cliques they must meet, or tested with
  ``independent_sets.meets_all_cliques``, and a row is stored only once
  accepted. The edges come first and their span test is a union-find; a
  later row is reduced by the sparse kernel (``linalg._reduce``) after
  summing its coefficients per class, so each candidate costs about its
  degree. Once 2n candidates in a row are refused, a certificate is drawn
  once: greedy maximal cliques covering every N[v], each tested for
  meeting every maximal independent set (a strong clique; Hujdurovic,
  Milanic and Ries 2018), whose indicators are well-covered weightings.
  The exactness argument has three steps. A generating (X, Y) has
  w(X) = w(Y) for every such indicator w, so a candidate that one weighs
  apart is skipped by a bitmask lookup. The accepted rows are generating,
  so the indicators, of rank d, lie in their null space. At rank n - d
  that null space is their span, every later generating row is in the
  span of the accepted rows, and the loop stops.
* ``forkfree_system``: for graphs with no induced fork. Prime quotients are
  solved through the anti-neighborhood reduction, whose subproblems have
  claw-free prime quotients and bottom out at the capped brute force.

One function, ``_route``, picks what each caller folds under each
strategy: ``well_covering_system`` (the ``system`` verb), ``_query_system``
(dimension, basis and w-well-coveredness, which the solution space fixes,
so any independent well-covering system will do) and
``well_covered_witness`` (``is-well-covered``). ``bruteforce`` enumerates
the whole graph: the chain, reduced as it streams for the queries, or the
witness.
Every other strategy decomposes the graph once, and ``cograph`` folds
with a prime solver that refuses. ``forkfree``, and ``auto`` for
``system`` and the witness, then read the fork flag off the same tree
(``modular._tree_flags``, no whole-graph scan), unless it has no prime
node and so is P4-free: on a fork ``forkfree`` raises StrategyError and
``auto`` enumerates the whole graph, with no prime quotient solved.
``system`` folds with the reduced chain at prime quotients under
``modular``, else with the anti-neighborhood reduction over it; its rows
keep their bytes. The queries and the witness fold and pick a solver at
each prime quotient Q: ``clawfree_system`` if Q is claw-free, else the
anti-neighborhood reduction if Q is fork-free, else the capped brute
force on Q, streamed (``_mis_span``). A fork then costs an enumeration of
the quotients that hold one, not of the graph, and a graph whose flag was
read is not scanned for forks again, as every induced subgraph of a
fork-free graph is fork-free: a call scans for forks once.

The streamed brute force builds no sorted list of sets and at most |Q|
rows: a difference of consecutive sets is kept when it is new mod 2, and
the rest are tested against the null space of the kept rows once the
enumeration ends. The fold reduces no prime solver's rows: the claw-free
base and the span are independent by construction, and the
anti-neighborhood reduction and the reduced chain at the primes of
``system`` reduce their own, each in one row store.

The one enumeration (``independent_sets._mis_masks``) counts its sets
against the cap; the chain of ``bruteforce_system`` and the reduced
chain sort it, and the span and the witness read it as it runs. The span
and the anti-neighborhood reduction stop at full rank, |Q| rows kept,
except for work that could pass the cap: no graph on m vertices has more
than ``_moon_moser(m)`` maximal independent sets (Moon and Moser 1965),
so only where that bound passes the cap does the span count on, or the
reduction solve a remaining Q - N[v]. Exceptions are those of the eager
construction, and so are the reduction's rows and tags.

Where the span may stop so, greedy maximal independent sets in seeded
random vertex orders join its stream before set 2|Q|: they often reach
rank |Q| where consecutive enumerated sets, which are alike, take
hundreds more (seven of the eight G(34, 0.3) quotients of the bench's
``desk-mixed`` workload, seed 0: ``dimension`` 21 -> 11 ms in all by
library call). If they fall short, their rows stay and the enumeration
goes on.

All constructions preserve unit coefficients (-1, 0, 1) when their inputs
are unit, and every produced system is a well-covering system of its graph.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial, reduce
from operator import or_

from .graph import (
    Graph,
    _Frozen,
    _finds_fork,
    _set,
    induced_subgraph,
    is_claw_free,
    iter_bits,
)
from .independent_sets import (
    DEFAULT_MIS_CAP,
    _check_cap,
    _greedy,
    _mis_masks,
    meets_all_cliques,
)
from .linalg import (
    Basis,
    Coeff,
    LinearSystem,
    Row,
    WeightVector,
    _Rows,
    _diff_row,
    _reduce,
    _store,
    _trusted_system,
    empty_system,
    evaluate,
    null_space_basis,
)
from .modular import PARALLEL, PRIME, SERIES, _md_nodes, _tree_flags, md_fold

STRATEGIES = ("auto", "bruteforce", "cograph", "modular", "forkfree")


class StrategyError(RuntimeError):
    """Raised when a solving strategy's preconditions do not hold."""


# ends the cap error of every brute force that builds rows
_UNAVAILABLE = "; brute-force system unavailable"


class SolverConfig(_Frozen):
    """A strategy, one of ``STRATEGIES``, and the cap on the maximal
    independent sets that one enumeration may list; immutable, so checked
    once."""

    __slots__ = _fields = ("strategy", "mis_cap")
    strategy: str
    mis_cap: int

    def __init__(self, strategy: str = "auto", mis_cap: int = DEFAULT_MIS_CAP):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        _check_cap(mis_cap, "mis_cap")
        _set(self, "strategy", strategy)
        _set(self, "mis_cap", mis_cap)


def _chain(masks: Sequence[int], label: str) -> tuple[Iterator[Row], Iterator[str]]:
    """The rows m[i-1] - m[i] of consecutive vertex sets, given as
    bitmasks, and their tags "``label``=i", i from 1, each built as it is
    read."""
    tags = (f"{label}={i}" for i in range(1, len(masks)))
    return map(_diff_row, masks, masks[1:]), tags


def _sorted_chain(g: Graph, cap: int) -> tuple[Iterator[Row], Iterator[str]]:
    """The chain of ``bruteforce_system``, its rows and tags built as they
    are read; the enumeration and the sort run, and raise, at once."""
    masks = sorted(
        _mis_masks(g, cap, _UNAVAILABLE),
        key=lambda m: format(m, f"0{g.n}b")[::-1],
        reverse=True,
    )
    return _chain(masks, "mis-diff i")


def bruteforce_system(g: Graph, cap: int = DEFAULT_MIS_CAP) -> LinearSystem:
    """Chain equations between consecutive maximal independent sets.

    Enumerates all maximal independent sets in canonical order and emits the
    k-1 consecutive weight-difference equations. Raises CapExceededError
    when the enumeration does not finish under ``cap``. Canonical order is
    lexicographic by sorted members: of two sets, the one holding the lowest
    vertex where they differ comes first, so the bit-reversed masks descend.
    """
    return _trusted_system(g.n, *map(tuple, _sorted_chain(g, cap)))


def _reduced_chain(g: Graph, cap: int) -> LinearSystem:
    """The rows of ``bruteforce_system(g, cap)`` that are independent of
    those before them, with their tags, and its exceptions: each row is
    offered to one ``linalg._Rows`` as it is built, and none is built once
    the store is full."""
    rows = _Rows(g.n)
    rows.add(*_sorted_chain(g, cap))
    return rows.system()


def _moon_moser(m: int) -> int:
    """The largest number of maximal independent sets of a graph on m
    vertices (Moon and Moser 1965): 3^(m/3), 4 * 3^((m - 4)/3) or
    2 * 3^((m - 2)/3) by m mod 3."""
    q, r = divmod(m, 3)
    if r == 1 and q:
        return 4 * 3 ** (q - 1)
    return 2 * 3**q if r == 2 else 3**q


def _gf2_insert(images: dict[int, int], pivots: int, image: int) -> int:
    """Add ``image`` to ``images``, a reduced echelon over GF(2) in which
    images[v] is the one image that holds bit v of ``pivots``, if it is
    not in their span. Returns the pivots, unchanged iff it was."""
    for v in iter_bits(image & pivots):
        image ^= images[v]
    if not image:
        return pivots
    low = image & -image
    for v, other in images.items():
        if other & low:
            images[v] = other ^ image
    images[low.bit_length() - 1] = image
    return pivots | low


def _probe_masks(g: Graph, count: int) -> Iterator[int]:
    """``count`` maximal independent sets of ``g`` as bitmasks, each
    greedy in a vertex order drawn from a fixed seed, so that a call
    repeats."""
    rng = random.Random(0)
    for _ in range(count):
        yield _greedy(g, sorted(range(g.n), key=rng.randbytes(g.n).__getitem__))


def _mis_span(g: Graph, cap: int = DEFAULT_MIS_CAP) -> LinearSystem:
    """Independent rows spanning those of ``bruteforce_system(g, cap)``,
    read off one stream of maximal independent sets as it runs; raises as
    it does.

    The stream is the capped enumeration, with ``_probe_masks(g, 2n)``
    spliced in right before set 2n where the enumeration may end at rank
    n: greedy sets, unlike consecutive enumerated ones, often reach it at
    once. Each row m - m' of consecutive sets is a difference of maximal
    independent sets, and the enumerated ones telescope through the probe,
    so the rows span the chain's. A row whose image mod 2, m ^ m', is new
    over GF(2) is new over Q, as a rational relation scaled to coprime
    integers holds mod 2: it is kept with no rational work, until n rows
    are; the stream then ends unless the enumeration could pass the cap.
    The others wait as mask pairs, and after the stream each is kept iff
    some vector of the null space of the rows kept so far weighs m and m'
    apart. Only kept rows are built, tagged by their place in the stream.
    """
    n = g.n
    masks = _mis_masks(g, cap, _UNAVAILABLE)
    stops = _moon_moser(n) <= cap  # no enumeration on n vertices passes cap

    def stream() -> Iterator[int]:
        for i, m in enumerate(masks):
            if i == 2 * n and stops:
                yield from _probe_masks(g, i)
            yield m

    kept: list[tuple[int, int, int]] = []  # (i, m, m') for the row m - m'
    waiting: list[tuple[int, int, int]] = []
    images: dict[int, int] = {}
    pivots = 0
    prev = None
    for i, m in enumerate(stream()):
        if prev is not None and len(kept) < n:
            grown = _gf2_insert(images, pivots, prev ^ m)
            if grown != pivots:
                pivots = grown
                kept.append((i, prev, m))
                if len(kept) == n and stops:
                    break
            else:
                waiting.append((i, prev, m))
        prev = m
    rows = [_diff_row(a, b) for _, a, b in kept]
    null = _null_masks(n, rows) if waiting and len(rows) < n else []
    for i, a, b in waiting:
        if not null:
            break
        if any(
            sum(x * ((a & m).bit_count() - (b & m).bit_count()) for x, m in v)
            for v in null
        ):
            kept.append((i, a, b))
            rows.append(_diff_row(a, b))
            null = _null_masks(n, rows)
    tags = tuple(f"mis-diff i={i}" for i, _, _ in kept)
    return _trusted_system(n, tuple(rows), tags)


def _null_masks(n: int, rows: list[Row]) -> list[list[tuple[Coeff, int]]]:
    """A basis of the null space of ``rows``, each vector as pairs (x, m)
    of a nonzero value x and the bitmask m of the columns that hold it."""
    s = _trusted_system(n, tuple(rows), ("",) * len(rows))
    null = []
    for v in null_space_basis(s).vectors:
        columns: dict[Coeff, int] = {}
        for c, x in enumerate(v.values):
            if x:
                columns[x] = columns.get(x, 0) | 1 << c
        null.append(list(columns.items()))
    return null


def _substitute(quotient_sys: LinearSystem, sets, host_n: int) -> LinearSystem:
    """Substitute module independent-set sums for quotient variables.

    Each quotient equation's coefficient a_j spreads onto all host
    variables in ``sets[j]``; the sets must be non-empty, disjoint and
    within ``host_n``. Sound because a maximal independent set of the host
    graph meets module j either not at all or in a maximal independent set
    of the module, and the met modules form a maximal independent set of
    the quotient. It costs the nonzeros it puts down."""
    rows = tuple(
        tuple(sorted([(v, c) for j, c in row for v in sets[j]]))
        for row in quotient_sys.terms
    )
    tags = tuple(f"subst[{tag}]" if tag else "subst" for tag in quotient_sys.tags)
    return _trusted_system(host_n, rows, tags)


# ---------------------------------------------------------------------------
# modular decomposition pipeline


def _fold_system(
    g: Graph,
    nodes: list[tuple],
    prime_solver: Callable[[Graph], LinearSystem],
) -> LinearSystem:
    """``modular_system``'s fold over ``nodes``, from ``_md_nodes(g,
    within)``: a system of g[within] over g's n variables, with no rows for
    no nodes; only prime quotients are copied out of g. ``prime_solver``'s
    rows must be independent; they are not reduced.

    The rows are kept in one ``linalg._Rows``. A row that needs no test,
    a join row with no prime node below or a lifted row of a prime node
    whose children have no rows, is kept and owed to its echelon. A node
    whose rows are tested first settles the rows its subtree owes: rows
    outside the subtree have disjoint support. So each row enters the
    echelon at most once, and a row is kept iff it is independent of the
    rows before it."""
    if not nodes:
        return empty_system(g.n)
    # a subtree folds to (start, mis, prime_below): its rows, over all n
    # host variables, are the kept rows from index start on, mis is a
    # bitmask of one of its maximal independent sets, and prime_below says
    # if it has a prime node
    rows = _Rows(g.n)

    def leaf(v: int) -> tuple[int, int, bool]:
        return len(rows.terms), 1 << v, False

    def node(kind, mask, reps, children) -> tuple[int, int, bool]:
        starts, mis, below = zip(*children)
        start, prime_below = starts[0], any(below)
        if kind == PARALLEL:
            return start, reduce(or_, mis), prime_below
        if kind == SERIES:
            if prime_below:
                rows.settle(start)
            rows.add(*_chain(mis, "join-eq j"), prime_below)
            return start, mis[0], prime_below
        if len(reps) == g.n:
            # every child is a single vertex: g is its own quotient
            quot, sets = g, [(v,) for v in reps]
        else:
            quot, _ = induced_subgraph(g, reps)
            sets = [list(iter_bits(m)) for m in mis]
        # lifting onto disjoint sets keeps the quotient rows independent,
        # but not of the children's rows
        children_rows = len(rows.terms) > start
        if children_rows:
            rows.settle(start)
        # the children's vertex sets are disjoint, so their mis are too
        substituted = _substitute(prime_solver(quot), sets, g.n)
        rows.add(substituted.terms, substituted.tags, children_rows)
        picked = _greedy(quot, range(quot.n))
        chosen = reduce(or_, (mis[j] for j in iter_bits(picked)))
        return start, chosen, True

    md_fold(nodes, leaf, node)
    assert len(rows.terms) <= g.n
    return rows.system()


# ---------------------------------------------------------------------------
# claw-free base: generating subgraphs


def _generating_candidates(g: Graph) -> Iterable[tuple[str, int, int]]:
    """(kind, X, Y) vertex bitmasks of the induced complete bipartite
    subgraphs with sides of at most two vertices: each edge u-v (u < v) as
    ({u}, {v}), each induced P3 a-c-b as ({c}, {a, b}) by centre, then each
    induced C4 split into its diagonals, X the one with the lowest vertex.
    Every edge comes before any P3 or C4; ``clawfree_system`` relies on it.
    A C4's diagonal partner x2 of its lowest vertex x1 lies at distance two
    from x1 through a later vertex, so only those are tried.

    A P3 a-c-b is left out when a and b have a common neighbour d outside
    N[c], one mask test per pair: in a claw-free graph N(d) lies in
    N[a] + N[b], as a neighbour of d adjacent to neither a nor b would make
    a claw at d, so d is in D with no neighbour in R, the empty clique of
    ``_generating_cliques``, and the P3 is not generating. Only such P3s
    are left out; on the rook's graphs K_m x K_m that is every P3."""
    adj = g.adj
    for u, v in g.edges():
        yield "edge", 1 << u, 1 << v
    for c in range(g.n):
        for a in iter_bits(adj[c]):
            beyond = adj[a] & ~adj[c] & ~(1 << c)  # N(a) - N[c]
            for b in iter_bits(adj[c] & ~adj[a] & ~((2 << a) - 1)):
                if not adj[b] & beyond:
                    yield "p3", 1 << c, 1 << a | 1 << b
    full = g.full_mask
    for x1 in range(g.n):
        later = full & -(2 << x1)  # the vertices after x1
        common_to = adj[x1] & later
        partners = 0
        for y in iter_bits(common_to):
            partners |= adj[y]
        for x2 in iter_bits(partners & later & ~adj[x1]):
            common = common_to & adj[x2]
            for y1 in iter_bits(common):
                for y2 in iter_bits(common & ~adj[y1] & ~((2 << y1) - 1)):
                    yield "c4", 1 << x1 | 1 << x2, 1 << y1 | 1 << y2


def _generating_cliques(g: Graph, x: int, y: int) -> list[int] | None:
    """The cliques that an independent S must meet for both S + X and S + Y
    to be maximal, or None if one of them is empty; (X, Y) is generating
    iff this is not None and ``meets_all_cliques`` holds. X and Y have at
    most two vertices each.

    S must avoid N[X + Y], so it lies in R = V - N[X + Y], where it must be
    maximal, and it must dominate D = (N(X) ^ N(Y)) - (X + Y), which X + Y
    leaves undominated on one side. In a claw-free graph N(d) & R is a
    clique for every d in D, so the question is whether an independent set
    of G[R] meets all these cliques; any such set extends to a maximal one.
    A d with no neighbour in R can be dominated by no such S, so the list
    stops there. For a P3 a-c-b, D is N(a) + N(b) - N[c] - {a, b}, as N(c)
    lies in N[a] + N[b] by claw-freeness; a common neighbour of a and b in
    D is such a d, and ``_generating_candidates`` leaves those P3s out
    with one mask.
    """
    adj = g.adj
    nx = adj[x.bit_length() - 1] | adj[(x & -x).bit_length() - 1]
    ny = adj[y.bit_length() - 1] | adj[(y & -y).bit_length() - 1]
    xy = x | y
    rest = ~(nx | ny | xy)  # R: every row of adj lies within V
    cliques = []
    undominated = (nx ^ ny) & ~xy
    while undominated:  # iter_bits, inlined: most candidates stop early
        low = undominated & -undominated
        undominated ^= low
        clique = adj[low.bit_length() - 1] & rest
        if not clique:
            return None
        cliques.append(clique)
    return cliques


def _is_generating(g: Graph, x: int, y: int) -> bool:
    """Whether (X, Y) is generating in the claw-free ``g``: no clique of
    ``_generating_cliques`` is empty and an independent set meets them
    all."""
    cliques = _generating_cliques(g, x, y)
    return cliques is not None and meets_all_cliques(g, cliques)


def _is_strong(g: Graph, clique: int, base: int) -> bool:
    """Whether the maximal clique ``clique`` of ``g`` meets every maximal
    independent set of ``g``; ``base`` is a maximal independent set of g.

    One avoids C iff an independent set outside C dominates C, as such a
    set extends to a maximal independent set of g - C and so of g. First
    ``base`` less its vertex s in C, if any, is made maximal in g - C
    again by a greedy pass over N(s), the only vertices it may have left
    undominated; if that set dominates C, C is not strong. Otherwise
    ``meets_all_cliques`` decides on the sets N(w) - C, one per w in C, a
    test that is sound on any family of sets."""
    adj = g.adj
    outside = base & ~clique
    if s := base & clique:  # one vertex at most: base is independent
        for v in iter_bits(adj[s.bit_length() - 1] & ~clique):
            if not adj[v] & outside:
                outside |= 1 << v
    members = list(iter_bits(clique))
    if all(adj[w] & outside for w in members):
        return False
    return not meets_all_cliques(g, [adj[w] & ~clique for w in members])


def _strong_cliques(g: Graph) -> list[int]:
    """Strong cliques of ``g`` (cliques that meet every maximal independent
    set) with linearly independent indicator vectors.

    Maximal cliques are grown greedily, from each vertex v and the lowest
    vertex u of N[v] that no clique grown so far shares with v, until every
    N[v] is covered; each is new, as no earlier clique holds both v and u.
    A clique whose indicator is in the span of those kept is not tested;
    the others are tested once by ``_is_strong``, and a strong one is kept
    in its own echelon of the one kernel."""
    adj = g.adj
    base = _greedy(g, range(g.n))
    covered = [0] * g.n  # per vertex, the union of the cliques grown on it
    echelon: dict[int, dict[int, int]] = {}
    strong = []
    for v in range(g.n):
        closed = adj[v] | 1 << v
        while left := closed & ~covered[v]:
            u = (left & -left).bit_length() - 1
            clique, grow = 0, closed & (adj[u] | 1 << u)
            while grow:
                low = grow & -grow
                clique |= low
                grow &= adj[low.bit_length() - 1]
            members = list(iter_bits(clique))
            for w in members:
                covered[w] |= clique
            residual = _reduce(echelon, dict.fromkeys(members, 1))
            if residual is not None and _is_strong(g, clique, base):
                _store(echelon, residual)
                strong.append(clique)
    return strong


def clawfree_system(g: Graph) -> LinearSystem:
    """Unit, linearly independent well-covering system of a claw-free graph.

    Levit and Tankus (Weighted well-covered claw-free graphs, Discrete Math.
    338, 2015): the well-covered weightings of a claw-free graph are those
    with w(X) = w(Y) for every generating subgraph (X, Y), and each such
    subgraph is an edge, an induced P3 or an induced C4. The candidates are
    taken in a fixed order, less the P3s that ``_generating_candidates``
    refutes by one neighbourhood mask: the ends' common neighbour outside
    the centre's closed neighbourhood has, by claw-freeness, no neighbour
    in R. A candidate row w(X) - w(Y) already in the span of the rows
    accepted so far is skipped before its cliques are listed, so at most n
    rows are accepted and they are independent. The rest are skipped at
    an empty clique (a vertex of D with no neighbour in R; see
    ``_generating_cliques``) or searched, and a row is stored only once its
    candidate is accepted.

    Every edge comes first, and while they are tested the accepted rows
    are edge equalities w(u) = w(v): an edge row is in their span iff u
    and v are already in one class of a union-find. The edge rows span the
    kernel of the map that sums a row's coefficients per class, so a P3
    or C4 row is in the span of all accepted rows iff its class sums are
    in the span of the accepted P3 and C4 rows' class sums. Those sums go
    to the sparse kernel (``linalg._reduce``), one column per class, and
    the rank is the merges plus the stored rows.

    Once 2n candidates in a row since the last accepted one have been
    refused, by the span test or the generating test, a certificate is
    drawn once: ``_strong_cliques``, whose indicators are well-covered
    weightings, as a strong clique meets every maximal independent set
    exactly once. Let d be their rank. Then, with the rows and their order
    unchanged:

    1. A generating (X, Y) has w(X) = w(Y) for every well-covered w, so a
       candidate whose sides some strong clique meets in different numbers
       of vertices is skipped with no test, read off a bitmask of the
       strong cliques that hold each vertex (X and Y are independent).
    2. The accepted rows are generating, so the indicators lie in their
       null space, and the rank of all generating rows is at most n - d.
    3. At rank n - d that null space is the span of the indicators, which
       every later generating row is orthogonal to: each is in the span of
       the accepted rows and would be refused, so the loop stops there.

    The result is meaningless on a graph with a claw; callers test
    ``is_claw_free`` first.
    """
    n = g.n
    parent = list(range(n))  # union-find over the accepted edges

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    merges = 0
    echelon: dict[int, dict[int, int]] = {}
    rows: list[Row] = []
    tags: list[str] = []
    full_rank = n  # n - d once the certificate is drawn
    refused = 0  # candidates refused since the last accepted one
    # per vertex, the strong cliques that hold it; [] if there are none
    holds: list[int] | None = None
    for kind, x, y in _generating_candidates(g):
        if merges + len(echelon) == full_rank:
            break
        if holds and (
            holds[x.bit_length() - 1] | holds[(x & -x).bit_length() - 1]
            != holds[y.bit_length() - 1] | holds[(y & -y).bit_length() - 1]
        ):
            continue
        if kind == "edge":
            u, v = find(x.bit_length() - 1), find(y.bit_length() - 1)
            accepted = u != v and _is_generating(g, x, y)
            if accepted:
                parent[max(u, v)] = min(u, v)
                merges += 1
        else:
            sums: dict[int, int] = {}
            for side, sign in ((x, 1), (y, -1)):
                for v in iter_bits(side):
                    r = find(v)
                    sums[r] = sums.get(r, 0) + sign
            residual = _reduce(echelon, {c: k for c, k in sums.items() if k})
            accepted = residual is not None and _is_generating(g, x, y)
            if accepted:
                _store(echelon, residual)
        if not accepted:
            refused += 1
            if refused == 2 * n and holds is None:
                strong = _strong_cliques(g)
                holds = [0] * n if strong else []
                for i, clique in enumerate(strong):
                    for v in iter_bits(clique):
                        holds[v] |= 1 << i
                full_rank = n - len(strong)
            continue
        refused = 0
        rows.append(_diff_row(x, y))
        tags.append(f"generating {kind}")
    return _trusted_system(n, tuple(rows), tuple(tags))


# ---------------------------------------------------------------------------
# anti-neighborhood reduction


def _anti_neighborhoods(
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
    rows = _Rows(q.n)
    anchored: list[int] = []  # bitmasks of the sets I_j + {v_j}
    for j in range(q.n):
        keep = q.full_mask & ~q.adj[j] & ~(1 << j)
        if len(rows.terms) < q.n or _moon_moser(keep.bit_count()) > cap:
            sub = _fold_system(q, _md_nodes(q, keep), prime_solver)
            rows.add(sub.terms, sub.tags)
        anchored.append(_greedy(q, iter_bits(keep)) | 1 << j)
    rows.add(*_chain(anchored, "anti-eq j"))
    return rows.system()


# ---------------------------------------------------------------------------
# the route


def _refuse(q: Graph) -> LinearSystem:
    """The prime solver of ``cograph``: a prime node has an induced P4."""
    raise StrategyError(
        "graph has an induced 4-vertex path; the cograph "
        "strategy does not apply (use modular or forkfree)"
    )


def _query_prime_solver(
    cap: int, fork_free: bool
) -> Callable[[Graph], LinearSystem]:
    """The prime solver of the query fold, chosen per prime quotient Q:
    ``clawfree_system`` if Q is claw-free; else, if Q is fork-free, the
    anti-neighborhood reduction, whose subproblems fold with this same
    solver and have claw-free prime quotients; else the capped brute force
    on Q, streamed by ``_mis_span``. Every branch is sound on any Q; the
    claw and fork tests only pick the cheapest one. ``fork_free`` says the
    graph is known to be fork-free, and so is every induced subgraph of
    it: Q is then not scanned for forks. Every branch returns independent
    rows."""

    def solve(q: Graph) -> LinearSystem:
        if is_claw_free(q):
            return clawfree_system(q)
        # a prime graph has an induced P4, so no P4 test first
        if fork_free or not _finds_fork(q):
            return _anti_neighborhoods(q, solve, cap)
        return _mis_span(q, cap)

    return solve


def _route(g: Graph, cfg: SolverConfig, caller: str) -> LinearSystem | None:
    """The system that ``caller``, one of "system", "query" and "witness",
    folds under ``cfg``, or None where it enumerates the whole graph.

    ``bruteforce`` is None at once. Every other strategy decomposes ``g``
    once. ``cograph`` folds with ``_refuse`` at prime quotients. Then
    ``forkfree``, and ``auto`` for a caller that is not a query, read the
    fork flag, unless the tree has no prime node and so is P4-free: on a
    fork ``forkfree`` raises StrategyError and ``auto`` is None. Otherwise
    ``system`` folds with ``_reduced_chain`` at prime quotients, under
    ``modular``, or with the anti-neighborhood reduction over it; the other
    callers fold with ``_query_prime_solver``, told that a graph whose flag
    was read is fork-free, so that it scans for forks once.
    """
    strategy, cap = cfg.strategy, cfg.mis_cap
    if strategy == "bruteforce":
        return None
    nodes = _md_nodes(g)
    if strategy == "cograph":
        system = _fold_system(g, nodes, _refuse)
        assert len(system) <= max(g.n - 1, 0)
        return system
    flags = strategy == "forkfree" or (strategy == "auto" and caller != "query")
    if (
        flags
        and any(kind == PRIME for kind, _, _ in nodes)
        and not _tree_flags(g, nodes)["fork_free"]
    ):
        if strategy == "auto":
            return None
        raise StrategyError(
            "graph contains an induced fork; the fork-free strategy does not apply"
        )
    if caller != "system":
        return _fold_system(g, nodes, _query_prime_solver(cap, flags))
    base = partial(_reduced_chain, cap=cap)
    if strategy == "modular":
        return _fold_system(g, nodes, base)
    return _fold_system(g, nodes, lambda q: _anti_neighborhoods(q, base, cap))


def well_covering_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """Build a well-covering system along the route ``cfg`` names (see
    ``_route``); where the route enumerates the whole graph, the chain of
    ``bruteforce_system``. Every other route is a unit, linearly
    independent system of at most n equations."""
    cfg = cfg or SolverConfig()
    system = _route(g, cfg, "system")
    return bruteforce_system(g, cfg.mis_cap) if system is None else system


def modular_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """``well_covering_system`` under ``modular``, capped at ``cfg.mis_cap``:
    the fold of the modular decomposition tree with the reduced brute force
    at each prime quotient."""
    cap = (cfg or SolverConfig()).mis_cap
    return well_covering_system(g, SolverConfig("modular", cap))


def cograph_system(g: Graph) -> LinearSystem:
    """``well_covering_system`` under ``cograph``: on a graph with no induced
    4-vertex path at most n - 1 equations, with no elimination; elsewhere
    StrategyError at the first prime node."""
    return well_covering_system(g, SolverConfig("cograph"))


def forkfree_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """``well_covering_system`` under ``forkfree``, capped at ``cfg.mis_cap``:
    the fold with the anti-neighborhood reduction at each prime quotient,
    whose subproblems have claw-free prime quotients and the reduced brute
    force at those. Raises StrategyError when ``g`` has an induced fork."""
    cap = (cfg or SolverConfig()).mis_cap
    return well_covering_system(g, SolverConfig("forkfree", cap))


def _query_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """An independent well-covering system for a query whose answer the
    solution space fixes (see ``_route``); where the route enumerates the
    whole graph, ``_reduced_chain``: the rows of the chain that
    ``extract_independent_subsystem`` keeps, each offered to the row store
    as it is built."""
    cfg = cfg or SolverConfig()
    system = _route(g, cfg, "query")
    return _reduced_chain(g, cfg.mis_cap) if system is None else system


def well_covered_dimension(g: Graph, cfg: SolverConfig | None = None) -> int:
    """Dimension of the space of weightings equalizing all maximal
    independent sets: n minus the rank of any well-covering system, here
    the row count of the query route's independent one."""
    return g.n - len(_query_system(g, cfg))


def well_covered_basis(g: Graph, cfg: SolverConfig | None = None) -> Basis:
    """The canonical basis (``null_space_basis``) of the well-covered
    weightings, from the query route's independent system: n rows of it
    leave only zero, with no elimination."""
    system = _query_system(g, cfg)
    return Basis(()) if len(system) == g.n else null_space_basis(system)


def _enumerated_witness(g: Graph, cap: int) -> tuple[bool, tuple | None]:
    """Well-coveredness by enumeration, and when it fails the first
    smallest and the last largest maximal independent set in canonical
    order, read off the bitmasks as they come. Of two maximal independent
    sets neither holds the other, so the one that holds the lowest vertex
    where they differ comes first: b before a iff ``b & d & -d``, with
    ``d = a ^ b``. Its cap error has no suffix, as it builds no system."""
    masks = _mis_masks(g, cap)
    small = large = next(masks)  # every graph has one, and cap >= 1
    small_size = large_size = small.bit_count()
    for m in masks:
        size = m.bit_count()
        if size < small_size or (
            size == small_size and m & (d := small ^ m) & -d
        ):
            small, small_size = m, size
        if size > large_size or (
            size == large_size and not m & (d := large ^ m) & -d
        ):
            large, large_size = m, size
    covered = small_size == large_size
    small, large = frozenset(iter_bits(small)), frozenset(iter_bits(large))
    return covered, None if covered else (small, large)


def well_covered_witness(
    g: Graph, cfg: SolverConfig | None = None
) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Whether ``g`` is well-covered, with the first smallest and the last
    largest maximal independent set in canonical order as the witness where
    the route (see ``_route``) enumerates the whole graph: under
    ``bruteforce``, and under ``auto`` on a graph with a fork."""
    cfg = cfg or SolverConfig()
    system = _route(g, cfg, "witness")
    if system is None:
        return _enumerated_witness(g, cfg.mis_cap)
    return evaluate(system, (1,) * g.n), None


def is_well_covered(g: Graph, cfg: SolverConfig | None = None) -> bool:
    """True iff all maximal independent sets have the same cardinality,
    tested by evaluating the all-ones weighting on the query route's
    well-covering system."""
    return evaluate(_query_system(g, cfg), (1,) * g.n)


def is_w_well_covered(
    g: Graph,
    w: WeightVector | Sequence[Coeff],
    cfg: SolverConfig | None = None,
) -> bool:
    """True iff all maximal independent sets have equal weight under ``w``,
    tested on the query route's well-covering system."""
    return evaluate(_query_system(g, cfg), w)
