"""Construction of well-covering systems.

A well-covering system of a graph is a homogeneous linear system, with one
variable per vertex, whose solution set is exactly the space of vertex
weightings under which all maximal independent sets have the same total
weight. This module builds such systems along several routes:

* ``bruteforce_system``: enumerate all maximal independent sets and chain
  consecutive weight-difference equations. Always sound; exponential in the
  worst case, so it is capped.
* ``modular_system``: walk the modular decomposition tree bottom-up. A
  disconnected graph takes the union of its components' systems; a join
  takes the union of the co-components' systems plus chained equations
  between one maximal independent set per co-component; a prime quotient is
  solved by the capped brute force, whose equations are reduced and
  re-expanded by substituting, for each quotient vertex, the sum over a
  maximal independent set of the corresponding module (``_substitute``,
  the one lift). Row reduction after every prime step whose children have
  rows, and after every join with a prime node below it, keeps the system
  at most n equations. A join with no prime node below needs none: every
  node of a cotree has a well-covered weighting that gives its chosen set
  a nonzero weight, so the chained equations are independent of the
  co-components' rows. The fold (``_fold_system``), which every route
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
  equations relating the sets I_v + {v}, reduced as they are produced.
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
  degree.
* ``forkfree_system``: for graphs with no induced fork. Prime quotients are
  solved through the anti-neighborhood reduction, whose subproblems have
  claw-free prime quotients and bottom out at the capped brute force.

Under ``auto`` and ``forkfree``, ``well_covering_system`` (the ``system``
verb) decomposes the graph once and decides forks before solving: a tree
with no prime node is P4-free, hence fork-free, and is folded at once;
otherwise ``modular._tree_flags`` reads the fork flag off the same tree,
scanning no whole graph. A fork-free graph is folded; on a fork ``auto``
takes the capped brute force and ``forkfree`` raises StrategyError, with
no prime quotient solved. The rows keep their bytes.

Queries whose answer the solution space fixes (dimension, basis,
w-well-coveredness) need any well-covering system, so under ``auto`` and
``modular`` they fold the decomposition tree once and pick a solver at each
prime quotient Q: ``clawfree_system`` if Q is claw-free, else the
anti-neighborhood reduction if Q is fork-free, else the capped brute force
on Q, streamed (``_mis_span``). No recognizer runs on the whole graph,
and a fork somewhere in it costs an enumeration of the quotients that
hold a fork, not of the graph. ``forkfree`` reads the fork flag first,
as ``system`` does, and then scans no quotient for forks again, as
every induced subgraph of a fork-free graph is fork-free. So does
``well_covered_witness`` (the ``is-well-covered`` verb) under ``auto``,
which enumerates a graph with a fork to name a witness. Either way a
call scans for forks once: in the flags fold or in the query fold.

The streamed brute force builds no sorted list of sets and at most |Q|
rows: a difference of consecutive sets is kept when it is new mod 2, and
the rest are tested against the null space of the kept rows once the
enumeration ends. The fold reduces no prime solver's rows: the claw-free
base and the span are independent by construction, and the
anti-neighborhood reduction and the brute-force chain of ``system``
reduce their own.

The span and the anti-neighborhood reduction stop at full rank, |Q| rows
kept, except for work that could pass the MIS cap: no graph on m
vertices has more than ``_moon_moser(m)`` maximal independent sets
(Moon and Moser 1965), so only where that bound passes the cap does the
span count on, or the reduction solve a remaining Q - N[v]. Exceptions
are those of the eager construction, and so are rows and tags but for
the span's probe.

Where the span may stop so, and is short of rank |Q| after 2|Q| sets,
it probes first: differences of greedy maximal independent sets in
seeded random vertex orders, offered to a copy of its GF(2) echelon,
often reach rank |Q| where consecutive enumerated sets, which are alike,
take hundreds more (seven of the eight G(34, 0.3) quotients of the
bench's ``desk-mixed`` workload, seed 0: ``dimension`` 21 -> 11 ms in
all by library call). Those rows are then returned; if the probe falls
short, the enumeration goes on with the rows it had, at about 0.7 ms of
lost work on such a quotient.

All constructions preserve unit coefficients (-1, 0, 1) when their inputs
are unit, and every produced system is a well-covering system of its graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .graph import (
    Graph,
    _finds_fork,
    induced_subgraph,
    is_claw_free,
    iter_bits,
)
from .independent_sets import (
    DEFAULT_MIS_CAP,
    CapExceededError,
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
    _diff_row,
    _insert,
    _reduce,
    _store,
    _trusted_system,
    empty_system,
    evaluate,
    extract_independent_subsystem,
    null_space_basis,
    rank,
)
from .modular import PARALLEL, PRIME, SERIES, _md_nodes, _tree_flags, md_fold

STRATEGIES = ("auto", "bruteforce", "cograph", "modular", "forkfree")


class StrategyError(RuntimeError):
    """Raised when a solving strategy's preconditions do not hold."""


# raised under ``forkfree`` on a graph with an induced fork
_FORK_FOUND = (
    "graph contains an induced fork; the fork-free strategy does not apply"
)


@dataclass
class SolverConfig:
    """A strategy, one of ``STRATEGIES``, and the cap on the maximal
    independent sets that one enumeration may list."""

    strategy: str = "auto"
    mis_cap: int = DEFAULT_MIS_CAP

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not isinstance(self.mis_cap, int) or isinstance(self.mis_cap, bool):
            raise TypeError(f"mis_cap must be an int, got {self.mis_cap!r}")
        if self.mis_cap < 1:
            raise ValueError("mis_cap must be >= 1")


def bruteforce_system(g: Graph, cap: int = DEFAULT_MIS_CAP) -> LinearSystem:
    """Chain equations between consecutive maximal independent sets.

    Enumerates all maximal independent sets in canonical order and emits the
    k-1 consecutive weight-difference equations. Raises CapExceededError
    when the enumeration does not finish under ``cap``. Canonical order is
    lexicographic by sorted members: of two sets, the one holding the lowest
    vertex where they differ comes first, so the bit-reversed masks descend.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    masks = []
    for i, m in enumerate(_mis_masks(g)):
        if i == cap:
            raise CapExceededError(
                f"maximal independent set cap {cap} exceeded; "
                f"brute-force system unavailable"
            )
        masks.append(m)
    masks.sort(key=lambda m: format(m, f"0{g.n}b")[::-1], reverse=True)
    rows = tuple(map(_diff_row, masks, masks[1:]))
    tags = tuple(f"mis-diff i={i}" for i in range(1, len(masks)))
    return _trusted_system(g.n, rows, tags)


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


def _probe(
    g: Graph, images: dict[int, int], pivots: int
) -> list[tuple[int, int, int]] | None:
    """Triples (j, m, m'), m and m' the sets j - 1 and j of
    ``_probe_masks(g, 2n)``, whose rows m - m' complete the GF(2) echelon
    ``images`` to rank n, or None if they do not; ``images`` is left as
    it is."""
    images = dict(images)
    found = []
    prev = None
    for j, m in enumerate(_probe_masks(g, 2 * g.n)):
        if prev is not None:
            grown = _gf2_insert(images, pivots, prev ^ m)
            if grown != pivots:
                pivots = grown
                found.append((j, prev, m))
                if len(images) == g.n:
                    return found
        prev = m
    return None


def _mis_span(g: Graph, cap: int = DEFAULT_MIS_CAP) -> LinearSystem:
    """Independent rows spanning those of ``bruteforce_system(g, cap)``,
    read off the enumeration as it runs; raises CapExceededError as it does.

    Consecutive sets m, m' give the row m - m', and such rows span the
    differences of all pairs in any enumeration order. A row whose image
    mod 2, m ^ m', is new over GF(2) is new over Q, as a rational relation
    scaled to coprime integers holds mod 2: it is kept with no rational
    work, until n rows are; the enumeration then ends unless it could pass
    the cap. The others wait as mask pairs, and after the enumeration
    each is kept iff it is not orthogonal to the null space of the rows
    kept so far. Only kept rows are built.

    Where the enumeration may end at rank n and has drawn 2n sets short
    of it, ``_probe`` offers differences of greedy maximal independent
    sets to a copy of the GF(2) echelon; if they reach rank n, the kept
    rows and theirs are returned: n independent differences of maximal
    independent sets span all n-vectors, the chain's rows among them.
    Otherwise the enumeration goes on as if there had been no probe.
    """
    n = g.n
    may_pass_cap = _moon_moser(n) > cap
    probe_at = -1 if may_pass_cap else 2 * n
    kept: list[tuple[str, int, int]] = []  # (tag, m, m') for the row m - m'
    waiting: list[tuple[int, int, int]] = []  # (i, m, m')
    images: dict[int, int] = {}
    pivots = 0
    prev = None
    for i, m in enumerate(_mis_masks(g)):
        if i == cap:
            raise CapExceededError(
                f"maximal independent set cap {cap} exceeded; "
                f"brute-force system unavailable"
            )
        if i == probe_at and len(kept) < n:
            probed = _probe(g, images, pivots)
            if probed is not None:
                kept += ((f"mis-probe j={j}", a, b) for j, a, b in probed)
                break
        if prev is not None and len(kept) < n:
            grown = _gf2_insert(images, pivots, prev ^ m)
            if grown != pivots:
                pivots = grown
                kept.append((f"mis-diff i={i}", prev, m))
                if len(kept) == n and not may_pass_cap:
                    break
            else:
                waiting.append((i, prev, m))
        prev = m
    rows = [_diff_row(a, b) for _, a, b in kept]
    null = _null_vectors(n, rows) if waiting and len(rows) < n else []
    for i, a, b in waiting:
        if not null:
            break
        plus, minus = list(iter_bits(a & ~b)), list(iter_bits(b & ~a))
        if any(sum(map(v.__getitem__, plus)) != sum(map(v.__getitem__, minus))
               for v in null):
            kept.append((f"mis-diff i={i}", a, b))
            rows.append(_diff_row(a, b))
            null = _null_vectors(n, rows)
    return _trusted_system(n, tuple(rows), tuple(tag for tag, _, _ in kept))


def _null_vectors(n: int, rows: list[Row]) -> list[tuple[Coeff, ...]]:
    """A basis of the null space of ``rows``."""
    s = _trusted_system(n, tuple(rows), ("",) * len(rows))
    return [v.values for v in null_space_basis(s).vectors]


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


def modular_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """Bottom-up system construction over the modular decomposition tree.

    Produces a unit, linearly independent well-covering system with at most
    n equations. Each prime quotient is solved by the brute force capped at
    ``cfg.mis_cap``, whose rows are reduced on the quotient, and again
    together with the children's rows when there are any; rows are also
    reduced after series aggregation above a prime node. Elsewhere they are
    independent by construction.
    """
    cap = (cfg or SolverConfig()).mis_cap
    return _fold_system(g, _md_nodes(g), _reduced(partial(bruteforce_system, cap=cap)))


def _reduced(
    solver: Callable[[Graph], LinearSystem]
) -> Callable[[Graph], LinearSystem]:
    """``solver`` with its rows reduced to an independent subset."""
    return lambda q: extract_independent_subsystem(solver(q))


def _fold_system(
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


# ---------------------------------------------------------------------------
# cograph fast path


def cograph_system(g: Graph) -> LinearSystem:
    """Elimination-free system for graphs with no induced 4-vertex path.

    The modular walk with a prime solver that refuses: with only parallel
    and series nodes no row is reduced, and there are at most n - 1
    equations. Raises StrategyError at the first prime node on any other
    graph; use the modular or fork-free strategy there.
    """

    def refuse(q: Graph) -> LinearSystem:
        raise StrategyError(
            "graph has an induced 4-vertex path; the cograph "
            "strategy does not apply (use modular or forkfree)"
        )

    system = _fold_system(g, _md_nodes(g), refuse)
    assert len(system) <= max(g.n - 1, 0)
    return system


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
    the rank is the merges plus the stored rows. The result is meaningless
    on a graph with a claw; callers test ``is_claw_free`` first.
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
    for kind, x, y in _generating_candidates(g):
        if merges + len(echelon) == n:
            break
        if kind == "edge":
            u, v = find(x.bit_length() - 1), find(y.bit_length() - 1)
            if u == v or not _is_generating(g, x, y):
                continue
            parent[max(u, v)] = min(u, v)
            merges += 1
        else:
            sums: dict[int, int] = {}
            for side, sign in ((x, 1), (y, -1)):
                for v in iter_bits(side):
                    r = find(v)
                    sums[r] = sums.get(r, 0) + sign
            residual = _reduce(echelon, {c: k for c, k in sums.items() if k})
            if residual is None or not _is_generating(g, x, y):
                continue
            _store(echelon, residual)
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
            sub = _fold_system(q, _md_nodes(q, keep), prime_solver)
            offer(sub.terms, sub.tags)
        anchored.append(_greedy(q, iter_bits(keep)) | 1 << j)
    offer(
        map(_diff_row, anchored, anchored[1:]),
        (f"anti-eq j={j}" for j in range(1, q.n)),
    )
    return _trusted_system(q.n, tuple(rows), tuple(tags))


# ---------------------------------------------------------------------------
# fork-free pipeline


def forkfree_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """Unit, linearly independent well-covering system for fork-free graphs.

    The modular walk hands each prime quotient to the anti-neighborhood
    reduction. Deleting a closed neighborhood in a prime fork-free graph
    leaves a graph all of whose prime quotients are claw-free, so those
    subproblems run the modular walk again with the capped brute force at
    the bottom. Row reduction after every aggregation keeps the final size
    at most n. Raises StrategyError when ``g`` has an induced fork.
    """
    cap = (cfg or SolverConfig()).mis_cap
    return well_covering_system(g, SolverConfig("forkfree", cap))


# ---------------------------------------------------------------------------
# strategy dispatch and derived queries


def _fork_free(g: Graph, nodes: list[tuple]) -> bool:
    """Whether ``g`` has no induced fork, read off its decomposition
    ``nodes``; a tree with no prime node is P4-free and needs no scan."""
    prime = any(kind == PRIME for kind, _, _ in nodes)
    return not prime or _tree_flags(g, nodes)["fork_free"]


def well_covering_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """Build a well-covering system along the route ``cfg`` names.
    ``auto`` and ``forkfree`` fold a fork-free graph with the
    anti-neighborhood reduction at prime quotients; on a fork, found before
    any solving, ``auto`` takes the brute force and ``forkfree`` raises."""
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return bruteforce_system(g, cfg.mis_cap)
    if cfg.strategy == "cograph":
        return cograph_system(g)
    if cfg.strategy == "modular":
        return modular_system(g, cfg)
    nodes = _md_nodes(g)
    if _fork_free(g, nodes):
        base = _reduced(partial(bruteforce_system, cap=cfg.mis_cap))
        return _fold_system(
            g, nodes, lambda q: _anti_neighborhoods(q, base, cfg.mis_cap)
        )
    if cfg.strategy == "forkfree":
        raise StrategyError(_FORK_FOUND)
    return bruteforce_system(g, cfg.mis_cap)


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


def _query_system(g: Graph, cfg: SolverConfig | None = None) -> LinearSystem:
    """A well-covering system for a query whose answer the solution space
    fixes; its rows need not be those of ``well_covering_system``.

    ``auto`` and ``modular`` fold the decomposition tree with
    ``_query_prime_solver``, so no recognizer runs on the whole graph.
    ``forkfree`` first reads the fork flag off the same tree, refuses a
    graph with a fork, and scans no quotient for forks again. ``cograph``
    and ``bruteforce`` build their own systems. Every system but the
    brute-force chain is independent by construction.
    """
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return bruteforce_system(g, cfg.mis_cap)
    if cfg.strategy == "cograph":
        return cograph_system(g)
    nodes = _md_nodes(g)
    fork_free = cfg.strategy == "forkfree"
    if fork_free and not _fork_free(g, nodes):
        raise StrategyError(_FORK_FOUND)
    return _fold_system(g, nodes, _query_prime_solver(cfg.mis_cap, fork_free))


def well_covered_dimension(g: Graph, cfg: SolverConfig | None = None) -> int:
    """Dimension of the space of weightings equalizing all maximal
    independent sets: n minus the rank of any well-covering system.

    Only the brute-force chain is ranked: every other system the query
    route builds is independent, so its row count is its rank.
    """
    cfg = cfg or SolverConfig()
    system = _query_system(g, cfg)
    return g.n - (rank(system) if cfg.strategy == "bruteforce" else len(system))


def well_covered_basis(g: Graph, cfg: SolverConfig | None = None) -> Basis:
    """The canonical basis (``null_space_basis``) of the well-covered
    weightings, from the query route's system. As in
    ``well_covered_dimension``, every system but the brute-force chain is
    independent, so n rows of one leave only zero, with no elimination."""
    cfg = cfg or SolverConfig()
    system = _query_system(g, cfg)
    if cfg.strategy != "bruteforce" and len(system) == g.n:
        return Basis(())
    return null_space_basis(system)


def _enumerated_witness(g: Graph, cap: int) -> tuple[bool, tuple | None]:
    """Well-coveredness by enumeration, and when it fails the first
    smallest and the last largest maximal independent set in canonical
    order, read off the bitmasks as they come. Of two maximal independent
    sets neither holds the other, so the one that holds the lowest vertex
    where they differ comes first: b before a iff ``b & d & -d``, with
    ``d = a ^ b``."""
    masks = _mis_masks(g)
    small = large = next(masks)  # every graph has one, and cap >= 1
    small_size = large_size = small.bit_count()
    for i, m in enumerate(masks, start=1):
        if i == cap:
            raise CapExceededError(f"maximal independent set cap {cap} exceeded")
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
    enumeration answers no. ``bruteforce`` enumerates; ``auto`` reads the
    fork flag off one decomposition and enumerates a graph with a fork,
    else folds it as ``forkfree`` does; every other strategy answers as
    ``is_well_covered`` does."""
    cfg = cfg or SolverConfig()
    if cfg.strategy == "bruteforce":
        return _enumerated_witness(g, cfg.mis_cap)
    if cfg.strategy != "auto":
        return is_well_covered(g, cfg), None
    nodes = _md_nodes(g)
    if not _fork_free(g, nodes):
        return _enumerated_witness(g, cfg.mis_cap)
    system = _fold_system(g, nodes, _query_prime_solver(cfg.mis_cap, True))
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
