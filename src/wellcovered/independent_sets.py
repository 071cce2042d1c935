"""Maximal independent sets: greedy construction and exact enumeration.

Enumeration works by listing maximal cliques of the complement with a
pivoting branch-and-bound. It is one stream of bitmasks, read by every
brute-force consumer, and it counts the sets it yields against a cap, so
that graphs with exponentially many maximal independent sets cannot blow
up silently.
``meets_all_cliques`` asks whether one independent set can meet each of a
family of cliques; it is the test behind the claw-free base of ``systems``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from operator import or_

from .graph import Graph, iter_bits

DEFAULT_MIS_CAP = 1_000_000


class CapExceededError(RuntimeError):
    """Raised when an enumeration or decision exceeds the configured cap."""


def _greedy(g: Graph, order: Iterable[int]) -> int:
    """Scan the vertices in ``order`` and keep each one with no kept
    neighbor: the bitmask of a maximal independent set of g[order]."""
    chosen = 0
    for v in order:
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    return chosen


def greedy_mis(g: Graph, order: Iterable[int]) -> frozenset[int]:
    """Scan vertices in ``order`` and keep each one with no kept neighbor.

    ``order`` must be a permutation of the vertices; it is read once, so an
    iterator or a generator serves as well as a list. The result is a
    maximal independent set.
    """
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    return frozenset(iter_bits(_greedy(g, order)))


def _check_cap(cap: int, name: str) -> None:
    """Raise TypeError unless ``cap`` is an int and not a bool, and
    ValueError if it is below 1: a float cap would never equal a count."""
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise TypeError(f"{name} must be an int, got {cap!r}")
    if cap < 1:
        raise ValueError(f"{name} must be >= 1")


def _mis_masks(
    g: Graph, cap: int = DEFAULT_MIS_CAP, suffix: str = ""
) -> Iterator[int]:
    """Every maximal independent set of ``g`` as a bitmask, depth first:
    the one enumeration, which the brute forces of ``systems`` read as it
    runs. It counts what it yields and raises CapExceededError, its
    message ending in ``suffix``, in place of set cap + 1; ``cap`` is
    checked at the call."""
    _check_cap(cap, "cap")
    if g.n == 0:
        return iter((0,))
    full = g.full_mask
    nonadj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]

    # Tomita-style pivoting on the complement: maximal independent sets of g
    # are exactly the maximal cliques of its complement. A frame is
    # [r, p, x, branches left]; branches run in increasing vertex order,
    # each child's p and x taken before its vertex moves from p to x. A
    # child with p empty and x not holds no set and gets no frame.
    def frame(r: int, p: int, x: int) -> list[int]:
        best = -1
        rest = p | x
        while rest:  # iter_bits, inlined: this loop is the enumeration's cost
            low = rest & -rest
            rest ^= low
            out = nonadj[low.bit_length() - 1]
            size = (p & out).bit_count()
            if size > best:
                best = size
                pivot_out = out
        return [r, p, x, p & ~pivot_out]

    def sets() -> Iterator[int]:
        found = 0
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
            if p & outside:
                stack.append(frame(r | bit, p & outside, x & outside))
            elif not x & outside:
                if found == cap:
                    raise CapExceededError(
                        f"maximal independent set cap {cap} exceeded{suffix}"
                    )
                found += 1
                yield r | bit

    return sets()


def _cover_refutes(g: Graph, sets: list[int]) -> bool:
    """Whether fewer cliques of ``g`` than a greedy packing of ``sets``
    has members cover the packing's union; see ``meets_all_cliques``."""
    packed: list[int] = []
    union = 0
    for s in sorted(sets, key=int.bit_count):
        if not s & union:
            packed.append(s)
            union |= s
    uncovered = union
    for _ in range(len(packed) - 1):  # cover cliques the bound may use
        low = uncovered & -uncovered
        own = next(s for s in packed if s & low)
        clique, grow = low, union & ~own
        while True:
            grow &= g.adj[low.bit_length() - 1]
            if not grow:
                break
            low = grow & -grow
            clique |= low
        uncovered &= ~clique
        if not uncovered:
            return True
    return False


def meets_all_cliques(g: Graph, cliques: Sequence[int]) -> bool:
    """True iff some independent set of ``g`` meets every clique in
    ``cliques``, a list of vertex bitmasks. An empty clique is never met.
    Every step below is sound on sets that are not cliques, such as the
    sets N(w) - C of ``systems._is_strong``.

    First a packing-versus-cover bound, which refutes pigeonhole instances
    (the rows of K_r x K_(r-1), say) without a search. Pack pairwise
    disjoint sets of ``cliques`` greedily, smallest first: a packing P with
    union U. An independent set meeting all of P holds |P| distinct vertices
    of U, one in each packed set. Then cover U greedily with cliques of
    ``g``, each grown from the lowest uncovered vertex through common
    neighbours outside that vertex's packed set (on K_r x K_(r-1) these are
    the columns). An independent set holds at most one vertex of each cover
    clique, so if fewer than |P| of them cover U, no independent set meets
    all of ``cliques``. The bound is sound for any family of sets, cliques
    or not. Then the lowest vertex of each clique: if these are
    independent, they meet every clique (on a long path, every edge's).

    Otherwise depth-first: branch on the unmet clique with the fewest
    available vertices, where choosing a vertex makes its closed
    neighbourhood unavailable. A state is the available vertices that lie
    in some unmet clique, with the set of unmet cliques; failed states are
    remembered, so that instances the bound misses are refuted once per
    state, not once per order of choices.
    """
    cliques = list(dict.fromkeys(cliques))
    if not cliques:
        return True
    if not all(cliques):
        return False
    if _cover_refutes(g, cliques):
        return False
    # the lowest vertices of the cliques, if independent, meet them all
    lows = reduce(or_, [c & -c for c in cliques])
    if not any(g.adj[v] & lows for v in iter_bits(lows)):
        return True
    hit: dict[int, int] = {}  # vertex -> bitmask of the cliques holding it
    for i, c in enumerate(cliques):
        for v in iter_bits(c):
            hit[v] = hit.get(v, 0) | 1 << i
    failed: set[tuple[int, int]] = set()

    # a frame is [state, branches left]; None when the state is known dead
    def frame(avail: int, unmet: int) -> list | None:
        best, size, cover = 0, -1, 0
        rest = unmet
        while rest:  # iter_bits, inlined: this loop is the search's cost
            low = rest & -rest
            rest ^= low
            clique = cliques[low.bit_length() - 1]
            options = clique & avail
            if not options:
                return None
            k = options.bit_count()
            if size < 0 or k < size:
                best, size = options, k
            cover |= clique
        state = (avail & cover, unmet)
        return None if state in failed else [state, best]

    stack = [frame(reduce(or_, cliques), (1 << len(cliques)) - 1)]
    while stack:
        top = stack[-1]
        (avail, unmet), todo = top
        if not todo:
            failed.add(top[0])
            stack.pop()
            continue
        bit = todo & -todo
        top[1] = todo ^ bit
        v = bit.bit_length() - 1
        rest = unmet & ~hit[v]
        if not rest:
            return True
        child = frame(avail & ~g.adj[v] & ~bit, rest)
        if child is not None:
            stack.append(child)
    return False
