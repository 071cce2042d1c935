"""Maximal independent sets: greedy construction and exact enumeration.

Enumeration works by listing maximal cliques of the complement with a
pivoting branch-and-bound, capped so that graphs with exponentially many
maximal independent sets cannot blow up silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, iter_bits

DEFAULT_MIS_CAP = 1_000_000


class CapExceededError(RuntimeError):
    """Raised when an enumeration or decision exceeds the configured cap."""


@dataclass(frozen=True)
class MISList:
    """An enumeration result: maximal independent sets plus a completeness flag.

    ``complete`` is False when the enumeration was cut off at the cap, in
    which case ``sets`` holds exactly ``cap`` of the maximal independent sets.
    """

    sets: tuple[frozenset[int], ...] = ()
    complete: bool = True


def greedy_mis(g: Graph, order: Sequence[int]) -> frozenset[int]:
    """Scan vertices in ``order`` and keep each one with no kept neighbor.

    ``order`` must be a permutation of the vertices. The result is a maximal
    independent set.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    chosen = 0
    for v in order:
        if g.adj[v] & chosen == 0:
            chosen |= 1 << v
    return frozenset(iter_bits(chosen))


def enumerate_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> MISList:
    """Enumerate maximal independent sets, at most ``cap`` of them.

    If the graph has at most ``cap`` maximal independent sets, all of them
    are returned with complete=True; otherwise exactly ``cap`` of them with
    complete=False. Sets are listed in canonical order (lexicographic by
    sorted member list).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if g.n == 0:
        return MISList((frozenset(),), True)
    full = g.full_mask
    nonadj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    found: list[int] = []

    # Tomita-style pivoting on the complement: maximal independent sets of g
    # are exactly the maximal cliques of its complement. A frame is
    # [r, p, x, branches left]; branches run in increasing vertex order,
    # each child's p and x taken before its vertex moves from p to x.
    def frame(r: int, p: int, x: int) -> list[int]:
        pivot = -1
        best = -1
        for u in iter_bits(p | x):
            size = (p & nonadj[u]).bit_count()
            if size > best:
                best = size
                pivot = u
        return [r, p, x, p & ~nonadj[pivot]]

    stack = [frame(0, full, 0)]
    while stack and len(found) <= cap:
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
            found.append(r | bit)
    sets = sorted((frozenset(iter_bits(m)) for m in found[:cap]), key=sorted)
    return MISList(tuple(sets), len(found) <= cap)


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
