"""Modular decomposition: strong modules and the decomposition tree.

A module is a vertex set whose members are indistinguishable from outside:
every other vertex sees all of the module or none of it. Decomposing a graph
recursively by its maximal strong modules yields a rooted tree whose leaves
are the vertices and whose internal nodes are labeled parallel (graph
disconnected), series (complement disconnected), or prime (both connected;
the quotient has only trivial modules).

Components and co-components split parallel and series nodes. Each step
of their walk reads the rows of the frontier or of the unreached rest,
whichever is smaller, so a level of a deep caterpillar tree reads about
half of its rows, not all of them, and a step over more than a few dozen
vertices reads them in C (``graph._block_masks``). A child of a parallel
node is connected and a child of a series node co-connected, so the walk
passes each node's kind down and its children skip the walk that cannot
split them: below the root, one walk per level, except under a prime
node, whose children run both. A prime node
(connected and co-connected) is split by vertex partitioning from its
lowest vertex v: refining the other vertices until no vertex splits a part
leaves the maximal modules that avoid v (Ehrenfeucht, Gabow, McConnell and
Sullivan 1994; Habib and Paul 2010). A part that splits refines the rest
through its smaller side only, so each vertex's row is read O(log n)
times. Each of those modules is a maximal strong module or lies inside
the one that holds v, which the forcing relation of the same paper tells
apart at one mask operation per vertex forced.

``_md_nodes`` is the one walk: it decomposes a graph, or the subgraph on a
vertex mask of it, once, on an explicit stack, into its tree's nodes in
post-order. ``md_fold`` folds that list, and several folds may read one
decomposition: ``md_tree``, the fork, claw and P4 flags (``_tree_flags``,
which ``recognize`` reads), and the system builders. So trees of any depth
are handled, and the flags are read before anything is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterator, Sequence, TypeVar

from .graph import (
    Graph,
    _bit_list,
    _finds_fork,
    co_component_masks,
    component_masks,
    induced_subgraph,
    is_claw_free,
    iter_bits,
)

LEAF = "leaf"
PARALLEL = "parallel"
SERIES = "series"
PRIME = "prime"

T = TypeVar("T")


@dataclass(frozen=True, eq=False, repr=False)
class MDNode:
    """A node of the modular decomposition tree.

    ``vertex_set`` holds the original vertices below this node. Internal
    nodes carry the quotient graph on one representative per child together
    with ``reps``, the chosen representative (lowest original index) for
    each quotient vertex. Equality, hashing and ``repr`` do not recurse, so
    they work on trees of any depth.
    """

    kind: str
    vertex: int | None
    children: tuple["MDNode", ...]
    vertex_set: frozenset[int]
    quotient: Graph | None
    reps: tuple[int, ...] | None

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def iter_nodes(self) -> Iterator["MDNode"]:
        """This node and all nodes below it, in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _fields(self) -> tuple:
        own = (self.kind, self.vertex, self.vertex_set, self.quotient, self.reps)
        return own + (len(self.children),)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MDNode):
            return NotImplemented
        # fields include the child count, so both pre-orders end together
        # unless an earlier pair differs
        pairs = zip(self.iter_nodes(), other.iter_nodes())
        return all(a._fields() == b._fields() for a, b in pairs)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        size, arity = len(self.vertex_set), len(self.children)
        return f"MDNode(kind={self.kind!r}, vertices={size}, children={arity})"


def _strong_module_masks(g: Graph, within: int) -> list[int]:
    """Maximal proper modules of g[within] when it is connected and
    co-connected; they are pairwise disjoint and partition the vertex set.

    Refining ``within`` minus its lowest vertex v, from the neighbours and
    non-neighbours of v, until no vertex splits a part yields the maximal
    modules that avoid v. This is vertex partitioning (Ehrenfeucht, Gabow,
    McConnell and Sullivan, J. Algorithms 1994): the two sides of a split
    refine each other at the cost of the smaller side's degrees. Its
    vertices split the larger side's parts by their neighbours, and its
    parts are regrouped by their vertices' neighbours in the larger side.
    A vertex is on the smaller side at most log2(n) times. Each maximal
    module that avoids v is either a maximal proper module or lies inside
    M(v), the one that holds v; a part X lies inside M(v) exactly when the
    smallest module that holds X and the part of M(v) found so far is
    proper. Forcing grows that module: with v and u it holds each vertex
    that sees exactly one of them. The growth stops at a part already
    found outside M(v), as it can then only end at ``within``.
    """
    adj = g.adj
    v = within & -within
    adj_v = adj[v.bit_length() - 1]
    parts = [within & ~v]
    owner = dict.fromkeys(_bit_list(parts[0]), 0)
    pending: list[tuple[int, int]] = []

    def split(i: int, out: int) -> None:
        # the smaller side takes a new part; the two sides must refine each other
        rest = parts[i] & ~out
        if out.bit_count() > rest.bit_count():
            out, rest = rest, out
        parts[i] = rest
        owner.update(dict.fromkeys(iter_bits(out), len(parts)))
        parts.append(out)
        pending.append((out, rest))

    # both sides are nonempty: g[within] is connected and co-connected
    split(0, adj_v & within)
    while pending:
        small, large = pending.pop()
        groups: dict[int, dict[int, int]] = {}
        for a in iter_bits(small):
            seen = todo = adj[a] & large
            while todo:  # a splits each part of the large side it sees in part
                i = owner[(todo & -todo).bit_length() - 1]
                x = parts[i]
                todo &= ~x
                if x & ~seen:
                    split(i, x & seen)
            i = owner[a]
            if parts[i] & (parts[i] - 1):
                by_row = groups.setdefault(i, {})
                by_row[seen] = by_row.get(seen, 0) | 1 << a
        for i, by_row in groups.items():  # regroup the small side's parts
            for x in sorted(by_row.values(), key=int.bit_count)[:-1]:
                split(i, x)
    block, outside = v, 0
    for x in parts:
        # x is a module, so its other vertices force nothing outside x
        m, todo = block | x, x & -x
        while todo and not m & outside:
            u = todo & -todo
            todo ^= u
            forced = (g.adj[u.bit_length() - 1] ^ adj_v) & within & ~m
            m |= forced
            todo |= forced
        if m == within or m & outside:
            outside |= x
        else:
            block = m
    blocks = [block] + [x for x in parts if not x & block]
    return sorted(blocks, key=lambda b: b & -b)


def _partition_masks(
    g: Graph, within: int, parent: str | None = None
) -> tuple[str, list[int]]:
    """Kind and maximal strong module masks of g[within] (>= 2 vertices).

    A child of a parallel node is a component, hence connected, and a child
    of a series node is co-connected, so given the kind of the node
    ``within`` hangs from, the walk that cannot split it is skipped.
    """
    if parent != PARALLEL:
        comps = component_masks(g, within)
        if len(comps) >= 2:
            return PARALLEL, comps
    if parent != SERIES:
        cocomps = co_component_masks(g, within)
        if len(cocomps) >= 2:
            return SERIES, cocomps
    return PRIME, _strong_module_masks(g, within)


def _md_nodes(g: Graph, within: int | None = None) -> list[tuple]:
    """The modular decomposition tree of g[within] (default g) in
    post-order, walked on an explicit stack: ``(LEAF, v, None)`` per vertex,
    ``(kind, mask, blocks)`` per internal node with its children's masks by
    lowest vertex; none for an empty ``within``. A vertex mask splits into
    its components (parallel), else co-components (series), else its
    maximal proper modules (prime)."""
    nodes: list[tuple] = []
    root = g.full_mask if within is None else within
    # (mask, parent's kind, None) expands a mask; (mask, kind, blocks) emits
    work: list[tuple] = [(root, None, None)] if root else []
    while work:
        mask, kind, blocks = work.pop()
        if blocks is not None:
            nodes.append((kind, mask, blocks))
        elif mask & (mask - 1) == 0:
            nodes.append((LEAF, mask.bit_length() - 1, None))
        else:
            kind, blocks = _partition_masks(g, mask, kind)
            work.append((mask, kind, blocks))
            work.extend((b, kind, None) for b in reversed(blocks))
    return nodes


def md_fold(
    nodes: list[tuple],
    leaf: Callable[[int], T],
    node: Callable[[str, int, tuple[int, ...], list[T]], T],
) -> T:
    """Fold the post-order ``nodes`` of ``_md_nodes`` bottom-up: ``leaf(v)``
    per vertex, ``node(kind, mask, reps, values)`` per internal node, with
    each child's lowest vertex and value in child order.
    """
    if not nodes:
        raise ValueError("modular decomposition requires at least one vertex")
    values: list[T] = []
    for kind, x, blocks in nodes:
        if blocks is None:
            values.append(leaf(x))
            continue
        children = values[-len(blocks):]
        del values[-len(blocks):]
        reps = tuple((b & -b).bit_length() - 1 for b in blocks)
        values.append(node(kind, x, reps, children))
    return values[0]


def md_tree(g: Graph) -> MDNode:
    """The modular decomposition tree of ``g`` (n >= 1).

    A one-vertex graph is a leaf. Otherwise the root is labeled with the
    quotient by the maximal strong modules and the decomposition continues
    into each module.
    """

    def leaf(v: int) -> MDNode:
        return MDNode(LEAF, v, (), frozenset((v,)), None, None)

    def node(kind, mask, reps, children) -> MDNode:
        quot, _ = induced_subgraph(g, reps)
        vset = frozenset().union(*(c.vertex_set for c in children))
        return MDNode(kind, None, tuple(children), vset, quot, reps)

    return md_fold(_md_nodes(g), leaf, node)


def _lowest(mask: int, k: int) -> int:
    """The k lowest vertices of ``mask``, or all of them if it has fewer."""
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _sample(kind: str, samples: Sequence[int]) -> int:
    """An independent set of min(alpha, 3) vertices of a parallel or series
    node, from such sets of its children: the three lowest of their union
    (components add their independence numbers), or the first largest
    (co-components do not combine)."""
    if kind == PARALLEL:
        return _lowest(reduce(or_, samples), 3)
    return max(samples, key=int.bit_count)


def _independent_triple(g: Graph, within: int) -> int:
    """A mask of three independent vertices of g[within], else two, else one."""
    found = within & -within
    for a in iter_bits(within):
        for b in iter_bits(within & ~g.adj[a] & ~((2 << a) - 1)):
            found = 1 << a | 1 << b
            rest = within & ~g.adj[a] & ~g.adj[b] & ~((2 << b) - 1)
            if rest:
                return found | rest & -rest
    return found


def _tree_flags(g: Graph, nodes: list[tuple]) -> dict[str, bool]:
    """Whether ``g`` is claw-free, fork-free, P4-free, prime, connected and
    co-connected, read off one fold of ``nodes``, its decomposition tree
    (``_md_nodes``).

    P4-free means no prime node; the root's kind and arity give the last
    three flags. A claw or a fork that no child of a node holds spans the
    node and meets each child in an independent set (its only proper
    modules of two or more vertices are sets of leaves), so each subtree
    yields a sample, min(alpha, 3) independent vertices, that can stand
    in for it. A claw spans a series node iff a child samples three
    vertices, and a fork, being co-connected, spans none. At a prime
    node, the graph on its children's samples (at most three times the
    quotient) holds a claw iff one spans the node, and is scanned for
    claws while none is known. A fork meets each child in at most two
    vertices, so the graph on the two lowest vertices of each sample (at
    most twice the quotient) is scanned for forks once a claw is known;
    a claw-free graph has no fork; the scans read g on these masks. A
    graph on at most one vertex gets the flags of a vertex.
    """
    flags = {"claw_free": True, "fork_free": True, "p4_free": True,
             "prime": False, "connected": True, "co_connected": True}

    def node(kind, mask, reps, samples) -> int:
        root = mask == g.full_mask
        if root:
            flags["prime"] = kind == PRIME and len(reps) == g.n
            flags["connected"] = kind != PARALLEL
            flags["co_connected"] = kind != SERIES
        if not flags["fork_free"]:
            return 0  # a fork holds a claw: no flag that samples feed is open
        if kind != PRIME:
            sample = _sample(kind, samples)
            if kind == SERIES and sample.bit_count() == 3:
                flags["claw_free"] = False
            return sample
        flags["p4_free"] = False
        union = reduce(or_, samples)
        if flags["claw_free"]:
            flags["claw_free"] = is_claw_free(g, union)
        if not flags["claw_free"]:
            pairs = reduce(or_, (_lowest(s, 2) for s in samples))
            flags["fork_free"] = not _finds_fork(g, pairs)
        return 0 if root else _independent_triple(g, union)

    if nodes:
        md_fold(nodes, (1).__lshift__, node)
    return flags


def recognize(g: Graph) -> dict[str, bool]:
    """Whether ``g`` is claw-free, fork-free, P4-free, prime, connected and
    co-connected, read off one fold of one decomposition (``_tree_flags``)."""
    return _tree_flags(g, _md_nodes(g))
