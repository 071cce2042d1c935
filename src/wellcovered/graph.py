"""Simple undirected graphs on vertex set {0..n-1} with bitset adjacency.

Vertices are dense integers, and adjacency is one Python integer bitmask
per vertex, which keeps neighborhood algebra (intersections, complements
within a vertex subset) cheap even for a few thousand vertices. So walks and
scans of an induced subgraph take its vertex mask (``within``) and copy
nothing; ``induced_subgraph`` copies one, with its old-index map, where a
graph is handed on. Graphs are immutable.

Edge lists in the canonical layout the generators write (a header of digits,
then "u v" lines) are read by a fast path that checks and tokenizes the text
with bytes operations; any other text, and every error, is left to the line
parser, which reads anything the format allows. The fast path stores the
edges of a dense text (an n x n byte matrix no larger than the text) as one
byte each in such a matrix, and those of a sparse text as neighbour lists,
so its memory is bounded by the text either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import and_, or_
from typing import Iterable, Iterator


# Largest vertex count the parsers accept. Work and memory grow with n^2
# even on an edgeless graph (one n-bit mask per vertex), so a declared
# count is checked before anything is allocated for it.
MAX_VERTICES = 50_000


class GraphParseError(ValueError):
    """Raised when a textual graph description cannot be parsed."""


def _check_order(n: int, where: str) -> None:
    if n > MAX_VERTICES:
        raise GraphParseError(
            f"{where}vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# bin(mask) read backwards, one byte per bit: b"\x01" where a bit is set
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# walk steps over more vertices than this run in C (see _block_masks)
_C_STEP = 32


def _bit_list(mask: int) -> list[int]:
    """The positions of the set bits of ``mask`` (>= 0) in increasing order,
    found in C: O(bit length) steps, none of them in Python."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``adj[v]`` is the bitmask of neighbors of ``v``. Adjacency is symmetric
    and loop-free by construction.
    """

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from a vertex count and an edge list.

        Duplicate edges collapse to one. Raises ValueError on out-of-range
        endpoints or self-loops.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(n, tuple(masks))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(higher):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


# ---------------------------------------------------------------------------
# parsing


def parse_graph(text: str, format: str = "edge-list") -> Graph:
    """Parse a graph from text in ``edge-list`` or ``graph6`` format."""
    if format == "edge-list":
        return parse_edge_list(text)
    if format == "graph6":
        return parse_graph6(text)
    raise GraphParseError(f"unknown graph format {format!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line "n", then lines "u v".

    The explicit vertex count makes isolated vertices representable; it may
    be at most ``MAX_VERTICES``. Blank lines are ignored. Errors name the
    offending 1-based line number.

    Canonical text (a header of digits, then lines that are exactly "u v"
    with each index spelled as ``str`` spells it, as the README and the
    generators write it) takes a fast path that tokenizes with bytes
    operations and builds each mask once: from an n x n byte matrix, one
    store per line, when the matrix is no larger than the text, else from
    per-vertex neighbour lists. Any other text goes to the line parser,
    which reads it as before; every error comes from there.
    """
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text)


_DIGITS = b"0123456789"
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_CHUNK = 1 << 18


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a canonical edge list, or None when in any doubt.

    A missing final newline is supplied. Each chunk of about 256 KB, cut at
    a newline, must read one " \\n" per line once its digits are deleted
    and split into two tokens per line; together these rule out empty,
    padded and split tokens. An index missing from the table of canonical
    spellings (out of range, "007", "+3") or a self-loop also returns None.
    Never raises.

    Edges land in one of two layouts. If an n x n matrix of bytes is no
    larger than the text (``n * n <= len(data)``), each line "u v" is one
    store, at byte ``u * n + v``; its ``n * n`` bytes are then bounded by
    the input, as the text's own tokens are. Otherwise, on texts with few
    edges for their vertex count (a long path, a star on
    ``MAX_VERTICES``), each vertex gets a list of its neighbours, which
    costs memory in the number of edges only.
    """
    if not text.isascii():
        return None
    data = text.encode()
    if not data.endswith(b"\n"):
        data += b"\n"
    start = data.find(b"\n") + 1
    head = data[:start - 1]
    # int() is not asked to read a header longer than any allowed count
    if not (head.isdigit() and len(head) <= len(str(MAX_VERTICES))):
        return None
    n = int(head)
    if n > MAX_VERTICES:
        return None
    index = {str(i).encode(): i for i in range(n)}
    dense = n * n <= len(data)
    if dense:
        cells = bytearray(n * n)
        # a line "u v" sets byte rows[u] + index[v]
        rows = {key: u * n for key, u in index.items()}
    else:
        nbrs: list[list[int]] = [[] for _ in range(n)]
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK) + 1 or len(data)
        chunk = data[start:end]
        lines = chunk.count(b"\n")
        tokens = chunk.split()
        shape = chunk.translate(None, _DIGITS)
        if len(tokens) != 2 * lines or shape != b" \n" * lines:
            return None
        pairs = iter(tokens)
        try:
            if dense:
                for a, b in zip(pairs, pairs):
                    cells[rows[a] + index[b]] = 1
            else:
                ends = map(index.__getitem__, pairs)
                for u, v in zip(ends, ends):
                    nbrs[u].append(v)
                    nbrs[v].append(u)
        except KeyError:
            return None
        start = end
    return _matrix_graph(n, cells) if dense else _list_graph(n, nbrs)


def _matrix_graph(n: int, cells: bytearray) -> Graph | None:
    """The graph of the n x n matrix ``cells``, whose byte ``u * n + v`` is
    1 for each line "u v", or None if a line is a self-loop. The mask of u
    reads its row and its column, so an edge written once in either
    direction, twice or reversed sets the same bits."""
    if any(cells[::n + 1]):
        return None
    bits = cells.translate(_BITS)
    return Graph(n, tuple(
        int(bits[u * n:u * n + n][::-1], 2) | int(bits[u::n][::-1], 2)
        for u in range(n)
    ))


def _list_graph(n: int, nbrs: list[list[int]]) -> Graph | None:
    """The graph whose vertex u has the neighbours ``nbrs[u]``, or None if a
    list holds its own vertex."""
    masks = []
    for u, vs in enumerate(nbrs):
        # few neighbours: OR in one shifted int each; many: one O(n) row read
        if len(vs) < 64 or len(vs) * 64 < n:
            mask = mask_of(vs)
        else:
            mask = _row_mask(n, vs)
        if mask >> u & 1:
            return None
        masks.append(mask)
    return Graph(n, tuple(masks))


def _row_mask(n: int, vs: list[int]) -> int:
    """The mask of ``vs``, marked in a fresh row of n bytes and read as
    bits."""
    row = bytearray(n)
    for v in vs:
        row[v] = 1
    return int(row[::-1].translate(_BITS), 2)


def _parse_lines(text: str) -> Graph:
    """Read any edge-list text line by line; the source of every error."""
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


def parse_graph6(text: str) -> Graph:
    """Parse a graph in graph6 format (read-only input format).

    Accepts a single graph6 line, optionally prefixed with the standard
    ">>graph6<<" header, of at most ``MAX_VERTICES`` vertices.
    """
    line = ""
    for raw in text.splitlines():
        if raw.strip():
            line = raw.strip()
            break
    if not line:
        raise GraphParseError("empty graph6 input")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = [ord(ch) - 63 for ch in line]
    if any(b < 0 or b > 63 for b in data):
        raise GraphParseError("graph6: byte out of printable range")
    n, pos = _graph6_order(data)
    _check_order(n, "graph6: ")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise GraphParseError(
            f"graph6: expected {need} data bytes for n={n}, got {len(data) - pos}"
        )
    bits = "".join(f"{b:06b}" for b in data[pos:])
    masks = [0] * n
    k = 0
    for j in range(1, n):
        # column j holds the pairs (0, j) .. (j - 1, j), lowest vertex first
        masks[j] = int(bits[k:k + j][::-1], 2)
        k += j
        for i in iter_bits(masks[j]):
            masks[i] |= 1 << j
    return Graph(n, tuple(masks))


def _graph6_order(data: list[int]) -> tuple[int, int]:
    if not data:
        raise GraphParseError("graph6: missing order")
    if data[0] < 63:
        return data[0], 1
    if len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise GraphParseError("graph6: truncated 3-byte order")
        return (data[1] << 12) | (data[2] << 6) | data[3], 4
    if len(data) < 8:
        raise GraphParseError("graph6: truncated 6-byte order")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | b
    return n, 8


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    """The graph on the same vertices where distinct u, v are adjacent iff
    they are nonadjacent in ``g``."""
    full = g.full_mask
    masks = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))
    return Graph(g.n, masks)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced by vertex set ``s``.

    Returns (subgraph, vertex_map) where vertex_map is the sorted listing of
    ``s``: new index i corresponds to old vertex vertex_map[i].
    """
    vmap = tuple(sorted(set(s)))
    if vmap and not (0 <= vmap[0] and vmap[-1] < g.n):
        raise ValueError(f"vertex set not within 0..{g.n - 1}")
    pos = {v: i for i, v in enumerate(vmap)}
    inside = mask_of(vmap)
    masks = []
    for u in vmap:
        m = 0
        for w in iter_bits(g.adj[u] & inside):
            m |= 1 << pos[w]
        masks.append(m)
    return Graph(len(vmap), tuple(masks)), vmap


def _block_masks(g: Graph, within: int | None, flip: int) -> list[int]:
    """Components of g[within] under the rows ``adj[u] ^ flip``: of g for
    ``flip`` 0, of its complement for -1.

    Each block grows breadth first from the lowest vertex left, and each
    step takes the cheaper direction (Beamer, Asanovic and Patterson 2012):
    if the frontier is no larger than the unreached rest, it ORs the
    frontier's rows (top-down); else each unreached vertex joins when its
    row meets the block (bottom-up). A step reads min(frontier, rest) rows.
    A step over more than ``_C_STEP`` vertices lists them and reads their
    rows with ``map``, ``reduce`` and ``compress``, so no Python loop runs
    per vertex; smaller steps loop inline.
    """
    adj = g.adj
    row = adj.__getitem__
    rem = g.full_mask if within is None else within
    blocks = []
    while rem:
        comp = frontier = rem & -rem
        rest = rem ^ comp
        while frontier and rest:
            size = frontier.bit_count()
            if size <= rest.bit_count():
                if size <= _C_STEP:
                    reach = 0
                    for v in iter_bits(frontier):
                        reach |= adj[v] ^ flip
                else:
                    rows = map(row, _bit_list(frontier))
                    # the OR of the complemented rows is the complement of their AND
                    reach = ~reduce(and_, rows, -1) if flip else reduce(or_, rows)
                frontier = reach & rest
            elif rest.bit_count() <= _C_STEP:
                frontier = 0
                for u in iter_bits(rest):
                    if (adj[u] ^ flip) & comp:
                        frontier |= 1 << u
            else:
                unreached = _bit_list(rest)
                meets = map(comp.__and__, map(row, unreached))
                if flip:
                    # a complemented row meets the block unless the row holds it
                    meets = map(comp.__ne__, meets)
                joined = compress(unreached, meets)
                frontier = reduce(or_, map((1).__lshift__, joined), 0)
            comp |= frontier
            rest ^= frontier
        blocks.append(comp)
        rem = rest
    return blocks


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Vertex bitmasks of the connected components of g[within], in
    increasing order of their lowest vertex. Each step of the walk reads the
    rows of its frontier or of the unreached rest, whichever is smaller."""
    return _block_masks(g, within, 0)


def co_component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Vertex bitmasks of the co-components (components of the complement)
    of g[within], in increasing order of their lowest vertex, from the same
    walk as ``component_masks`` with every row read complemented."""
    return _block_masks(g, within, -1)


# ---------------------------------------------------------------------------
# induced-subgraph recognition
#
# The claw and fork predicates perform exhaustive search over vertex tuples;
# their loops are pruned orderings of the naive O(n^4)/O(n^5) scans. The
# decomposition folds run them on small vertex sets, not on whole graphs.


def is_claw_free(g: Graph, within: int | None = None) -> bool:
    """True iff g[within], by default g, has no induced K_{1,3}."""
    inside = g.full_mask if within is None else within
    for c in iter_bits(inside):
        nbrs = g.adj[c] & inside
        for d in iter_bits(nbrs):
            rest = nbrs & ~g.adj[d] & ~((1 << (d + 1)) - 1)
            for e in iter_bits(rest):
                if rest & ~g.adj[e] & ~((1 << (e + 1)) - 1):
                    return False
    return True


def _finds_fork(g: Graph, within: int | None = None) -> bool:
    """True iff an exhaustive scan of centers finds an induced fork in
    g[within], by default g: a center c adjacent to pairwise non-adjacent
    b, d, e, and a fifth vertex adjacent to b only (a subdivided claw)."""
    inside = g.full_mask if within is None else within
    for c in iter_bits(inside):
        nbrs = g.adj[c] & inside
        for b in iter_bits(nbrs):
            tails = g.adj[b] & inside & ~nbrs & ~(1 << c)
            if not tails:
                continue
            others = nbrs & ~g.adj[b] & ~(1 << b)
            for d in iter_bits(others):
                rest = others & ~g.adj[d] & ~((1 << (d + 1)) - 1)
                for e in iter_bits(rest):
                    if tails & ~g.adj[d] & ~g.adj[e]:
                        return True
    return False
