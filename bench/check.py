"""Output checks that do not rely on the package under test.

Each generated instance gets a ``Space``: an independent description of its
well-covered vector space V (the weightings under which every maximal
independent set has the same weight). Small graphs get V from this module's
own maximal-independent-set enumerator and Bareiss elimination; cographs,
clique substitutions and rook graphs get it from closed forms. Every verb's
output is then checked against the space or against a structural test
(modules, primality, forbidden induced subgraphs) computed here.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

from gen import Graph, Instance

PRIME = (1 << 61) - 1


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# graph structure


def components(g: Graph, within: int, co: bool = False) -> list[int]:
    """Vertex masks of the (co-)components of g[within]."""
    out = []
    rest = within
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nbrs = (within & ~g.adj[v] & ~(1 << v)) if co else g.adj[v]
                nxt |= nbrs
            frontier = nxt & within & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def is_module(g: Graph, mask: int, within: int) -> bool:
    for v in bits(within & ~mask):
        seen = g.adj[v] & mask
        if seen and seen != mask:
            return False
    return True


def _module_closure(g: Graph, mask: int) -> int:
    full = (1 << g.n) - 1
    while True:
        grow = 0
        for v in bits(full & ~mask):
            seen = g.adj[v] & mask
            if seen and seen != mask:
                grow |= 1 << v
        if not grow:
            return mask
        mask |= grow


def is_prime(g: Graph) -> bool:
    """No module other than singletons and the whole set (n >= 3).

    Modules through vertex 0 are ruled out by closing {0, u} for every u;
    modules avoiding vertex 0 by refining the other vertices into the
    coarsest partition whose parts no outside vertex splits.
    """
    n = g.n
    if n < 3:
        return False
    full = (1 << n) - 1
    for u in range(1, n):
        if _module_closure(g, 1 | (1 << u)) != full:
            return False
    parts = [p for p in (g.adj[0], full & ~g.adj[0] & ~1) if p]
    changed = True
    while changed:
        changed = False
        for v in range(1, n):
            nxt = []
            for p in parts:
                if p >> v & 1:
                    nxt.append(p)
                    continue
                inside, outside = p & g.adj[v], p & ~g.adj[v]
                nxt += [q for q in (inside, outside) if q]
                changed |= bool(inside and outside)
            parts = nxt
    return all(p & (p - 1) == 0 for p in parts)


def induced(g: Graph, verts: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(verts)}
    return Graph.from_edges(len(verts), [
        (pos[u], pos[w]) for u in verts for w in bits(g.adj[u]) if w in pos and u < w
    ])


def has_claw(g: Graph) -> bool:
    for c in range(g.n):
        nb = g.adj[c]
        for b in bits(nb):
            rest = nb & ~g.adj[b] & ~((2 << b) - 1)
            for d in bits(rest):
                if rest & ~g.adj[d] & ~((2 << d) - 1):
                    return True
    return False


def has_fork(g: Graph) -> bool:
    """A claw c; b, d, e plus a vertex adjacent to b alone among them."""
    for c in range(g.n):
        nb = g.adj[c]
        for b in bits(nb):
            others = nb & ~g.adj[b] & ~(1 << b)
            for d in bits(others):
                rest = others & ~g.adj[d] & ~((2 << d) - 1)
                for e in bits(rest):
                    if g.adj[b] & ~g.adj[c] & ~(1 << c) & ~g.adj[d] & ~g.adj[e]:
                        return True
    return False


def has_p4(g: Graph) -> bool:
    for b in range(g.n):
        for c in bits(g.adj[b]):
            ends_c = g.adj[c] & ~g.adj[b] & ~(1 << b)
            for a in bits(g.adj[b] & ~g.adj[c] & ~(1 << c)):
                if ends_c & ~g.adj[a]:
                    return True
    return False


# ---------------------------------------------------------------------------
# exact linear algebra


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets as masks (Bron-Kerbosch with pivoting
    on the complement)."""
    full = (1 << g.n) - 1
    non = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    found: list[int] = []

    def grow(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (p & non[u]).bit_count())
        for v in bits(p & ~non[pivot]):
            grow(r | 1 << v, p & non[v], x & non[v])
            p &= ~(1 << v)
            x |= 1 << v

    grow(0, full, 0)
    return found


def bareiss(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form: (nonzero echelon rows, pivot columns)."""
    m = [list(r) for r in rows if any(r)]
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * top[c] - f * top[j]) // prev
            row[c] = 0
        prev = top[c]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def null_space(echelon: list[list[int]], pivots: list[int], n: int) -> list[list[Fraction]]:
    vectors = []
    for free in (c for c in range(n) if c not in set(pivots)):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, pc in reversed(list(zip(echelon, pivots))):
            s = sum(row[j] * x[j] for j in range(pc + 1, n) if row[j])
            x[pc] = -s / row[pc]
        vectors.append(x)
    return vectors


def rank_lower_bound(rows: list[dict[int, int]], stop: int) -> int:
    """A lower bound on the rational rank of sparse integer rows.

    Rows that own a column no other remaining row touches are peeled off
    first (each raises the rank by one); the rest is eliminated modulo a
    large prime, whose rank never exceeds the rational one. Stops early once
    the bound reaches ``stop``.
    """
    alive = [r for r in rows if any(r.values())]
    holders: dict[int, set[int]] = {}
    for i, r in enumerate(alive):
        for c, a in r.items():
            if a:
                holders.setdefault(c, set()).add(i)
    queue = [c for c, h in holders.items() if len(h) == 1]
    removed = set()
    while queue:
        c = queue.pop()
        h = holders[c]
        if len(h) != 1:
            continue
        i = h.pop()
        removed.add(i)
        for c2 in alive[i]:
            h2 = holders.get(c2)
            if h2 is not None and i in h2:
                h2.discard(i)
                if len(h2) == 1:
                    queue.append(c2)
    rank = len(removed)
    pivot_rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(alive):
        if rank >= stop:
            break
        if i in removed:
            continue
        work = {c: a % PRIME for c, a in r.items() if a % PRIME}
        while work:
            c = min(work)
            if c not in pivot_rows:
                inv = pow(work[c], PRIME - 2, PRIME)
                pivot_rows[c] = {k: v * inv % PRIME for k, v in work.items()}
                rank += 1
                break
            f = work[c]
            for k, v in pivot_rows[c].items():
                nv = (work.get(k, 0) - f * v) % PRIME
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return rank


def _dot(row: dict[int, Fraction], w) -> Fraction:
    return sum((a * w[c] for c, a in row.items()), Fraction(0))


# ---------------------------------------------------------------------------
# well-covered spaces


class Space:
    """The well-covered space V of one graph, computed independently."""

    n: int
    dim: int

    def contains(self, w) -> bool:
        raise NotImplementedError

    def spanning(self) -> list:
        """Vectors spanning V, or random members of V where no basis is
        kept (a row vanishing on them vanishes on V with high probability)."""
        raise NotImplementedError


class MisSpace(Space):
    """V as the null space of the Gram matrix of the difference rows
    chi(I) - chi(I_0) over all maximal independent sets I."""

    def __init__(self, g: Graph):
        self.n = n = g.n
        self.sets = maximal_independent_sets(g)
        k = len(self.sets)
        co = [[0] * n for _ in range(n)]
        for s in self.sets:
            vs = bits(s)
            for i in vs:
                ci = co[i]
                for j in vs:
                    ci[j] += 1
        x0 = [self.sets[0] >> i & 1 for i in range(n)]
        cnt = [co[i][i] for i in range(n)]
        self.gram = [
            [co[i][j] - cnt[i] * x0[j] - x0[i] * cnt[j] + k * x0[i] * x0[j]
             for j in range(n)] for i in range(n)
        ]
        echelon, pivots = bareiss(self.gram, n)
        self.dim = n - len(pivots)
        self.basis = null_space(echelon, pivots, n)

    def contains(self, w) -> bool:
        return all(sum(a * x for a, x in zip(row, w)) == 0 for row in self.gram)

    def spanning(self) -> list:
        return self.basis


class CotreeSpace(Space):
    """Closed form for cographs. Over a cotree, V of a union is the direct
    sum of the parts' spaces, and V of a join asks in addition that every
    child's maximal independent sets weigh the same. Every cograph has a
    well-covered weighting of nonzero weight, so each of those equations is
    independent: dim V = n - sum over series nodes of (children - 1)."""

    def __init__(self, inst: Instance):
        self.tree = inst.cotree
        self.n = inst.graph.n
        self.dim = self.n - sum(
            len(ch) - 1 for kind, ch in zip(self.tree.kind, self.tree.children)
            if kind == "S"
        )

    def contains(self, w) -> bool:
        total = []
        for kind, ch in zip(self.tree.kind, self.tree.children):
            if kind == "L":
                total.append(w[ch[0]])
            elif kind == "P":
                total.append(sum(total[c] for c in ch))
            elif any(total[c] != total[ch[0]] for c in ch):
                return False
            else:
                total.append(total[ch[0]])
        return True

    def spanning(self) -> list:
        """Two random members: pick the root's weight, split each union's
        weight at random among its parts and pass a join's weight to every
        child, down to the leaves."""
        rng = random.Random(self.n)
        out = []
        for _ in range(2):
            w = [0] * self.n
            target = [0] * len(self.tree.kind)
            target[self.tree.root] = rng.randrange(1, 1 << 32)
            for node in range(self.tree.root, -1, -1):
                kind, ch, t = self.tree.kind[node], self.tree.children[node], target[node]
                if kind == "L":
                    w[ch[0]] = t
                elif kind == "S":
                    for c in ch:
                        target[c] = t
                else:
                    for c in ch[:-1]:
                        target[c] = rng.randrange(-(1 << 32), 1 << 32)
                        t -= target[c]
                    target[ch[-1]] = t
            out.append(w)
        return out


class SubstitutionSpace(Space):
    """Cliques substituted into a skeleton Q: two maximal independent sets
    that differ in one clique force equal weights inside it, so V is the
    lift of V(Q) that is constant on every clique."""

    def __init__(self, inst: Instance):
        self.n = inst.graph.n
        self.blocks = inst.blocks
        self.skeleton = MisSpace(inst.skeleton)
        self.dim = self.skeleton.dim

    def contains(self, w) -> bool:
        if any(w[v] != w[b[0]] for b in self.blocks for v in b):
            return False
        return self.skeleton.contains([w[b[0]] for b in self.blocks])

    def spanning(self) -> list:
        out = []
        for u in self.skeleton.basis:
            w = [Fraction(0)] * self.n
            for b, x in zip(self.blocks, u):
                for v in b:
                    w[v] = x
            out.append(w)
        return out


class RookSpace(Space):
    """Line graph of K_{m,m}: the maximal matchings are the perfect ones,
    and the cell weightings with equal permutation sums are exactly
    w(r, c) = a_r + b_c, a space of dimension 2m - 1."""

    def __init__(self, inst: Instance):
        self.n = inst.graph.n
        self.m = round(self.n ** 0.5)
        self.dim = 2 * self.m - 1

    def contains(self, w) -> bool:
        m = self.m
        return all(
            w[r * m + c] - w[r * m] - w[c] + w[0] == 0
            for r in range(m) for c in range(m)
        )

    def spanning(self) -> list:
        m = self.m
        out = []
        for r in range(m):
            out.append([1 if i // m == r else 0 for i in range(self.n)])
        for c in range(1, m):
            out.append([1 if i % m == c else 0 for i in range(self.n)])
        return out


def space_for(inst: Instance) -> Space:
    if inst.cotree is not None:
        return CotreeSpace(inst)
    if inst.blocks is not None:
        return SubstitutionSpace(inst)
    if inst.family == "rook":
        return RookSpace(inst)
    return MisSpace(inst.graph)


# ---------------------------------------------------------------------------
# closed forms stated by the paper and the package documentation


def closed_form_dimension(inst: Instance) -> int | None:
    """Trees on n >= 3 vertices: the leaf count; cycles C_k with k >= 8 and
    the Petersen graph: 0; the bull: 3."""
    if inst.family == "tree" and inst.graph.n >= 3:
        return inst.leaves
    if inst.family == "cycle" and inst.graph.n >= 8:
        return 0
    if inst.family == "petersen":
        return 0
    if inst.family == "bull":
        return 3
    return None


BULL_BASIS = [(1, 1, 0, 0, 0), (0, 1, 1, 1, 0), (0, 0, 0, 1, 1)]


# ---------------------------------------------------------------------------
# output parsing

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?x_(\d+)$")


def parse_equation(line: str, n: int) -> dict[int, Fraction]:
    eq = line.split("  # ", 1)[0]
    if not eq.endswith(" = 0"):
        raise ValueError(f"not an equation: {line[:60]!r}")
    body = eq[:-4]
    row: dict[int, Fraction] = {}
    if body == "0":
        return row
    sign = 1
    tokens = body.split(" ")
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    expect_term = True
    for tok in tokens:
        if not expect_term:
            if tok not in "+-":
                raise ValueError(f"bad operator {tok!r}")
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        m = _TERM.match(tok)
        if not m:
            raise ValueError(f"bad term {tok!r}")
        var = int(m.group(2)) - 1
        if not 0 <= var < n or var in row:
            raise ValueError(f"bad variable in {tok!r}")
        row[var] = sign * Fraction(m.group(1) or 1)
        expect_term = False
    return row


def _vset(text: str) -> list[int]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"bad vertex set {text[:40]!r}")
    inner = inner[1:-1].strip()
    return [int(t.strip()[2:]) - 1 for t in inner.split(",")] if inner else []


def parse_mdtree_text(text: str) -> dict:
    """Indented text tree into the JSON shape ({kind, vertices, children})."""
    root = None
    path: list[dict] = []  # internal nodes from the root down
    for line in text.split("\n"):
        stripped = line.lstrip(" ")
        depth, rem = divmod(len(line) - len(stripped), 2)
        if rem or depth > len(path) or (depth == 0) != (root is None):
            raise ValueError("bad indentation")
        kind, _, rest = stripped.partition(" ")
        if kind == "leaf":
            v = int(rest[2:]) - 1
            node = {"kind": "leaf", "vertices": [v], "vertex": v}
        else:
            node = {"kind": kind, "vertices": _vset(rest), "children": []}
        del path[depth:]
        if path:
            path[-1]["children"].append(node)
        else:
            root = node
        if kind != "leaf":
            path.append(node)
    if root is None:
        raise ValueError("empty tree")
    return root


# ---------------------------------------------------------------------------
# verb checks; each returns None when the output is right, else a reason


def _fracs(pairs) -> list[Fraction]:
    return [Fraction(p, q) for p, q in pairs]


def check_system(space: Space, rows: list[dict[int, Fraction]]) -> str | None:
    for w in space.spanning():
        if any(_dot(r, w) != 0 for r in rows):
            return "an equation fails on a well-covered weighting"
    want = space.n - space.dim
    int_rows = [_integral(r) for r in rows]
    if rank_lower_bound(int_rows, want) < want:
        return "equations do not pin down the well-covered space"
    return None


def _integral(row: dict[int, Fraction]) -> dict[int, int]:
    """The row times the least common multiple of its denominators."""
    den = math.lcm(*(a.denominator for a in row.values()))
    return {c: int(a * den) for c, a in row.items()}


def check_basis(space: Space, vectors: list[list[Fraction]], inst: Instance) -> str | None:
    if len(vectors) != space.dim:
        return f"{len(vectors)} basis vectors, dimension is {space.dim}"
    if any(len(v) != space.n for v in vectors):
        return "basis vector of wrong length"
    if not all(space.contains(v) for v in vectors):
        return "basis vector is not a well-covered weighting"
    rows = [_integral({c: a for c, a in enumerate(v) if a}) for v in vectors]
    if rank_lower_bound(rows, len(rows)) < len(rows):
        return "basis vectors are dependent"
    if inst.family == "bull":
        # the published basis must span the same space
        if not all(space.contains(list(b)) for b in BULL_BASIS):
            return "bull basis mismatch"
    return None


def check_mdtree(g: Graph, tree: dict) -> str | None:
    seen = 0
    work = [tree]
    while work:
        node = work.pop()
        mask = 0
        for v in node["vertices"]:
            mask |= 1 << v
        if node["kind"] == "leaf":
            if len(node["vertices"]) != 1 or seen >> node["vertex"] & 1:
                return "bad leaf"
            seen |= mask
            continue
        kids = node["children"]
        kid_masks = []
        for k in kids:
            km = 0
            for v in k["vertices"]:
                km |= 1 << v
            kid_masks.append(km)
        if sum(kid_masks) != mask or len(kids) < 2:
            return "children do not partition their parent"
        if kid_masks != sorted(kid_masks, key=lambda b: b & -b):
            return "children out of order"
        kind = node["kind"]
        if kind == "parallel":
            ok = kid_masks == components(g, mask)
        elif kind == "series":
            ok = kid_masks == components(g, mask, co=True)
        elif kind == "prime":
            reps = [b & -b for b in kid_masks]
            ok = (
                len(components(g, mask)) == 1
                and len(components(g, mask, co=True)) == 1
                and all(is_module(g, b, mask) for b in kid_masks)
                and is_prime(induced(g, [r.bit_length() - 1 for r in reps]))
            )
        else:
            return f"unknown node kind {kind!r}"
        if not ok:
            return f"{kind} node does not match the graph"
        work.extend(kids)
    if seen != (1 << g.n) - 1:
        return "leaves do not cover the vertices"
    return None


def recognize_flags(inst: Instance) -> dict[str, bool]:
    g = inst.graph
    full = (1 << g.n) - 1
    claw = has_claw(g)
    p4 = has_p4(g)
    return {
        "claw_free": not claw,
        # a fork contains a claw and an induced P4
        "fork_free": True if not claw or not p4 else not has_fork(g),
        "p4_free": not p4,
        "prime": inst.prime if inst.prime is not None else is_prime(g),
        "connected": g.n > 0 and len(components(g, full)) == 1,
        "co_connected": g.n > 0 and len(components(g, full, co=True)) == 1,
    }


def _is_mis(g: Graph, verts: list[int]) -> bool:
    mask = 0
    for v in verts:
        mask |= 1 << v
    if any(g.adj[v] & mask for v in verts):
        return False
    return all(g.adj[v] & mask for v in range(g.n) if not mask >> v & 1)


def check_output(case: dict, inst: Instance, space: Space | None,
                 stdout: str, weights: list[Fraction] | None) -> str | None:
    """Check one case's stdout; ``space`` is built lazily by the caller for
    the verbs that need it."""
    verb = case["verb"]
    as_json = case.get("output") == "json"
    g = inst.graph
    text = stdout[:-1] if stdout.endswith("\n") else stdout
    try:
        data = json.loads(stdout) if as_json else None
        if verb == "dimension":
            dim = data["dimension"] if as_json else int(text)
            want = closed_form_dimension(inst)
            if want is not None and dim != want:
                return f"dimension {dim}, closed form says {want}"
            if dim != space.dim:
                return f"dimension {dim}, expected {space.dim}"
            return None
        if verb == "system":
            if as_json:
                if data["num_vars"] != g.n:
                    return "wrong variable count"
                rows = [
                    {c: a for c, a in enumerate(_fracs(r)) if a} for r in data["rows"]
                ]
            else:
                rows = [parse_equation(ln, g.n) for ln in text.split("\n") if ln]
            return check_system(space, rows)
        if verb == "basis":
            if as_json:
                vectors = [_fracs(v) for v in data["vectors"]]
            else:
                vectors = [
                    [Fraction(t) for t in ln.split(" ")] for ln in text.split("\n") if ln
                ]
            return check_basis(space, vectors, inst)
        if verb == "is-well-covered":
            if as_json:
                covered, witness = data["well_covered"], data["witness"]
                if witness is not None:
                    witness = (witness["set_a"], witness["weight_a"],
                               witness["set_b"], witness["weight_b"])
            else:
                lines = text.split("\n")
                if lines[0] not in ("yes", "no") or len(lines) > 2:
                    return "malformed answer"
                covered, witness = lines[0] == "yes", None
                if len(lines) == 2:
                    m = re.fullmatch(r"witness: (\{.*?\}) has weight (\d+), "
                                     r"(\{.*?\}) has weight (\d+)", lines[1])
                    if not m:
                        return "malformed witness"
                    witness = (_vset(m.group(1)), int(m.group(2)),
                               _vset(m.group(3)), int(m.group(4)))
            if covered != space.contains([1] * g.n):
                return "wrong well-coveredness"
            if witness is not None:
                a, wa, b, wb = witness
                if covered or not (_is_mis(g, a) and _is_mis(g, b)) \
                        or (len(a), len(b)) != (wa, wb) or wa == wb:
                    return "invalid witness"
            return None
        if verb == "check-weighting":
            ok = data["w_well_covered"] if as_json else {"yes": True, "no": False}[text]
            return None if ok == space.contains(weights) else "wrong verdict"
        if verb == "mdtree":
            tree = data if as_json else parse_mdtree_text(text)
            return check_mdtree(g, tree)
        if verb == "recognize":
            if as_json:
                got = data
            else:
                got = {}
                for ln in text.split("\n"):
                    name, _, val = ln.partition(": ")
                    got[name.replace("-", "_")] = {"yes": True, "no": False}[val]
            want = recognize_flags(inst)
            return None if got == want else f"flags {got} != {want}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return f"unknown verb {verb}"
