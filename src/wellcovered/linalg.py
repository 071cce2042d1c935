"""Exact rational linear algebra for homogeneous systems.

Coefficients are Python ints or fractions.Fraction values; both are exact
arbitrary-precision rationals (Fraction keeps gcd-reduced form with a
positive denominator, and ints are the integral case). Floats are rejected
on construction so no rounding can corrupt a solution space. Systems are
immutable; elimination always works on copies.

rank, extract_independent_subsystem and null_space_basis share one
elimination kernel that sees Python ints only: each row is scaled by the lcm
of its denominators and reduced by fraction-free cross-multiplication, in the
manner of Bareiss (1968). Inputs and outputs stay exact int and Fraction
values; null_space_basis returns the canonical basis read off the reduced
row echelon form, built with one Fraction per nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Coeff = int | Fraction


def _check_entries(values: Iterable) -> None:
    for x in values:
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise TypeError(f"exact rational required, got {type(x).__name__}")


def _canon(x: Coeff) -> Coeff:
    """Prefer plain ints for integral values."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _q(x: Coeff) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LinearSystem:
    """A homogeneous linear system with one variable per vertex.

    Rows are coefficient vectors; right-hand sides are implicitly zero and
    never stored. Each row carries a free-text provenance tag.
    """

    num_vars: int
    rows: tuple[tuple[Coeff, ...], ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.tags):
            raise ValueError("one tag per row required")
        for row in self.rows:
            if len(row) != self.num_vars:
                raise ValueError(
                    f"row of length {len(row)} in a system over "
                    f"{self.num_vars} variables"
                )
            _check_entries(row)

    def __len__(self) -> int:
        return len(self.rows)


def make_system(
    num_vars: int,
    rows: Iterable[Sequence[Coeff]],
    tags: Iterable[str] | None = None,
) -> LinearSystem:
    """Convenience constructor; tags default to empty strings."""
    rows = tuple(tuple(r) for r in rows)
    if tags is None:
        tags = ("",) * len(rows)
    return LinearSystem(num_vars, rows, tuple(tags))


def empty_system(num_vars: int) -> LinearSystem:
    return LinearSystem(num_vars, (), ())


@dataclass(frozen=True)
class WeightVector:
    """A vertex-indexed rational weighting."""

    values: tuple[Coeff, ...]

    def __post_init__(self):
        _check_entries(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Coeff:
        return self.values[i]

    def weight(self, vertices: Iterable[int]) -> Coeff:
        """Total weight of a vertex set."""
        return _canon(sum((self.values[v] for v in vertices), start=Fraction(0)))


@dataclass(frozen=True)
class Basis:
    """A list of linearly independent weightings spanning a solution space."""

    vectors: tuple[WeightVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


# ---------------------------------------------------------------------------
# elimination
#
# _echelon is the one kernel. Rows enter in input order and are reduced
# against the echelon built so far: the entry under each pivot is cancelled
# by cross-multiplication with both multipliers divided by their gcd. A row
# with anything left is kept, divided by its content and signed so that its
# pivot (first nonzero column) is positive.


def _integer_row(row: Sequence[Coeff]) -> list[int]:
    """The row times the lcm of its denominators."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row]
    return [x.numerator * (d // x.denominator) for x in row]


def _primitive(row: list[int], pivot: int) -> list[int]:
    """The row divided by its content, with a nonnegative entry at ``pivot``."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return row if g in (0, 1) else [x // g for x in row]


def _cancel(row: list[int], er: list[int], col: int) -> list[int]:
    """A combination of ``row`` and ``er`` that is zero at ``col``.

    ``er[col]`` must be nonzero. Entries left of ``col`` that are zero in
    both rows stay zero.
    """
    g = gcd(er[col], row[col])
    a, b = er[col] // g, row[col] // g
    if a == 1:
        return [x - b * y for x, y in zip(row, er)]
    # the result is zero at col, so only its content is divided out
    return _primitive([a * x - b * y for x, y in zip(row, er)], col)


def _echelon(s: LinearSystem) -> tuple[list[int], dict[int, list[int]]]:
    """Greedy integer echelon of the rows of ``s``, taken in input order.

    Returns the indices of the kept rows (each independent of the rows
    before it) and the echelon as a map from pivot column to a primitive
    integer row with a positive pivot and zeros left of it.
    """
    n = s.num_vars
    echelon: dict[int, list[int]] = {}
    kept: list[int] = []
    for idx, row in enumerate(s.rows):
        if len(echelon) == n:
            break
        work = _integer_row(row)
        lead = 0
        while True:
            lead = next((c for c in range(lead, n) if work[c]), n)
            er = echelon.get(lead)
            if er is None:
                break
            work = _cancel(work, er, lead)
        if lead < n:
            echelon[lead] = _primitive(work, lead)
            kept.append(idx)
    return kept, echelon


def rank(s: LinearSystem) -> int:
    """Rank of the coefficient matrix over the rationals."""
    return len(_echelon(s)[0])


def extract_independent_subsystem(s: LinearSystem) -> LinearSystem:
    """A row basis made of original rows, in their original order.

    Each row is kept iff it is independent of the rows before it. The
    selected rows preserve the row space and their tags; the result has
    rank(s) rows, hence at most min(num_vars, len(s)).
    """
    kept, _ = _echelon(s)
    return LinearSystem(
        s.num_vars,
        tuple(s.rows[i] for i in kept),
        tuple(s.tags[i] for i in kept),
    )


def null_space_basis(s: LinearSystem) -> Basis:
    """Canonical basis of the solution space of ``s``.

    One vector per free column of the reduced row echelon form, with the
    free variable set to 1 and all other free variables set to 0. The basis
    has num_vars - rank(s) vectors.
    """
    _, echelon = _echelon(s)
    pivots = sorted(echelon)
    # back-substitution, bottom-up: clear every later pivot column, so row i
    # becomes a positive multiple of row i of the reduced row echelon form
    rows: dict[int, list[int]] = {}
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        row = echelon[pc]
        for later in pivots[i + 1:]:
            if row[later]:
                row = _cancel(row, rows[later], later)
        rows[pc] = _primitive(row, pc)
    vectors = []
    for free in range(s.num_vars):
        if free in rows:
            continue
        vals: list[Coeff] = [0] * s.num_vars
        vals[free] = 1
        for pc, row in rows.items():
            if row[free]:
                vals[pc] = _canon(Fraction(-row[free], row[pc]))
        vectors.append(WeightVector(tuple(vals)))
    return Basis(tuple(vectors))


def same_solution_space(a: LinearSystem, b: LinearSystem) -> bool:
    """True iff the two systems have identical solution sets.

    Row spaces coincide exactly when rank(a) = rank(b) = rank(a + b).
    """
    if a.num_vars != b.num_vars:
        raise ValueError(
            f"variable count mismatch: {a.num_vars} vs {b.num_vars}"
        )
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    union = LinearSystem(a.num_vars, a.rows + b.rows, a.tags + b.tags)
    return rank(union) == ra


def evaluate(s: LinearSystem, w: WeightVector | Sequence[Coeff]) -> bool:
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


# ---------------------------------------------------------------------------
# serialization


def system_to_json(s: LinearSystem) -> dict:
    """JSON-friendly dict with rows as [numerator, denominator] pairs."""
    return {
        "num_vars": s.num_vars,
        "rows": [[[_q(x).numerator, _q(x).denominator] for x in row] for row in s.rows],
        "tags": list(s.tags),
    }


def system_from_json(data: dict) -> LinearSystem:
    rows = tuple(
        tuple(_canon(Fraction(p, q)) for p, q in row) for row in data["rows"]
    )
    tags = tuple(data.get("tags") or ("",) * len(rows))
    return LinearSystem(int(data["num_vars"]), rows, tags)


def basis_to_json(b: Basis, num_vars: int | None = None) -> dict:
    if num_vars is None:
        num_vars = len(b.vectors[0]) if b.vectors else 0
    return {
        "num_vars": num_vars,
        "vectors": [
            [[_q(x).numerator, _q(x).denominator] for x in v] for v in b.vectors
        ],
    }


def basis_from_json(data: dict) -> Basis:
    return Basis(
        tuple(
            WeightVector(tuple(_canon(Fraction(p, q)) for p, q in vec))
            for vec in data["vectors"]
        )
    )


def format_equation(row: Sequence[Coeff]) -> str:
    """Render a row as a signed equation, e.g. "-x_3 + x_4 - x_5 = 0".

    Variables are 1-indexed. Unit coefficients print as bare signed terms;
    other rationals print as "p/q*x_i".
    """
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


def system_to_text(s: LinearSystem, with_tags: bool = True) -> str:
    """Human-readable rendering, one equation per line."""
    lines = []
    for row, tag in zip(s.rows, s.tags):
        line = format_equation(row)
        if with_tags and tag:
            line += f"  # {tag}"
        lines.append(line)
    return "\n".join(lines)
