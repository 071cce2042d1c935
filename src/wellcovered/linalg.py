"""Exact rational linear algebra for homogeneous systems.

Coefficients are Python ints or fractions.Fraction values; both are exact
arbitrary-precision rationals (Fraction keeps gcd-reduced form with a
positive denominator, and ints are the integral case). Floats are rejected
at the public boundary (``LinearSystem(...)``, ``make_system``,
``system_from_json``, ``WeightVector`` and ``evaluate``) so no rounding can
corrupt a solution space. Systems derived inside the package from checked
systems or from ints are built by ``_trusted_system``, and the basis
vectors of ``null_space_basis`` by ``_trusted_vector``; neither checks
anything again. Systems are immutable; elimination always works on copies.

A row is stored by its terms: a tuple of ``(col, coeff)`` pairs, one per
nonzero coefficient, in increasing column order (``LinearSystem.terms``).
The rows of well-covering systems are unit rows with a handful of
nonzeros each, so every layer that builds, lifts, reduces, evaluates or
prints a row costs its nonzeros, not ``num_vars``. ``_diff_row`` builds
a unit row from two column bitmasks. Only the dense contract densifies:
``LinearSystem(...)`` takes dense rows, ``LinearSystem.rows`` is a dense
view built on first use and cached, ``system_to_json`` writes every
entry, and basis vectors are dense.

rank, extract_independent_subsystem, null_space_basis and
same_solution_space share one elimination kernel that sees Python ints only.
It is incremental: it reduces one row against an echelon and returns what
is left, which is stored only if the caller wants it, so they are loops
over it, and so is the claw-free base of ``systems``, which skips candidate
rows already in the span and stores a new row only once it is accepted.
The kernel is sparse: a row is a dict of its nonzero entries,
``{col: int}``, so a cancellation costs the nonzeros of the echelon row, not
``num_vars``. Each row is scaled by the lcm of its denominators and reduced
by fraction-free cross-multiplication, in the manner of Bareiss (1968),
always on its leftmost nonzero column. Inputs and outputs stay exact int
and Fraction values; null_space_basis returns the canonical basis read off
the reduced row echelon form, built with one Fraction per nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .graph import _C_STEP, _bit_list

Coeff = int | Fraction
# the nonzero (col, coeff) pairs of a row, in increasing column order
Row = tuple[tuple[int, Coeff], ...]


def _check_entries(values: Iterable) -> None:
    for x in values:
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise TypeError(f"exact rational required, got {type(x).__name__}")


def _canon(x: Coeff) -> Coeff:
    """Prefer plain ints for integral values."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _diff_row(plus: int, minus: int) -> Row:
    """The indicator row of the column bitmask ``plus`` minus that of
    ``minus``, whose terms are 1 and -1. A few columns are found one at a
    time, many are listed in C."""
    diff = plus ^ minus
    if diff.bit_count() <= _C_STEP:
        row = []
        while diff:  # iter_bits, inlined: most rows have a handful of terms
            low = diff & -diff
            diff ^= low
            row.append((low.bit_length() - 1, 1 if plus & low else -1))
        return tuple(row)
    row = [(c, 1) for c in _bit_list(plus & ~minus)]
    row += [(c, -1) for c in _bit_list(minus & ~plus)]
    row.sort()
    return tuple(row)


@dataclass(frozen=True, init=False)
class LinearSystem:
    """A homogeneous linear system with one variable per vertex.

    Right-hand sides are implicitly zero and never stored. Each row is held
    as its terms, the nonzero ``(col, coeff)`` pairs in increasing column
    order, and carries a free-text provenance tag. ``LinearSystem(num_vars,
    rows, tags)`` takes dense coefficient vectors, checks them and stores
    them and the tags as tuples, so a system is hashable; ``rows`` gives
    them back, and on a system built inside the package it is a
    dense view built on first use and cached. ``len`` counts the rows
    without building it, and ``==`` compares the variable count, the terms
    and the tags, as dense rows would compare.
    """

    num_vars: int
    terms: tuple[Row, ...]
    tags: tuple[str, ...]

    def __init__(
        self,
        num_vars: int,
        rows: tuple[tuple[Coeff, ...], ...],
        tags: tuple[str, ...],
    ):
        if type(rows) is not tuple or any(type(r) is not tuple for r in rows):
            rows = tuple(map(tuple, rows))
        tags = tuple(tags)
        if len(rows) != len(tags):
            raise ValueError("one tag per row required")
        for row in rows:
            if len(row) != num_vars:
                raise ValueError(
                    f"row of length {len(row)} in a system over "
                    f"{num_vars} variables"
                )
            _check_entries(row)
        terms = tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in rows)
        self.__dict__.update(num_vars=num_vars, terms=terms, tags=tags, rows=rows)

    @cached_property
    def rows(self) -> tuple[tuple[Coeff, ...], ...]:
        """The dense coefficient vectors of the rows."""
        dense = []
        for row in self.terms:
            out: list[Coeff] = [0] * self.num_vars
            for c, x in row:
                out[c] = x
            dense.append(tuple(out))
        return tuple(dense)

    def __len__(self) -> int:
        return len(self.terms)


def _trusted_system(
    num_vars: int, terms: tuple[Row, ...], tags: tuple[str, ...]
) -> LinearSystem:
    """A LinearSystem built from rows given by their terms, without the
    checks of ``__init__``, for rows taken from checked systems or made of
    ints, one tag per row, each with columns below ``num_vars``."""
    s = object.__new__(LinearSystem)
    s.__dict__.update(num_vars=num_vars, terms=terms, tags=tags)
    return s


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
    """A vertex-indexed rational weighting, its values stored as a tuple."""

    values: tuple[Coeff, ...]

    def __post_init__(self):
        self.__dict__["values"] = tuple(self.values)
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


def _trusted_vector(values: tuple[Coeff, ...]) -> WeightVector:
    """A WeightVector built without the check of ``__post_init__``, for
    values the elimination kernel made itself."""
    w = object.__new__(WeightVector)
    w.__dict__["values"] = values
    return w


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
# _reduce is the one kernel: it reduces one row against an echelon. Rows are
# dicts {col: int} of their nonzero entries; an entry that cancels to zero
# is dropped. The leftmost nonzero column of the row is cancelled against
# the echelon row with that pivot, by cross-multiplication with both
# multipliers divided by their gcd, until the row is empty or its leftmost
# column has no echelon row. _store keeps such a residual, divided by its
# content and signed so that its pivot is positive, and _insert is the two
# in turn. _echelon feeds _insert the rows of a system in input order; the
# claw-free base of systems.py reduces each candidate row and stores it
# only once the candidate is accepted.


def _integer_row(row: Row) -> dict[int, int]:
    """The terms of the row times the lcm of their denominators."""
    d = lcm(*[x.denominator for _, x in row])
    if d == 1:
        return {c: x.numerator for c, x in row}
    return {c: x.numerator * (d // x.denominator) for c, x in row}


def _primitive(row: dict[int, int], pivot: int) -> dict[int, int]:
    """The row divided by its content, with a positive entry at ``pivot``."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _cancel(row: dict[int, int], er: dict[int, int], col: int) -> dict[int, int]:
    """A combination of ``row`` and ``er`` without column ``col``.

    Both rows hold ``col``. ``row`` is consumed: the result may be ``row``
    itself, changed in place. Reads every entry of ``er`` once.
    """
    g = gcd(er[col], row[col])
    a, b = er[col] // g, row[col] // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, y in er.items():
        x = row.get(c, 0) - b * y
        if x:
            row[c] = x
        else:
            del row[c]
    if a == 1:
        return row
    # the result is zero at col, so only its content is divided out
    g = gcd(*row.values())
    return row if g in (0, 1) else {c: x // g for c, x in row.items()}


def _reduce(
    echelon: dict[int, dict[int, int]], work: dict[int, int]
) -> dict[int, int] | None:
    """Reduce the sparse integer row ``work`` against ``echelon``.

    ``echelon`` maps pivot columns to primitive sparse integer rows with a
    positive pivot and nothing left of it. Returns the residual, whose
    leftmost column has no echelon row, or None when ``work`` lies in the
    span of the echelon. ``work`` is consumed and ``echelon`` is left as
    it was.
    """
    while work:
        lead = min(work)
        er = echelon.get(lead)
        if er is None:
            return work
        work = _cancel(work, er, lead)
    return None


def _store(echelon: dict[int, dict[int, int]], residual: dict[int, int]) -> int:
    """Store a residual of ``_reduce`` in ``echelon``; returns its pivot."""
    lead = min(residual)
    echelon[lead] = _primitive(residual, lead)
    return lead


def _insert(echelon: dict[int, dict[int, int]], row: Row) -> int | None:
    """Reduce ``row`` against ``echelon`` and, if anything is left, store it.

    Returns the pivot column of the stored row, or None when ``row`` lies
    in the span of the echelon.
    """
    residual = _reduce(echelon, _integer_row(row))
    return None if residual is None else _store(echelon, residual)


def _echelon(s: LinearSystem) -> tuple[list[int], dict[int, dict[int, int]]]:
    """Greedy integer echelon of the rows of ``s``, taken in input order.

    Returns the indices of the kept rows (each independent of the rows
    before it) and the echelon built by ``_insert``.
    """
    echelon: dict[int, dict[int, int]] = {}
    kept: list[int] = []
    for idx, row in enumerate(s.terms):
        if len(echelon) == s.num_vars:
            break
        if _insert(echelon, row) is not None:
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
    return _trusted_system(
        s.num_vars,
        tuple(s.terms[i] for i in kept),
        tuple(s.tags[i] for i in kept),
    )


def null_space_basis(s: LinearSystem) -> Basis:
    """Canonical basis of the solution space of ``s``.

    One vector per free column of the reduced row echelon form, with the
    free variable set to 1 and all other free variables set to 0. The basis
    has num_vars - rank(s) vectors.
    """
    _, echelon = _echelon(s)
    # back-substitution, bottom-up: clear every later pivot column, so each
    # row becomes a positive multiple of its row of the reduced row echelon
    # form. A reduced row is zero at every other pivot column, so cancelling
    # with it brings in no pivot column to clear.
    rows: dict[int, dict[int, int]] = {}
    for pc in sorted(echelon, reverse=True):
        row = echelon[pc]
        for later in [c for c in row if c in rows]:
            row = _cancel(row, rows[later], later)
        rows[pc] = _primitive(row, pc)
    n = s.num_vars
    free_vals = {free: [0] * n for free in range(n) if free not in rows}
    for free, vals in free_vals.items():
        vals[free] = 1
    for pc, row in rows.items():
        p = row[pc]
        for c, x in row.items():
            if c != pc:  # every other column of a reduced row is free
                free_vals[c][pc] = -x if p == 1 else _canon(Fraction(-x, p))
    return Basis(tuple(_trusted_vector(tuple(v)) for v in free_vals.values()))


def same_solution_space(a: LinearSystem, b: LinearSystem) -> bool:
    """True iff the two systems have identical solution sets.

    Row spaces coincide exactly when every row of b lies in the span of a
    and rank(b) = rank(a).
    """
    if a.num_vars != b.num_vars:
        raise ValueError(
            f"variable count mismatch: {a.num_vars} vs {b.num_vars}"
        )
    _, echelon = _echelon(a)
    if any(_insert(echelon, row) is not None for row in b.terms):
        return False
    return rank(b) == len(echelon)


def evaluate(s: LinearSystem, w: WeightVector | Sequence[Coeff]) -> bool:
    """True iff ``w`` satisfies every equation of ``s``."""
    values = tuple(w)
    _check_entries(values)
    if len(values) != s.num_vars:
        raise ValueError(
            f"weight vector of length {len(values)} for a system over "
            f"{s.num_vars} variables"
        )
    for row in s.terms:
        if sum(x * values[c] for c, x in row) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def system_to_json(s: LinearSystem) -> dict:
    """JSON-friendly dict with rows as [numerator, denominator] pairs, one
    per variable."""
    rows = []
    for row in s.terms:
        out = [[0, 1] for _ in range(s.num_vars)]
        for c, x in row:
            out[c] = [x.numerator, x.denominator]
        rows.append(out)
    return {"num_vars": s.num_vars, "rows": rows, "tags": list(s.tags)}


def system_from_json(data: dict) -> LinearSystem:
    rows = tuple(
        tuple(_canon(Fraction(p, q)) for p, q in row) for row in data["rows"]
    )
    tags = tuple(data.get("tags") or ("",) * len(rows))
    return LinearSystem(int(data["num_vars"]), rows, tags)


def basis_to_json(b: Basis, num_vars: int) -> dict:
    """JSON form of ``b``, a basis of weightings of ``num_vars`` variables."""
    return {
        "num_vars": num_vars,
        "vectors": [[[x.numerator, x.denominator] for x in v] for v in b.vectors],
    }


def basis_from_json(data: dict) -> Basis:
    return Basis(
        tuple(
            WeightVector(tuple(_canon(Fraction(p, q)) for p, q in vec))
            for vec in data["vectors"]
        )
    )


def _equation(row: Row, names: Sequence[str]) -> str:
    """``format_equation`` on the terms of a row; names[i] is "x_{i + 1}"."""
    text = " ".join([
        f"{'-' if x < 0 else '+'} {'' if abs(x) == 1 else f'{abs(x)}*'}{names[c]}"
        for c, x in row
    ])
    if not text:
        return "0 = 0"
    # the first term carries no "+" and no space after its sign
    return (text[2:] if text[0] == "+" else "-" + text[2:]) + " = 0"


def _names(num_vars: int) -> list[str]:
    return [f"x_{i + 1}" for i in range(num_vars)]


def format_equation(row: Sequence[Coeff]) -> str:
    """Render a row as a signed equation, e.g. "-x_3 + x_4 - x_5 = 0".

    Coefficients are exact, ints or Fractions, as ``LinearSystem`` rows
    hold them; a float is not a valid coefficient, and one prints as Python
    prints it. Variables are 1-indexed. Unit coefficients print as bare
    signed terms; other rationals print as "p/q*x_i".
    """
    return _equation(tuple((c, x) for c, x in enumerate(row) if x), _names(len(row)))


def system_to_text(s: LinearSystem) -> str:
    """Human-readable rendering, one equation per line, tagged."""
    names = _names(s.num_vars)
    lines = []
    for row, tag in zip(s.terms, s.tags):
        line = _equation(row, names)
        if tag:
            line += f"  # {tag}"
        lines.append(line)
    return "\n".join(lines)
