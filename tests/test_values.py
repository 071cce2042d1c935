"""The value classes (Graph, LinearSystem, WeightVector, Basis, MDNode and
SolverConfig) behave as the frozen dataclasses they replace: equality and
hashing by field within one class, the same repr, assignment refused with
``dataclasses.FrozenInstanceError``, and copies and pickles equal to the
original."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from wellcovered.graph import Graph
from wellcovered.linalg import Basis, LinearSystem, WeightVector, make_system
from wellcovered.modular import md_tree
from wellcovered.systems import SolverConfig


def _cases():
    """(make, other, fields, repr): ``make()`` builds a fresh instance each
    call, ``other`` differs from it in one field."""
    half = Fraction(1, 2)
    return [
        (
            lambda: Graph(2, (2, 1)),
            Graph(2, (0, 0)),
            ("n", "adj"),
            "Graph(n=2, adj=(2, 1))",
        ),
        (
            lambda: make_system(2, [(1, -1), (0, half)], ["a", "b"]),
            make_system(2, [(1, -1), (0, half)], ["a", "c"]),
            ("num_vars", "terms", "tags"),
            "LinearSystem(num_vars=2, terms=(((0, 1), (1, -1)), "
            "((1, Fraction(1, 2)),)), tags=('a', 'b'))",
        ),
        (
            lambda: WeightVector([1, half]),
            WeightVector([1, 1]),
            ("values",),
            "WeightVector(values=(1, Fraction(1, 2)))",
        ),
        (
            lambda: Basis((WeightVector((1, half)),)),
            Basis(()),
            ("vectors",),
            "Basis(vectors=(WeightVector(values=(1, Fraction(1, 2))),))",
        ),
        (
            lambda: md_tree(Graph.from_edges(3, [(0, 1)])),
            md_tree(Graph.from_edges(3, [(1, 2)])),
            ("kind", "vertex", "children", "vertex_set", "quotient", "reps"),
            "MDNode(kind='parallel', vertices=3, children=2)",
        ),
        (
            lambda: SolverConfig("modular", 7),
            SolverConfig("modular", 8),
            ("strategy", "mis_cap"),
            "SolverConfig(strategy='modular', mis_cap=7)",
        ),
    ]


CASES = _cases()
IDS = [case[3].partition("(")[0] for case in CASES]


@pytest.mark.parametrize("make, other, fields, text", CASES, ids=IDS)
class TestValueClass:
    def test_equality_by_field_within_the_class(self, make, other, fields, text):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != other and other != a
        as_tuple = tuple(getattr(a, name) for name in fields)
        assert a != as_tuple and as_tuple != a
        assert a != text and a is not None

    def test_hash_agrees_with_equality(self, make, other, fields, text):
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2

    def test_repr(self, make, other, fields, text):
        assert repr(make()) == text

    def test_fields_are_frozen(self, make, other, fields, text):
        a = make()
        for name in fields:
            value = getattr(a, name)
            with pytest.raises(FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(a, name, value)
            with pytest.raises(FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(a, name)
        with pytest.raises(FrozenInstanceError):
            a.extra = 1
        assert a == make()

    def test_copies_and_pickles_are_equal(self, make, other, fields, text):
        a = make()
        copies = [copy.copy(a), copy.deepcopy(a)]
        copies += [
            pickle.loads(pickle.dumps(a, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for b in copies:
            assert type(b) is type(a) and b == a and hash(b) == hash(a)
            assert repr(b) == text
        with pytest.raises(FrozenInstanceError):
            setattr(copies[-1], fields[0], None)


def test_distinct_classes_with_equal_fields_differ():
    values = (1, 2)
    assert WeightVector(values) != Basis(values)
    assert Basis(values) != WeightVector(values)


def test_copied_system_builds_its_dense_view():
    s = make_system(3, [(1, 0, -1)], ["t"])
    for t in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert t.rows == ((1, 0, -1),) and len(t) == 1


def test_constructors_still_check():
    with pytest.raises(TypeError):
        WeightVector([0.5])
    with pytest.raises(ValueError):
        LinearSystem(2, ((1,),), ("",))
    with pytest.raises(ValueError):
        SolverConfig("magic")
    with pytest.raises(TypeError):
        SolverConfig(mis_cap=2.5)
    assert SolverConfig() == SolverConfig(strategy="auto", mis_cap=1_000_000)
