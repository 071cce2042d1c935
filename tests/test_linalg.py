from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil as gu
from wellcovered.linalg import (
    Basis,
    LinearSystem,
    WeightVector,
    basis_from_json,
    basis_to_json,
    empty_system,
    evaluate,
    extract_independent_subsystem,
    format_equation,
    make_system,
    null_space_basis,
    rank,
    same_solution_space,
    system_from_json,
    system_to_json,
    system_to_text,
)
from wellcovered.systems import bruteforce_system

BULL_ROWS = [(0, 0, -1, 1, -1), (-1, 1, -1, 0, 0)]
BULL_BASIS = [(1, 1, 0, 0, 0), (0, 1, 1, 1, 0), (0, 0, 0, 1, 1)]


class TestConstruction:
    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            make_system(3, [(1, 0)])

    def test_tag_count_checked(self):
        with pytest.raises(ValueError):
            LinearSystem(2, ((1, 0),), ())

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            make_system(2, [(0.5, 1)])
        with pytest.raises(TypeError):
            WeightVector((1.0, 2))

    def test_fractions_canonical(self):
        s = make_system(2, [(Fraction(2, 4), 1)])
        assert s.rows[0][0] == Fraction(1, 2)
        assert s.rows[0][0].denominator == 2

    def test_len_is_equation_count(self):
        assert len(make_system(3, [(1, 0, 0), (0, 1, 0)])) == 2
        assert len(empty_system(5)) == 0


class TestRank:
    def test_empty(self):
        assert rank(empty_system(4)) == 0
        assert rank(empty_system(0)) == 0

    def test_bull(self):
        assert rank(make_system(5, BULL_ROWS)) == 2

    def test_identical_rows(self):
        assert rank(make_system(3, [(1, 2, 0), (1, 2, 0)])) == 1

    def test_zero_rows_ignored(self):
        assert rank(make_system(3, [(0, 0, 0), (0, 1, 0)])) == 1

    def test_fractional_entries(self):
        s = make_system(2, [(Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3))])
        assert rank(s) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.data(),
    )
    def test_matches_bareiss(self, ncols, nrows, data):
        rows = [
            tuple(
                data.draw(st.integers(min_value=-6, max_value=6))
                for _ in range(ncols)
            )
            for _ in range(nrows)
        ]
        assert rank(make_system(ncols, rows)) == gu.bareiss_rank(rows)


class TestExtract:
    def test_dependent_bull_pairs(self):
        # all pairwise weight differences of the bull's three maximal
        # independent sets {0,3}, {1,4}, {0,2,4}: the third row is the sum
        # of the first two, so only two survive
        r12 = (1, -1, 0, 1, -1)
        r23 = (-1, 1, -1, 0, 0)
        r13 = (0, 0, -1, 1, -1)
        assert r13 == tuple(a + b for a, b in zip(r12, r23))
        s = make_system(5, [r12, r23, r13], ["a", "b", "c"])
        out = extract_independent_subsystem(s)
        assert out.rows == (r12, r23)
        assert out.tags == ("a", "b")

    def test_zero_system(self):
        s = make_system(3, [(0, 0, 0), (0, 0, 0)])
        assert extract_independent_subsystem(s) == empty_system(3)

    def test_independent_unchanged(self):
        s = make_system(3, [(0, 1, 2), (1, 0, 0)], ["p", "q"])
        assert extract_independent_subsystem(s) == s

    def test_idempotent_and_space_preserving(self):
        rng = gu.seeded(21)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(ncols))
                for _ in range(rng.randint(0, 8))
            ]
            s = make_system(ncols, rows)
            out = extract_independent_subsystem(s)
            assert len(out) == rank(s) <= min(ncols, len(s))
            assert same_solution_space(s, out) or len(s) == 0
            assert extract_independent_subsystem(out) == out

    def test_rows_are_originals_in_order(self):
        rng = gu.seeded(22)
        for _ in range(40):
            ncols = rng.randint(1, 5)
            rows = [
                tuple(rng.randint(-2, 2) for _ in range(ncols))
                for _ in range(rng.randint(1, 7))
            ]
            s = make_system(ncols, rows)
            out = extract_independent_subsystem(s)
            it = iter(enumerate(s.rows))
            for row in out.rows:
                assert any(r == row for _, r in it)


class TestNullSpace:
    def test_bull_basis_span(self):
        s = make_system(5, BULL_ROWS)
        basis = null_space_basis(s)
        assert basis.dimension == 3
        for vec in basis.vectors:
            assert evaluate(s, vec)
        # the three published weightings lie in the space and span it
        for b in BULL_BASIS:
            assert evaluate(s, b)
        assert rank(make_system(5, BULL_BASIS)) == 3

    def test_empty_system_standard_basis(self):
        basis = null_space_basis(empty_system(4))
        assert [tuple(v) for v in basis.vectors] == [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ]

    def test_full_rank_empty_basis(self):
        s = make_system(2, [(1, 0), (1, 1)])
        assert null_space_basis(s).dimension == 0

    def test_count_and_membership(self):
        rng = gu.seeded(23)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(ncols))
                for _ in range(rng.randint(0, 6))
            ]
            s = make_system(ncols, rows)
            basis = null_space_basis(s)
            assert basis.dimension == ncols - rank(s)
            for vec in basis.vectors:
                assert evaluate(s, vec)
            if basis.vectors:
                assert rank(make_system(ncols, [tuple(v) for v in basis.vectors])) \
                    == basis.dimension


def _entries():
    # zeros often, so that rows are sparse and pivots get skipped
    return st.one_of(
        st.just(0),
        st.integers(-6, 6),
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
    )


@st.composite
def rational_systems(draw):
    """Systems of mixed int/Fraction rows plus zero rows and duplicate or
    rescaled copies (negative factors included), in shuffled order."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.tuples(*[_entries()] * n), max_size=7))
    extra = []
    for row in rows:
        for factor in draw(
            st.lists(st.sampled_from([1, -1, 2, -3, Fraction(-1, 2)]), max_size=2)
        ):
            extra.append(tuple(factor * x for x in row))
    extra += [(0,) * n] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows + extra))
    return make_system(n, rows, [f"r{i}" for i in range(len(rows))])


def _integral_rows(s):
    """Each row times the product of its denominators."""
    out = []
    for row in s.rows:
        scale = 1
        for x in row:
            scale *= Fraction(x).denominator
        out.append([int(x * scale) for x in row])
    return out


def _basis_repr(b):
    # repr tells an int from an integral Fraction, as the CLI output does
    return [[repr(x) for x in v] for v in b.vectors]


def _assert_matches_oracles(s):
    r = rank(s)
    assert r == gu.fraction_rank(s) == gu.bareiss_rank(_integral_rows(s))
    out = extract_independent_subsystem(s)
    expected = gu.fraction_extract(s)
    assert out.rows == expected.rows and out.tags == expected.tags
    assert len(out) == r
    assert _basis_repr(null_space_basis(s)) == _basis_repr(gu.fraction_rref_basis(s))


class TestKernelAgainstFractionOracles:
    @settings(max_examples=300, deadline=None)
    @given(rational_systems())
    def test_random_rational_systems(self, s):
        _assert_matches_oracles(s)

    def test_negative_pivots(self):
        s = make_system(3, [(-2, 4, 0), (0, -3, 1), (1, -2, 0), (0, 0, -5)])
        _assert_matches_oracles(s)
        assert [tuple(v) for v in null_space_basis(make_system(2, [(-2, 3)])).vectors] \
            == [(Fraction(3, 2), 1)]

    def test_no_variables(self):
        for s in (empty_system(0), make_system(0, [(), ()])):
            _assert_matches_oracles(s)
            assert rank(s) == 0 and null_space_basis(s).dimension == 0

    def test_tall_bruteforce_system(self):
        # hundreds of maximal independent sets over 34 variables
        g = gu.random_graph(gu.seeded(34), 34, 0.3)
        s = bruteforce_system(g)
        assert len(s) > 300
        _assert_matches_oracles(s)


class TestSameSolutionSpace:
    def test_bull_system_variants(self):
        # all-vs-last versus consecutive differences over the same sets
        i1, i2, i3 = {0, 3}, {1, 4}, {0, 2, 4}

        def diff(a, b):
            return tuple(
                (1 if v in a else 0) - (1 if v in b else 0) for v in range(5)
            )

        all_vs_last = make_system(5, [diff(i1, i3), diff(i2, i3)])
        consecutive = make_system(5, [diff(i1, i2), diff(i2, i3)])
        assert same_solution_space(all_vs_last, consecutive)

    def test_scaling(self):
        a = make_system(2, [(1, -1)])
        b = make_system(2, [(2, -2)])
        assert same_solution_space(a, b)

    def test_different_axes(self):
        a = make_system(2, [(1, 0)])
        b = make_system(2, [(0, 1)])
        assert not same_solution_space(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            same_solution_space(empty_system(2), empty_system(3))


class TestEvaluate:
    def test_bull_member(self):
        s = make_system(5, BULL_ROWS)
        assert evaluate(s, (1, 1, 0, 0, 0))

    def test_bull_all_ones(self):
        s = make_system(5, BULL_ROWS)
        assert not evaluate(s, (1, 1, 1, 1, 1))

    def test_empty_system(self):
        assert evaluate(empty_system(3), (5, -2, Fraction(1, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(empty_system(3), (1, 2))

    def test_weight_vector_weight(self):
        w = WeightVector((1, Fraction(1, 2), -2))
        assert w.weight({0, 1}) == Fraction(3, 2)
        assert w.weight(range(3)) == Fraction(-1, 2)
        assert w.weight(()) == 0


class TestSerialization:
    def test_json_roundtrip(self):
        s = make_system(
            3,
            [(1, Fraction(-1, 2), 0), (0, 2, -3)],
            ["first", "second"],
        )
        assert system_from_json(system_to_json(s)) == s

    def test_basis_roundtrip(self):
        b = Basis((WeightVector((1, Fraction(2, 3))), WeightVector((0, -1))))
        assert basis_from_json(basis_to_json(b, 2)) == b

    def test_format_unit(self):
        assert format_equation((0, 0, -1, 1, -1)) == "-x_3 + x_4 - x_5 = 0"
        assert format_equation((-1, 1, -1, 0, 0)) == "-x_1 + x_2 - x_3 = 0"

    def test_format_rational(self):
        assert format_equation((Fraction(3, 2), -2)) == "3/2*x_1 - 2*x_2 = 0"

    def test_format_zero(self):
        assert format_equation((0, 0)) == "0 = 0"

    def test_text_with_tags(self):
        s = make_system(2, [(1, -1)], ["pair"])
        assert system_to_text(s) == "x_1 - x_2 = 0  # pair"
