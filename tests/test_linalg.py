import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genutil as gu
import wellcovered.linalg as linalg
from wellcovered.linalg import (
    Basis,
    LinearSystem,
    WeightVector,
    _insert,
    _reduce,
    _trusted_system,
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
from wellcovered.systems import (
    _query_system,
    bruteforce_system,
    clawfree_system,
    well_covering_system,
)

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
            LinearSystem(2, ((1, 0.5),), ("",))
        with pytest.raises(TypeError):
            system_from_json({"num_vars": 2, "rows": [[[1, 2], [0.5, 1]]]})
        with pytest.raises(TypeError):
            WeightVector((1.0, 2))
        with pytest.raises(TypeError):
            evaluate(make_system(2, [(1, -1)]), (0.5, 0.5))

    def test_internal_builds_check_nothing(self, monkeypatch):
        # entries are checked at the public boundary; systems derived from
        # checked systems or ints inside the package are not checked again
        from wellcovered.systems import (
            STRATEGIES,
            SolverConfig,
            StrategyError,
            well_covered_dimension,
            well_covering_system,
        )

        checked = []
        real = linalg._check_entries
        monkeypatch.setattr(
            linalg, "_check_entries", lambda v: checked.append(v) or real(v)
        )
        for g in (gu.bull(), gu.fork(), gu.petersen()):
            for strategy in STRATEGIES:
                cfg = SolverConfig(strategy=strategy)
                try:
                    well_covering_system(g, cfg)
                    well_covered_dimension(g, cfg)
                except StrategyError:
                    continue
        assert checked == []

    def test_fractions_canonical(self):
        s = make_system(2, [(Fraction(2, 4), 1)])
        assert s.rows[0][0] == Fraction(1, 2)
        assert s.rows[0][0].denominator == 2

    def test_len_is_equation_count(self):
        assert len(make_system(3, [(1, 0, 0), (0, 1, 0)])) == 2
        assert len(empty_system(5)) == 0


class TestSparseStorage:
    """A row is stored as its terms; ``rows`` is the dense view."""

    def test_public_rows_are_kept_and_read_as_terms(self):
        rows = ((0, Fraction(1, 2), 0, -1), (0, 0, 0, 0))
        s = LinearSystem(4, rows, ("a", ""))
        assert s.rows is rows
        assert s.terms == (((1, Fraction(1, 2)), (3, -1)), ())

    def test_rows_is_a_dense_view_built_once(self):
        s = _trusted_system(
            4, (((0, 1), (2, -1)), (), ((3, Fraction(2, 3)),)), ("a", "b", "c")
        )
        assert "rows" not in vars(s)
        assert s.rows == ((1, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, Fraction(2, 3)))
        assert all(type(row) is tuple for row in s.rows)
        assert s.rows is s.rows

    def test_len_builds_no_dense_view(self):
        s = _trusted_system(5, (((0, 1), (4, -1)), ((1, 1), (2, -1))), ("", ""))
        assert len(s) == 2
        assert "rows" not in vars(s)
        # nor does building, reducing, evaluating or printing a system
        for g in (gu.bull(), gu.path(9), gu.random_cograph(gu.seeded(5), 30)):
            for system in (well_covering_system(g), _query_system(g)):
                assert len(system) == len(system.tags)
                rank(system)
                extract_independent_subsystem(system)
                evaluate(system, (1,) * g.n)
                system_to_text(system)
                system_to_json(system)
                assert "rows" not in vars(system)

    def test_equality_as_of_dense_rows(self):
        dense = make_system(
            3, [(1, -1, 0), (0, Fraction(1), Fraction(-1, 2))], ["a", "b"]
        )
        sparse = _trusted_system(
            3, (((0, 1), (1, -1)), ((1, 1), (2, Fraction(-1, 2)))), ("a", "b")
        )
        assert dense == sparse and sparse == dense
        assert hash(dense) == hash(sparse)
        assert dense.rows == sparse.rows
        assert sparse != make_system(3, [(1, -1, 0), (0, 1, 0)], ["a", "b"])
        assert sparse != _trusted_system(3, sparse.terms, ("a", "c"))
        assert sparse != _trusted_system(4, sparse.terms, sparse.tags)
        assert make_system(2, [(0, 0)]) == _trusted_system(2, ((),), ("",))

    def test_immutable(self):
        s = make_system(2, [(1, -1)])
        with pytest.raises(AttributeError):
            s.terms = ()
        with pytest.raises(AttributeError):
            s.num_vars = 3

    def test_lists_are_stored_as_tuples(self):
        # a system and a weighting built from lists are the ones built from
        # tuples: equal, hashable, and with no list to append a tag to
        rows, tags = [[1, -1]], ["t"]
        s = LinearSystem(2, rows, tags)
        assert s == make_system(2, [(1, -1)], ["t"])
        assert hash(s) == hash(make_system(2, [(1, -1)], ["t"]))
        assert s.rows == ((1, -1),) and s.tags == ("t",)
        rows[0].append(0)
        tags.append("x")
        assert s.rows == ((1, -1),) and s.tags == ("t",) and len(s) == 1
        w = WeightVector([1, 2])
        assert w == WeightVector((1, 2)) and w.values == (1, 2)
        assert hash(w) == hash(WeightVector((1, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_terms_match_dense_rows(self, data):
        s = data.draw(st.one_of(rational_systems(), wide_sparse_systems()))
        assert s.terms == tuple(gu.terms(row) for row in s.rows)
        copy = _trusted_system(s.num_vars, s.terms, s.tags)
        assert copy.rows == s.rows and copy == s


class TestWeightVector:
    def test_floats_and_bools_rejected(self):
        for values in ((1.0, 2), (0, 0.5), (True, 0), (0, False)):
            with pytest.raises(TypeError):
                WeightVector(values)
        assert WeightVector((1, Fraction(1, 2))).values == (1, Fraction(1, 2))

    def test_basis_vectors_built_unchecked(self, monkeypatch):
        # the kernel's own entries are not checked again; the vectors are
        # those the public constructor makes
        s = make_system(4, [(2, -1, 0, Fraction(1, 3)), (0, 0, 1, -1)])
        checked = []
        real = linalg._check_entries
        monkeypatch.setattr(
            linalg, "_check_entries", lambda v: checked.append(v) or real(v)
        )
        basis = null_space_basis(s)
        assert checked == []
        expected = gu.fraction_rref_basis(s)
        assert basis == expected
        assert _basis_repr(basis) == _basis_repr(expected)


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


@st.composite
def wide_sparse_systems(draw):
    """Systems over up to 200 variables whose rows have at most 4 nonzero
    entries, with duplicate, rescaled and zero rows, in shuffled order."""
    n = draw(st.integers(0, 200))
    rows = []
    for _ in range(draw(st.integers(0, 12 if n else 2))):
        row = [0] * n
        for c in draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else ():
            row[c] = draw(_entries())
        rows.append(tuple(row))
    extra = []
    for row in rows:
        for factor in draw(
            st.lists(st.sampled_from([1, -1, 3, Fraction(-2, 3)]), max_size=2)
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
    # the sparse kernel does the dense kernel's arithmetic on the nonzeros
    kept, echelon = linalg._echelon(s)
    dense_kept, dense = gu.dense_echelon(s)
    assert kept == dense_kept
    assert echelon == {
        pc: {c: x for c, x in enumerate(row) if x} for pc, row in dense.items()
    }
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

    @settings(max_examples=100, deadline=None)
    @given(wide_sparse_systems())
    def test_wide_sparse_systems(self, s):
        _assert_matches_oracles(s)

    @settings(max_examples=150, deadline=None)
    @given(rational_systems(), st.data())
    def test_same_solution_space_matches_ranks(self, a, data):
        # b takes rescaled rows of a and sums of two of them, so that equal,
        # smaller and (swapped) larger row spaces all occur
        picks = data.draw(st.lists(st.sampled_from(a.rows), max_size=4)) if a.rows else []
        rows = [tuple(-2 * x for x in r) for r in picks]
        rows += [tuple(x + y for x, y in zip(r, t)) for r, t in zip(picks, picks[1:])]
        b = make_system(a.num_vars, rows)
        union = make_system(a.num_vars, a.rows + b.rows)
        expected = gu.fraction_rank(a) == gu.fraction_rank(b) == gu.fraction_rank(union)
        assert same_solution_space(a, b) == same_solution_space(b, a) == expected

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


class TestIncrementalInsert:
    def test_span_test_reads_sparse_rows(self, monkeypatch):
        # the claw-free base's candidate rows have at most four nonzero
        # entries; a cancellation reads only the nonzeros of the echelon
        # row (4.0 per call on K_m x K_m), where a dense row holds m^2
        real = linalg._cancel
        calls, reads = [0], [0]

        def counting(row, er, col):
            calls[0] += 1
            reads[0] += len(er)
            return real(row, er, col)

        monkeypatch.setattr(linalg, "_cancel", counting)
        for m in range(6, 10):
            calls[0] = reads[0] = 0
            assert len(clawfree_system(gu.rook(m))) == m * m - (2 * m - 1)
            assert calls[0] > 0
            assert reads[0] <= 8 * calls[0]

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_long_primes_cancel_linearly(self, monkeypatch, n):
        # the edge equalities of P_n and C_n go to a union-find, so no
        # later span test chases their chain of pivots, which would cost
        # about n^2 / 2 cancellations on P_n
        real = linalg._cancel
        calls = [0]

        def counting(row, er, col):
            calls[0] += 1
            return real(row, er, col)

        monkeypatch.setattr(linalg, "_cancel", counting)
        for g, dimension in ((gu.path(n), 2), (gu.cycle(n), 0)):
            calls[0] = 0
            assert n - len(clawfree_system(g)) == dimension
            assert calls[0] <= 2 * n

    def test_reduce(self):
        echelon = {}
        assert _insert(echelon, gu.terms((1, -1, 0))) == 0
        assert _insert(echelon, gu.terms((0, 2, -2))) == 1
        before = {c: dict(r) for c, r in echelon.items()}
        assert _reduce(echelon, {0: 3, 2: -3}) is None  # in the span
        assert _reduce(echelon, {0: 2, 1: 1, 2: 3}) == {2: 6}
        assert _reduce(echelon, {2: 5}) == {2: 5}  # no pivot to cancel
        assert _reduce(echelon, {}) is None
        assert echelon == before  # nothing stored

    def test_span_and_removal(self):
        echelon = {}
        assert _insert(echelon, gu.terms((1, -1, 0))) == 0
        assert _insert(echelon, gu.terms((0, 1, -1))) == 1
        assert _insert(echelon, gu.terms((2, 0, -2))) is None  # in the span
        assert _insert(echelon, gu.terms((Fraction(1, 2), 0, Fraction(-1, 2)))) is None
        col = _insert(echelon, gu.terms((0, 0, 3)))
        assert col == 2 and echelon[2] == {2: 1}
        del echelon[col]  # the caller turned the row down
        assert sorted(echelon) == [0, 1]
        assert _insert(echelon, gu.terms((0, 0, 1))) == 2


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

    def test_empty_basis_roundtrip(self):
        b = null_space_basis(make_system(2, [(1, 0), (0, 1)]))
        assert b.vectors == ()
        data = basis_to_json(b, 2)
        assert data == {"num_vars": 2, "vectors": []}
        assert basis_from_json(data) == b

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

    @settings(max_examples=200, deadline=None)
    @given(rational_systems())
    @example(make_system(3, [(-2, Fraction(-1), Fraction(3, 2))], [""]))
    @example(make_system(3, [(Fraction(-1), 0, -1), (0, 0, 0)], ["a", ""]))
    @example(make_system(2, [(Fraction(-7, 3), Fraction(4))], ["x"]))
    @example(make_system(0, [(), ()]))
    def test_renderers_match_reference(self, s):
        for row in s.rows:
            assert format_equation(row) == gu.format_equation_reference(row)
        assert system_to_text(s) == "\n".join(
            gu.format_equation_reference(row) + (f"  # {tag}" if tag else "")
            for row, tag in zip(s.rows, s.tags)
        )
        pairs = [gu.json_pairs_reference(row) for row in s.rows]
        assert json.dumps(system_to_json(s)) == json.dumps(
            {"num_vars": s.num_vars, "rows": pairs, "tags": list(s.tags)}
        )
        b = Basis(tuple(WeightVector(row) for row in s.rows))
        assert json.dumps(basis_to_json(b, s.num_vars)) == json.dumps(
            {"num_vars": s.num_vars, "vectors": pairs}
        )

    def test_int_rows_render_without_fractions(self, monkeypatch):
        s = make_system(4, [(1, -1, 0, 2), (0, 0, -3, 1)], ["pair", ""])
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        text = system_to_text(s)
        data = system_to_json(s)
        assert made == []
        assert text == "x_1 - x_2 + 2*x_4 = 0  # pair\n-3*x_3 + x_4 = 0"
        assert data["rows"][1] == [[0, 1], [0, 1], [-3, 1], [1, 1]]
