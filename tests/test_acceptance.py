"""Acceptance suite.

Each test exercises one acceptance criterion end to end, checks it at its
stated tolerance (all checks are exact), enforces the stated wall-clock
budget, and prints one PASS line (run pytest with -s to see them; a FAIL
surfaces as an ordinary assertion error).
"""

import time

import genutil as gu
from wellcovered.linalg import (
    evaluate,
    make_system,
    rank,
    same_solution_space,
)
from wellcovered.modular import md_tree
from wellcovered.systems import (
    bruteforce_system,
    cograph_system,
    forkfree_system,
    is_well_covered,
    modular_system,
    well_covered_dimension,
    well_covering_system,
)


def report(name, elapsed, budget):
    assert elapsed < budget, f"{name}: {elapsed:.3f}s exceeds budget {budget}s"
    print(f"PASS: {name} ({elapsed:.3f}s < {budget}s)")


def test_criterion_1_bull_golden():
    bull = gu.bull()
    published_basis = [(1, 1, 0, 0, 0), (0, 1, 1, 1, 0), (0, 0, 0, 1, 1)]

    def golden(builder):
        system = builder(bull)
        r = rank(system)
        assert r == 2
        assert bull.n - r == 3
        # the three published weightings solve the system and, being
        # independent, span its 3-dimensional solution space
        for vec in published_basis:
            assert evaluate(system, vec)
        assert rank(make_system(5, published_basis)) == 3

    # the golden values hold on the default pipeline's system as well as on
    # the brute-force one; the timing budget is checked on the latter
    golden(well_covering_system)
    golden(bruteforce_system)
    best = min(_timed(lambda: golden(bruteforce_system)) for _ in range(20))
    report("criterion 1: bull graph golden values", best, 0.001)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_zero_dimension():
    t0 = time.perf_counter()
    cfg = None
    for k in range(8, 13):
        assert well_covered_dimension(gu.cycle(k), cfg) == 0, f"C_{k}"
    assert well_covered_dimension(gu.petersen(), cfg) == 0
    report("criterion 2: zero-dimension cycles and Petersen", time.perf_counter() - t0, 1.0)


def test_criterion_3_tree_leaf_law():
    # trees on fewer than 3 vertices are the known exceptions to the leaf
    # law (a single edge has 2 leaves but dimension 1), so sizes start at 3
    rng = gu.seeded(101)
    t0 = time.perf_counter()
    for _ in range(200):
        g = gu.random_tree(rng, rng.randint(3, 12))
        dim = g.n - rank(bruteforce_system(g))
        assert dim == gu.leaf_count(g)
    report("criterion 3: tree dimension equals leaf count (200 trees)", time.perf_counter() - t0, 30.0)


def test_criterion_4_cograph_bounds():
    rng = gu.seeded(103)
    t0 = time.perf_counter()
    for _ in range(500):
        g = gu.random_cograph(rng, rng.randint(1, 40))
        s = cograph_system(g)
        assert len(s) <= max(g.n - 1, 0)
        gu.system_rows_int(s)  # raises unless every coefficient is integer
        assert g.n - rank(s) >= 1
    report("criterion 4: cograph size bound and positive dimension (500 cographs)", time.perf_counter() - t0, 60.0)


def test_criterion_5_oracle_equivalence():
    rng = gu.seeded(105)
    t0 = time.perf_counter()

    for _ in range(500):
        g = gu.random_graph(rng, rng.randint(1, 10), rng.random())
        assert same_solution_space(modular_system(g), bruteforce_system(g))

    for _ in range(500):
        g = gu.random_graph(rng, rng.randint(1, 10), rng.random())
        s = gu.anti_neighborhood_system(g, bruteforce_system)
        assert same_solution_space(s, bruteforce_system(g))

    for _ in range(500):
        g = gu.random_cograph(rng, rng.randint(1, 10))
        assert same_solution_space(cograph_system(g), bruteforce_system(g))

    for _ in range(500):
        g = gu.random_forkfree(rng, 10)
        assert same_solution_space(forkfree_system(g), bruteforce_system(g))

    report("criterion 5: oracle equivalence (4 pipelines x 500 graphs)", time.perf_counter() - t0, 300.0)


def test_criterion_6_forkfree_guarantees():
    rng = gu.seeded(107)
    t0 = time.perf_counter()
    for _ in range(300):
        g = gu.random_forkfree(rng, 12)
        s = forkfree_system(g)
        assert len(s) <= g.n
        assert all(c in (-1, 0, 1) for row in s.rows for c in row)
        assert rank(s) == len(s)
    report("criterion 6: fork-free unit/independent/size guarantees (300 graphs)", time.perf_counter() - t0, 120.0)


def test_criterion_7_recognition_agreement():
    rng = gu.seeded(109)
    t0 = time.perf_counter()
    for _ in range(2000):
        g = gu.random_graph(rng, rng.randint(0, 7), rng.random())
        assert is_well_covered(g) == gu.is_well_covered_bruteforce(g)
    report("criterion 7: well-coveredness recognition agreement (2000 graphs)", time.perf_counter() - t0, 300.0)


def test_criterion_8_modular_decomposition_soundness():
    rng = gu.seeded(111)
    t0 = time.perf_counter()
    for _ in range(150):
        g = gu.random_graph(rng, rng.randint(2, 7), rng.random())
        assert gu.maximal_strong_modules(g) == gu.brute_maximal_strong_modules(g)
        tree = md_tree(g)
        nodes = list(tree.iter_nodes())
        leaves = sum(1 for x in nodes if x.is_leaf)
        internal = len(nodes) - leaves
        assert leaves >= internal + 1
        assert len(nodes) - 1 <= 2 * leaves - 2
    report("criterion 8: strong modules match brute force; tree bounds (150 graphs)", time.perf_counter() - t0, 60.0)


def test_criterion_9_cograph_scales():
    rng = gu.seeded(113)
    g = gu.random_cograph(rng, 2000)
    t0 = time.perf_counter()
    s = cograph_system(g)
    elapsed = time.perf_counter() - t0
    assert len(s) <= g.n - 1
    report("criterion 9: cograph fast path at n=2000", elapsed, 10.0)
