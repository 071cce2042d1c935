"""Relations that must hold at sizes where brute force cannot follow.

Each test relates the library's answers on graphs of a few hundred
vertices to its answers on other graphs, or checks them one-sidedly, with
no enumeration of all maximal independent sets.
"""

import pytest

import genutil as gu
from wellcovered.linalg import null_space_basis, rank, same_solution_space
from wellcovered.modular import md_tree
from wellcovered.systems import (
    SolverConfig,
    StrategyError,
    _query_system,
    well_covered_dimension,
    well_covering_system,
)

FAMILIES = {
    "cograph": lambda rng: gu.random_cograph(rng, rng.randint(200, 300)),
    "substitution": lambda rng: gu.shuffled_substitution(
        rng, (5, 8), (20, 45), gu.random_cograph
    ),
    "clique_substitution": gu.line_graph_clique_substitution,
    "prime_line_graph": lambda rng: gu.prime_line_graph(rng, 40, 0.12, (80, 120)),
}


def node_sets(tree, order=None):
    """The (kind, vertex set) pair of every node, with vertex v renamed
    ``order[v]`` when an order is given."""
    rename = (lambda v: v) if order is None else order.__getitem__
    return sorted(
        (node.kind, sorted(map(rename, node.vertex_set)))
        for node in tree.iter_nodes()
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_relabelling_maps_tree_and_keeps_dimension(family):
    rng = gu.seeded(91)
    for _ in range(3):
        g = FAMILIES[family](rng)
        h, order = gu.shuffled(rng, g)
        assert node_sets(md_tree(h)) == node_sets(md_tree(g), order)
        assert well_covered_dimension(h) == well_covered_dimension(g)


def test_dimension_adds_over_disjoint_unions():
    rng = gu.seeded(93)
    for _ in range(3):
        parts = [FAMILIES[family](rng) for family in FAMILIES]
        union, _ = gu.shuffled(rng, gu.disjoint_union(*parts))
        assert union.n >= 300
        expected = sum(well_covered_dimension(p) for p in parts)
        assert well_covered_dimension(union) == expected


@pytest.mark.parametrize(
    "family, routes",
    [("cograph", 4), ("substitution", 1), ("clique_substitution", 3)],
)
def test_strategies_agree(family, routes):
    # the system routes differ (cograph walk, brute force or
    # anti-neighbourhoods at the prime skeleton, auto's dispatch); every
    # one that applies must give the same solution space, and the query
    # route the same dimension. auto's whole-graph brute force, its
    # fallback on graphs with a fork, cannot run at this size
    rng = gu.seeded(97)
    applied = set()
    for _ in range(3):
        g = FAMILIES[family](rng)
        systems, dims = [], set()
        for strategy in ("cograph", "modular", "forkfree", "auto"):
            cfg = SolverConfig(strategy=strategy)
            if strategy == "auto" and not gu.is_fork_free(g):
                continue
            try:
                systems.append(well_covering_system(g, cfg))
                dims.add(well_covered_dimension(g, cfg))
            except StrategyError:
                continue
            applied.add(strategy)
        assert all(same_solution_space(systems[0], s) for s in systems[1:])
        assert dims == {g.n - rank(systems[0])}
    assert len(applied) == routes


SKELETONS = {
    **{f"rook{m}": lambda m=m: gu.rook(m) for m in range(5, 9)},
    "line": lambda: gu.prime_line_graph(gu.seeded(3), 50, 0.08, (80, 120)),
}


@pytest.mark.parametrize("name", SKELETONS)
def test_clique_substitution_keeps_dimension(name):
    # a maximal independent set of the substitution meets the cliques of a
    # maximal independent set of the skeleton, in any one vertex each: a
    # well-covered weighting is constant on each clique, and its values
    # form a well-covered weighting of the skeleton
    skeleton = SKELETONS[name]()
    expected = well_covered_dimension(skeleton)
    rng = gu.seeded(skeleton.n)
    for _ in range(2):
        cliques = [gu.complete(rng.randint(1, 4)) for _ in range(skeleton.n)]
        g, _ = gu.shuffled(rng, gu.substitute(skeleton, cliques))
        assert well_covered_dimension(g) == expected


CLAW_FREE = {
    "rook7": lambda: gu.rook(7),
    "rook8": lambda: gu.rook(8),
    "rook9": lambda: gu.rook(9),
    # sparse enough that the dimension is positive
    "line1": lambda: gu.prime_line_graph(gu.seeded(1), 50, 0.08, (80, 120)),
    "line2": lambda: gu.prime_line_graph(gu.seeded(2), 50, 0.08, (80, 120)),
}


@pytest.mark.parametrize("name", CLAW_FREE)
def test_claw_free_basis_equalizes_greedy_sets(name):
    # one-sided: every vector of the query route's basis must give every
    # maximal independent set the same weight, so it must on those that a
    # greedy scan finds under random orders
    g = CLAW_FREE[name]()
    basis = null_space_basis(_query_system(g)).vectors
    assert basis
    rng = gu.seeded(g.n)
    samples = [gu.random_greedy_mis(rng, g) for _ in range(200)]
    assert len({tuple(s) for s in samples}) > 1
    for vec in basis:
        assert len({vec.weight(s) for s in samples}) == 1
