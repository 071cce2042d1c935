"""Well-covering systems of graphs over exact rational arithmetic.

A graph is well-covered when all its maximal independent sets have the same
size, and w-well-covered when they have the same total weight under a vertex
weighting w. The well-covered weightings of a graph form a vector space; a
well-covering system is a homogeneous linear system whose solution set is
exactly that space. This package computes such systems, their dimensions and
null-space bases with exact rational arithmetic, via a capped brute force,
a modular-decomposition pipeline, an elimination-free fast path for graphs
without induced 4-vertex paths, a solver for claw-free graphs from their
generating subgraphs, an anti-neighborhood reduction, and a pipeline for
fork-free graphs. Dimensions, bases and w-well-coveredness fold the
decomposition tree once and choose among these solvers at each prime
quotient.
"""

from .graph import (
    Graph,
    GraphParseError,
    complement,
    induced_subgraph,
    is_claw_free,
    parse_graph,
)
from .independent_sets import DEFAULT_MIS_CAP, CapExceededError, greedy_mis
from .linalg import (
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
from .modular import MDNode, md_tree, recognize
from .systems import (
    SolverConfig,
    StrategyError,
    bruteforce_system,
    clawfree_system,
    cograph_system,
    forkfree_system,
    is_w_well_covered,
    is_well_covered,
    modular_system,
    well_covered_basis,
    well_covered_dimension,
    well_covered_witness,
    well_covering_system,
)

__all__ = [
    "Basis",
    "CapExceededError",
    "DEFAULT_MIS_CAP",
    "Graph",
    "GraphParseError",
    "LinearSystem",
    "MDNode",
    "SolverConfig",
    "StrategyError",
    "WeightVector",
    "basis_from_json",
    "basis_to_json",
    "bruteforce_system",
    "clawfree_system",
    "cograph_system",
    "complement",
    "empty_system",
    "evaluate",
    "extract_independent_subsystem",
    "forkfree_system",
    "format_equation",
    "greedy_mis",
    "induced_subgraph",
    "is_claw_free",
    "is_w_well_covered",
    "is_well_covered",
    "make_system",
    "md_tree",
    "modular_system",
    "null_space_basis",
    "parse_graph",
    "rank",
    "recognize",
    "same_solution_space",
    "system_from_json",
    "system_to_json",
    "system_to_text",
    "well_covered_basis",
    "well_covered_dimension",
    "well_covered_witness",
    "well_covering_system",
]

__version__ = "0.1.0"
