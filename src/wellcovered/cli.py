"""Command-line front end.

Verbs: system, dimension, basis, is-well-covered, check-weighting, mdtree,
recognize. Graphs are read from a file argument or stdin, in edge-list or
graph6 format; results print as text or JSON. Exit codes: 0 success,
1 parse error, 2 strategy inapplicable, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Callable

from .graph import (
    Graph,
    GraphParseError,
    is_claw_free,
    is_co_connected,
    is_connected,
    is_fork_free,
    is_p4_free,
    parse_graph,
)
from .independent_sets import CapExceededError, enumerate_mis
from .linalg import (
    WeightVector,
    basis_to_json,
    evaluate,
    null_space_basis,
    rank,
    system_to_json,
    system_to_text,
)
from .modular import MDNode, is_prime, md_tree
from .systems import (
    SolverConfig,
    StrategyError,
    resolve_strategy,
    well_covering_system,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="graph file; reads stdin when omitted or '-'",
    )
    parser.add_argument(
        "--format",
        choices=("edge-list", "graph6"),
        default="edge-list",
        help="input graph format (default: edge-list)",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="output rendering (default: text)",
    )
    parser.add_argument(
        "--strategy",
        choices=("auto", "bruteforce", "cograph", "modular", "forkfree"),
        default="auto",
        help="system construction strategy (default: auto)",
    )
    parser.add_argument(
        "--mis-cap",
        type=int,
        default=None,
        metavar="N",
        help="cap on enumerated maximal independent sets",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcovered",
        description=(
            "Compute well-covering systems, well-covered dimensions and "
            "bases of the well-covered vector space of a graph."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("system", "print a well-covering system"),
        ("dimension", "print the well-covered dimension"),
        ("basis", "print a basis of the well-covered vector space"),
        ("is-well-covered", "decide whether the graph is well-covered"),
        ("check-weighting", "decide whether a weighting is well-covered"),
        ("mdtree", "print the modular decomposition tree"),
        ("recognize", "print structural flags of the graph"),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
        if verb == "check-weighting":
            p.add_argument(
                "--weights",
                required=True,
                metavar="FILE",
                help="one rational weight per line, in vertex order",
            )
    return parser


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None


def _read_weights(path: str, n: int) -> WeightVector:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            frac = Fraction(line)
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(
                f"weights line {lineno}: not a rational: {line!r}"
            ) from None
        values.append(int(frac) if frac.denominator == 1 else frac)
    if len(values) != n:
        raise GraphParseError(
            f"weights file has {len(values)} values for a graph on {n} vertices"
        )
    return WeightVector(tuple(values))


def _config(args: argparse.Namespace) -> SolverConfig:
    kwargs = {"strategy": args.strategy}
    if args.mis_cap is not None:
        kwargs["mis_cap"] = args.mis_cap
    return SolverConfig(**kwargs)


def _vname(v: int) -> str:
    return f"v_{v + 1}"


def _vset(vertices) -> str:
    return "{" + ", ".join(_vname(v) for v in sorted(vertices)) + "}"


def _emit(
    args: argparse.Namespace,
    to_json: Callable[[], dict],
    to_text: Callable[[], str],
) -> None:
    """Print the requested rendering; only that one is built."""
    if args.output == "json":
        print(json.dumps(to_json(), indent=2))
    else:
        text = to_text()
        if text:
            print(text)


def _run_system(args, g: Graph) -> None:
    system = well_covering_system(g, _config(args))
    _emit(args, lambda: system_to_json(system), lambda: system_to_text(system))


def _run_dimension(args, g: Graph) -> None:
    system = well_covering_system(g, _config(args))
    dim = g.n - rank(system)
    _emit(args, lambda: {"dimension": dim}, lambda: str(dim))


def _run_basis(args, g: Graph) -> None:
    system = well_covering_system(g, _config(args))
    basis = null_space_basis(system)
    _emit(
        args,
        lambda: basis_to_json(basis, g.n),
        lambda: "\n".join(" ".join(str(x) for x in vec) for vec in basis.vectors),
    )


def _run_is_well_covered(args, g: Graph) -> None:
    cfg = _config(args)
    strategy = resolve_strategy(g, cfg)
    witness = None
    if strategy == "bruteforce":
        mis = enumerate_mis(g, cfg.mis_cap)
        if not mis.complete:
            raise CapExceededError(
                f"maximal independent set cap {cfg.mis_cap} exceeded"
            )
        covered = len({len(s) for s in mis.sets}) <= 1
        if not covered:
            key = lambda s: (len(s), sorted(s))
            small = min(mis.sets, key=key)
            large = max(mis.sets, key=key)
            witness = (small, large)
    else:
        # pass the resolved strategy on so auto's recognizers run only once
        system = well_covering_system(g, dataclasses.replace(cfg, strategy=strategy))
        covered = evaluate(system, (1,) * g.n)
    obj: dict = {"well_covered": covered, "witness": None}
    text = "yes" if covered else "no"
    if witness is not None:
        small, large = witness
        obj["witness"] = {
            "set_a": sorted(small),
            "weight_a": len(small),
            "set_b": sorted(large),
            "weight_b": len(large),
        }
        text += (
            f"\nwitness: {_vset(small)} has weight {len(small)}, "
            f"{_vset(large)} has weight {len(large)}"
        )
    _emit(args, lambda: obj, lambda: text)


def _run_check_weighting(args, g: Graph) -> None:
    w = _read_weights(args.weights, g.n)
    system = well_covering_system(g, _config(args))
    ok = evaluate(system, w)
    _emit(args, lambda: {"w_well_covered": ok}, lambda: "yes" if ok else "no")


def _mdtree_json(node: MDNode) -> dict:
    obj: dict = {
        "kind": node.kind,
        "vertices": sorted(node.vertex_set),
    }
    if node.is_leaf:
        obj["vertex"] = node.vertex
    else:
        obj["quotient"] = {
            "reps": list(node.reps),
            "edges": node.quotient.edges(),
        }
        obj["children"] = [_mdtree_json(c) for c in node.children]
    return obj


def _mdtree_text(node: MDNode, depth: int = 0) -> list[str]:
    pad = "  " * depth
    if node.is_leaf:
        return [f"{pad}leaf {_vname(node.vertex)}"]
    lines = [f"{pad}{node.kind} {_vset(node.vertex_set)}"]
    for child in node.children:
        lines.extend(_mdtree_text(child, depth + 1))
    return lines


def _run_mdtree(args, g: Graph) -> None:
    tree = md_tree(g)
    _emit(args, lambda: _mdtree_json(tree), lambda: "\n".join(_mdtree_text(tree)))


def _run_recognize(args, g: Graph) -> None:
    flags = {
        "claw_free": is_claw_free(g),
        "fork_free": is_fork_free(g),
        "p4_free": is_p4_free(g),
        "prime": is_prime(g),
        "connected": is_connected(g),
        "co_connected": is_co_connected(g),
    }
    _emit(
        args,
        lambda: flags,
        lambda: "\n".join(
            f"{name.replace('_', '-')}: {'yes' if value else 'no'}"
            for name, value in flags.items()
        ),
    )


_RUNNERS = {
    "system": _run_system,
    "dimension": _run_dimension,
    "basis": _run_basis,
    "is-well-covered": _run_is_well_covered,
    "check-weighting": _run_check_weighting,
    "mdtree": _run_mdtree,
    "recognize": _run_recognize,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        g = parse_graph(_read_input(args.input), args.format)
        _RUNNERS[args.verb](args, g)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StrategyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
