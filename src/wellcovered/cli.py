"""Command-line front end: ``wellcovered VERB [INPUT] [options]``.

Verbs (``wellcovered --help`` lists them): system, dimension, basis,
is-well-covered, check-weighting, mdtree, recognize. Options may come before
or after the verb; ``--weights FILE`` is for check-weighting only, and
required there. Graphs are read from a file argument or stdin, in edge-list
or graph6 format; results print as text or JSON. Exit codes: 0 success,
1 parse error (also a declared vertex count above ``graph.MAX_VERTICES``,
50 000), 2 strategy inapplicable or argument error, 3 enumeration cap
exceeded, 4 resource limit reached (recursion depth or memory). Run as a
program, a reader that closes stdout early (``wellcovered mdtree g.txt |
head -n 1``) ends it with exit 0 and nothing on stderr.

Each verb is one library call, and this module only parses, dispatches,
renders and maps exceptions to exit codes:

    system           systems.well_covering_system
    dimension        systems.well_covered_dimension
    basis            systems.well_covered_basis
    is-well-covered  systems.well_covered_witness
    check-weighting  systems.is_w_well_covered
    mdtree           modular.md_tree
    recognize        modular.recognize

JSON is written in pieces as ``json.dumps(obj, indent=2)`` would render
it, from an explicit stack, so a decomposition tree of any depth prints.
The empty graph has no tree: ``mdtree`` refuses it (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Iterator

from .graph import Graph, GraphParseError, parse_graph
from .independent_sets import DEFAULT_MIS_CAP, CapExceededError
from .linalg import WeightVector, basis_to_json, system_to_json, system_to_text
from .modular import MDNode, md_tree, recognize
from .systems import (
    STRATEGIES,
    SolverConfig,
    StrategyError,
    is_w_well_covered,
    well_covered_basis,
    well_covered_dimension,
    well_covered_witness,
    well_covering_system,
)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None


# Fraction builds 10**exp for a decimal exponent: seconds for a 12-byte
# "1e10000000", and no end for larger ones. 4300 is the interpreter's
# default limit on the digits of an int read from text.
_MAX_EXPONENT = 4300


def _read_weights(path: str, n: int) -> WeightVector:
    values = []
    for lineno, raw in enumerate(_read_file(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        _, e, exp = line.upper().partition("E")
        digits = exp.lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > 4 or int(digits) > _MAX_EXPONENT
        ):
            raise GraphParseError(
                f"weights line {lineno}: decimal exponent beyond "
                f"{_MAX_EXPONENT} in magnitude"
            )
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
    return SolverConfig(strategy=args.strategy, mis_cap=args.mis_cap)


def _vset(vertices) -> str:
    return "{" + ", ".join(f"v_{v + 1}" for v in sorted(vertices)) + "}"


def _json_pieces(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` in pieces, for dicts with str keys,
    lists, tuples and JSON scalars. It runs on an explicit stack, so any
    depth of nesting renders, and the whole text is never held at once: a
    deep decomposition tree nests thousands of levels, and its indentation
    makes the text grow with the cube of the depth. A list of ints is
    joined in one step."""
    # a str is emitted as it is; (value, depth) is rendered at that depth
    stack: list = [(obj, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        value, depth = item
        if not (value and isinstance(value, (dict, list, tuple))):
            yield json.dumps(value)
            continue
        pad = "  " * depth
        inner = "\n" + pad + "  "
        if isinstance(value, dict):
            brackets = "{}"
            entries = [(json.dumps(k) + ": ", v) for k, v in value.items()]
        elif all(type(v) is int for v in value):
            yield "[" + inner
            yield ("," + inner).join(map(str, value))
            yield "\n" + pad + "]"
            continue
        else:
            brackets, entries = "[]", [("", v) for v in value]
        stack.append("\n" + pad + brackets[1])
        for i in range(len(entries) - 1, -1, -1):
            key, v = entries[i]
            stack.append((v, depth + 1))
            stack.append(("," if i else brackets[0]) + inner + key)


def _emit(
    args: argparse.Namespace,
    to_json: Callable[[], dict],
    to_text: Callable[[], str],
) -> None:
    """Print the requested rendering; only that one is built."""
    if args.output == "json":
        sys.stdout.writelines(_json_pieces(to_json()))
        sys.stdout.write("\n")
    else:
        text = to_text()
        if text:
            print(text)


def _run_system(args, g: Graph) -> None:
    system = well_covering_system(g, _config(args))
    _emit(args, lambda: system_to_json(system), lambda: system_to_text(system))


def _run_dimension(args, g: Graph) -> None:
    dim = well_covered_dimension(g, _config(args))
    _emit(args, lambda: {"dimension": dim}, lambda: str(dim))


def _run_basis(args, g: Graph) -> None:
    basis = well_covered_basis(g, _config(args))
    _emit(
        args,
        lambda: basis_to_json(basis, g.n),
        lambda: "\n".join(" ".join(map(str, vec)) for vec in basis.vectors),
    )


def _run_is_well_covered(args, g: Graph) -> None:
    covered, witness = well_covered_witness(g, _config(args))
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
    ok = is_w_well_covered(g, w, _config(args))
    _emit(args, lambda: {"w_well_covered": ok}, lambda: "yes" if ok else "no")


def _mdtree_json(tree: MDNode) -> dict:
    """The tree as nested dicts, built in pre-order on an explicit stack."""
    root: dict = {}
    stack = [(tree, root)]
    while stack:
        node, obj = stack.pop()
        obj["kind"] = node.kind
        obj["vertices"] = sorted(node.vertex_set)
        if node.is_leaf:
            obj["vertex"] = node.vertex
            continue
        obj["quotient"] = {
            "reps": list(node.reps),
            "edges": node.quotient.edges(),
        }
        obj["children"] = [{} for _ in node.children]
        stack.extend(zip(node.children, obj["children"]))
    return root


def _mdtree_text(tree: MDNode) -> str:
    """One line per node in pre-order, indented two spaces per level."""
    names = [f"v_{v + 1}" for v in range(max(tree.vertex_set) + 1)]
    lines, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            lines.append(f"{'  ' * depth}leaf {names[node.vertex]}")
        else:
            vset = ", ".join(map(names.__getitem__, sorted(node.vertex_set)))
            lines.append(f"{'  ' * depth}{node.kind} {{{vset}}}")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)


def _run_mdtree(args, g: Graph) -> None:
    if g.n == 0:
        raise StrategyError("modular decomposition requires at least one vertex")
    tree = md_tree(g)
    _emit(args, lambda: _mdtree_json(tree), lambda: _mdtree_text(tree))


def _run_recognize(args, g: Graph) -> None:
    flags = recognize(g)
    _emit(
        args,
        lambda: flags,
        lambda: "\n".join(
            f"{name.replace('_', '-')}: {'yes' if value else 'no'}"
            for name, value in flags.items()
        ),
    )


# verb -> (runner, one-line help); drives the parser's choices, the verb
# list in --help and the dispatch in main
_VERBS: dict[str, tuple[Callable[[argparse.Namespace, Graph], None], str]] = {
    "system": (_run_system, "print a well-covering system"),
    "dimension": (_run_dimension, "print the well-covered dimension"),
    "basis": (_run_basis, "print a basis of the well-covered vector space"),
    "is-well-covered": (_run_is_well_covered, "say whether the graph is well-covered"),
    "check-weighting": (_run_check_weighting, "check the weighting given by --weights"),
    "mdtree": (_run_mdtree, "print the modular decomposition tree"),
    "recognize": (_run_recognize, "print structural flags of the graph"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcovered",
        description=(
            "Compute well-covering systems, well-covered dimensions and bases\n"
            "of the well-covered vector space of a graph."
        ),
        epilog="verbs:\n"
        + "\n".join(f"  {verb:<18}{text}" for verb, (_, text) in _VERBS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("verb", choices=_VERBS, metavar="VERB", help="see below")
    parser.add_argument(
        "input", nargs="?", help="graph file; reads stdin when omitted or '-'"
    )
    for flag, text, choices in (
        ("--format", "input graph format", ("edge-list", "graph6")),
        ("--output", "output rendering", ("text", "json")),
        ("--strategy", "system construction strategy", STRATEGIES),
    ):
        default = choices[0]
        help_text = f"{text} (default: {default})"
        parser.add_argument(flag, choices=choices, default=default, help=help_text)
    parser.add_argument(
        "--mis-cap",
        type=int,
        default=DEFAULT_MIS_CAP,
        metavar="N",
        help="cap on enumerated maximal independent sets",
    )
    parser.add_argument(
        "--weights",
        metavar="FILE",
        help="check-weighting only: one rational weight per line, in vertex order",
    )
    # parse_intermixed_args formats the usage line on every call unless it
    # is set; this is the line it would format
    parser.usage = parser.format_usage().removeprefix("usage: ")
    return parser


# built once: parse_intermixed_args leaves the parser as it was
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    # intermixed: plain parse_args lets the optional input match nothing
    # when an option follows the verb, and then rejects `VERB --opt X FILE`
    args = _PARSER.parse_intermixed_args(argv)
    if (args.weights is None) == (args.verb == "check-weighting"):
        _PARSER.error("--weights is for check-weighting only, and required there")
    if args.mis_cap < 1:
        _PARSER.error("argument --mis-cap: must be at least 1")
    try:
        stdin = args.input in (None, "-")
        text = sys.stdin.read() if stdin else _read_file(args.input)
        g = parse_graph(text, args.format)
        _VERBS[args.verb][0](args, g)
    except (RecursionError, MemoryError) as exc:
        # text is rendered whole before printing, so stdout is empty; JSON
        # is written in pieces, and a MemoryError can leave part of it there
        print(f"error: resource limit reached: {exc!r}", file=sys.stderr)
        return 4
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StrategyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `wellcovered mdtree | head`
        # does; the rest of the output has nowhere to go, and Python's own
        # flush at exit must not report it either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
