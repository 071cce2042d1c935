"""Layer tracing from outside the package.

The traced run replaces each public function listed in ``LAYERS`` with a
wrapper, in every module namespace that binds it, so calls between modules go
through the wrapper too. A wrapper records a span (layer, start, end, parent
span) and counts taken from the call's arguments and result. Spans stay in
memory until the worker writes them out. A listed function that the package
no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from statistics import median

NAMESPACES = ("wellcovered", "wellcovered.cli", "wellcovered.systems",
              "wellcovered.modular", "wellcovered.linalg", "wellcovered.graph",
              "wellcovered.independent_sets")


def _rows_in(counts, layer, args, result):
    counts[f"{layer}.rows_in"] += len(args[0])


def _rows_in_out(counts, layer, args, result):
    counts[f"{layer}.rows_in"] += len(args[0])
    counts[f"{layer}.rows_out"] += len(result)


def _rows_out(counts, layer, args, result):
    counts[f"{layer}.rows_out"] += len(result)


def _bytes(counts, layer, args, result):
    counts[f"{layer}.bytes"] += len(args[0])


def _chosen(counts, layer, args, result):
    counts[f"{layer}.chosen.{result}"] += 1


def _mis(counts, layer, args, result):
    counts[f"{layer}.sets"] += len(result.sets)
    counts[f"{layer}.cap_hits"] += not result.complete


def _tree(counts, layer, args, result):
    work = [result]
    while work:
        node = work.pop()
        counts[f"{layer}.nodes.{node.kind}"] += 1
        if node.kind == "prime":
            key = f"{layer}.max_prime_quotient"
            counts[key] = max(counts[key], len(node.children))
        work.extend(node.children)


# layer name -> count hook (None: calls and time only)
LAYERS = {
    "cli.main": None,
    "graph.parse_graph": _bytes,
    "graph.induced_subgraph": None,
    "graph.is_p4_free": None,
    "graph.is_fork_free": None,
    "graph.is_claw_free": None,
    "modular.is_prime": None,
    "modular.md_tree": _tree,
    "independent_sets.enumerate_mis": _mis,
    "linalg.rank": _rows_in,
    "linalg.extract_independent_subsystem": _rows_in_out,
    "linalg.null_space_basis": None,
    "linalg.system_to_text": None,
    "linalg.system_to_json": None,
    "linalg.basis_to_json": None,
    "systems.resolve_strategy": _chosen,
    "systems.cograph_system": _rows_out,
    "systems.bruteforce_system": _rows_out,
    "systems.modular_system": _rows_out,
    "systems.forkfree_system": _rows_out,
    "systems.anti_neighborhood_system": _rows_out,
}


class Tracer:
    """Holds the spans and counts of one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, layer: str, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[f"{layer}.calls"] += 1
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, layer, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in NAMESPACES]
        self.absent = []
        for layer, hook in LAYERS.items():
            home, name = layer.split(".")
            fn = getattr(importlib.import_module(f"wellcovered.{home}"), name, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, attr, fn, wrapper))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._bindings = []

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        self.stack.clear()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, float]:
    """Per layer: span time minus the time of its direct child spans."""
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (layer, start, end, _), inner in zip(spans, child):
        out[layer] += end - start - inner
    return out


def layer_metrics(passes: list[tuple[list[list], dict[str, int]]], absent: list[str]) -> dict[str, float]:
    """Median over traced passes of each layer's self time and counts, plus
    the derived rates and ratios."""
    per_pass = []
    for spans, counts in passes:
        m: dict[str, float] = {f"{k}.self_s": v for k, v in self_times(spans).items()}
        m.update(counts)
        per_pass.append(m)
    keys = {k for m in per_pass for k in m}
    out = {k: median(m.get(k, 0) for m in per_pass) for k in keys}

    def ratio(num: str, den: str) -> float:
        return out.get(num, 0) / out[den] if out.get(den) else 0.0

    mis = "independent_sets.enumerate_mis"
    out[f"{mis}.sets_per_s"] = ratio(f"{mis}.sets", f"{mis}.self_s")
    out["graph.parse_graph.bytes_per_s"] = ratio("graph.parse_graph.bytes", "graph.parse_graph.self_s")
    ext = "linalg.extract_independent_subsystem"
    out[f"{ext}.keep_ratio"] = ratio(f"{ext}.rows_out", f"{ext}.rows_in")
    out["trace.absent_layers"] = len(absent)
    return out
