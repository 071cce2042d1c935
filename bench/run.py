"""Benchmark of the ``wellcovered`` command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs of workload NAME are generated from the seed (input family
N mod 16), written to a scratch directory in the checkout and run through
``wellcovered.cli.main`` in one worker process (see worker.py). Input
generation and output checking stay outside every timed region. Every output
is checked against this directory's own oracles (check.py) and against the
digest recorded for it from the seed commit (digests.json). The last line of
standard output is one JSON object with the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.

    python3 bench/run.py --steady K --workload NAME --seconds S [--trace 0|1]

runs K seeds of one workload and prints each metric's median, quartiles and
spread next to its bound in BENCHMARK.json, with the core count and Python
version.

    python3 bench/run.py --record-digests

reruns every input family once and rewrites digests.json; do this only on a
commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAMILIES = 16
SETUP_REPEATS = 8
WORKER_LIMIT_S = 150.0
DIGESTS = HERE / "digests.json"


def case_key(case: workloads.Case, graph_text: str, weights_text: str) -> str:
    blob = json.dumps([case.verb, case.output, case.strategy, graph_text, weights_text])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Run:
    """One workload run: generated inputs, their oracles and the worker."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.family = seed % FAMILIES
        self.plan = workloads.build(name, self.family)
        self.spaces: dict[str, check.Space] = {}
        self.work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"

    def space(self, key: str) -> check.Space:
        if key not in self.spaces:
            self.spaces[key] = check.space_for(self.plan.instances[key])
        return self.spaces[key]

    def write_inputs(self) -> None:
        """Graph and weight files, plus each case's argv and input key."""
        self.work.mkdir(parents=True)
        texts = {}
        for key, inst in self.plan.instances.items():
            texts[key] = inst.graph.edge_list_text()
            (self.work / f"{key}.txt").write_text(texts[key])
        self.argv, self.keys, self.weights = [], [], []
        for i, case in enumerate(self.plan.cases):
            argv = [case.verb, str(self.work / f"{case.graph}.txt")]
            if case.output != "text":
                argv += ["--output", case.output]
            if case.strategy:
                argv += ["--strategy", case.strategy]
            w, wtext = None, ""
            if case.weights:
                w = self._weights(case, i)
                wtext = "\n".join(str(x) for x in w) + "\n"
                path = self.work / f"{i}.weights"
                path.write_text(wtext)
                argv += ["--weights", str(path)]
            self.argv.append(argv)
            self.weights.append(w)
            self.keys.append(case_key(case, texts[case.graph], wtext))

    def _weights(self, case: workloads.Case, i: int) -> list[Fraction]:
        """A well-covered weighting (a combination of members of the space)
        or random integers, which are almost never well-covered."""
        n = self.plan.instances[case.graph].graph.n
        rng = random.Random(f"{self.name}:{self.family}:{i}")
        if case.weights == "random":
            return [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        w = [Fraction(0)] * n
        for vec in self.space(case.graph).spanning():
            c = rng.randint(-3, 3)
            w = [a + c * b for a, b in zip(w, vec)]
        return w

    def run_worker(self, seconds: float, trace: bool) -> dict:
        plan = {
            "src": str(ROOT / "src"),
            "out_dir": str(self.work / "out"),
            "seconds": seconds,
            "trace": trace,
            "warmup": [[v, str(self.work / "warmup.txt")] for v in workloads.VERBS
                       if v != "check-weighting"],
            "cases": [{"argv": a, "deadline": c.deadline}
                      for a, c in zip(self.argv, self.plan.cases)],
        }
        (self.work / "warmup.txt").write_text("5\n0 1\n1 2\n2 3\n3 4\n1 3\n")
        (self.work / "plan.json").write_text(json.dumps(plan))
        result = self.work / "result.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.work / "plan.json"), str(result)],
            cwd=ROOT, check=True, timeout=WORKER_LIMIT_S,
        )
        return json.loads(result.read_text())

    def check_outputs(self, first_pass: list, digests: dict | None) -> list[str | None]:
        """Reason each case of the first pass failed, or None when it passed."""
        reasons = []
        for i, (case, row) in enumerate(zip(self.plan.cases, first_pass)):
            status, exc, d = row[1:4]
            if status != "ok":
                reasons.append(f"{status} ({exc})" if exc else status)
                continue
            if digests is not None and self.keys[i] in digests and digests[self.keys[i]] != d:
                reasons.append("output differs from the recorded digest")
                continue
            stdout = (self.work / "out" / f"{i}.out").read_text()
            inst = self.plan.instances[case.graph]
            space = self.space(case.graph) if case.verb not in ("mdtree", "recognize") else None
            reasons.append(check.check_output(case.__dict__, inst, space, stdout, self.weights[i]))
        return reasons

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


# Run in a fresh interpreter: time the import, then the calibration (which
# must come after, as it imports fractions).
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import wellcovered.cli
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
print(took, calibrate())
"""


def measure_setup() -> list[float]:
    """Import times of wellcovered.cli in fresh interpreters, each at the
    reference speed (after one untimed import that compiles the bytecode
    cache)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60,
                             capture_output=True, text=True).stdout.split()
        if i:
            took, cal = float(out[0]), float(out[1])
            times.append(took * calibration.REFERENCE_S / cal)
    return times


def at_reference_speed(row: list, calibrations: list) -> float:
    """A case's wall time divided by the host's slowdown around it: the
    median calibration time within a second of the case, over the
    reference."""
    elapsed, start = row[0], row[4]
    near = [c for t, c in calibrations if start - 1.0 <= t <= start + elapsed + 1.0]
    if not near:
        near = [min(calibrations, key=lambda tc: abs(tc[0] - start))[1]]
    return elapsed * calibration.REFERENCE_S / statistics.median(near)


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten cases beyond it (the
    median when there are fewer than twenty), interpolated between ranks."""
    xs = sorted(latencies)
    pct = max(50, math.floor(100 * (1 - 10 / len(xs))))
    h = (len(xs) - 1) * pct / 100
    lo = math.floor(h)
    return pct, xs[lo] + (xs[min(lo + 1, len(xs) - 1)] - xs[lo]) * (h - lo)


def load_digests(name: str, family: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(family))


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(name, seed)
    try:
        run.write_inputs()
        setup = measure_setup()
        result = run.run_worker(seconds, trace)
        setup_s = statistics.median(setup + measure_setup())
        digests = load_digests(name, run.family)
        reasons = run.check_outputs(result["passes"][0]["cases"], digests)
    finally:
        run.cleanup()

    cases = run.plan.cases
    passes = result["passes"]
    first = passes[0]["cases"]
    plain = [p["cases"] for p in passes if not p["traced"]]
    attempted = failed = 0
    correct = True
    bad = [False] * len(cases)
    for i, case in enumerate(cases):
        rows = [p["cases"][i] for p in passes if p["cases"][i] is not None]
        reason = reasons[i]
        if reason is None and any(row[3] != first[i][3] for row in rows):
            reason = "output differs between identical calls"
        attempted += len(rows)
        if reason is not None:
            bad[i] = True
            failed += 1 if first[i][1] != "ok" else len(rows)
            expected = case.known_fail and first[i][1] != "ok"
            correct &= expected
            print(f"case {i} {case.verb} {case.graph}: failed, {reason}"
                  f"{' (known)' if expected else ''}; charged {case.deadline} s")

    # each case's time is its median over the untraced passes; a failed case
    # is charged its deadline
    cal = result["calibrations"]
    per_case = [
        case.deadline if bad[i] else statistics.median(at_reference_speed(p[i], cal) for p in plain)
        for i, case in enumerate(cases)
    ]
    raw = [0.0 if bad[i] else statistics.median(p[i][0] for p in plain) for i in range(len(cases))]
    print(f"host speed: calibration median {statistics.median(c for _, c in cal) * 1e3:.2f} ms "
          f"(reference {calibration.REFERENCE_S * 1e3:g} ms); wall time of passing cases "
          f"{sum(raw):.4f} s, at reference speed {sum(t for t, b in zip(per_case, bad) if not b):.4f} s")

    if trace:
        metrics = tracing.layer_metrics(
            [(t["spans"], t["counts"]) for t in result["traced"]], result["absent"])
        traced = [p["cases"] for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = sum(
            statistics.median(at_reference_speed(p[i], cal) for p in traced) - per_case[i]
            for i in range(len(cases)) if not bad[i]
        )
        if result["absent"]:
            print("absent layers: " + ", ".join(result["absent"]))
        wanted = spec["per_layer"]
    else:
        pct, tail_s = tail(per_case)
        print(f"case_tail_s is p{pct} of {len(cases)} case latencies, each the "
              f"median of {len(plain)} passes")
        metrics = {
            "total_s": sum(per_case),
            "case_p50_s": statistics.median(per_case),
            "case_tail_s": tail_s,
            "pass_share": 1 - sum(bad) / len(cases),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        for v in workloads.VERBS:
            metrics[f"verb_s.{v}"] = sum(t for t, c in zip(per_case, cases) if c.verb == v)
        wanted = spec["end_to_end"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }


def steady(name: str, runs: int, seconds: float, trace: bool, first_seed: int) -> None:
    """Repeat one workload over seeds and report each metric's spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
        ).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"workload {name}: {runs} runs, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}")
    report = {}
    for k, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"  {k:48s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}  bound {bound}  {verdict}")
        report[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": xs}
    print(json.dumps({"workload": name, "nproc": os.cpu_count(),
                      "python": platform.python_version(), "metrics": report}))


def record_digests() -> None:
    """Record each case's output digest for every input family, from the
    outputs of the current commit that pass the independent checks."""
    table: dict = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for family in range(FAMILIES):
            run = Run(name, family)
            try:
                run.write_inputs()
                result = run.run_worker(0, False)
                rows = result["passes"][0]["cases"]
                reasons = run.check_outputs(rows, None)
            finally:
                run.cleanup()
            table[name][str(family)] = {
                key: row[3] for key, row, reason in zip(run.keys, rows, reasons)
                if reason is None
            }
            bad = [i for i, r in enumerate(reasons)
                   if r is not None and not run.plan.cases[i].known_fail]
            print(f"{name} family {family}: {len(table[name][str(family)])} digests"
                  f"{'; unexpected failures ' + str(bad) if bad else ''}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="repeat over K seeds")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "wellcovered" / "cli.py").is_file():
        print(f"error: no wellcovered sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.steady:
        steady(args.workload, args.steady, args.seconds, bool(args.trace), args.seed)
        return 0
    print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
