"""Benchmark worker: runs one workload's cases in this process.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan lists the cases (``wellcovered`` argv and a deadline), the time
budget and whether to trace. Cases run one after another through
``wellcovered.cli.main``, in passes over the whole plan, until the budget is
used. A SIGALRM timer enforces each case's deadline, so no thread or child
process is needed; a case past its deadline or raising an exception is
recorded with the exception's type and never stops the run.

With tracing on, untraced and traced passes alternate, so one run yields
both the plain times and the per-layer spans. A case that fails in the first
pass is not called again in later ones. Between cases, at most every
CALIBRATE_EVERY_S, the worker times the calibration workload, so each case's
time can be put at the reference speed of the host.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from calibration import calibrate

CALIBRATE_EVERY_S = 0.25


class CaseTimeout(BaseException):
    """Raised by the deadline timer; a BaseException so that no handler in
    the package can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def run_case(cli, argv: list[str], deadline: float) -> tuple[float, str, object, str | None, str]:
    """One call of ``cli.main``: (seconds, status, exit code, exception
    type, stdout). Status is ok, exit (non-zero code), exception or timeout."""
    out = io.StringIO()
    saved = sys.stdout, sys.stderr
    status, code, exc = "ok", None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            sys.stdout, sys.stderr = out, io.StringIO()
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        status, exc = "timeout", "CaseTimeout"
    except SystemExit as e:
        status, code, exc = "exit", e.code, "SystemExit"
    except Exception as e:  # any crash of the program is a failed case
        status, exc = "exception", type(e).__name__
    finally:
        sys.stdout, sys.stderr = saved
    elapsed = time.perf_counter() - start
    if status == "ok" and code != 0:
        status = "exit"
    return elapsed, status, code, exc, out.getvalue()


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from wellcovered import cli

    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    cases = plan["cases"]
    out_dir = Path(plan["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for argv in plan["warmup"]:
        run_case(cli, argv, 20.0)

    tracer = Tracer() if plan["trace"] else None
    passes = []
    spans_out = []
    budget = plan["seconds"]
    begin = time.perf_counter()
    calibrations = [[begin, calibrate()]]
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        rows = []
        for i, case in enumerate(cases):
            if passes and passes[0]["cases"][i][1] != "ok":
                # a failure repeats on every call; it is charged its deadline
                rows.append(None)
                continue
            gc.collect()
            if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append([time.perf_counter(), calibrate()])
            start = time.perf_counter()
            elapsed, status, code, exc, stdout = run_case(cli, case["argv"], case["deadline"])
            d = digest(code, stdout) if status == "ok" else None
            if not passes and d is not None:
                (out_dir / f"{i}.out").write_text(stdout)
            rows.append([elapsed, status, exc, d, start])
        calibrations.append([time.perf_counter(), calibrate()])
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            spans_out.append({"spans": spans, "counts": counts})
        passes.append({"traced": traced, "cases": rows})
        nxt = tracer is not None and len(passes) % 2 == 1
        same = [p["cases"] for p in passes if p["traced"] == nxt] or [passes[0]["cases"]]
        estimate = sum(row[0] for row in same[-1] if row is not None and row[1] == "ok")
        if nxt and not any(p["traced"] for p in passes):
            continue  # a traced run needs one traced pass
        if time.perf_counter() - begin + estimate > budget:
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent": tracer.absent if tracer else [],
        "traced": spans_out,
        "calibrations": calibrations,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
