"""A fixed pure-Python workload that measures how fast the host runs now.

The benchmark's hosts change speed by a quarter or more within seconds (other
tenants share the cores), and a slow stretch scales every timing alike. The
worker runs this workload between cases and the benchmark divides each
case's wall time by the calibration's local slowdown, so a metric moves with
the program and not with the host. It uses no package code, so no change to
the package can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The calibration's median time on the reference host (2 vCPU x86-64 VM,
# Python 3.11) in a fast stretch; timings are reported at that speed.
REFERENCE_S = 0.005


def calibrate() -> float:
    """Seconds taken by exact rational sums, big-integer bit operations and
    dictionary updates, the operations the package spends its time in."""
    start = time.perf_counter()
    acc = Fraction(0)
    mask = 0
    seen: dict[int, int] = {}
    for i in range(1, 1200):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        mask ^= (mask << 1 | i) & ((1 << 256) - 1)
        seen[mask & 1023] = i
    return time.perf_counter() - start
