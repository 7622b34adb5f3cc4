"""Correction for the drifting speed of a shared core.

On a shared machine one core's speed drifts by 10-50 % over seconds to
minutes with the load of other tenants, and that drift slows a fixed
pure-Python loop and minexp alike: their ratio stays within a few percent
while each alone swings.  The benchmark therefore times this loop next to
the requests it measures and scales each time by ``REFERENCE_S`` over the
loop's current time, giving seconds on a core that runs the loop in
``REFERENCE_S``.  A run prints its raw slowdown against that core.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The loop's time on an undisturbed core of the machine the baseline was
# measured on (Intel Xeon at 2.1 GHz, Python 3.11).
REFERENCE_S = 0.0075


def reference_s() -> float:
    """Seconds this core takes now for a fixed load like minexp's own:
    exact fractions, tuples, dicts and string building."""
    start = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 2000):
        total += Fraction(i % 97 + 1, i + 7)
        table[(i % 17, i % 13, i)] = f"{i}^{i % 7}"
        if i % 250 == 0:
            total = Fraction(total.numerator % 1000003, total.denominator % 1000003 + 1)
            sorted(table)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that maps times measured between two reference timings to
    seconds at ``REFERENCE_S``."""
    return 2 * REFERENCE_S / (before + after)
