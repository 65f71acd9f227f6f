"""Summary statistics shared by the benchmark and its comparison command.

Timings are summarised by their median.  A tail percentile is reported only
when it is a real tail: the highest of TAIL_PERCENTILES that still leaves at
least TAIL_SAMPLES samples beyond it, and never below MIN_TAIL_SAMPLES
samples in all.  Failed operations enter latency samples as +inf, so they
count as missing any latency limit.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: fewer samples than this give a median only
MIN_TAIL_SAMPLES = 40

#: a reported percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10

TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; +inf samples sort last."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest tail the sample supports, or None."""
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        return None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            return p, percentile(values, p)
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before: Sequence[float], after: Sequence[float], better: str) -> float:
    """How much worse the median of ``after`` is than that of ``before``, as a share.

    Negative when ``after`` is better.
    """
    m0, m1 = statistics.median(before), statistics.median(after)
    change = (m1 - m0) / m0
    return change if better == "lower" else -change
