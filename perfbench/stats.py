"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math

#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``samples``, capped at the
    highest rank that still has at least ``TAIL_SAMPLES`` samples beyond
    it and never below the median.

    With 240 samples ``percentile(s, 95)`` is the true p95 (12 beyond);
    with 40 it reports the 30th smallest value, i.e. p75, because only
    that rank has ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(q / 100 * n) - 1)
    cap = max((n - 1) // 2, n - 1 - TAIL_SAMPLES)
    return xs[min(rank, cap)]


def median(samples) -> float:
    return percentile(samples, 50)


def geomean(values) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
