"""Order statistics used by the benchmark and its comparison tool."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None for fewer than eleven samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])
