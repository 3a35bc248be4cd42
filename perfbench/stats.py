"""Summary statistics shared by every perfbench workload.

Timings are reported as a median plus a *tail*: the highest percentile
of a fixed ladder that still has at least :data:`MIN_BEYOND` samples
strictly above it, so a tail is never read off one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, ascending.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(sorted_values: Sequence[float], percentile: float) -> int:
    """How many samples lie strictly above the nearest-rank percentile."""
    value = nearest_rank(sorted_values, percentile)
    return sum(1 for sample in sorted_values if sample > value)


def tail(values: Iterable[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it.

    Raises ``ValueError`` when even the median has fewer than
    :data:`MIN_BEYOND` samples beyond it (fewer than 20 samples).
    """
    ordered = sorted(values)
    chosen = None
    for percentile in TAIL_LADDER:
        if ordered and beyond(ordered, percentile) >= MIN_BEYOND:
            chosen = percentile
    if chosen is None:
        raise ValueError(
            f"{len(ordered)} samples cannot support a tail with "
            f"{MIN_BEYOND} samples beyond it"
        )
    return chosen, nearest_rank(ordered, chosen)


def median(values: Iterable[float]) -> float:
    ordered = list(values)
    if not ordered:
        raise ValueError("no samples")
    return statistics.median(ordered)


def goodput(outcomes: Iterable[tuple[int, float]], limit_s: float,
            elapsed_s: float) -> float:
    """Requests per second that returned 200 within ``limit_s``.

    ``outcomes`` holds one (status, latency_s) pair per attempted
    request; a failed or refused request (any status but 200, or
    status 0 for a transport error) is a miss whatever its latency.
    """
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    good = sum(
        1 for status, latency in outcomes
        if status == 200 and latency <= limit_s
    )
    return good / elapsed_s


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
