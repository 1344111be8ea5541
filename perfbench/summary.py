"""Order statistics the benchmark reports: median, tail and quartiles."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10    # samples that must lie above the reported tail
MIN_SAMPLES = 2 * TAIL_BEYOND


def tail(values) -> tuple:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, n): the sample of rank n - TAIL_BEYOND in
    ascending order, so exactly TAIL_BEYOND samples sit beyond it.  Fewer
    than MIN_SAMPLES samples would put the tail at or below the median, so
    they are refused.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_SAMPLES} samples, got {n}")
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def quartiles(values) -> list:
    """[q1, median, q3] with the default `statistics.quantiles` method."""
    return statistics.quantiles(values, n=4)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med
