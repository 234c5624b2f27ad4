"""Statistics and arrival schedules used by the benchmark.

Pure standard library, so the HTTP client process can import it without
pulling in numpy.  Every function here is checked on synthetic data by
``perfbench/selftest.py``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: The percentiles the benchmark may report, from the most to the least robust.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between closest ranks.

    This is numpy's default ("linear") definition: rank ``(n - 1) * q / 100``
    of the sorted sample, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return round(n * (100.0 - q) / 100.0, 9)  # 10000 * 0.1% is 10, not 9.99...


def supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    ``None`` when even the median is unsupported (fewer than
    ``2 * min_beyond`` samples).
    """
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    return best


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Latency of each request timed from when it was *due*, not sent.

    Timing from the due time charges a stalled generator's delay to every
    request it held back, which is what the user behind that request saw;
    timing from the send would hide it (coordinated omission).
    """
    if len(due) != len(done):
        raise ValueError("due and done differ in length")
    return [end - start for start, end in zip(due, done)]


# ---------------------------------------------------------------------------
# Arrival schedules
# ---------------------------------------------------------------------------
def poisson_arrivals(rate: float, duration: float,
                     rng: random.Random) -> List[float]:
    """Poisson arrival offsets on ``[0, duration)``, conditioned on their count.

    Given its count ``N``, a homogeneous Poisson process places its
    arrivals as ``N`` independent uniform points.  Fixing
    ``N = round(rate * duration)`` keeps when requests arrive random while
    every seed offers the same number of them, so runs differ in timing,
    not in load.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    return sorted(rng.random() * duration for _ in range(round(rate * duration)))


def dealt(weights: Sequence[float], n: int, rng: random.Random) -> List[int]:
    """``n`` indices in fixed proportions, in seeded random order.

    Index ``i`` appears ``n * weights[i] / sum(weights)`` times (rounded by
    largest remainder), so every seed offers the same mix of tenants and
    inputs and only their order changes.
    """
    total = float(sum(weights))
    exact = [w / total * n for w in weights]
    counts = [math.floor(e) for e in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    deck = [i for i, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(deck)
    return deck
