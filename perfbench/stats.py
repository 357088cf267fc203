"""Sample statistics and the host-calibration loop.

Every timing the benchmark reports is a median, a minimum or a named
percentile of its samples.  A percentile is only reported when at least
:data:`MIN_BEYOND` samples lie above it; otherwise :func:`percentile`
raises, so an undersized run fails loudly instead of printing a
percentile that is really the maximum.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples rank above the returned one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not samples:
        raise InsufficientSamples("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python CPU loop (best of ``rounds``).

    Recorded beside every run's metrics and never used to scale them:
    a slower host raises this figure together with the timings, while a
    regression raises the timings alone.
    """
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        table = {}
        acc = 0
        for i in range(300_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            acc ^= hash((key, i & 7))
        best = min(best, time.perf_counter() - started)
    return best
