"""Order statistics the benchmark reports.

Every timing is a nearest-rank percentile over many samples, never one
whole-run timing or a best-of: on a shared host a single timing moves with
the neighbours, a median over thousands of operations much less.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def nearest_rank(samples: Sequence[float], percentile: float, min_beyond: int = MIN_TAIL_SAMPLES) -> float:
    """The nearest-rank ``percentile`` of ``samples`` (any order).

    The p-th percentile of ``n`` samples is the sample of 1-based rank
    ``ceil(p / 100 * n)`` in ascending order, so it is always an observed
    value.  Refuses (raises :class:`TooFewSamples`) when fewer than
    ``min_beyond`` samples lie above that rank: a p99 over 500 samples rests
    on five values and says little about the tail.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100], got %r" % (percentile,))
    values = np.asarray(samples, dtype=np.float64)
    count = values.size
    rank = max(1, math.ceil(percentile / 100.0 * count))
    if count == 0 or count - rank < min_beyond:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it; need at least %d"
            % (percentile, count, max(0, count - rank), min_beyond)
        )
    return float(np.partition(values, rank - 1)[rank - 1])

