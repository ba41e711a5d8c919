"""Percentile computation.

The paper reports the 99.9th percentile of slowdown (section 5.1); we use
the nearest-rank-with-interpolation definition, which matches numpy's
default ("linear") method without requiring numpy in the hot path.
"""

import math

__all__ = ["percentile"]


def percentile(values, p, presorted=False):
    """The ``p``-th percentile (0..100) of ``values`` with linear
    interpolation between order statistics.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100], got {}".format(p))
    data = values if presorted else sorted(values)
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * p / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(data[low])
    frac = rank - low
    return data[low] + frac * (data[high] - data[low])
