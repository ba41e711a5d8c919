"""Edge-case tests for pooled percentiles.

Pins behaviour the main metrics tests never exercised: percentile merges
over pooled inputs of unequal length (how
:class:`~repro.cluster.rack.ClusterResult` computes rack-wide tails from
per-server record lists).
"""

import pytest

from repro.metrics.percentile import percentile


class TestPooledPercentileMerge:
    """Rack-wide tails pool per-server slowdown lists of unequal length;
    the percentile of the pool is NOT any average of per-list percentiles."""

    def test_merge_of_unequal_length_inputs(self):
        short = [1.0, 2.0]
        long = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        pooled = sorted(short + long)
        assert percentile(short + long, 50) == percentile(pooled, 50,
                                                          presorted=True)
        # The pool's median sits inside the longer input's range...
        assert percentile(short + long, 50) == pytest.approx(35.0)
        # ...which no averaging of the two per-list medians reproduces.
        averaged = (percentile(short, 50) + percentile(long, 50)) / 2.0
        assert percentile(short + long, 50) != pytest.approx(averaged)

    def test_merge_with_one_empty_input(self):
        values = [3.0, 1.0, 2.0]
        assert percentile([] + values, 50) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_merge_order_is_irrelevant(self):
        a = [5.0, 1.0, 9.0]
        b = [2.0, 2.0, 7.0, 11.0]
        for p in (0, 25, 50, 90, 99.9, 100):
            assert percentile(a + b, p) == percentile(b + a, p)

    def test_pool_matches_cluster_result_merge(self):
        """ClusterResult-style pooling equals a flat percentile over all
        per-server slowdowns."""
        per_server = [
            [1.0, 4.0, 2.5],
            [8.0],
            [3.0, 3.0, 3.0, 12.0, 0.5],
        ]
        flat = [v for server in per_server for v in server]
        assert percentile(flat, 99) == percentile(
            sorted(flat), 99, presorted=True
        )
        assert max(flat) == percentile(flat, 100)
