"""Tests for percentiles, slowdown summaries, and sweeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    format_table,
    knee_load,
    percentile,
    summarize_slowdowns,
)
from repro.metrics.sweep import SweepPoint


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_presorted_flag(self):
        data = sorted([3, 1, 2])
        assert percentile(data, 50, presorted=True) == 2

    def test_single_value(self):
        assert percentile([7], 99.9) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                        max_size=200),
        p=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_percentile_within_data_range(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    def test_matches_numpy_linear(self):
        import numpy as np

        r = random.Random(0)
        data = [r.expovariate(1.0) for _ in range(500)]
        for p in (50, 90, 99, 99.9):
            assert percentile(data, p) == pytest.approx(
                float(np.percentile(data, p))
            )


class TestSlowdownSummary:
    def test_summary_fields(self):
        summary = summarize_slowdowns([1.0] * 99 + [100.0])
        assert summary.count == 100
        assert summary.max == 100.0
        assert summary.p50 == 1.0
        assert summary.mean == pytest.approx(1.99)

    def test_meets_slo(self):
        good = summarize_slowdowns([1.0] * 1000)
        assert good.meets_slo()
        bad = summarize_slowdowns([60.0] * 1000)
        assert not bad.meets_slo(slo=50.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_slowdowns([])

    def test_as_dict_keys(self):
        summary = summarize_slowdowns([1.0, 2.0])
        assert set(summary.as_dict()) == {
            "count", "mean", "p50", "p90", "p99", "p999", "max",
        }


def make_point(load, p999):
    return SweepPoint(
        load_rps=load, p50=1.0, p99=2.0, p999=p999, mean=1.0,
        throughput_rps=load, dispatcher_utilization=0.5,
        worker_idle_fraction=0.1, steals=0, steal_completions=0,
        completed=1000,
    )


class TestKneeLoad:
    def test_interpolates_crossing(self):
        points = [make_point(100, 10.0), make_point(200, 90.0)]
        # Crosses 50 at exactly halfway between 100 and 200.
        assert knee_load(points, slo=50.0) == pytest.approx(150.0)

    def test_all_under_slo_returns_max_load(self):
        points = [make_point(100, 5.0), make_point(200, 20.0)]
        assert knee_load(points, slo=50.0) == 200

    def test_all_over_slo_returns_zero(self):
        points = [make_point(100, 80.0)]
        assert knee_load(points, slo=50.0) == 0.0

    def test_unsorted_points_accepted(self):
        points = [make_point(200, 90.0), make_point(100, 10.0)]
        assert knee_load(points, slo=50.0) == pytest.approx(150.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            knee_load([])


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(
            ["load", "p999"], [[100, 1.5], [2000, 22.25]], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "load" in lines[1] and "p999" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_nan_rendering(self):
        text = format_table(["x"], [[float("nan")]])
        assert "nan" in text
