"""Benchmark: regenerate Fig. 12 (preemption overhead reduction vs quantum)."""

from conftest import run_once


def test_fig12(quality):
    results = run_once("fig12", quality)
    result = results[0]
    # Cumulative mechanisms cut overhead at every microsecond-scale quantum.
    for row in result.rows:
        quantum, shinjuku, coop_sq, concord = row
        if quantum <= 10:
            assert coop_sq < shinjuku
            assert concord <= coop_sq
    ratio = result.summary["shinjuku_vs_concord_overhead_ratio_at_1us"]
    assert ratio > 2
