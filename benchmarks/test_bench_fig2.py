"""Benchmark: regenerate Fig. 2 (preemption-mechanism overhead vs quantum)."""

from conftest import assert_summary, run_once


def test_fig2(quality):
    results = run_once("fig2", quality)
    # Shape: IPIs ~30% at 2us, ~6% at 10us; Concord >10x cheaper at 2us.
    _, ipi_2us = assert_summary(results, "ipi_overhead_pct_at_2us")
    assert 25 < ipi_2us < 40
    _, ipi_10us = assert_summary(results, "ipi_overhead_pct_at_10us")
    assert 4 < ipi_10us < 9
    _, ratio = assert_summary(results, "ipi_vs_concord_ratio_at_2us")
    assert ratio > 8
