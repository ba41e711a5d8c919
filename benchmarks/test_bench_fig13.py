"""Benchmark: regenerate Fig. 13 (work-conserving dispatcher on a 4-core VM)."""

from conftest import run_once


def test_fig13(quality):
    results = run_once("fig13", quality)
    summary = results[0].summary
    gain = summary["Concord_vs_Concord w/o dispatcher work_improvement_pct"]
    # Paper: ~33% more throughput from running app logic on the dispatcher.
    assert gain > 10
