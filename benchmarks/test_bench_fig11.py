"""Benchmark: regenerate Fig. 11 (cumulative mechanism ablation)."""

from conftest import run_once


def test_fig11(quality):
    results = run_once("fig11", quality)
    summary = results[0].summary
    shinjuku = summary["knee_krps[Shinjuku: IPIs+SQ]"]
    coop_sq = summary["knee_krps[Co-op+SQ]"]
    coop_jbsq = summary["knee_krps[Co-op+JBSQ(2)]"]
    full = summary["knee_krps[Concord: Co-op+JBSQ(2)+dispatcher work]"]
    # Each mechanism adds throughput (monotone chain, small tolerance for
    # sweep-grid noise at smoke sizes).
    assert coop_sq >= 0.97 * shinjuku
    assert coop_jbsq >= coop_sq
    assert full >= 0.97 * coop_jbsq
    assert full > 1.1 * shinjuku
