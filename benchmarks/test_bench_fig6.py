"""Benchmark: regenerate Fig. 6 (Bimodal(50:1,50:100) slowdown vs load)."""

from conftest import run_once


def test_fig6(quality):
    results = run_once("fig6", quality)
    # Concord beats Shinjuku at both quanta; the gap widens at 2us.
    gains = []
    for result in results:
        key = "Concord_vs_Shinjuku_improvement_pct"
        assert key in result.summary, result.summary
        gains.append(result.summary[key])
    q5_gain, q2_gain = gains
    assert q5_gain > 5
    assert q2_gain > q5_gain
    # Persephone-FCFS crosses the SLO far earlier than Concord.
    for result in results:
        persephone = result.summary["knee_krps[Persephone-FCFS]"]
        concord = result.summary["knee_krps[Concord]"]
        assert persephone < concord
