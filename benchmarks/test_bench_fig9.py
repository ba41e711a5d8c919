"""Benchmark: regenerate Fig. 9 (LevelDB 50% GET / 50% SCAN)."""

from conftest import run_once


def test_fig9(quality):
    results = run_once("fig9", quality)
    gains = [
        result.summary["Concord_vs_Shinjuku_improvement_pct"]
        for result in results
    ]
    q5_gain, q2_gain = gains
    # The paper's headline workload: large gains at 5us, larger at 2us.
    assert q5_gain > 15
    assert q2_gain > q5_gain
