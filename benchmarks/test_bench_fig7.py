"""Benchmark: regenerate Fig. 7 (Bimodal(99.5:0.5,0.5:500) slowdown vs load)."""

from conftest import run_once


def test_fig7(quality):
    results = run_once("fig7", quality)
    gains = []
    for result in results:
        shinjuku = result.summary["knee_krps[Shinjuku]"]
        concord = result.summary["knee_krps[Concord]"]
        # Concord beats Shinjuku at both quanta on this heavy tail.
        assert concord > shinjuku
        gains.append(concord / shinjuku - 1.0)
    q5_gain, q2_gain = gains
    # The advantage grows as the quantum shrinks (paper: 20% -> 52%).
    assert q2_gain > q5_gain
