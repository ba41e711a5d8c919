"""Benchmark: regenerate Fig. 10 (LevelDB under Meta's ZippyDB mix)."""

from conftest import run_once


def test_fig10(quality):
    results = run_once("fig10", quality)
    result = results[0]
    concord = result.summary["knee_krps[Concord]"]
    shinjuku = result.summary["knee_krps[Shinjuku]"]
    # Concord sustains more load than Shinjuku (paper: ~19% more).
    assert concord >= shinjuku
