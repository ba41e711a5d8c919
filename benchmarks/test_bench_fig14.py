"""Benchmark: regenerate Fig. 14 (low-load slowdown cost of work stealing)."""

from conftest import run_once


def test_fig14(quality):
    results = run_once("fig14", quality)
    result = results[0]
    # Bursty low load makes the dispatcher steal occasionally...
    assert result.summary["total_steals"] > 0
    # ...and the stealing penalty — Concord vs the same system with
    # stealing disabled — is small and bounded (paper: ~+3 slowdown).
    penalty = result.summary["mean_steal_penalty_p999"]
    assert -3 < penalty < 10
