"""Benchmark: regenerate Fig. 8 (Fixed(1us) and TPCC)."""

from conftest import run_once


def test_fig8(quality):
    results = run_once("fig8", quality)
    fixed, tpcc = results

    # Fixed(1us): all three systems are dispatcher-bound together — knees
    # within ~15% of each other, Concord at a small deficit to Shinjuku.
    knees = {
        name.split("[")[1].rstrip("]"): value
        for name, value in fixed.summary.items()
        if name.startswith("knee_krps")
    }
    assert max(knees.values()) < 1.2 * min(knees.values())
    assert knees["Concord"] <= 1.05 * knees["Shinjuku"]

    # TPCC: low dispersion -> preemption buys little; run-to-completion is
    # competitive (the paper has it winning outright; our Concord's cheap
    # preemption closes the gap) and Concord stays ahead of Shinjuku.
    assert (
        tpcc.summary["knee_krps[Persephone-FCFS]"]
        >= 0.85 * tpcc.summary["knee_krps[Concord]"]
    )
    assert (
        tpcc.summary["knee_krps[Concord]"]
        >= 0.95 * tpcc.summary["knee_krps[Shinjuku]"]
    )
