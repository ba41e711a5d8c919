"""Benchmark: regenerate Fig. 5 (impact of non-instantaneous preemption)."""

from conftest import assert_summary, run_once


def test_fig5(quality):
    results = run_once("fig5", quality)
    _, precise = assert_summary(results, "precise_knee_fraction")
    _, noisy = assert_summary(results, "noisy_n52_knee_fraction")
    _, blocked = assert_summary(results, "no_preemption_knee_fraction")
    # Noisy preemption hugs precise preemption...
    assert noisy > 0.85 * precise
    # ...while no preemption crosses the SLO far earlier.
    assert blocked < 0.9 * precise
