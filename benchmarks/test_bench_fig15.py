"""Benchmark: regenerate Fig. 15 (Concord vs Intel user-space IPIs)."""

from conftest import run_once


def test_fig15(quality):
    results = run_once("fig15", quality)
    result = results[0]
    ratio = result.summary["uipi_vs_concord_mean_ratio_small_quanta"]
    # Paper: cooperation imposes ~2x lower overhead than UIPIs.
    assert ratio > 1.5
    # Concord's absolute overhead is slightly higher here than on the
    # c6420 (1.5x pricier coherence misses) but still small.
    concord_column = [row[3] for row in result.rows]
    assert all(value < 12 for value in concord_column)
