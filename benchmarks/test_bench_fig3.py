"""Benchmark: regenerate Fig. 3 (worker idle time, SQ vs JBSQ(2))."""

from conftest import assert_summary, run_once


def test_fig3(quality):
    results = run_once("fig3", quality)
    result = results[0]
    # Idle overhead decreases with service time for the SQ systems...
    sq_column = [row[1] for row in result.rows]
    assert sq_column[0] > sq_column[2] > sq_column[-1]
    # ...and JBSQ(2) idles far less than the single queue at every
    # microsecond-scale service time.
    for row in result.rows:
        _service, shinjuku_sq, _persephone_sq, concord_jbsq = row
        assert concord_jbsq < shinjuku_sq
    _, ratio = assert_summary(results, "sq_vs_jbsq_idle_ratio_at_1us")
    assert ratio > 2
