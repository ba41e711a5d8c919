"""Shared fixtures for the paper-shape suite.

Each ``test_bench_*`` file regenerates one of the paper's tables/figures
and asserts its qualitative shape.  They run at "smoke" quality so the
whole suite stays interactive; use the ``concord-repro`` CLI with
``--quality full`` for the numbers recorded in EXPERIMENTS.md.  Wall time
is measured by ``bench/``, not here.
"""

import pytest

from repro.experiments.registry import run_experiment


@pytest.fixture(scope="session")
def quality():
    return "smoke"


def run_once(experiment_id, quality):
    """Run one experiment once: the experiments are deterministic
    simulations, so a second run would only repeat identical work."""
    return run_experiment(experiment_id, quality=quality)


def assert_summary(results, key_substring):
    """Find a summary entry whose key contains ``key_substring`` across a
    list of ExperimentResults; returns (key, value) of the first match."""
    for result in results:
        for key, value in result.summary.items():
            if key_substring in key:
                return key, value
    raise AssertionError(
        "no summary key containing {!r} in {}".format(
            key_substring, [list(r.summary) for r in results]
        )
    )
