"""Experiment harness: one module per table/figure in the paper.

Every experiment exposes ``run(quality="standard", seed=1) ->
ExperimentResult`` and prints the same rows/series the paper's figure
plots.  The CLI (``concord-repro``) lists and runs them; the tests in
``benchmarks/`` run each once and assert the paper's qualitative shape.

Quality levels trade fidelity for wall-clock time: "smoke" for CI,
"standard" for interactive runs, "full" for the numbers recorded in
EXPERIMENTS.md.
"""

from repro.experiments.common import (
    ExperimentResult,
    QUALITY_PRESETS,
    RunScale,
    sweep_systems,
)
from repro.experiments.registry import EXPERIMENTS, experiment_by_id

__all__ = [
    "ExperimentResult",
    "QUALITY_PRESETS",
    "RunScale",
    "sweep_systems",
    "EXPERIMENTS",
    "experiment_by_id",
]
