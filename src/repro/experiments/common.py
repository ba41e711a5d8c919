"""Shared experiment infrastructure: result containers, quality presets,
and multi-system load sweeps."""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.metrics.report import format_table

__all__ = ["RunScale", "QUALITY_PRESETS", "ExperimentResult", "sweep_systems",
           "load_grid"]


@dataclass(frozen=True)
class RunScale:
    """How big one experiment run is.

    num_requests:
        Open-loop arrivals per load point.
    load_points:
        Number of points on each load sweep.
    kernel_scale:
        Trip-count multiplier for instrumentation kernels (Table 1).
    """

    num_requests: int
    load_points: int
    kernel_scale: float


QUALITY_PRESETS = {
    "smoke": RunScale(num_requests=2_500, load_points=5, kernel_scale=0.1),
    "standard": RunScale(num_requests=12_000, load_points=8, kernel_scale=0.5),
    "full": RunScale(num_requests=30_000, load_points=11, kernel_scale=1.0),
}


def scale_for(quality):
    try:
        return QUALITY_PRESETS[quality]
    except KeyError:
        raise KeyError(
            "unknown quality {!r}; known: {}".format(
                quality, ", ".join(sorted(QUALITY_PRESETS))
            )
        ) from None


@dataclass
class ExperimentResult:
    """Printable outcome of one experiment."""

    experiment_id: str
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[list] = field(default_factory=list)
    #: Headline numbers (e.g. SLO knees) keyed by label.
    summary: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells):
        self.rows.append(list(cells))

    def note(self, text):
        self.notes.append(text)

    def render(self):
        parts = [format_table(self.headers, self.rows,
                              title="{}: {}".format(self.experiment_id,
                                                    self.title))]
        if self.summary:
            parts.append("")
            for key in self.summary:
                value = self.summary[key]
                if isinstance(value, float):
                    parts.append("  {} = {:.4g}".format(key, value))
                else:
                    parts.append("  {} = {}".format(key, value))
        for note in self.notes:
            parts.append("  note: {}".format(note))
        return "\n".join(parts)


def load_grid(max_load_rps, points, low_fraction=0.25, high_fraction=1.0):
    """An ascending grid of offered loads spanning the interesting region,
    denser near saturation where the knee lives."""
    if points < 2:
        raise ValueError("need at least two load points")
    if max_load_rps <= 0:
        raise ValueError(
            "max_load_rps must be positive, got {!r}".format(max_load_rps)
        )
    if not low_fraction < high_fraction:
        raise ValueError(
            "load grid needs low_fraction < high_fraction, got "
            "low={!r} high={!r}".format(low_fraction, high_fraction)
        )
    grid = []
    for i in range(points):
        # Quadratic spacing: more resolution near the top of the range.
        t = i / (points - 1)
        fraction = low_fraction + (high_fraction - low_fraction) * (
            0.55 * t + 0.45 * t * t
        )
        grid.append(fraction * max_load_rps)
    return grid


def sweep_systems(machine, configs, workload, loads, num_requests, seed=1,
                  arrival_factory=None):
    """Run a load sweep for each configuration (common random numbers) and
    return ``{config_name: [SweepPoint per load]}`` preserving config order.

    All (config x load) cells are independent :class:`~repro.parallel.SimJob`
    simulations, so they are submitted to the process-wide runner (see
    :func:`repro.parallel.get_default_runner`; ``run_experiment(runner=)``
    installs one) as **one** batch — with ``--jobs N`` the whole figure
    fans out at once rather than one config at a time.  Results are
    bit-identical to serial execution.  ``arrival_factory`` maps a rate to
    an arrival process (default: open-loop Poisson).
    """
    from repro.parallel import SimJob, get_default_runner

    loads = list(loads)
    points = get_default_runner().map([
        SimJob(
            machine=machine, config=config, workload=workload,
            load_rps=load, num_requests=num_requests, seed=seed,
            arrival_factory=arrival_factory,
        )
        for config in configs for load in loads
    ])
    return {
        config.name: points[c * len(loads):(c + 1) * len(loads)]
        for c, config in enumerate(configs)
    }
