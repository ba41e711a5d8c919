"""Observability layer: probe bus, telemetry registry, flight recorder,
span reconstruction, and trace exporters.

The runtime half (:mod:`~repro.obs.events`, :mod:`~repro.obs.bus`,
:mod:`~repro.obs.registry`, :mod:`~repro.obs.recorder`,
:mod:`~repro.obs.session`, :mod:`~repro.obs.spans`) is sim-pure — it
stamps simulated time only and schedules nothing, so instrumented runs
are bit-identical to bare ones.  The export half
(:mod:`~repro.obs.export`) does the io, strictly after runs finish.
See ``docs/observability.md``.
"""

from repro.obs.bus import ProbeBus
from repro.obs.events import (
    EVENT_KINDS,
    FIELDS,
    REQUEST_LIFECYCLE_KINDS,
    event_data,
    event_dict,
)
from repro.obs.export import (
    chrome_trace,
    tail_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Counter, Series, TelemetryRegistry
from repro.obs.session import (
    TraceConfig,
    TraceSession,
    active_session,
    resolve_probes,
    tracing,
)
from repro.obs.spans import ExecSlice, RequestSpan, build_spans

__all__ = [
    "ProbeBus",
    "EVENT_KINDS",
    "FIELDS",
    "event_data",
    "event_dict",
    "REQUEST_LIFECYCLE_KINDS",
    "FlightRecorder",
    "Counter",
    "Series",
    "TelemetryRegistry",
    "TraceConfig",
    "TraceSession",
    "tracing",
    "active_session",
    "resolve_probes",
    "ExecSlice",
    "RequestSpan",
    "build_spans",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "tail_report",
]
