"""Tracing surface of the CLI: the ``--trace`` / ``--flight-recorder``
flags on run/compare/rack/faults.

Traced executions run serially in-process with the result cache disabled
— a cached or pool-executed simulation never touches this process's
ambient :class:`~repro.obs.session.TraceSession`, so forcing a fresh
serial run is what guarantees the trace actually observes every event.
Tracing never changes results: the same seed yields bit-identical
outputs with or without these flags (``tests/test_obs.py``).
"""

import json
from contextlib import contextmanager

from repro import constants

__all__ = [
    "add_trace_args",
    "tracing_requested",
    "config_from_args",
    "maybe_traced",
    "export_session",
]

#: Tail requests named in the text report.
DEFAULT_TOP_K = 5


def add_trace_args(parser):
    """--trace family shared by run/compare/rack/faults."""
    parser.add_argument(
        "--trace", action="store_true",
        help="record a full request-lifecycle trace (forces serial, "
             "uncached execution; results are unchanged)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="Chrome trace JSON output path (default: trace.json; "
             "implies --trace)",
    )
    parser.add_argument(
        "--spans-out", default=None, metavar="FILE",
        help="also dump reconstructed request spans as JSONL (implies "
             "--trace)",
    )
    parser.add_argument(
        "--flight-recorder", action="store_true",
        help="bounded tracing: keep only the last events around each "
             "tail request instead of the full log",
    )
    parser.add_argument(
        "--slowdown-trigger", type=float, default=constants.SLOWDOWN_SLO,
        metavar="X",
        help="flight-recorder trigger: capture requests whose slowdown "
             "is >= X (default: {:g}, the SLO)".format(
                 constants.SLOWDOWN_SLO),
    )


def _full_trace_requested(args):
    return bool(args.trace or args.trace_out or args.spans_out)


def tracing_requested(args):
    return _full_trace_requested(args) or args.flight_recorder


def config_from_args(args):
    """Build the :class:`~repro.obs.session.TraceConfig` the flags ask
    for: full log (+ flight recorder) unless only --flight-recorder was
    given."""
    from repro.obs import TraceConfig

    if not _full_trace_requested(args):
        return TraceConfig.flight_only(slowdown_trigger=args.slowdown_trigger)
    return TraceConfig.full(slowdown_trigger=args.slowdown_trigger)


@contextmanager
def maybe_traced(args, stream, default_out="trace.json"):
    """Install a trace session when the flags ask for one (else a no-op),
    exporting trace artifacts and the tail report after the body runs."""
    if not tracing_requested(args):
        yield None
        return
    from repro.obs import tracing

    with tracing(config_from_args(args)) as session:
        yield session
    export_session(session, args, stream, default_out=default_out)


# -- export ------------------------------------------------------------------


def _session_clock(session):
    for bus in session.buses:
        if bus.clock is not None:
            return bus.clock
    return None


def _flight_report(bus, clock, stream):
    """Tail report reconstructed from flight-recorder captures."""
    from repro.obs import build_spans

    recorder = bus.recorder
    captures = sorted(
        recorder.captures, key=lambda c: (-c["slowdown"], c["rid"])
    )[:DEFAULT_TOP_K]
    print(
        "  [{}: flight recorder saw {} events, {} trigger(s) at "
        "slowdown >= {:g}, kept {} capture(s)]".format(
            bus.label, recorder.events_seen, recorder.triggers_fired,
            recorder.slowdown_trigger, len(recorder.captures),
        ),
        file=stream,
    )
    for capture in captures:
        spans = {
            span.rid: span for span in build_spans(capture["events"])
        }
        span = spans.get(capture["rid"])
        if span is None:
            continue
        from repro.obs.export import _format_timeline

        print(
            "  rid={} slowdown={:.1f}x (ring context: {} events, {} "
            "requests)".format(
                capture["rid"], capture["slowdown"],
                len(capture["events"]), len(spans),
            ),
            file=stream,
        )
        for line in _format_timeline(span, clock):
            print(line, file=stream)


def export_session(session, args, stream, default_out="trace.json"):
    """Write trace artifacts, print the top-K tail-request report and a
    line of the session's headline counters."""
    from repro.obs import build_spans, chrome_trace, tail_report

    buses = session.buses
    if not buses:
        print("  [trace: session observed no runs]", file=stream)
        return
    clock = _session_clock(session)
    if clock is None:
        print("  [trace: no clock bound; nothing to export]", file=stream)
        return

    recorded = [bus for bus in buses if bus.events]
    if recorded:
        from repro.obs import write_chrome_trace

        out = args.trace_out or default_out
        payload = chrome_trace(buses, clock)
        write_chrome_trace(out, payload)
        print(
            "  [trace: wrote {} Chrome trace events for {} run(s) to {} "
            "-- open at https://ui.perfetto.dev]".format(
                len(payload["traceEvents"]), len(recorded), out
            ),
            file=stream,
        )
        spans_out = args.spans_out
        if spans_out:
            from repro.obs import write_spans_jsonl

            all_spans = [
                span for bus in recorded for span in build_spans(bus.events)
            ]
            write_spans_jsonl(spans_out, all_spans)
            print(
                "  [trace: wrote {} spans to {}]".format(
                    len(all_spans), spans_out
                ),
                file=stream,
            )
        for bus in recorded:
            spans = build_spans(bus.events)
            if any(s.slowdown is not None for s in spans):
                print("  --- {} ---".format(bus.label), file=stream)
                print(tail_report(spans, clock, k=DEFAULT_TOP_K),
                      file=stream)
    else:
        reported = False
        for bus in buses:
            if bus.recorder is not None and bus.recorder.captures:
                _flight_report(bus, clock, stream)
                reported = True
        if not reported:
            recorders = [b.recorder for b in buses if b.recorder is not None]
            seen = sum(r.events_seen for r in recorders)
            trigger = recorders[0].slowdown_trigger if recorders else None
            print(
                "  [flight recorder: {} events seen, no captures -- no "
                "request completed with slowdown >= {:g}]".format(
                    seen, trigger if trigger is not None else float("nan")
                ),
                file=stream,
            )
    merged = session.merged_counters().snapshot()["counters"]
    headline = {
        key: merged[key]
        for key in (
            "requests.arrived", "requests.completed", "requests.preempted",
            "requests.dropped", "steals.slices", "flight.triggers",
        )
        if key in merged
    }
    print(
        "  [telemetry: {}]".format(json.dumps(headline, sort_keys=True)),
        file=stream,
    )
