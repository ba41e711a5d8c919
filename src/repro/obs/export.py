"""Exporters: Chrome trace JSON, JSONL span dumps, and text tail reports.

This is the only observability module that touches the filesystem; it
runs strictly *after* a simulation finishes, so the purity certificate
over the sim-reachable closure is unaffected (see ``docs/determinism.md``).

The Chrome format is the ``trace_event`` JSON object form understood by
``chrome://tracing`` and https://ui.perfetto.dev: one process per probe
bus (a server or the rack balancer), thread 0 for the dispatcher's
actions and steal slices, thread ``wid + 1`` per worker, complete ("X")
events per execution slice with microsecond timestamps, and counter
("C") tracks for the sampled series.  :func:`validate_chrome_trace` is
the schema check CI runs against emitted files.
"""

import json

from repro.obs.spans import build_spans

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "tail_report",
]

#: Chrome trace_event phases this exporter emits.
_PHASES = ("X", "M", "C")


def _slice_name(span):
    if span.kind is not None:
        return "r{} ({})".format(span.rid, span.kind)
    return "r{}".format(span.rid)


def chrome_trace(buses, clock):
    """Build a Chrome ``trace_event`` JSON object from probe buses.

    ``clock`` converts cycle stamps to the microseconds the format wants;
    pass the machine clock the traced run used.
    """
    trace_events = []
    for pid, bus in enumerate(buses):
        trace_events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": bus.label},
        })
        trace_events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "thread_name",
            "args": {"name": "dispatcher"},
        })
        spans = build_spans(bus.events)
        wids = sorted({
            s.wid
            for span in spans
            for s in span.slices
            if s.wid is not None
        })
        for wid in wids:
            trace_events.append({
                "ph": "M", "pid": pid, "tid": wid + 1,
                "name": "thread_name",
                "args": {"name": "worker-{}".format(wid)},
            })
        for span in spans:
            for s in span.slices:
                if s.end is None or s.end <= s.start:
                    continue
                tid = 0 if s.stolen else s.wid + 1
                args = {"rid": span.rid, "preemptions": span.preemptions}
                if span.slowdown is not None:
                    args["slowdown"] = round(span.slowdown, 3)
                if s.stolen:
                    args["stolen"] = True
                trace_events.append({
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": _slice_name(span),
                    "cat": "request",
                    "ts": clock.cycles_to_us(s.start),
                    "dur": clock.cycles_to_us(s.end - s.start),
                    "args": args,
                })
        for name, series in bus.registry.series.items():
            for t, value in series.samples:
                trace_events.append({
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": name,
                    "ts": clock.cycles_to_us(t),
                    "args": {"value": value},
                })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "concord-repro"},
    }


def validate_chrome_trace(payload):
    """Structural schema check for an emitted Chrome trace.

    Raises :class:`ValueError` on the first violation; returns the number
    of ``traceEvents`` when the payload is well-formed.  This is what the
    CI ``obs-smoke`` job runs against the artifact.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        raise ValueError("traceEvents must be a list")
    for index, event in enumerate(trace_events):
        where = "traceEvents[{}]".format(index)
        if not isinstance(event, dict):
            raise ValueError("{} is not an object".format(where))
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(
                "{}: unknown phase {!r}".format(where, phase)
            )
        if not isinstance(event.get("name"), str):
            raise ValueError("{}: missing name".format(where))
        if not isinstance(event.get("pid"), int):
            raise ValueError("{}: missing integer pid".format(where))
        if phase in ("X", "C"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(
                    "{}: ts must be a non-negative number".format(where)
                )
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    "{}: dur must be a non-negative number".format(where)
                )
            if not isinstance(event.get("tid"), int):
                raise ValueError("{}: missing integer tid".format(where))
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(
                    "{}: counter events need non-empty args".format(where)
                )
    return len(trace_events)


def write_chrome_trace(path, payload):
    """Validate and write a Chrome trace JSON file."""
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def write_spans_jsonl(path, spans):
    """Dump spans as one JSON object per line (machine-diffable)."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True))
            fh.write("\n")


def _format_timeline(span, clock):
    """Per-span event rows, microseconds relative to the span anchor."""
    anchor = span.start_cycle
    rows = []

    def add(t, text):
        rows.append((t, "    t=+{:9.2f}us  {}".format(
            clock.cycles_to_us(t - anchor), text
        )))

    if span.routed is not None:
        add(span.routed, "routed by balancer")
    if span.arrival is not None:
        add(span.arrival, "arrival at server")
    for t in span.queue_times:
        add(t, "entered central queue")
    for s in span.slices:
        where = "dispatcher (steal)" if s.stolen else "worker {}".format(s.wid)
        if s.end is not None:
            add(s.start, "ran on {} for {:.2f}us".format(
                where, clock.cycles_to_us(s.end - s.start)
            ))
        else:
            add(s.start, "started on {} (slice unclosed)".format(where))
    if span.completion is not None:
        add(span.completion, "complete (slowdown {:.1f}x)".format(
            span.slowdown if span.slowdown is not None else float("nan")
        ))
    if span.dropped:
        add(span.end_cycle, "DROPPED at end of run")
    rows.sort(key=lambda row: row[0])
    return [text for _t, text in rows]


def tail_report(spans, clock, k=10):
    """Text report naming the top-``k`` tail requests with timelines."""
    completed = [s for s in spans if s.slowdown is not None]
    completed.sort(key=lambda s: (-s.slowdown, s.rid))
    top = completed[:k]
    dropped = [s for s in spans if s.dropped]
    lines = [
        "Top {} tail requests (of {} completed, {} dropped):".format(
            len(top), len(completed), len(dropped)
        )
    ]
    for span in top:
        service = ""
        if span.service_cycles is not None:
            service = " service={:.2f}us".format(
                clock.cycles_to_us(span.service_cycles)
            )
        lines.append(
            "  rid={} kind={!r} slowdown={:.1f}x{} preemptions={}{}".format(
                span.rid, span.kind, span.slowdown, service,
                span.preemptions, " stolen" if span.stolen else "",
            )
        )
        lines.extend(_format_timeline(span, clock))
    if dropped:
        lines.append("  in-flight at end of run: {}".format(
            ", ".join("rid={}".format(s.rid) for s in dropped[:k])
        ))
    return "\n".join(lines)
