"""Tests for the observability layer (repro.obs).

Covers the acceptance criteria of the observability PR:

* unit behaviour of the probe-event vocabulary, telemetry registry,
  flight recorder, trace sessions, span reconstruction, and exporters;
* the **differential** guarantee — identical seeds yield bit-identical
  ``SimResult`` / ``ClusterResult`` with tracing disabled, fully enabled,
  and flight-recorder-only;
* the CLI surface: ``--trace`` on compare writes a schema-valid Chrome
  trace, JSONL spans and a tail report naming concrete request ids;
* runner job telemetry feeding the sweep summary footer.
"""

import gc
import io
import json

import pytest

from repro.core import concord
from repro.hardware import c6420
from repro.obs import (
    FIELDS,
    FlightRecorder,
    TelemetryRegistry,
    TraceConfig,
    TraceSession,
    active_session,
    build_spans,
    chrome_trace,
    event_data,
    event_dict,
    tail_report,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs import events as ev
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

SEED = 11
WORKERS = 4
QUANTUM_US = 5.0
NUM_REQUESTS = 1200


@pytest.fixture(autouse=True)
def no_session_leak():
    """Every test must leave the ambient trace session cleared."""
    assert active_session() is None
    yield
    assert active_session() is None


def run_server(config=None, seed=SEED, num_requests=NUM_REQUESTS,
               load_frac=0.7, until_us=None):
    from repro.core.server import Server

    workload = bimodal_50_1_50_100()
    machine = c6420(WORKERS)
    server = Server(machine, config or concord(QUANTUM_US), seed=seed)
    load = load_frac * machine.num_workers * 1e6 / workload.mean_us()
    kwargs = {} if until_us is None else {"until_us": until_us}
    return server.run(workload, PoissonProcess(load), num_requests, **kwargs)


def record_key(record):
    """Every observable field of one completed request."""
    return (
        record.rid, record.kind, record.arrival_cycle,
        record.completion_cycle, record.remaining_cycles,
        record.preemptions, record.migrations, record.last_worker,
        record.started_by_dispatcher,
    )


def result_fingerprint(result):
    return tuple(record_key(r) for r in result.records)


# -- events ------------------------------------------------------------------


class TestProbeEvent:
    def test_records_compare_and_hash_by_value(self):
        def event_log():
            with tracing(TraceConfig()) as session:
                run_server(num_requests=200)
            return session.buses[0].events

        first, second = event_log(), event_log()
        assert first == second
        assert set(first) == set(second)

    def test_event_dict_omits_missing_fields(self):
        event = (3, ev.WORKER_IDLE, None, 0)
        assert event_dict(event) == {"t": 3, "kind": "worker-idle", "wid": 0}
        full = (4, ev.ARRIVAL, 7, None, "short", 900)
        assert event_dict(full) == {
            "t": 4, "kind": "arrival", "rid": 7, "request_kind": "short",
            "service_cycles": 900,
        }

    def test_event_data_names_values_by_fields(self):
        assert event_data((1, ev.ENQUEUE, 4, None)) is None
        assert event_data((1, ev.ENQUEUE, 4, None, True)) == {"requeued": True}
        assert event_data((2, ev.ACTION, None, None, "d-push", 10)) == {
            "name": "d-push", "cost": 10,
        }
        assert event_data((3, ev.START, 4, 1, 3, False)) == {
            "run_start": 3, "resumed": False,
        }

    def test_lifecycle_kinds_subset_of_all(self):
        assert set(ev.REQUEST_LIFECYCLE_KINDS) < set(ev.EVENT_KINDS)
        assert len(set(ev.EVENT_KINDS)) == len(ev.EVENT_KINDS)

    def test_fields_name_every_kind(self):
        assert list(FIELDS) == list(ev.EVENT_KINDS)


class TestEventLog:
    """A bus stores its log column-wise and reads it back as the probes'
    tuples."""

    EXPECTED = [
        (5, ev.ARRIVAL, 7, None, "short", 900),
        (6, ev.ENQUEUE, 7, None),
        (6, ev.ACTION, None, None, "d-rx", 10),
        (9, ev.ENQUEUE, 7, None, True),
        (12, ev.COMPLETE, 7, None, 1.5, 1, True),
        (13, ev.WORKER_IDLE, None, 2),
        (14, ev.ENQUEUE, 7, None),
    ]

    @staticmethod
    def emit(bus):
        from repro.core.request import Request

        request = Request(7, "short", 0, 900, 0.45)
        bus.request_arrival(5, request)
        bus.request_enqueued(6, request)
        bus.dispatcher_action(6, "d-rx", 10)
        bus.request_enqueued(9, request, requeued=True)
        request.completion_cycle = 1350
        request.preemptions = 1
        request.started_by_dispatcher = True
        bus.request_completed(12, request)
        bus.worker_went_idle(13, 2)
        bus.request_enqueued(14, request)
        return bus

    def test_log_reads_back_the_probes_tuples(self):
        from repro.obs import ProbeBus

        events = self.emit(ProbeBus()).events
        assert list(events) == self.EXPECTED
        assert len(events) == len(self.EXPECTED) and events
        assert events == self.EXPECTED
        assert events != self.EXPECTED[:-1]
        assert events == self.emit(ProbeBus()).events
        assert events[0] == self.EXPECTED[0]
        assert events[3] == self.EXPECTED[3]
        assert events[-1] == self.EXPECTED[-1]
        for index in (len(self.EXPECTED), -len(self.EXPECTED) - 1):
            with pytest.raises(IndexError):
                events[index]
        with pytest.raises(TypeError):
            hash(events)

    def test_ring_gets_the_same_tuples_and_an_off_log_stays_empty(self):
        from repro.obs import ProbeBus

        bus = self.emit(ProbeBus(record_events=False,
                                 recorder=FlightRecorder(capacity=64)))
        assert list(bus.recorder.ring) == self.EXPECTED
        assert bus.events == [] and not bus.events and len(bus.events) == 0

    def test_traced_run_retains_under_80_bytes_per_event(self):
        # The stamps cost 8 bytes each in their array and the other atoms
        # one list slot each; a tuple per event and a separate int per
        # stamp cost about 130 bytes.
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tracing(TraceConfig.full()) as session:
                run_server(num_requests=2000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        events = sum(len(bus.events) for bus in session.buses)
        assert events > 100_000
        assert retained / events < 80


# -- registry ----------------------------------------------------------------


class TestTelemetryRegistry:
    def test_get_or_create_is_stable(self):
        registry = TelemetryRegistry()
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        assert registry.time_series("s") is registry.time_series("s")

    def test_convenience_writers(self):
        registry = TelemetryRegistry()
        registry.count("hits")
        registry.count("hits", 4)
        registry.sample("depth", 100, 3)
        registry.sample("depth", 200, 1)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 5}
        assert snap["series"] == {"depth": [[100, 3], [200, 1]]}

    def test_merge_counts_sums_counters_only(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.count("x", 2)
        b.count("x", 3)
        b.count("y")
        b.sample("s", 1, 9)
        a.merge_counts(b)
        assert a.snapshot()["counters"] == {"x": 5, "y": 1}
        assert a.snapshot()["series"] == {}

    def test_snapshot_preserves_insertion_order(self):
        registry = TelemetryRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.count(name)
        assert list(registry.snapshot()["counters"]) == ["zeta", "alpha", "mid"]


# -- flight recorder ---------------------------------------------------------


def arrival(t, rid):
    return (t, ev.ARRIVAL, rid, None, "short", 10)


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=3)
        for t in range(6):
            recorder.record((t, ev.ACTION, None, None, "e", 1))
        tail = recorder.tail()
        assert [e[0] for e in tail] == [3, 4, 5]
        assert len(recorder) == 3
        assert recorder.events_seen == 6

    def test_trigger_threshold(self):
        recorder = FlightRecorder(capacity=4, slowdown_trigger=10.0)
        recorder.record(arrival(1, rid=1))
        assert not recorder.maybe_trigger(5, 1, 9.99)
        assert recorder.maybe_trigger(5, 1, 10.0)
        assert recorder.triggers_fired == 1
        capture = recorder.captures[0]
        assert capture["rid"] == 1 and capture["slowdown"] == 10.0
        assert [e[0] for e in capture["events"]] == [1]

    def test_capture_is_a_snapshot(self):
        recorder = FlightRecorder(capacity=2, slowdown_trigger=1.0)
        recorder.record(arrival(1, rid=1))
        recorder.maybe_trigger(2, 1, 5.0)
        recorder.record(arrival(3, rid=2))
        recorder.record(arrival(4, rid=3))
        assert [e[0] for e in recorder.captures[0]["events"]] == [1]

    def test_max_captures_bounds_memory_not_counting(self):
        recorder = FlightRecorder(capacity=2, slowdown_trigger=1.0,
                                  max_captures=2)
        for rid in range(5):
            assert recorder.maybe_trigger(rid, rid, 2.0)
        assert recorder.triggers_fired == 5
        assert len(recorder.captures) == 2

    def test_none_trigger_disables(self):
        recorder = FlightRecorder(capacity=2, slowdown_trigger=None)
        assert not recorder.maybe_trigger(1, 1, 1e9)
        assert recorder.captures == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# -- sessions ----------------------------------------------------------------


class TestTraceSession:
    def test_full_and_flight_only_presets(self):
        full = TraceConfig.full()
        assert full.record_events and full.flight_capacity > 0
        assert full.sample_interval_us > 0
        flight = TraceConfig.flight_only(capacity=64)
        assert not flight.record_events
        assert flight.flight_capacity == 64

    def test_make_bus_deduplicates_labels(self):
        session = TraceSession(TraceConfig())
        labels = [session.make_bus("concord").label for _ in range(3)]
        assert labels == ["concord", "concord#1", "concord#2"]

    def test_max_recorded_runs_caps_event_logs(self):
        session = TraceSession(TraceConfig(max_recorded_runs=2))
        buses = [session.make_bus("b") for _ in range(4)]
        assert [bus.record_events for bus in buses] == [
            True, True, False, False,
        ]

    def test_sample_interval_converted_with_clock(self):
        clock = c6420(1).clock
        session = TraceSession(TraceConfig(sample_interval_us=25.0))
        bus = session.make_bus("s", clock=clock)
        assert bus.sample_interval == clock.us_to_cycles(25.0)
        unclocked = session.make_bus("t")
        assert unclocked.sample_interval == 0

    @pytest.mark.parametrize("field", [
        "flight_capacity", "max_captures", "sample_interval_us",
        "max_recorded_runs",
    ])
    def test_config_rejects_negative_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            TraceConfig(**{field: -1})

    def test_config_none_max_recorded_runs_is_unbounded(self):
        session = TraceSession(TraceConfig(max_recorded_runs=None))
        assert all(session.make_bus("b").record_events for _ in range(10))

    def test_tracing_installs_and_clears_ambient_session(self):
        assert active_session() is None
        with tracing() as session:
            assert active_session() is session
            with pytest.raises(RuntimeError):
                with tracing():
                    pass
        assert active_session() is None

    def test_tracing_clears_session_on_error(self):
        with pytest.raises(KeyError):
            with tracing():
                raise KeyError("boom")
        assert active_session() is None

    def test_merged_counters_pools_buses_and_session_registry(self):
        session = TraceSession(TraceConfig())
        session.make_bus("a").registry.count("requests.completed", 2)
        session.make_bus("b").registry.count("requests.completed", 3)
        merged = session.merged_counters().snapshot()["counters"]
        assert merged == {"requests.completed": 5}


# -- span reconstruction -----------------------------------------------------


def lifecycle_events():
    """rid=1: arrival -> queue -> run -> preempt -> requeue -> run -> done."""
    return [
        (10, ev.ARRIVAL, 1, None, "long", 100),
        (10, ev.ENQUEUE, 1, None),
        (12, ev.DISPATCH, 1, 0),
        (13, ev.START, 1, 0, 13, False),
        (20, ev.PREEMPT, 1, 0, 1),
        (20, ev.ENQUEUE, 1, None, True),
        (25, ev.START, 1, 2, 25, True),
        (40, ev.COMPLETE, 1, 2, 3.0, 1, False),
    ]


class TestBuildSpans:
    def test_full_lifecycle_folds_into_one_span(self):
        (span,) = build_spans(lifecycle_events())
        assert span.rid == 1
        assert span.kind == "long"
        assert span.arrival == 10
        assert span.queue_times == [10, 20]
        assert span.completion == 40
        assert span.slowdown == 3.0
        assert span.preemptions == 1
        assert not span.stolen and not span.dropped
        assert [(s.start, s.end, s.wid) for s in span.slices] == [
            (13, 20, 0), (25, 40, 2),
        ]
        assert span.start_cycle == 10 and span.end_cycle == 40

    def test_steal_slices_attach_to_dispatcher(self):
        events = [
            (5, ev.STEAL, 9, None, 6, 30),
            (15, ev.STEAL_PAUSE, 9, None),
            (20, ev.STEAL, 9, None, 20, 30),
            (30, ev.COMPLETE, 9, None, 2.0, 0, True),
        ]
        (span,) = build_spans(events)
        assert span.stolen
        assert [(s.start, s.end, s.stolen) for s in span.slices] == [
            (6, 15, True), (20, 30, True),
        ]

    def test_partial_ring_sequence_is_tolerated(self):
        # A flight-recorder ring that starts mid-life: no arrival, and the
        # final slice never closes.
        events = [
            (50, ev.START, 3, 1, 50, True),
        ]
        (span,) = build_spans(events)
        assert span.arrival is None
        assert span.first_seen == 50
        assert span.start_cycle == 50
        assert span.slices[0].end is None
        assert span.end_cycle == 50

    def test_drop_marks_span(self):
        events = [
            (1, ev.ARRIVAL, 2, None, "short", 10),
            (99, ev.DROP, 2, None, 4),
        ]
        (span,) = build_spans(events)
        assert span.dropped and span.completion is None

    def test_events_without_rid_are_skipped(self):
        events = [
            (1, ev.ACTION, None, None, "d-push", 10),
            (2, ev.WORKER_IDLE, None, 0),
        ]
        assert build_spans(events) == []

    def test_route_anchors_rack_spans(self):
        events = [(4, ev.ROUTE, 1, None, 2)]
        (span,) = build_spans(events)
        assert span.routed == 4 and span.start_cycle == 4


# -- exporters ---------------------------------------------------------------


class TestChromeExport:
    def traced_run(self):
        with tracing(TraceConfig.full()) as session:
            result = run_server(num_requests=400)
        return session, result

    def test_chrome_trace_is_schema_valid_and_complete(self, tmp_path):
        session, result = self.traced_run()
        (bus,) = session.buses
        payload = chrome_trace(session.buses, result.clock)
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"]) > 0
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "C"}
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {bus.label}
        # Round-trips through disk.
        out = tmp_path / "trace.json"
        write_chrome_trace(str(out), payload)
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == count

    def test_worker_threads_are_named(self):
        session, result = self.traced_run()
        payload = chrome_trace(session.buses, result.clock)
        thread_names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "dispatcher" in thread_names
        assert any(n.startswith("worker-") for n in thread_names)

    def test_spans_jsonl_round_trip(self, tmp_path):
        session, _result = self.traced_run()
        spans = build_spans(session.buses[0].events)
        out = tmp_path / "spans.jsonl"
        write_spans_jsonl(str(out), spans)
        lines = out.read_text().splitlines()
        assert len(lines) == len(spans)
        first = json.loads(lines[0])
        assert {"rid", "slices", "slowdown", "queue_times"} <= set(first)

    def test_tail_report_names_real_requests(self):
        session, result = self.traced_run()
        spans = build_spans(session.buses[0].events)
        report = tail_report(spans, result.clock, k=3)
        assert "Top 3 tail requests" in report
        worst = max(
            (s for s in spans if s.slowdown is not None),
            key=lambda s: s.slowdown,
        )
        assert "rid={}".format(worst.rid) in report

    @pytest.mark.parametrize("payload, message", [
        ([], "JSON object"),
        ({"traceEvents": {}}, "must be a list"),
        ({"traceEvents": ["nope"]}, "not an object"),
        ({"traceEvents": [{"ph": "Q", "name": "x", "pid": 0}]}, "phase"),
        ({"traceEvents": [{"ph": "M", "pid": 0}]}, "name"),
        ({"traceEvents": [{"ph": "M", "name": "x"}]}, "pid"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                           "ts": -1, "dur": 1}]}, "ts"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                           "ts": 0, "dur": -2}]}, "dur"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                           "ts": 0, "dur": 1}]}, "tid"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "ts": 0,
                           "args": {}}]}, "args"),
    ])
    def test_validator_rejects_malformed_payloads(self, payload, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(payload)


# -- probe semantics on a real run ------------------------------------------


class TestInstrumentedRun:
    def test_counters_match_result(self):
        with tracing(TraceConfig.full()) as session:
            result = run_server(num_requests=600)
        (bus,) = session.buses
        counters = bus.registry.snapshot()["counters"]
        assert counters["requests.arrived"] == 600
        assert counters["requests.completed"] == len(result.records) == 600
        total_preemptions = sum(r.preemptions for r in result.records)
        assert counters.get("requests.preempted", 0) == total_preemptions

    def test_every_request_becomes_a_complete_span(self):
        with tracing(TraceConfig.full()) as session:
            result = run_server(num_requests=600)
        spans = {s.rid: s for s in build_spans(session.buses[0].events)}
        assert len(spans) == 600
        for record in result.records:
            span = spans[record.rid]
            assert span.arrival == record.arrival_cycle
            assert span.completion == record.completion_cycle
            assert span.preemptions == record.preemptions
            assert span.slowdown == pytest.approx(record.slowdown())
            assert span.slices, "completed request must have executed"

    def test_sampling_and_engine_gauges_present(self):
        with tracing(TraceConfig.full()) as session:
            run_server(num_requests=600)
        (bus,) = session.buses
        snap = bus.registry.snapshot()
        assert len(snap["series"]["server.inflight"]) > 0
        assert len(snap["series"]["worker.0.outstanding"]) > 0
        # Series are stamped with sim time, monotonically non-decreasing.
        stamps = [t for t, _v in bus.registry.series["server.inflight"].samples]
        assert stamps == sorted(stamps)

    def test_truncated_run_emits_drops(self):
        with tracing(TraceConfig.full()) as session:
            result = run_server(num_requests=4000, load_frac=1.4,
                                until_us=2000.0)
        (bus,) = session.buses
        counters = bus.registry.snapshot()["counters"]
        dropped = counters.get("requests.dropped", 0)
        assert dropped == counters["requests.arrived"] - len(result.records)
        assert dropped > 0
        spans = build_spans(bus.events)
        assert sum(1 for s in spans if s.dropped) == dropped

    def test_records_follow_fields_layout(self):
        with tracing(TraceConfig.full()) as session:
            run_server(num_requests=600)
        (bus,) = session.buses
        for event in bus.events:
            kind = event[1]
            values = FIELDS[kind]
            if kind == ev.ENQUEUE and len(event) == 4:
                values = ()  # a fresh push carries no values
            assert len(event) == 4 + len(values), event

    def test_records_leave_the_cyclic_gc(self):
        # The stored log is a stamp array and one list of untracked atoms,
        # and a captured tuple of atoms is untracked at its first young
        # collection, so a long log costs full collections nothing.
        with tracing(TraceConfig.full(slowdown_trigger=1.0)) as session:
            run_server(num_requests=600)
        gc.collect()
        (bus,) = session.buses
        captured = [
            event
            for capture in bus.recorder.captures
            for event in capture["events"]
        ]
        assert bus.events and captured
        tracked = [a for a in bus.events.atoms if gc.is_tracked(a)]
        tracked += [e for e in captured if gc.is_tracked(e)]
        assert tracked == []

    def test_flight_only_records_no_event_log(self):
        with tracing(TraceConfig.flight_only(slowdown_trigger=1.0)) as session:
            run_server(num_requests=600)
        (bus,) = session.buses
        assert bus.events == []
        assert bus.recorder is not None
        assert bus.recorder.events_seen > 0
        assert bus.recorder.captures, "trigger at 1.0x must fire"


# -- the differential guarantee ---------------------------------------------


class TestDifferentialServer:
    """Same seed => bit-identical SimResult regardless of tracing mode."""

    def run_mode(self, config):
        if config is None:
            return run_server()
        with tracing(config):
            return run_server()

    @pytest.mark.parametrize("config", [
        TraceConfig.full(),
        TraceConfig.flight_only(),
    ], ids=["full", "flight-only"])
    def test_traced_equals_untraced(self, config):
        bare = self.run_mode(None)
        traced = self.run_mode(config)
        assert result_fingerprint(bare) == result_fingerprint(traced)
        assert bare.duration_cycles() == traced.duration_cycles()
        assert bare.drained == traced.drained


class TestDifferentialCluster:
    """Same seed => bit-identical ClusterResult regardless of tracing."""

    def run_rack(self, config):
        from repro.cluster import Cluster

        workload = bimodal_50_1_50_100()
        machine = c6420(2)
        num_servers = 2
        load = 0.75 * num_servers * 2 * 1e6 / workload.mean_us()

        def go():
            cluster = Cluster(machine, concord(QUANTUM_US), num_servers,
                              policy="jsq", seed=SEED)
            return cluster.run(workload, PoissonProcess(load), 1500)

        if config is None:
            return go()
        with tracing(config):
            return go()

    @pytest.mark.parametrize("config", [
        TraceConfig.full(),
        TraceConfig.flight_only(),
    ], ids=["full", "flight-only"])
    def test_traced_equals_untraced(self, config):
        bare = self.run_rack(None)
        traced = self.run_rack(config)
        assert result_fingerprint(bare) == result_fingerprint(traced)
        assert bare.routed == traced.routed
        assert bare.replies == traced.replies
        assert bare.drained == traced.drained

    def test_rack_session_gets_per_server_and_balancer_buses(self):
        with tracing(TraceConfig.full()) as session:
            from repro.cluster import Cluster

            workload = bimodal_50_1_50_100()
            machine = c6420(2)
            cluster = Cluster(machine, concord(QUANTUM_US), 2,
                              policy="jsq", seed=SEED)
            load = 0.75 * 2 * 2 * 1e6 / workload.mean_us()
            cluster.run(workload, PoissonProcess(load), 800)
        labels = [bus.label for bus in session.buses]
        assert "balancer" in labels
        assert len(labels) == 3  # two servers + the balancer
        balancer_bus = session.buses[labels.index("balancer")]
        counters = balancer_bus.registry.snapshot()["counters"]
        assert counters["balancer.routed"] == 800
        assert counters["balancer.replies"] == 800


# -- runner telemetry --------------------------------------------------------


class TestRunnerTelemetry:
    def make_jobs(self, n=2):
        from repro.parallel import SimJob

        workload = bimodal_50_1_50_100()
        machine = c6420(2)
        load = 0.5 * 2 * 1e6 / workload.mean_us()
        return [
            SimJob(machine=machine, config=concord(QUANTUM_US),
                   workload=workload, load_rps=load, num_requests=200,
                   seed=seed)
            for seed in range(1, n + 1)
        ]

    def test_job_wall_times_land_in_telemetry(self):
        from repro.parallel import ParallelRunner

        runner = ParallelRunner(jobs=1, cache=None)
        runner.map(self.make_jobs(2))
        assert runner.stats["jobs_run"] == 2
        samples = runner.telemetry.snapshot()["series"]["runner.job_seconds"]
        assert len(samples) == 2
        assert all(seconds > 0 for _i, seconds in samples)
        line = runner.summary_line()
        assert "2 jobs simulated" in line and "no cache" in line

    def test_cache_hits_show_in_summary(self, tmp_path):
        from repro.parallel import ParallelRunner, ResultCache

        jobs = self.make_jobs(2)
        first = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        first.map(jobs)
        assert first.stats["cache_misses"] == 2
        second = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        second.map(jobs)
        assert second.stats["cache_hits"] == 2
        assert "2 cache hits, 0 misses" in second.summary_line()


# -- CLI surface -------------------------------------------------------------


class TestTraceCLI:
    def main(self, argv):
        from repro.experiments.cli import main

        stream = io.StringIO()
        code = main(argv, stream=stream)
        return code, stream.getvalue()

    def test_compare_trace_full(self, tmp_path):
        out = tmp_path / "concord-trace.json"
        code, text = self.main([
            "compare", "--systems", "concord", "--workers", "2",
            "--requests", "400", "--trace-out", str(out),
        ])
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0
        assert "Top" in text and "rid=" in text
        assert "[telemetry:" in text
        assert '"requests.completed": 400' in text

    def test_compare_flight_recorder(self, tmp_path, monkeypatch):
        # --trace-out would ask for the full log, so the flight-only run
        # goes without it, from a directory that must stay empty.
        monkeypatch.chdir(tmp_path)
        code, text = self.main([
            "compare", "--systems", "concord", "--workers", "2",
            "--requests", "400", "--flight-recorder",
            "--slowdown-trigger", "1.0",
        ])
        assert code == 0
        assert "flight recorder saw" in text
        assert list(tmp_path.iterdir()) == []  # no full log recorded

    def test_compare_spans_out_writes_jsonl(self, tmp_path):
        spans_out = tmp_path / "spans.jsonl"
        code, text = self.main([
            "compare", "--systems", "concord", "--workers", "2",
            "--requests", "400", "--trace-out", str(tmp_path / "t.json"),
            "--spans-out", str(spans_out),
        ])
        assert code == 0
        lines = spans_out.read_text().splitlines()
        assert len(lines) == 400
        rids = {json.loads(line)["rid"] for line in lines}
        assert len(rids) == 400
        assert "wrote 400 spans" in text

    def test_compare_with_trace_flag(self, tmp_path):
        out = tmp_path / "compare-trace.json"
        code, text = self.main([
            "compare", "--systems", "concord", "--workers", "2",
            "--requests", "400", "--trace-out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0
        assert "[runner:" in text
