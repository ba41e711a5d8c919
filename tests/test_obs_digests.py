"""Pinned digests of traced runs' observable outputs.

Each case runs a traced simulation and hashes everything the
observability layer hands to a user: the Chrome trace file, the JSONL
span dump, every bus's telemetry snapshot, the session's merged counters,
the text tail report and the CLI's trace summary (which, for a
flight-recorder-only session, is the report rebuilt from the ring
captures).  A change to how probe events are stored, recorded or read
back must leave all of them byte-identical.

The cases are the chaos rack (a JSQ rack with a server crash and
retries) under full tracing and under the flight recorder alone, and one
Concord server under the default :class:`~repro.obs.TraceConfig`.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.cluster import Cluster
from repro.core import Server, concord
from repro.experiments.tracecmd import export_session
from repro.faults import ResilienceConfig, crash_plan
from repro.hardware import c6420
from repro.obs import (
    TraceConfig,
    build_spans,
    chrome_trace,
    tail_report,
    tracing,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

SEED = 1
QUANTUM_US = 5.0
RACK_SERVERS = 4
RACK_WORKERS = 4
RACK_REQUESTS = 2000
RACK_LOAD = 0.75
SERVER_WORKERS = 4
SERVER_REQUESTS = 2000
SERVER_LOAD = 0.85
#: Low enough that the rack's queueing tail fires the flight recorder, so
#: its captures (and the report rebuilt from them) are pinned too.
FLIGHT_TRIGGER = 10.0


def run_chaos_rack():
    """The JSQ rack with one server crashing for 30% of the offered span."""
    mix = bimodal_50_1_50_100()
    machine = c6420(RACK_WORKERS)
    load = RACK_LOAD * RACK_SERVERS * RACK_WORKERS * 1e6 / mix.mean_us()
    span_us = RACK_REQUESTS / load * 1e6
    cluster = Cluster(
        machine, concord(QUANTUM_US), RACK_SERVERS, policy="jsq", seed=SEED,
        fault_plan=crash_plan(0.25 * span_us, 0.3 * span_us),
        resilience=ResilienceConfig.retry_only(),
    )
    return cluster.run(mix, PoissonProcess(load), RACK_REQUESTS)


def run_concord_server():
    mix = bimodal_50_1_50_100()
    load = SERVER_LOAD * SERVER_WORKERS * 1e6 / mix.mean_us()
    server = Server(c6420(SERVER_WORKERS), concord(QUANTUM_US), seed=SEED)
    return server.run(mix, PoissonProcess(load), SERVER_REQUESTS)


CASES = {
    "rack-full": (
        run_chaos_rack,
        lambda: TraceConfig.full(slowdown_trigger=FLIGHT_TRIGGER),
    ),
    "rack-flight": (
        run_chaos_rack,
        lambda: TraceConfig.flight_only(slowdown_trigger=FLIGHT_TRIGGER),
    ),
    "server-default": (run_concord_server, TraceConfig),
}

DIGESTS = {
    "rack-full": {
        "chrome": (
            "52d75f54bf9367ad0fc9246d84d152b5255af3a62968d3b810a6d96f00184b65"
        ),
        "spans": (
            "966035c69da37afad0ecaf66a47ed7dca756f4054cb6a1f436c5f0cece9a5ed6"
        ),
        "registries": (
            "93ce716ccea501c23559e3eda1766d40949736cde575b306f00f1c644a36a5bf"
        ),
        "merged-counters": (
            "14fac557d1367eef6cfe04cd148bfd00e8498a120a0af39c22644138dc189737"
        ),
        "tail-report": (
            "af93a3c4611c0f849b8aff21876b120a21f1c7b45a71d5f1eb1dc7db6f7218a4"
        ),
        "export-stdout": (
            "a29ed1e017ddd04c3b511d17cabe7d4689a173890f2dc2145d8faddec79099bf"
        ),
    },
    "rack-flight": {
        "chrome": (
            "73c8b7f4a8fc157e408bd08f2a6ae99fd72096e7b57b4c03116ec6eff884d8d7"
        ),
        # No event log: the span dump and the tail report are empty.
        "spans": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        ),
        "registries": (
            "677c739f4917efd84b6e3c78a1caa7e6dfe13758765b02faa21863fe0a0731de"
        ),
        "merged-counters": (
            "14fac557d1367eef6cfe04cd148bfd00e8498a120a0af39c22644138dc189737"
        ),
        "tail-report": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        ),
        "export-stdout": (
            "2d7af1eb75a9708ba113bd0cc23a68aff0094f09c2b3ceec8726350f8870e860"
        ),
    },
    "server-default": {
        "chrome": (
            "a563227e3c43167462e78b8ce293eae0a1cd1d60d52de4b759204d0dfdf76caf"
        ),
        "spans": (
            "3751105d7ec3a092cc40d0f5d0d0981b620a68295c85911b0a62f799cbb32faa"
        ),
        "registries": (
            "64fcbbf130bab6f3530326e813cee3364a9551773d27ce94216e300ad0cb5c4f"
        ),
        "merged-counters": (
            "a4d39dd3bfeb651cae4e78bfdc663641a4041bb7a245897c978c6b828de32c8a"
        ),
        "tail-report": (
            "e37f4e8fbdd2d477fbf8a08acaee739124d53df5ec03ddff5460d5ddc5be0a44"
        ),
        "export-stdout": (
            "eeba8b76ee9fe33b882779ddf8de1be8c4aeea5c2e403c14d0c53d84ec426b70"
        ),
    },
}


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def artifacts(name):
    """``{artifact: sha256}`` for one traced case."""
    run, make_config = CASES[name]
    with tracing(make_config()) as session:
        result = run()
    assert result.drained
    buses = session.buses
    clock = next(bus.clock for bus in buses if bus.clock is not None)
    recorded = [bus for bus in buses if bus.events]
    spans = [span for bus in recorded for span in build_spans(bus.events)]
    with tempfile.TemporaryDirectory() as tmp:
        chrome_path = os.path.join(tmp, "trace.json")
        write_chrome_trace(chrome_path, chrome_trace(buses, clock))
        spans_path = os.path.join(tmp, "spans.jsonl")
        write_spans_jsonl(spans_path, spans)
        stdout = io.StringIO()
        args = argparse.Namespace(
            trace_out=os.path.join(tmp, "export.json"),
            spans_out=os.path.join(tmp, "export.jsonl"),
        )
        export_session(session, args, stdout)
        with open(chrome_path, "rb") as fh:
            chrome = fh.read()
        with open(spans_path, "rb") as fh:
            span_lines = fh.read()
        report = stdout.getvalue().replace(tmp, "<tmp>")
    tails = "\n".join(
        tail_report(build_spans(bus.events), clock) for bus in recorded
    )
    return {
        "chrome": sha256(chrome),
        "spans": sha256(span_lines),
        "registries": sha256(json_text(
            [[bus.label, bus.registry.snapshot()] for bus in buses]
        )),
        "merged-counters": sha256(json_text(
            session.merged_counters().snapshot()
        )),
        "tail-report": sha256(tails),
        "export-stdout": sha256(report),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_outputs_digest(name):
    assert artifacts(name) == DIGESTS[name]
