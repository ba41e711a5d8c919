"""Checks of the benchmark itself, at a small scale:

    python3 -m pytest bench/ -q

The tier-1 suite (``tests/``) does not collect this file.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run  # noqa: F401  (puts the package source on sys.path)
import layers
import sweep
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SERVER_WORKLOADS = ("usr-concord", "preempt-shinjuku")
SCALE = 0.05


def bench(tmp_path, trace):
    out = tmp_path / "runs-{}.json".format(trace)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", str(SCALE),
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    records = {r["workload"]: r for r in json.loads(out.read_text())["runs"]}
    assert sorted(records) == sorted(NAMES)
    return records


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), 1)


def check_emitted(records, declared):
    for name, record in records.items():
        for metric in declared:
            measured = record["metrics"].get(metric["name"])
            assert measured is not None, (name, metric["name"])
            assert math.isfinite(measured["value"]), (name, metric["name"])
            assert measured["unit"] == metric["unit"], (name, metric["name"])


def test_every_end_to_end_metric_is_emitted(untraced):
    check_emitted(untraced, SPEC["end_to_end"])
    for record in untraced.values():
        for metric in SPEC["end_to_end"]:
            assert record["metrics"][metric["name"]]["value"] > 0
    assert untraced["sweep-smoke"]["metrics"]["warm_rerun_s"]["value"] > 0


def test_every_per_layer_metric_is_emitted(traced):
    check_emitted(traced, SPEC["per_layer"])


def test_attribution_covers_the_profiled_wall(traced):
    for name, record in traced.items():
        share = record["metrics"]["bench.attributed_frac"]["value"]
        assert 0.98 <= share <= 1.02, (name, share)
        total = sum(record["metrics"][layer + ".self_share"]["value"]
                    for layer in layers.LAYERS)
        assert total == pytest.approx(share)


def test_server_workloads_never_call_rack_or_harness_layers(traced):
    for name in SERVER_WORKLOADS:
        for layer in ("cluster", "faults", "parallel"):
            assert traced[name]["metrics"][layer + ".calls"]["value"] == 0


@pytest.mark.parametrize("name", [n for n in NAMES if n in workloads.WORKLOADS])
def test_two_reps_give_equal_digests(name):
    digests = []
    for _ in range(2):
        rep = workloads.WORKLOADS[name].prepare(3, SCALE)
        try:
            rep.run()
            assert rep.failure() is None
            digests.append(rep.digest())
        finally:
            rep.close()
    assert digests[0] == digests[1]


def test_cold_and_warm_sweep_passes_give_equal_digests(tmp_path):
    sweeper = sweep.SweepBench(3, SCALE, str(tmp_path))
    try:
        cold, warm = sweeper.run_pass(), sweeper.run_pass()
    finally:
        sweeper.close()
    assert cold.error is None and warm.error is None
    assert cold.stores > 0 and warm.hits == warm.jobs > 0
    assert cold.digest == warm.digest
    assert list(tmp_path.iterdir()) == []


def test_attribution_charges_library_time_to_the_caller():
    root = "/pkg/repro"
    dispatcher = (root + "/core/dispatcher.py", 10, "_next")
    helper = ("/usr/lib/python3/random.py", 5, "expovariate")
    builtin = ("~", 0, "<built-in method math.log>")
    stats = {
        dispatcher: (1, 1, 0.5, 1.0, {}),
        helper: (2, 2, 0.25, 0.5, {dispatcher: (2, 2, 0.25, 0.5)}),
        builtin: (2, 2, 0.25, 0.25, {helper: (2, 2, 0.25, 0.25)}),
    }
    self_s, calls, _top = layers.attribute(stats, root)
    assert self_s["core.dispatcher"] == pytest.approx(1.0)
    assert calls["core.dispatcher"] == 5
    assert sum(self_s.values()) == pytest.approx(1.0)
