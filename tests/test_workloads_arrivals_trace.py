"""Tests for arrival processes and trace record/replay."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    DeterministicProcess,
    PoissonProcess,
    Trace,
    TraceRecord,
    bimodal_50_1_50_100,
    fixed_1us,
    open_loop,
)


class TestPoissonProcess:
    def test_mean_gap_matches_rate(self):
        process = PoissonProcess(100_000)  # 10us mean gap
        r = random.Random(0)
        gaps = [process.next_gap_us(r) for _ in range(20000)]
        assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.05)

    def test_rate_property(self):
        assert PoissonProcess(5000).rate_rps == 5000

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonProcess(0)


class TestDeterministicProcess:
    def test_constant_gap(self):
        process = DeterministicProcess(1_000_000)
        r = random.Random(0)
        assert process.next_gap_us(r) == 1.0
        assert process.next_gap_us(r) == 1.0


class TestOpenLoop:
    def test_one_rng_equals_trace_sample(self):
        workload, arrivals = bimodal_50_1_50_100(), PoissonProcess(100_000)
        rng = random.Random(7)
        stream = list(open_loop(workload, arrivals, 300, rng, rng))
        trace = Trace.sample(workload, arrivals, 300, random.Random(7))
        assert [TraceRecord(*request) for request in stream] == trace.records

    def test_deterministic_process_gives_exact_instants(self):
        stream = list(open_loop(
            fixed_1us(), DeterministicProcess(250_000), 5,
            random.Random(0), random.Random(1),
        ))
        assert [t for t, _, _ in stream] == [4.0, 8.0, 12.0, 16.0, 20.0]
        assert all(kind == "fixed" and service == 1.0
                   for _, kind, service in stream)

    def test_separate_rngs_draw_gaps_and_classes_apart(self):
        # Each draw stays on its own stream: the gaps depend only on the
        # gap rng, the classes only on the class rng.
        workload, arrivals = bimodal_50_1_50_100(), PoissonProcess(100_000)

        def draw(gap_seed, class_seed):
            return list(open_loop(workload, arrivals, 200,
                                  random.Random(gap_seed),
                                  random.Random(class_seed)))

        base, other_gaps, other_classes = draw(1, 2), draw(3, 2), draw(1, 4)
        assert [r[1:] for r in base] == [r[1:] for r in other_gaps]
        assert [r[0] for r in base] == [r[0] for r in other_classes]
        assert [r[0] for r in base] != [r[0] for r in other_gaps]


class TestTrace:
    def test_sample_produces_sorted_arrivals(self):
        trace = Trace.sample(
            bimodal_50_1_50_100(), PoissonProcess(100_000), 500, random.Random(1)
        )
        arrivals = [r.arrival_us for r in trace]
        assert arrivals == sorted(arrivals)
        assert len(trace) == 500

    def test_offered_load_close_to_requested(self):
        trace = Trace.sample(
            bimodal_50_1_50_100(), PoissonProcess(200_000), 5000, random.Random(2)
        )
        assert trace.offered_load_rps() == pytest.approx(200_000, rel=0.1)

    def test_kinds_and_mean_service(self):
        trace = Trace.sample(
            bimodal_50_1_50_100(), PoissonProcess(100_000), 2000, random.Random(3)
        )
        assert trace.kinds() == {"short", "long"}
        assert trace.mean_service_us() == pytest.approx(50.5, rel=0.1)

    def test_csv_roundtrip(self, tmp_path):
        trace = Trace.sample(
            bimodal_50_1_50_100(), PoissonProcess(100_000), 100, random.Random(4)
        )
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = Trace.load_csv(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.kind == b.kind
            assert a.arrival_us == pytest.approx(b.arrival_us, abs=1e-5)
            assert a.service_us == pytest.approx(b.service_us, abs=1e-5)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope,nope\n1,2,3\n")
        with pytest.raises(ValueError):
            Trace.load_csv(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1.0, "x", 1.0)
        with pytest.raises(ValueError):
            TraceRecord(0.0, "x", 0.0)

    def test_empty_trace_stats(self):
        trace = Trace()
        assert trace.duration_us() == 0.0
        assert trace.offered_load_rps() == 0.0
        assert trace.mean_service_us() == 0.0


@given(
    rate=st.floats(min_value=1000.0, max_value=5_000_000.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50)
def test_poisson_gaps_are_nonnegative(rate, seed):
    process = PoissonProcess(rate)
    r = random.Random(seed)
    assert all(process.next_gap_us(r) >= 0.0 for _ in range(50))
