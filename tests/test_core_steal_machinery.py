"""White-box tests for the work-conserving dispatcher's steal slices:
begin/interrupt/pause/resume, quantum capping, and buffer exclusivity
(section 3.3)."""

from repro.core import Server, concord
from repro.core.dispatcher import Dispatcher
from repro.hardware import c6420
from repro.workloads import PoissonProcess
from repro.workloads.distributions import bimodal
from repro.workloads.named import bimodal_50_1_50_100


def overload_run(workers=2, rate=60_000, n=2500, seed=4, quantum=5.0):
    server = Server(c6420(workers), concord(quantum), seed=seed)
    result = server.run(bimodal_50_1_50_100(), PoissonProcess(rate), n)
    return server, result


class TestStealSlices:
    def test_interrupted_slices_resume_and_finish(self):
        server, result = overload_run()
        stats = result.dispatcher_stats
        # Under overload the dispatcher steals, gets interrupted by rx and
        # preemption traffic, and still finishes every stolen request.
        assert stats["steals_started"] > 0
        assert stats["steal_completions"] == len(result.stolen_requests())
        assert result.drained
        assert server.dispatcher.steal_buffer is None
        assert server.dispatcher._steal_request is None

    def test_stolen_work_charged_to_dispatcher(self):
        _server, result = overload_run()
        stats = result.dispatcher_stats
        stolen_work = sum(
            r.service_cycles for r in result.stolen_requests()
        )
        if stolen_work:
            # Stolen execution runs at the rdtsc-instrumented rate, so the
            # busy time exceeds the raw work.
            assert stats["steal_busy_cycles"] >= stolen_work

    def test_slices_are_quantum_capped(self):
        # Stolen long requests must be processed in multiple slices: the
        # dispatcher self-preempts each quantum (section 3.3), so a stolen
        # 100us request at a 5us quantum cannot finish in one slice.
        server, result = overload_run(quantum=5.0)
        stolen_longs = [
            r for r in result.stolen_requests() if r.kind == "long"
        ]
        if stolen_longs:
            for record in stolen_longs:
                processing = (
                    record.completion_cycle - record.first_dispatch_cycle
                )
                # Far longer than a single uninterrupted execution.
                assert processing > record.service_cycles

    def test_steals_only_nonstarted_requests(self):
        _server, result = overload_run()
        for record in result.stolen_requests():
            # A stolen request never ran on a worker: dispatcher-only.
            assert record.last_worker is None

    def test_one_outstanding_stolen_context(self, monkeypatch):
        # The dedicated buffer holds at most one partially-executed stolen
        # request; instrument _begin_steal to observe the invariant.
        server = Server(c6420(2), concord(5.0), seed=9)
        original = Dispatcher._begin_steal
        violations = []

        def checked(dispatcher):
            if dispatcher._steal_request is not None:
                violations.append("begin while slice active")
            original(dispatcher)

        # Class level: a slotted Dispatcher has no per-instance methods.
        monkeypatch.setattr(Dispatcher, "_begin_steal", checked)
        server.run(bimodal_50_1_50_100(), PoissonProcess(60_000), 2000)
        assert not violations

    def test_no_steal_of_short_queue_when_workers_free(self):
        # Light load, many workers: queues never fill, never steal.
        server = Server(c6420(8), concord(5.0), seed=1)
        result = server.run(
            bimodal(90, 1.0, 10, 5.0), PoissonProcess(100_000), 2000
        )
        assert result.dispatcher_stats["steals_started"] == 0
