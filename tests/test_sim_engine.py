"""Unit tests for the discrete-event engine."""

import bisect
import functools
import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from repro.sim.engine import COMPACT_MIN_DEAD, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.at(30, lambda: order.append("c"))
    sim.at(10, lambda: order.append("a"))
    sim.at(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.at(5, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_after_schedules_relative_to_now():
    sim = Simulator()
    seen = []

    def first():
        sim.after(7, lambda: seen.append(sim.now))

    sim.at(3, first)
    sim.run()
    assert seen == [10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.at(5, lambda: fired.append(1))
    sim.at(1, event.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.at(5, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert event.cancelled


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append(10))
    sim.at(100, lambda: fired.append(100))
    sim.run(until=50)
    assert fired == [10]
    assert sim.now == 50
    sim.run()
    assert fired == [10, 100]


def test_run_max_events_bounds_execution():
    sim = Simulator()
    count = []
    for t in range(1, 11):
        sim.at(t, lambda: count.append(1))
    executed = sim.run(max_events=4)
    assert executed == 4
    assert len(count) == 4


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.after(1, lambda: chain(n + 1))

    sim.at(0, lambda: chain(1))
    sim.run()
    assert seen == [1, 2, 3, 4, 5]


def test_pending_counts_live_events_only():
    sim = Simulator()
    keep = sim.at(10, lambda: None)
    drop = sim.at(20, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep.time == 10


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    first.cancel()
    assert sim.peek_time() == 9


def test_peek_time_none_after_cancelling_a_fired_event():
    """Cancelling a far event after it fired leaves no phantom entry."""
    sim = Simulator()
    sim.at(9, lambda: None)
    far = sim.at(2**20, lambda: None)
    sim.run()
    far.cancel()
    assert sim.peek_time() is None


def test_zero_delay_event_runs_after_current_callback():
    sim = Simulator()
    order = []

    def outer():
        sim.after(0, lambda: order.append("inner"))
        order.append("outer")

    sim.at(1, outer)
    sim.run()
    assert order == ["outer", "inner"]


def test_events_run_counter():
    sim = Simulator()
    for t in range(1, 6):
        sim.at(t, lambda: None)
    sim.run()
    assert sim.events_run == 5


def test_zero_delay_self_reschedule():
    """An event rescheduling itself at delay 0 runs FIFO after any other
    same-time events, and the run terminates when it stops rechaining."""
    sim = Simulator()
    order = []

    def chain(n):
        order.append((sim.now, n))
        if n < 5:
            sim.after(0, lambda: chain(n + 1))

    sim.at(10, lambda: chain(0))
    sim.at(10, lambda: order.append((sim.now, "peer")))
    sim.run()
    assert order == [(10, 0), (10, "peer")] + [(10, k) for k in range(1, 6)]
    assert sim.now == 10
    assert sim.pending == 0


def test_cancel_then_reschedule_same_slot():
    """Cancelling a handle and rescheduling its callback at the same time
    fires exactly once, and the counters account for the dead entry."""
    sim = Simulator()
    fired = []
    first = sim.at(50, lambda: fired.append("first"))
    first.cancel()
    first.cancel()  # idempotent; counted once
    again = sim.at(50, lambda: fired.append("again"))
    sim.run()
    assert fired == ["again"]
    assert not again.cancelled
    assert sim.events_cancelled == 1
    assert sim.events_run == 1


def test_post_fires_without_handle():
    sim = Simulator()
    seen = []
    assert sim.post(5, lambda: seen.append(sim.now)) is None
    assert sim.post_at(5, lambda: seen.append(sim.now * 10)) is None
    sim.post(0, lambda: seen.append(0))
    sim.run()
    assert seen == [0, 5, 50]
    assert sim.events_run == 3


def test_post_and_after_share_fifo_order():
    sim = Simulator()
    order = []
    sim.after(5, lambda: order.append("a"))
    sim.post(5, lambda: order.append("b"))
    sim.after(5, lambda: order.append("c"))
    sim.post_at(5, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d"]


class TestPostArgument:
    """``post``/``post_at`` carry an optional argument to the callback."""

    def test_none_is_delivered_as_none(self):
        sim = Simulator()
        seen = []
        sim.post(1, seen.append, "x", None)
        sim.post_at(2, seen.append, "y", arg=None)
        sim.run()
        assert seen == [None, None]

    def test_with_and_without_argument_stay_fifo(self):
        sim = Simulator()
        order = []
        sim.post(5, order.append, "a", "a")
        sim.post(5, lambda: order.append("b"))
        sim.after(5, lambda: order.append("c"))
        sim.post_at(5, order.append, "d", "d")
        sim.post_at(5, lambda: order.append("e"))
        sim.run()
        assert order == ["a", "b", "c", "d", "e"]

    def test_step_delivers_the_argument(self):
        sim = Simulator()
        seen = []
        sim.post(3, seen.append, "x", 7)
        sim.post(4, lambda: seen.append("bare"))
        assert sim.run(max_events=1) == 1
        assert (seen, sim.now) == ([7], 3)
        assert sim.run(max_events=1) == 1
        assert (seen, sim.now) == ([7, "bare"], 4)
        assert sim.run(max_events=1) == 0

    def test_max_events_stops_without_moving_now(self):
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.post_at(10 * (i + 1), seen.append, "x", i)
        assert sim.run(max_events=2) == 2
        assert (seen, sim.now, sim.pending) == ([0, 1], 20, 2)
        assert sim.run(max_events=0) == 0
        assert sim.now == 20
        assert sim.run() == 2
        assert seen == [0, 1, 2, 3]

    def test_head_past_until_stays_queued(self):
        sim = Simulator()
        seen = []
        sim.post_at(100, seen.append, "x", "late")
        sim.post_at(10, seen.append, "x", "early")
        assert sim.run(until=50) == 1
        assert (seen, sim.now, sim.pending) == (["early"], 50, 1)
        assert sim.peek_time() == 100
        assert sim.run(until=100) == 1
        assert (seen, sim.now, sim.pending) == (["early", "late"], 100, 0)

    def test_cancelled_head_past_until_is_dropped(self):
        sim = Simulator()
        seen = []
        sim.after(100, lambda: seen.append("cancelled")).cancel()
        sim.post_at(200, seen.append, "x", "kept")
        assert sim.run(until=150) == 0
        assert (sim.now, sim.pending, sim.dead_in_heap) == (150, 1, 0)
        sim.run()
        assert seen == ["kept"]

    def test_compact_and_peek_keep_argument_entries(self):
        sim = Simulator()
        seen = []
        handles = [sim.after(1, lambda: seen.append("dead"))
                   for _ in range(10)]
        sim.post(5, seen.append, "x", "live")
        sim.post(6, seen.append, "x", None)
        for handle in handles:
            handle.cancel()
        sim.compact()
        assert sim.heap_size == 2
        assert sim.peek_time() == 5
        sim.run()
        assert seen == ["live", None]


def test_bounded_run_then_late_insert():
    """run(until=...) advances now to the bound; later inserts between
    the bound and the next queued event still fire, in order."""
    sim = Simulator()
    seen = []
    sim.at(1000, lambda: seen.append("far"))
    assert sim.run(until=500) == 0
    assert sim.now == 500
    sim.at(600, lambda: seen.append("mid"))
    sim.post_at(600, lambda: seen.append("mid2"))
    sim.run()
    assert seen == ["mid", "mid2", "far"]


def test_step_and_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.at(10 * (i + 1), lambda i=i: seen.append(i))
    assert sim.run(max_events=1) == 1
    assert seen == [0]
    assert sim.run(max_events=2) == 2
    assert seen == [0, 1, 2]
    assert sim.run() == 2
    assert sim.run(max_events=1) == 0


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            errors.append(True)

    sim.at(1, reenter)
    sim.run()
    assert errors == [True]


class TestCancellationAccounting:
    """Lazy cancellation is now counted and amortized away by compaction."""

    def test_events_cancelled_and_dead_in_heap(self):
        sim = Simulator()
        events = [sim.at(t, lambda: None) for t in range(1, 11)]
        for event in events[:4]:
            event.cancel()
        assert sim.events_cancelled == 4
        assert sim.dead_in_heap == 4
        assert sim.heap_size == 10
        assert sim.pending == 6

    def test_counters_through_compact_and_run(self):
        """The counters stay live through an explicit compaction and the
        run that drains what it left."""
        sim = Simulator()
        handles = [sim.at(100 + i, lambda: None) for i in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        sim.compact()
        assert sim.compactions == 1
        assert sim.dead_in_heap == 0
        assert sim.heap_size == 6
        assert sim.pending == 6
        sim.run()
        assert sim.events_run == 6
        assert sim.heap_size == 0

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.at(5, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_cancelled == 1
        assert sim.dead_in_heap == 1

    def test_cancel_after_fire_does_not_skew_accounting(self):
        sim = Simulator()
        event = sim.at(1, lambda: None)
        sim.run()
        event.cancel()
        assert event.cancelled
        assert sim.events_cancelled == 0
        assert sim.dead_in_heap == 0

    def test_popped_dead_entries_drain_the_counter(self):
        sim = Simulator()
        for t in range(1, 6):
            event = sim.at(t, lambda: None)
            if t % 2 == 0:
                event.cancel()
        assert sim.dead_in_heap == 2
        sim.run()
        assert sim.dead_in_heap == 0
        assert sim.heap_size == 0
        assert sim.events_run == 3

    def test_explicit_compact_preserves_live_events(self):
        sim = Simulator()
        fired = []
        for t in range(1, 21):
            event = sim.at(t, lambda t=t: fired.append(t))
            if t % 2 == 0:
                event.cancel()
        sim.compact()
        assert sim.heap_size == 10
        assert sim.dead_in_heap == 0
        sim.run()
        assert fired == list(range(1, 21, 2))

    def test_compaction_storm_never_drops_live_events(self):
        """A cancellation storm triggers automatic compaction; every live
        event must still fire, in timestamp order."""
        sim = Simulator()
        fired = []
        survivors = []
        for t in range(1, 2001):
            event = sim.at(t, lambda t=t: fired.append(t))
            if t % 4 != 0:
                event.cancel()  # 1500 cancellations >> COMPACT_MIN_DEAD
            else:
                survivors.append(t)
        assert sim.events_cancelled == 1500
        assert sim.compactions >= 1
        # Compaction already swept most dead entries out of the heap.
        assert sim.heap_size < 2000
        assert sim.pending == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.events_run == len(survivors)

    def test_compaction_during_run_is_alias_safe(self):
        """compact() rewrites the heap in place while run() holds a local
        alias to it; live events scheduled after the storm must still fire."""
        sim = Simulator()
        fired = []
        doomed = []

        def storm():
            for event in doomed:
                event.cancel()

        sim.at(0, storm)
        for t in range(1, 2 * COMPACT_MIN_DEAD + 1):
            doomed.append(sim.at(10 + t, lambda: fired.append("dead")))
        sim.at(5000, lambda: fired.append("alive"))
        sim.run()
        assert sim.compactions >= 1
        assert fired == ["alive"]
        assert sim.now == 5000

    def test_small_cancel_counts_do_not_compact(self):
        sim = Simulator()
        for t in range(1, COMPACT_MIN_DEAD):
            sim.at(t, lambda: None).cancel()
        assert sim.compactions == 0
        assert sim.dead_in_heap == COMPACT_MIN_DEAD - 1


class TestAgent:
    """The serial-resource helper used to model pinned threads."""

    def test_busy_for_serializes_work(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        first_end = agent.busy_for(100)
        second_end = agent.busy_for(50)
        assert first_end == 100
        assert second_end == 150  # queued behind the first operation
        assert agent.busy_cycles == 150

    def test_when_free_and_is_busy(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        assert not agent.is_busy
        agent.busy_for(10)
        assert agent.is_busy
        assert agent.when_free() == 10

    def test_start_floor_and_utilization(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        end = agent.busy_for(10, start=40)
        assert end == 50
        assert agent.utilization(100) == 0.1
        assert agent.utilization(0) == 0.0

    def test_negative_busy_rejected(self):
        import pytest as _pytest

        from repro.sim.process import Agent

        with _pytest.raises(ValueError):
            Agent(Simulator(), "t").busy_for(-1)


# -- differentials against a reference scheduler -----------------------------


class ReferenceScheduler:
    """The ``(time, seq)`` contract in its most obvious form: a list kept
    sorted on ``(time, seq)``, cancellation by removal.  Slow and plainly
    correct; the heap must drain every schedule in exactly its order."""

    def __init__(self):
        self.now = self.events_run = self.events_cancelled = self._seq = 0
        self._queue = []

    def after(self, delay, callback, name=""):
        self._seq += 1
        entry = (self.now + delay, self._seq, callback)
        bisect.insort(self._queue, entry)
        return SimpleNamespace(cancel=lambda: self._cancel(entry))

    def post(self, delay, callback, name="", *arg):
        self.after(delay, functools.partial(callback, *arg))

    def _cancel(self, entry):
        if entry in self._queue:
            self._queue.remove(entry)
            self.events_cancelled += 1

    @property
    def pending(self):
        return len(self._queue)

    def peek_time(self):
        return self._queue[0][0] if self._queue else None

    def step(self):
        if not self._queue:
            return False
        self.now, _seq, callback = self._queue.pop(0)
        self.events_run += 1
        callback()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            if until is not None and self._queue[0][0] > until:
                self.now = until
                break
            executed += self.step()
        else:
            if until is not None and until > self.now:
                self.now = until
        return executed


def _torture_trace(sim, seed, events=4000):
    """A randomized schedule exercising cancels, zero delays, far timers,
    posts, and peeks; returns the full observable trace."""
    rng = random.Random(seed)
    log = []
    handles = []
    delays = [0, 0, 1, 3, 17, 255, 256, 257, 65_535, 65_536, 2**24 + 5]

    def make_cb(tag):
        def cb():
            log.append((sim.now, tag))
            roll = rng.random()
            if roll < 0.6 and len(log) < events:
                delay = rng.choice(delays)
                pick = rng.random()
                if pick < 0.4:
                    handles.append(sim.after(delay, make_cb(tag + 1)))
                elif pick < 0.7:
                    sim.post(delay, make_cb(-tag))
                else:
                    # The argument slot: one callback, state as the arg.
                    sim.post(delay, with_arg, "arg", -tag)
            if roll > 0.8 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            if roll > 0.95:
                log.append(("peek", sim.peek_time()))
        return cb

    def with_arg(tag):
        make_cb(tag)()

    # Seeds packed into 50 cycles, so same-time ties are common.
    for k in range(40):
        sim.after(rng.randrange(0, 50), make_cb(k))
    sim.run()
    return log, sim.now, sim.events_run, sim.events_cancelled, sim.pending


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_randomized(seed):
    assert (_torture_trace(Simulator(), seed)
            == _torture_trace(ReferenceScheduler(), seed))


def _bounded_trace(sim, seed):
    rng = random.Random(seed)
    log = []

    def make_cb(tag):
        def cb():
            log.append((sim.now, tag))
            if len(log) < 800:
                delay = rng.choice([0, 1, 100, 65_536])
                if rng.random() < 0.5:
                    sim.after(delay, make_cb(tag + 1))
                else:
                    sim.post(delay, with_arg, "arg", tag + 1)
                if rng.random() < 0.3:
                    sim.after(rng.choice([5, 500]), make_cb(tag + 2)).cancel()
        return cb

    def with_arg(tag):
        make_cb(tag)()

    for k in range(10):
        sim.after(rng.randrange(0, 400), make_cb(k))
    t = 0
    while len(log) < 1500:
        t += rng.choice([50, 333, 70_000])
        ran = sim.run(until=t, max_events=rng.choice([None, 7]))
        log.append(("chunk", sim.now, ran, sim.pending))
        if sim.pending == 0 and len(log) >= 800:
            break
    for _ in range(5):
        log.append(("step", sim.run(max_events=1), sim.now))
    return log, sim.events_run, sim.events_cancelled


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_bounded(seed):
    assert (_bounded_trace(Simulator(), seed)
            == _bounded_trace(ReferenceScheduler(), seed))


#: SHA-256 of the small traced, faulted rack run below.  The engine's
#: heaviest client (cancellations, far timers, probes) pinned end to end:
#: any change to the drain order moves it.
CLUSTER_DIGEST = (
    "86b8adb7d9a9765757dc2ea2d46317d6b1cd082d0deacfe47cbf3808db12c5c4"
)


def _cluster_fingerprint():
    from repro.cluster import Cluster
    from repro.core import concord
    from repro.faults import FaultPlan, ServerCrash, TelemetryBlackout
    from repro.hardware import c6420
    from repro.obs import TraceConfig, tracing
    from repro.workloads import PoissonProcess, bimodal_50_1_50_100

    workload = bimodal_50_1_50_100()
    plan = FaultPlan(faults=(
        ServerCrash(at_us=200.0, down_us=150.0, server=0),
        TelemetryBlackout(at_us=100.0, duration_us=300.0),
    ))
    load = 0.6 * 2 * 2 * 1e6 / workload.mean_us()
    with tracing(TraceConfig.full()) as session:
        cluster = Cluster(
            c6420(2), concord(5.0), 2, policy="jsq", seed=17,
            fault_plan=plan,
        )
        result = cluster.run(workload, PoissonProcess(load), 400)
    trace_shape = [
        (bus.label, len(bus.events) if bus.events is not None else None)
        for bus in session.buses
    ]
    return (
        [(r.rid, r.completion_cycle, r.payload["server"])
         for r in result.records],
        result.num_offered,
        len(result.records),
        trace_shape,
    )


def test_cluster_with_faults_and_tracing_digest():
    fingerprint = _cluster_fingerprint()
    assert fingerprint[1] > 0 and fingerprint[2] > 0
    material = json.dumps(fingerprint, separators=(",", ":"))
    assert hashlib.sha256(material.encode()).hexdigest() == CLUSTER_DIGEST
