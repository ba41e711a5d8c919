"""Unit tests for the discrete-event engine."""

import bisect
import hashlib
import json
import random
from heapq import heappush

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.post_at(30, order.append, "c")
    sim.post_at(10, order.append, "a")
    sim.post_at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.post_at(5, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_after_schedules_relative_to_now():
    """``post`` counts its delay from ``now``."""
    sim = Simulator()
    seen = []

    def first(_):
        sim.post(7, lambda _: seen.append(sim.now))

    sim.post_at(3, first)
    sim.run()
    assert seen == [10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    entry = sim.post_at(5, fired.append, 1)
    sim.post_at(1, sim.cancel, entry)
    assert sim.run() == 1
    assert fired == []
    assert sim.events_run == 1


def test_cancel_is_idempotent():
    sim = Simulator()
    fired = []
    entry = sim.post_at(5, fired.append, 1)
    sim.post_at(6, fired.append, 2)
    sim.cancel(entry)
    sim.cancel(entry)
    assert sim.pending == 1
    sim.run()
    assert fired == [2]
    assert sim.pending == 0


def test_scheduling_in_the_past_raises():
    sim = Simulator()

    def tick(_):
        pass

    sim.post_at(10, tick)
    sim.run()
    with pytest.raises(SimulationError, match="tick at t=5 before now=10"):
        sim.post_at(5, tick)
    assert sim.pending == 0


def test_negative_delay_raises():
    sim = Simulator()

    def tock(_):
        pass

    with pytest.raises(SimulationError, match="negative delay -1 for .*tock"):
        sim.post(-1, tock, 7)
    assert sim.pending == 0


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.post_at(10, fired.append, 10)
    sim.post_at(100, fired.append, 100)
    sim.run(until=50)
    assert fired == [10]
    assert sim.now == 50
    sim.run()
    assert fired == [10, 100]


def test_run_until_before_now_raises_and_keeps_the_clock():
    sim = Simulator()
    fired = []
    sim.post(100, fired.append, 100)
    sim.post(200, fired.append, 200)
    sim.run(max_events=1)
    with pytest.raises(SimulationError, match="until=50.*now=100"):
        sim.run(until=50)
    assert sim.now == 100
    assert sim.run(until=100) == 0
    sim.post(10, fired.append, 110)
    sim.run()
    assert fired == [100, 110, 200]


def test_run_max_events_bounds_execution():
    sim = Simulator()
    count = []
    for t in range(1, 11):
        sim.post_at(t, count.append)
    executed = sim.run(max_events=4)
    assert executed == 4
    assert len(count) == 4


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.post(1, chain, n + 1)

    sim.post_at(0, chain, 1)
    sim.run()
    assert seen == [1, 2, 3, 4, 5]


def test_pending_counts_live_events_only():
    sim = Simulator()
    keep = sim.post_at(10, print)
    drop = sim.post_at(20, print)
    sim.cancel(drop)
    assert sim.pending == 1
    assert keep[0] == 10


def test_zero_delay_event_runs_after_current_callback():
    sim = Simulator()
    order = []

    def outer(_):
        sim.post(0, order.append, "inner")
        order.append("outer")

    sim.post_at(1, outer)
    sim.run()
    assert order == ["outer", "inner"]


def test_events_run_counter():
    sim = Simulator()
    for t in range(1, 6):
        sim.post_at(t, len, ())
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
            sim.post(0, chain, n + 1)

    sim.post_at(10, chain, 0)
    sim.post_at(10, lambda _: order.append((sim.now, "peer")))
    sim.run()
    assert order == [(10, 0), (10, "peer")] + [(10, k) for k in range(1, 6)]
    assert sim.now == 10
    assert sim.pending == 0


def test_cancel_then_reschedule_same_slot():
    """Cancelling an entry and rescheduling its callback at the same time
    fires exactly once; the dead entry is neither run nor counted."""
    sim = Simulator()
    fired = []
    first = sim.post_at(50, fired.append, "first")
    sim.cancel(first)
    sim.cancel(first)
    sim.post_at(50, fired.append, "again")
    assert sim.pending == 1
    sim.run()
    assert fired == ["again"]
    assert sim.events_run == 1
    assert sim.pending == 0


def test_post_returns_its_queue_entry():
    """The handle is the heap entry itself: ``(time, seq, callback, arg)``."""
    sim = Simulator()
    seen = []
    assert sim.post(5, seen.append) == (5, 1, seen.append, None)
    assert sim.post_at(5, seen.append, 50) == (5, 2, seen.append, 50)
    assert sim.post(0, seen.append, 0) == (0, 3, seen.append, 0)
    sim.run()
    assert seen == [0, None, 50]
    assert sim.events_run == 3


def test_cancel_after_fire_leaves_no_phantom_entry():
    """A fired entry sorts before everything queued after it, so cancelling
    it later marks nothing dead, even once the queue has refilled."""
    sim = Simulator()
    fired = []
    sim.post_at(9, fired.append, "near")
    far = sim.post_at(2**20, fired.append, "far")
    sim.run()
    sim.post(0, fired.append, "same-time")
    sim.post(5, fired.append, "later")
    sim.cancel(far)
    assert sim.pending == 2
    assert sim.run() == 2
    assert fired == ["near", "far", "same-time", "later"]


class TestPostArgument:
    """``post``/``post_at`` hand their ``arg`` to the callback."""

    def test_none_is_delivered_as_none(self):
        sim = Simulator()
        seen = []
        sim.post(1, seen.append)
        sim.post_at(2, seen.append, arg=None)
        sim.run()
        assert seen == [None, None]

    def test_with_and_without_argument_stay_fifo(self):
        sim = Simulator()
        order = []
        sim.post(5, order.append, "a")
        sim.post(5, order.append)
        sim.post_at(5, order.append, "c")
        sim.post_at(5, order.append)
        sim.run()
        assert order == ["a", None, "c", None]

    def test_step_delivers_the_argument(self):
        sim = Simulator()
        seen = []
        sim.post(3, seen.append, 7)
        sim.post(4, seen.append, "bare")
        assert sim.run(max_events=1) == 1
        assert (seen, sim.now) == ([7], 3)
        assert sim.run(max_events=1) == 1
        assert (seen, sim.now) == ([7, "bare"], 4)
        assert sim.run(max_events=1) == 0

    def test_max_events_stops_without_moving_now(self):
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.post_at(10 * (i + 1), seen.append, i)
        assert sim.run(max_events=2) == 2
        assert (seen, sim.now, sim.pending) == ([0, 1], 20, 2)
        assert sim.run(max_events=0) == 0
        assert sim.now == 20
        assert sim.run() == 2
        assert seen == [0, 1, 2, 3]

    def test_head_past_until_stays_queued(self):
        sim = Simulator()
        seen = []
        sim.post_at(100, seen.append, "late")
        sim.post_at(10, seen.append, "early")
        assert sim.run(until=50) == 1
        assert (seen, sim.now, sim.pending) == (["early"], 50, 1)
        assert sim.run(until=99) == 0
        assert sim.run(until=100) == 1
        assert (seen, sim.now, sim.pending) == (["early", "late"], 100, 0)

    def test_cancelled_head_past_until_is_dropped(self):
        sim = Simulator()
        seen = []
        sim.cancel(sim.post(100, seen.append, "cancelled"))
        sim.post_at(200, seen.append, "kept")
        assert sim.run(until=150) == 0
        assert (sim.now, sim.pending, len(sim._heap)) == (150, 1, 1)
        sim.run()
        assert seen == ["kept"]


class TestDirectPush:
    """Hot sites push ``(time, seq, callback, arg)`` onto the heap
    themselves; the drain loop keeps the "never in the past" check."""

    @staticmethod
    def push(sim, time, callback, arg):
        seq = sim._seq = sim._seq + 1
        entry = (time, seq, callback, arg)
        heappush(sim._heap, entry)
        return entry

    def test_shares_order_with_post_and_post_at(self):
        sim = Simulator()
        order = []
        sim.post(5, order.append, "a")
        self.push(sim, 5, order.append, "b")
        sim.post_at(5, order.append, "c")
        self.push(sim, 3, order.append, "first")
        sim.run()
        assert order == ["first", "a", "b", "c"]
        assert sim.events_run == 4

    def test_none_is_delivered_as_none(self):
        sim = Simulator()
        seen = []
        self.push(sim, 1, seen.append, None)
        sim.run()
        assert seen == [None]

    def test_entry_before_now_raises_naming_its_callback(self):
        sim = Simulator()
        seen = []

        def stale_timer(arg):
            seen.append(arg)

        def push_into_the_past(_):
            self.push(sim, sim.now - 1, stale_timer, "late")

        sim.post_at(10, push_into_the_past)
        sim.post_at(20, seen.append, "kept")
        with pytest.raises(SimulationError, match="stale_timer") as info:
            sim.run()
        assert "t=9 before now=10" in str(info.value)
        assert seen == [] and sim.now == 10
        # The loop is not left running: the rest of the queue still drains.
        assert sim.run() == 1
        assert seen == ["kept"]

    def test_post_and_post_at_still_raise_eagerly(self):
        sim = Simulator()
        sim.post_at(10, print)
        sim.run()
        with pytest.raises(SimulationError, match="print at t=5"):
            sim.post_at(5, print)
        with pytest.raises(SimulationError, match="for print"):
            sim.post(-1, print, 7)
        assert sim.pending == 0

    def test_pushed_entry_is_a_handle(self):
        sim = Simulator()
        seen = []
        entry = self.push(sim, 5, seen.append, "pushed")
        sim.cancel(entry)
        assert sim.pending == 0
        assert sim.run() == 0
        assert seen == []


def test_bounded_run_then_late_insert():
    """run(until=...) advances now to the bound; later inserts between
    the bound and the next queued event still fire, in order."""
    sim = Simulator()
    seen = []
    sim.post_at(1000, seen.append, "far")
    assert sim.run(until=500) == 0
    assert sim.now == 500
    sim.post_at(600, seen.append, "mid")
    sim.post(100, seen.append, "mid2")
    sim.run()
    assert seen == ["mid", "mid2", "far"]


def test_step_and_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.post_at(10 * (i + 1), seen.append, i)
    assert sim.run(max_events=1) == 1
    assert seen == [0]
    assert sim.run(max_events=2) == 2
    assert seen == [0, 1, 2]
    assert sim.run() == 2
    assert sim.run(max_events=1) == 0


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def reenter(_):
        try:
            sim.run()
        except SimulationError:
            errors.append(True)

    sim.post_at(1, reenter)
    sim.run()
    assert errors == [True]


class TestCancellationAccounting:
    """Cancelled entries stay queued until the drain loop reaches them;
    ``pending`` counts only the live ones throughout."""

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        entry = sim.post_at(5, print)
        sim.post_at(6, print)
        sim.cancel(entry)
        sim.cancel(entry)
        assert sim.pending == 1

    def test_cancel_after_fire_does_not_skew_accounting(self):
        sim = Simulator()
        entry = sim.post_at(1, len, ())
        sim.run()
        sim.cancel(entry)
        assert sim.pending == 0
        sim.post(0, len, ())
        sim.cancel(entry)
        assert sim.pending == 1
        assert sim.run() == 1

    def test_cancel_after_a_run_discarded_the_entry_ahead_of_the_clock(self):
        # The run drains with ``now`` still before the discarded entry's
        # time, so it sorts after entries posted later.
        sim = Simulator()
        fired = []
        entry = sim.post_at(100, fired.append, "cancelled")
        sim.cancel(entry)
        sim.run()
        sim.post_at(10, fired.append, "g")
        sim.cancel(entry)
        assert sim.pending == 1
        sim.run()
        assert (fired, sim.pending, sim._dead) == (["g"], 0, set())

    def test_cancel_after_a_bounded_run_discarded_the_entry(self):
        sim = Simulator()
        fired = []
        entry = sim.post_at(100, fired.append, "cancelled")
        sim.cancel(entry)
        sim.post_at(200, fired.append, 200)
        assert sim.run(until=50) == 0
        sim.post_at(60, fired.append, 60)
        sim.cancel(entry)
        assert sim.pending == 2
        sim.run()
        assert (fired, sim.pending, sim._dead) == ([60, 200], 0, set())
        assert sim._dropped == {}

    def test_popped_dead_entries_drain_the_counter(self):
        sim = Simulator()
        for t in range(1, 6):
            entry = sim.post_at(t, len, ())
            if t % 2 == 0:
                sim.cancel(entry)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0
        assert not sim._dead and not sim._heap
        assert sim.events_run == 3

    def test_compaction_storm_never_drops_live_events(self):
        """A cancellation storm before the run (the load that once
        triggered compaction) leaves every live entry to fire, in
        timestamp order, and the dead ones to drain with the heap."""
        sim = Simulator()
        fired = []
        survivors = []
        for t in range(1, 2001):
            entry = sim.post_at(t, fired.append, t)
            if t % 4 != 0:
                sim.cancel(entry)
            else:
                survivors.append(t)
        assert sim.pending == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.events_run == len(survivors)
        assert sim.pending == 0
        assert not sim._dead and not sim._heap

    def test_compaction_during_run_is_alias_safe(self):
        """A callback cancels thousands of entries while the drain loop
        holds its aliases to the heap and the dead set; every live entry
        still fires, in timestamp order."""
        sim = Simulator()
        fired = []
        doomed = [sim.post_at(10 + t, fired.append, "dead")
                  for t in range(2000)]
        survivors = [t for t in range(3000, 3100, 7)]
        for t in survivors:
            sim.post_at(t, fired.append, t)

        def storm(_):
            for entry in doomed:
                sim.cancel(entry)

        sim.post_at(0, storm)
        assert sim.run(max_events=1) == 1
        assert sim.pending == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.events_run == 1 + len(survivors)
        assert sim.pending == 0


# -- differentials against a reference scheduler -----------------------------


class ReferenceScheduler:
    """The ``(time, seq)`` contract in its most obvious form: a list kept
    sorted on ``(time, seq)``, cancellation by removal.  Slow and plainly
    correct; the heap must drain every schedule in exactly its order."""

    def __init__(self):
        self.now = self.events_run = self._seq = 0
        self._queue = []

    def post(self, delay, callback, arg=None):
        self._seq += 1
        entry = (self.now + delay, self._seq, callback, arg)
        bisect.insort(self._queue, entry)
        return entry

    def cancel(self, entry):
        if entry in self._queue:
            self._queue.remove(entry)

    @property
    def pending(self):
        return len(self._queue)

    def step(self):
        if not self._queue:
            return False
        self.now, _seq, callback, arg = self._queue.pop(0)
        self.events_run += 1
        callback(arg)
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
    """A randomized schedule exercising cancels (of queued and of already
    fired entries), zero delays, far timers and ``pending``; returns the
    full observable trace."""
    rng = random.Random(seed)
    log = []
    handles = []
    delays = [0, 0, 1, 3, 17, 255, 256, 257, 65_535, 65_536, 2**24 + 5]

    def make_cb(tag):
        def cb(_):
            log.append((sim.now, tag))
            roll = rng.random()
            if roll < 0.6 and len(log) < events:
                delay = rng.choice(delays)
                pick = rng.random()
                if pick < 0.4:
                    handles.append(sim.post(delay, make_cb(tag + 1)))
                elif pick < 0.7:
                    sim.post(delay, make_cb(-tag))
                else:
                    # The argument slot: one callback, state as the arg.
                    sim.post(delay, with_arg, -tag)
            if roll > 0.8 and handles:
                sim.cancel(handles.pop(rng.randrange(len(handles))))
            if roll > 0.95:
                log.append(("pending", sim.pending))
        return cb

    def with_arg(tag):
        make_cb(tag)(None)

    # Seeds packed into 50 cycles, so same-time ties are common.
    for k in range(40):
        sim.post(rng.randrange(0, 50), make_cb(k))
    sim.run()
    return log, sim.now, sim.events_run, sim.pending


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_randomized(seed):
    assert (_torture_trace(Simulator(), seed)
            == _torture_trace(ReferenceScheduler(), seed))


def _bounded_trace(sim, seed):
    rng = random.Random(seed)
    log = []

    def make_cb(tag):
        def cb(_):
            log.append((sim.now, tag))
            if len(log) < 800:
                delay = rng.choice([0, 1, 100, 65_536])
                if rng.random() < 0.5:
                    sim.post(delay, make_cb(tag + 1))
                else:
                    sim.post(delay, with_arg, tag + 1)
                if rng.random() < 0.3:
                    sim.cancel(
                        sim.post(rng.choice([5, 500]), make_cb(tag + 2))
                    )
        return cb

    def with_arg(tag):
        make_cb(tag)(None)

    for k in range(10):
        sim.post(rng.randrange(0, 400), make_cb(k))
    t = 0
    while len(log) < 1500:
        t += rng.choice([50, 333, 70_000])
        ran = sim.run(until=t, max_events=rng.choice([None, 7]))
        log.append(("chunk", sim.now, ran, sim.pending))
        if sim.pending == 0 and len(log) >= 800:
            break
    for _ in range(5):
        log.append(("step", sim.run(max_events=1), sim.now))
    return log, sim.events_run


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
