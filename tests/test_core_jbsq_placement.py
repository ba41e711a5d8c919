"""Property test: JBSQ placement from the maintained per-worker loads.

Workers keep ``outstanding`` as a counter and mirror it into the
dispatcher's per-level bitmasks; ``Dispatcher._pick_worker`` reads the
lowest set bit of the lowest non-empty level.  Random sequences of
enqueues, completions, yields (and their yield-done events) and crash
sweeps must keep the counter equal to the worker's actual queue state, and
placement equal to the plain O(workers) scan it replaces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Server, concord
from repro.core.presets import concord_no_steal
from repro.core.request import Request
from repro.hardware import c6420
from repro.obs import TraceConfig, tracing
from repro.workloads import PoissonProcess, bimodal_50_1_50_100


def owned(worker):
    """Requests a worker owns, recomputed from its raw state."""
    busy = worker.current is not None or worker._switching_until is not None
    return len(worker.local) + busy


def reference_pick(workers, depth):
    """The scan the bitmasks replace: lowest index among the least loaded,
    None when every worker is full."""
    best = None
    best_load = depth
    for worker in workers:
        load = owned(worker)
        if load < best_load:
            best = worker
            best_load = load
    return best


def check(server, depth):
    dispatcher = server.dispatcher
    workers = server.workers
    for worker in workers:
        assert worker.outstanding == owned(worker)
        assert worker.is_idle == (owned(worker) == 0)
    for level, mask in enumerate(dispatcher.load_masks):
        expected = sum(w.bit for w in workers if w.outstanding == level)
        assert mask == expected, (level, bin(mask), bin(expected))
    assert dispatcher._pick_worker() is reference_pick(workers, depth)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["dispatch", "enqueue", "complete", "yield", "yield-done",
             "crash"]
        ),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    num_workers=st.integers(min_value=1, max_value=20),
    depth=st.integers(min_value=1, max_value=4),
    ops=OPS,
)
def test_maintained_loads_match_a_reference_scan(num_workers, depth, ops):
    server = Server(
        c6420(num_workers), concord_no_steal(5.0, jbsq_depth=depth), seed=0
    )
    workers = server.workers
    #: (worker, epoch) of yields whose yield-done has not fired yet.
    yielding = []
    rid = 0
    check(server, depth)
    for op, pick in ops:
        worker = workers[pick % num_workers]
        if op in ("dispatch", "enqueue"):
            if op == "dispatch":
                worker = server.dispatcher._pick_worker()
            if worker is not None and worker.outstanding < depth:
                request = Request(rid, "x", 0, 1000 + rid, 1.0)
                rid += 1
                worker.enqueue(request, server.sim.now)
        elif op == "complete":
            if worker.current is not None:
                worker._on_complete(worker.epoch)
        elif op == "yield":
            if worker.current is not None:
                worker.on_preempt_signal(worker.epoch)
                yielding.append((worker, worker.epoch))
        elif op == "yield-done":
            if yielding:
                worker, epoch = yielding.pop(pick % len(yielding))
                worker._after_yield(epoch)
        else:
            server.dispatcher.crash_sweep()
            # The swept workers' yield-done events still fire, stale, while
            # the server is down and before it takes new work.
            while yielding:
                worker, epoch = yielding.pop()
                worker._after_yield(epoch)
                check(server, depth)
            assert all(w.outstanding == 0 for w in workers)
        check(server, depth)


def test_traced_samples_read_the_maintained_loads():
    """Under full tracing the probe bus samples ``worker.outstanding``; every
    sample must equal the worker's actual queue state at that instant."""
    workload = bimodal_50_1_50_100()
    depth = 2
    mismatches = []
    with tracing(TraceConfig.full(sample_interval_us=5.0)) as session:
        server = Server(c6420(4), concord(5.0, jbsq_depth=depth), seed=3)
        bus = server.probes
        original = bus._sample

        def checked(t):
            for worker in server.workers:
                if worker.outstanding != owned(worker):
                    mismatches.append((t, worker.wid))
            original(t)

        bus._sample = checked
        rate = 0.8 * 4 * 1e6 / workload.mean_us()
        server.run(workload, PoissonProcess(rate), 800)
    (bus,) = session.buses
    assert not mismatches
    values = [
        value
        for wid in range(4)
        for _t, value in bus.registry.series[
            "worker.{}.outstanding".format(wid)
        ].samples
    ]
    assert len(values) > 100
    assert set(values) == set(range(depth + 1))
