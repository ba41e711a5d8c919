"""Property-based tests on the event engine: ordering, cancellation, and
clock monotonicity under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


@given(
    times=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                   max_size=300)
)
@settings(max_examples=80)
def test_events_fire_in_nondecreasing_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.post_at(t, lambda _: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
    assert sim.now == max(times)


@given(
    times=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2,
                   max_size=200),
    cancel_mask=st.lists(st.booleans(), min_size=2, max_size=200),
)
@settings(max_examples=80)
def test_cancelled_events_never_fire(times, cancel_mask):
    sim = Simulator()
    fired = []
    events = []
    for index, t in enumerate(times):
        events.append(sim.post_at(t, fired.append, index))
    expected = set()
    for index, (event, cancel) in enumerate(zip(events, cancel_mask)):
        if cancel:
            sim.cancel(event)
        else:
            expected.add(index)
    # Indices beyond the mask stay live.
    expected |= set(range(len(cancel_mask), len(times)))
    assert sim.pending == len(expected)
    assert sim.run() == len(expected)
    assert set(fired) == expected
    assert sim.pending == 0


@given(
    chain_lengths=st.lists(st.integers(min_value=1, max_value=20),
                           min_size=1, max_size=20)
)
@settings(max_examples=50)
def test_self_scheduling_chains_all_complete(chain_lengths):
    sim = Simulator()
    completed = []

    def make_chain(chain_id, remaining):
        def step(_):
            if remaining > 1:
                make_chain(chain_id, remaining - 1)
            else:
                completed.append(chain_id)

        sim.post(1, step)

    for chain_id, length in enumerate(chain_lengths):
        make_chain(chain_id, length)
    sim.run()
    assert sorted(completed) == list(range(len(chain_lengths)))


@given(
    times=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                   max_size=100),
    bound=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=80)
def test_run_until_partitions_the_schedule(times, bound):
    sim = Simulator()
    fired = []
    for t in times:
        sim.post_at(t, fired.append, t)
    sim.run(until=bound)
    assert all(t <= bound for t in fired)
    before = len(fired)
    sim.run()
    assert len(fired) == len(times)
    assert sorted(fired[before:]) == sorted(t for t in times if t > bound)
