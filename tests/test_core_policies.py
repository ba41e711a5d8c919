"""Tests for central-queue scheduling policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import FCFSPolicy, SRPTPolicy, make_policy
from repro.core.request import Request


def make_request(rid, service_cycles=1000, started=False):
    request = Request(
        rid=rid,
        kind="test",
        arrival_cycle=rid,
        service_cycles=service_cycles,
        service_us=service_cycles / 2600,
    )
    if started:
        request.first_dispatch_cycle = rid + 1
    return request


class TestFCFSPolicy:
    def test_pop_in_arrival_order(self):
        policy = FCFSPolicy()
        for rid in range(5):
            policy.push_new(make_request(rid))
        assert [policy.pop().rid for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_preempted_requests_rejoin_tail(self):
        policy = FCFSPolicy()
        policy.push_new(make_request(0))
        policy.push_new(make_request(1))
        first = policy.pop()
        policy.push_preempted(first)
        assert policy.pop().rid == 1
        assert policy.pop().rid == 0

    def test_pop_empty_returns_none(self):
        assert FCFSPolicy().pop() is None

    def test_steal_nonstarted_skips_started(self):
        policy = FCFSPolicy()
        policy.push_new(make_request(0, started=True))
        policy.push_new(make_request(1))
        stolen = policy.steal_nonstarted()
        assert stolen.rid == 1
        assert len(policy) == 1  # started request still queued

    def test_steal_nonstarted_empty(self):
        policy = FCFSPolicy()
        policy.push_new(make_request(0, started=True))
        assert policy.steal_nonstarted() is None
        assert len(policy) == 1

    def test_len_and_bool(self):
        policy = FCFSPolicy()
        assert not policy
        policy.push_new(make_request(0))
        assert policy
        assert len(policy) == 1


class TestSRPTPolicy:
    def test_pop_shortest_remaining_first(self):
        policy = SRPTPolicy()
        policy.push_new(make_request(0, service_cycles=500))
        policy.push_new(make_request(1, service_cycles=100))
        policy.push_new(make_request(2, service_cycles=300))
        assert [policy.pop().rid for _ in range(3)] == [1, 2, 0]

    def test_remaining_not_original_service_decides(self):
        policy = SRPTPolicy()
        long_request = make_request(0, service_cycles=1000)
        long_request.remaining_cycles = 50  # mostly done
        short_request = make_request(1, service_cycles=100)
        policy.push_preempted(long_request)
        policy.push_new(short_request)
        assert policy.pop().rid == 0

    def test_ties_broken_fifo(self):
        policy = SRPTPolicy()
        policy.push_new(make_request(0, service_cycles=100))
        policy.push_new(make_request(1, service_cycles=100))
        assert policy.pop().rid == 0

    def test_steal_nonstarted_preserves_heap(self):
        policy = SRPTPolicy()
        policy.push_new(make_request(0, service_cycles=10, started=True))
        policy.push_new(make_request(1, service_cycles=20, started=True))
        policy.push_new(make_request(2, service_cycles=30))
        stolen = policy.steal_nonstarted()
        assert stolen.rid == 2
        assert [policy.pop().rid for _ in range(2)] == [0, 1]

    def test_pop_empty_returns_none(self):
        assert SRPTPolicy().pop() is None


@pytest.mark.parametrize("cls", [FCFSPolicy, SRPTPolicy])
def test_container_truthiness_agrees_with_the_policy(cls):
    """The dispatcher tests ``policy.queue`` instead of the policy, so the
    container must be the one object the policy fills and drains."""
    policy = cls()
    queue = policy.queue
    states = []

    def check():
        assert policy.queue is queue
        assert bool(queue) == bool(policy) == (len(policy) > 0)
        states.append(bool(queue))

    check()
    policy.push_new(make_request(0, started=True))
    check()
    policy.push_preempted(make_request(1))
    check()
    assert policy.steal_nonstarted().rid == 1
    check()
    assert policy.steal_nonstarted() is None
    check()
    assert policy.pop().rid == 0
    check()
    assert policy.pop() is None
    check()
    assert states == [False, True, True, True, True, False, False]


def test_make_policy():
    assert isinstance(make_policy("fcfs"), FCFSPolicy)
    assert isinstance(make_policy("srpt"), SRPTPolicy)
    with pytest.raises(ValueError, match="fcfs, srpt"):
        make_policy("wfq")


@given(
    services=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                      max_size=40)
)
@settings(max_examples=60)
def test_srpt_always_pops_minimum_remaining(services):
    policy = SRPTPolicy()
    for rid, service in enumerate(services):
        policy.push_new(make_request(rid, service_cycles=service))
    popped = [policy.pop().remaining_cycles for _ in range(len(services))]
    assert popped == sorted(services)


@given(
    rids=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                  max_size=40, unique=True)
)
@settings(max_examples=60)
def test_fcfs_preserves_insertion_order(rids):
    policy = FCFSPolicy()
    for rid in rids:
        policy.push_new(make_request(rid))
    assert [policy.pop().rid for _ in range(len(rids))] == rids
