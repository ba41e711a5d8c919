"""Unit tests for seeded RNG streams."""

from repro.sim.rng import RngStreams, hash_name


def test_streams_are_deterministic_across_instances():
    a = RngStreams(42)
    b = RngStreams(42)
    assert [a.stream("x").random() for _ in range(5)] == [
        b.stream("x").random() for _ in range(5)
    ]


def test_streams_are_independent_of_creation_order():
    a = RngStreams(7)
    b = RngStreams(7)
    a.stream("first")
    value_a = a.stream("second").random()
    value_b = b.stream("second").random()  # created first in b
    assert value_a == value_b


def test_different_names_give_different_sequences():
    streams = RngStreams(1)
    xs = [streams.stream("x").random() for _ in range(10)]
    ys = [streams.stream("y").random() for _ in range(10)]
    assert xs != ys


def test_different_seeds_give_different_sequences():
    a = RngStreams(1).stream("arrivals")
    b = RngStreams(2).stream("arrivals")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RngStreams(3)
    assert streams.stream("s") is streams.stream("s")


def test_spawn_key_is_deterministic():
    a = RngStreams(42).spawn_key("server", 0)
    b = RngStreams(42).spawn_key("server", 0)
    assert a.master_seed == b.master_seed
    assert a.stream("arrivals").random() == b.stream("arrivals").random()


def test_spawn_key_children_are_distinct():
    master = RngStreams(42)
    seeds = {master.spawn_key("server", i).master_seed for i in range(16)}
    assert len(seeds) == 16
    assert master.spawn_key("server", 0).master_seed != \
        master.spawn_key("balancer").master_seed


def test_spawn_key_independent_of_call_order_and_stream_use():
    # spawn_key draws nothing: consuming streams or spawning other keys
    # first must not change the child.
    clean = RngStreams(9).spawn_key("server", 3).master_seed
    dirty_master = RngStreams(9)
    dirty_master.stream("arrivals").random()
    dirty_master.spawn_key("server", 0)
    assert dirty_master.spawn_key("server", 3).master_seed == clean


def test_spawn_key_does_not_consume_stream_randomness():
    a = RngStreams(5)
    b = RngStreams(5)
    a.spawn_key("server", 1)
    assert a.stream("arrivals").random() == b.stream("arrivals").random()


def test_spawn_key_is_order_sensitive_in_parts():
    master = RngStreams(3)
    assert master.spawn_key("a", "b").master_seed != \
        master.spawn_key("b", "a").master_seed


def test_spawn_key_distinct_from_same_named_stream():
    master = RngStreams(11)
    child = master.spawn_key("arrivals")
    assert child.stream("arrivals").random() != \
        master.stream("arrivals").random()


def test_spawn_key_requires_a_key():
    import pytest

    with pytest.raises(ValueError):
        RngStreams(1).spawn_key()


def test_hash_name_is_stable_and_64bit():
    value = hash_name("arrivals")
    assert value == hash_name("arrivals")
    assert 0 <= value < (1 << 64)
    assert hash_name("a") != hash_name("b")
