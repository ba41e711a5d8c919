"""Seeded random-number streams.

Each simulation component (arrival process, service-time sampler, notice
latency, ...) gets its own named stream derived from a single master seed.
This implements *common random numbers*: two configurations simulated with
the same master seed see identical arrival processes, which sharpens
comparisons between schedulers.
"""

import random

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    >>> streams = RngStreams(42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("service")
    >>> a is streams.stream("arrivals")
    True
    """

    def __init__(self, master_seed):
        self.master_seed = master_seed
        self._streams = {}

    def stream(self, name):
        """Return the stream for ``name``, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            # Derive a per-stream seed that depends only on the master seed
            # and the stream name, never on creation order.
            seed = (hash_name(name) ^ (self.master_seed * 0x9E3779B97F4A7C15)) & (
                (1 << 64) - 1
            )
            stream = random.Random(seed)
            self._streams[name] = stream
        return stream

    def spawn_key(self, *key):
        """Return a child :class:`RngStreams` derived from a stable key.

        The child seed is a pure function of ``(master_seed, key)``: it
        draws nothing from any stream, so the same key
        always yields the same child family regardless of call order, call
        count, or how much the parent's streams have been consumed.  Key
        parts may be strings or integers and are joined order-sensitively.

        This is how N cluster servers get independent, reproducibly-derived
        stream families from one master seed:

        >>> master = RngStreams(42)
        >>> a = master.spawn_key("server", 0)
        >>> b = master.spawn_key("server", 1)
        >>> a.master_seed == RngStreams(42).spawn_key("server", 0).master_seed
        True
        >>> a.master_seed != b.master_seed
        True
        """
        if not key:
            raise ValueError("spawn_key needs at least one key part")
        material = "\x1f".join(str(part) for part in key)
        # Same construction as per-stream seeds, but domain-separated with a
        # "spawn:" prefix and an odd offset so a spawned child can never
        # collide with a sibling stream of the same name.
        child_seed = (
            hash_name("spawn:" + material)
            ^ (self.master_seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
        ) & ((1 << 64) - 1)
        return RngStreams(child_seed)

    def __repr__(self):
        return "RngStreams(master_seed={})".format(self.master_seed)


def hash_name(name):
    """A stable 64-bit FNV-1a hash (Python's hash() is salted per process)."""
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & ((1 << 64) - 1)
    return value
