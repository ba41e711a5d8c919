"""Runtime configuration: which queueing/preemption/safety combination a
simulated server runs.

Presets for the paper's systems live in :mod:`repro.core.presets`; this
module holds the configuration schema and the safety-first preemption models
of section 3.1.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import constants
from repro.core.policies import check_policy

__all__ = [
    "RuntimeConfig",
    "SafetyModel",
    "NoSafety",
    "ApiWindowSafety",
    "LockCounterSafety",
]


class SafetyModel:
    """How the runtime avoids preempting inside unsafe regions.

    ``defer_cycles(kind, clock, rng, elapsed_cycles)`` returns extra delay
    between the preemption signal landing and the worker actually yielding,
    caused by the worker sitting inside a no-preempt region.
    ``elapsed_cycles`` is how long the request has been executing on the
    worker when the signal lands.
    """

    def defer_cycles(self, kind, clock, rng, elapsed_cycles=0):
        raise NotImplementedError


class NoSafety(SafetyModel):
    """No unsafe regions (pure synthetic spin loops)."""

    def defer_cycles(self, kind, clock, rng, elapsed_cycles=0):
        return 0


class ApiWindowSafety(SafetyModel):
    """Shinjuku's approach for LevelDB: preemption disabled for the duration
    of *entire* API calls (section 3.1).

    A signal landing inside the request's *first* call is deferred until
    that call returns (``window - elapsed``); once past the first call the
    worker is somewhere inside a later call, so the deferral is uniform
    over the call length.  ``windows_us`` maps request kind -> API-call
    length in µs.
    """

    def __init__(self, windows_us, default_us=0.0):
        self.windows_us = dict(windows_us)
        self.default_us = float(default_us)

    def defer_cycles(self, kind, clock, rng, elapsed_cycles=0):
        window_us = self.windows_us.get(kind, self.default_us)
        if window_us <= 0:
            return 0
        window = clock.us_to_cycles(window_us)
        if elapsed_cycles < window:
            # Still inside the request's first API call: the paper's 100us
            # GET anecdote — no preemption until the call completes.
            return window - int(elapsed_cycles)
        return int(rng.uniform(0.0, window))


class LockCounterSafety(SafetyModel):
    """Concord's approach: a 4-line lock counter in the application defers
    preemption only while a lock is actually held (section 3.1).

    ``critical_us`` maps kind -> critical-section length; ``held_fraction``
    maps kind -> fraction of the request's lifetime spent holding the lock.
    A signal landing inside a critical section (probability
    ``held_fraction``) waits out the remainder of it.
    """

    def __init__(self, critical_us=None, held_fraction=None):
        self.critical_us = dict(critical_us or {})
        self.held_fraction = dict(held_fraction or {})

    def defer_cycles(self, kind, clock, rng, elapsed_cycles=0):
        fraction = self.held_fraction.get(kind, 0.0)
        if fraction <= 0 or rng.random() >= fraction:
            return 0
        crit_us = self.critical_us.get(kind, 0.0)
        if crit_us <= 0:
            return 0
        return int(rng.uniform(0.0, clock.us_to_cycles(crit_us)))


@dataclass
class RuntimeConfig:
    """Complete description of one simulated scheduling runtime.

    Attributes
    ----------
    name:
        Label used in reports ("Concord", "Shinjuku", ...).
    queue_mode:
        ``"sq"`` — pull-based single physical queue (section 2.2.2);
        ``"jbsq"`` — bounded per-worker queues (section 3.2).
    jbsq_depth:
        The k in JBSQ(k); outstanding requests per worker including the one
        in service.  k=1 is equivalent to the single queue.
    policy:
        Central-queue order: "fcfs" or "srpt".
    quantum_us:
        Scheduling quantum; None disables preemption entirely.
    preemption_factory:
        Callable ``machine -> PreemptionMechanism``.  Ignored when
        quantum_us is None.
    work_conserving_dispatcher:
        Concord's section 3.3 mechanism: the dispatcher runs application
        code (rdtsc-instrumented) when it would otherwise idle.
    safety:
        Safety-first preemption model (section 3.1).
    dispatch_cost_scale:
        Multiplier on dispatcher micro-op costs (Persephone's dispatch loop
        is slightly heavier than Shinjuku's).
    rx_cost_cycles:
        Override for the dispatcher's per-request receive cost.  None keeps
        the default (networker sharing the dispatcher's physical core);
        microbenchmarks that inject load in-process (Fig. 3) set a small
        value.
    ideal:
        When True, all mechanism/dispatcher costs are zero — the pure
        queueing-theory mode used by Fig. 5.
    """

    name: str
    queue_mode: str = "sq"
    jbsq_depth: int = constants.DEFAULT_JBSQ_DEPTH
    policy: str = "fcfs"
    quantum_us: Optional[float] = None
    preemption_factory: Optional[Callable] = None
    work_conserving_dispatcher: bool = False
    safety: SafetyModel = field(default_factory=NoSafety)
    dispatch_cost_scale: float = 1.0
    rx_cost_cycles: Optional[int] = None
    #: Section 3.1: with global visibility the dispatcher can "prioritize
    #: scheduling preempted requests back on to the core they were last
    #: processed by".  In JBSQ mode, a preempted request is pushed to its
    #: previous worker when that worker has a slot.
    locality_aware: bool = False
    ideal: bool = False

    def __post_init__(self):
        if self.queue_mode not in ("sq", "jbsq"):
            raise ValueError("queue_mode must be 'sq' or 'jbsq', got {!r}".format(
                self.queue_mode))
        check_policy(self.policy)
        if self.jbsq_depth < 1:
            raise ValueError("jbsq_depth must be >= 1, got {}".format(self.jbsq_depth))
        if self.quantum_us is not None and self.quantum_us <= 0:
            raise ValueError("quantum must be positive, got {}".format(self.quantum_us))
        if self.quantum_us is not None and self.preemption_factory is None:
            raise ValueError(
                "{}: a quantum was set but no preemption mechanism given".format(
                    self.name))

    @property
    def preemptive(self):
        return self.quantum_us is not None

    def replace(self, **changes):
        """A copy of this config with ``changes`` applied."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)
