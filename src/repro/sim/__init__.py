"""Discrete-event simulation engine.

The engine is deliberately small: an event heap keyed by integer timestamps
(CPU cycles), a :class:`Simulator` that drains it, and seeded random-number
streams.  Higher layers (:mod:`repro.core`) build scheduler agents on top.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.rng import RngStreams

__all__ = ["Simulator", "SimulationError", "RngStreams"]
