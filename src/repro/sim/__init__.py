"""Discrete-event simulation core.

The simulator keeps an integer-nanosecond clock and a binary-heap event
queue with deterministic FIFO tie-breaking, so two runs with the same seed
produce byte-identical traces.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer
from repro.sim.rng import SeededRandom

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Timer",
    "SeededRandom",
]
