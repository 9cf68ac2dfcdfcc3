"""Discrete-event simulation core.

The simulator keeps an integer-nanosecond clock and a binary-heap event
queue with deterministic FIFO tie-breaking, so two runs with the same seed
produce byte-identical traces.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "events": ("Event", "EventQueue"),
    "simulator": ("Simulator",),
    "timers": ("Timer",),
    "rng": ("SeededRandom",),
})
