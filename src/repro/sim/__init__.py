"""Discrete-event simulation substrate.

Exports the engine (:class:`Simulator`), coroutine-process layer
(:func:`spawn`, :class:`Delay`, :class:`WaitSignal`, :class:`Signal`,
:class:`Completion`), queueing resources, RNG streams, and statistics
recorders.
"""

from repro.sim.checkpoint import capture_state, state_digest
from repro.sim.engine import MS, NS, SEC, US, ScheduledEvent, Simulator
from repro.sim.process import (
    Completion,
    Delay,
    Process,
    ProcessInterrupt,
    Signal,
    WaitSignal,
    first_of,
    spawn,
    timer,
)
from repro.sim.resources import FifoChannel, Mutex, Server
from repro.sim.rng import RngStreams
from repro.sim.trace import Counter, StatAccumulator

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "Simulator",
    "ScheduledEvent",
    "Delay",
    "WaitSignal",
    "Signal",
    "Completion",
    "Process",
    "ProcessInterrupt",
    "spawn",
    "first_of",
    "timer",
    "Mutex",
    "Server",
    "FifoChannel",
    "RngStreams",
    "StatAccumulator",
    "Counter",
    "capture_state",
    "state_digest",
]
