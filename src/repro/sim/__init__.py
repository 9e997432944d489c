"""Discrete-event simulation substrate.

Exports the engine (:class:`Simulator`, whose one scheduling call is
:meth:`Simulator.schedule`), the coroutine-process layer (:func:`spawn`,
:class:`Signal`, :class:`Completion`; a process yields a delay in ns, a
signal or completion to wait on, or a process to join), queueing
resources, RNG streams, statistics recorders and state digests.
"""

from repro.sim.checkpoint import capture_state, state_digest
from repro.sim.engine import MS, NS, SEC, US, Simulator
from repro.sim.process import Completion, Process, Signal, first_of, spawn, timer
from repro.sim.resources import FifoChannel, Server
from repro.sim.rng import RngStreams
from repro.sim.trace import Counter, StatAccumulator

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "Simulator",
    "Signal",
    "Completion",
    "Process",
    "spawn",
    "first_of",
    "timer",
    "Server",
    "FifoChannel",
    "RngStreams",
    "StatAccumulator",
    "Counter",
    "capture_state",
    "state_digest",
]
