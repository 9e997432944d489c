"""Observer protocol for :class:`repro.sim.engine.Simulator`.

Everything that wants to watch a simulation — the trace sink, the
simulation-order sanitizer, future probes — attaches through one door,
:meth:`Simulator.attach`, instead of poking engine attributes.  The engine
pre-binds the attached observers' hooks into at most two callables
(``_dispatch_hook``, ``_chain_hook``), so the dispatch loop pays exactly
one ``is None`` branch when nothing (or nothing dispatch-level) is
attached — the zero-overhead-when-disabled contract.

An observer provides any subset of:

``on_attach(sim)`` / ``on_detach(sim)``
    Wiring: grab references, publish yourself on engine side-channels
    (``sim.trace``, ``sim.sanitizer``) for the model components that emit
    through them.
``on_dispatch(time, chain)``
    Called before every event callback runs.  Only observers that truly
    need per-dispatch granularity (the sanitizer) should define it.
``event_chain(time) -> int``
    Called at schedule time to tag the new event with a causal chain.

At most one attached observer may define each of the two hooks; attaching
a second raises :class:`repro.errors.SimulationError`.

Plain duck typing is accepted, but subclassing :class:`SimObserver` gets
the ``None`` defaults right.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class SimObserver:
    """Base class for simulator observers; all hooks optional."""

    #: ``callable(time, chain)`` invoked before each event dispatch, or
    #: ``None`` (the default) to stay off the hot path entirely.  At most
    #: one per simulator.
    on_dispatch: Optional[Callable[[float, int], None]] = None
    #: ``callable(time) -> int`` assigning causal-chain tags to newly
    #: scheduled events, or ``None``.  At most one per simulator.
    event_chain: Optional[Callable[[float], int]] = None

    def on_attach(self, sim: Any) -> None:
        """Called once when the observer is attached to ``sim``."""

    def on_detach(self, sim: Any) -> None:
        """Called once when the observer is detached from ``sim``."""

