"""Coroutine processes on top of the event engine.

A *process* is a Python generator that models a sequential activity: a
thread in the paper's sense (a CPU thread with the SMU miss pipeline and
the fault handler it runs, a kernel daemon).  Hardware that only reacts —
the NVMe device and the completion-queue consumers — is plain scheduled
callbacks instead (see :mod:`repro.storage.nvme`).  The generator yields
bare values telling the scheduler what to wait for:

a real number (``int``, ``float`` or a numpy scalar; not ``bool``)
    a delay: resume after that many nanoseconds of simulated time.  A
    negative delay raises :class:`SimulationError`.
a :class:`Signal` or :class:`Completion`
    resume when it fires; the fired value is sent back into the
    generator.
a :class:`Process`
    join: resume when the yielded process terminates; its return value is
    sent back.

Anything else is an "unsupported command" :class:`SimulationError`.
Sub-activities are composed with plain ``yield from``, so most model code
reads like straight-line procedures::

    def fault_handler(self):
        yield self.cost.exception_ns
        value = yield io_done
        ...

Every wake-up is one :meth:`Simulator.schedule` event, so a process holds
no handle to its pending wake-up and cannot be interrupted: a wait ends
only when its delay elapses, its signal fires or the joined process
finishes.

Processes propagate exceptions: an uncaught exception inside a process is
re-raised out of :meth:`Simulator.run` at the point the event fires, which
turns model bugs into loud test failures instead of silent stalls.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator

#: Type alias for the generators that implement process bodies.
ProcessBody = Generator[Any, Any, Any]


class Signal:
    """A broadcast wake-up primitive.

    ``fire(value)`` resumes every process currently waiting and delivers
    ``value`` to each.  A signal may fire any number of times; waiters that
    arrive after a fire wait for the *next* fire (edge-triggered).

    For one-shot completion events use :class:`Completion`, which latches.
    """

    __slots__ = ("sim", "name", "_waiters", "fire_count")

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    # repro: hot-path
    def fire(self, value: Any = None) -> None:
        """Wake all current waiters, delivering ``value``."""
        self.fire_count += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []  # repro: allow[REP121] reason=fresh list per broadcast is the edge-trigger semantics; the drained list is handed to the resume loop
            schedule = self.sim.schedule
            for process in waiters:
                # Resume via a zero-delay event to preserve run-to-completion
                # semantics of the currently executing process.
                schedule(0.0, process._resume_cb, value)

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name} waiters={len(self._waiters)}>"


class Completion(Signal):
    """A latching signal: once fired, later waiters resume immediately.

    This models completion flags (an I/O that already finished, a PMSHR
    broadcast that already happened) where a late waiter must not hang.
    """

    __slots__ = ("done", "value")

    def __init__(self, sim: Simulator, name: str = "completion"):
        # Field assignments inlined (not super().__init__): completions
        # are minted per contended resource wait, making construction one
        # of the model's hottest allocations.
        self.sim = sim
        self.name = name
        self._waiters = []
        self.fire_count = 0
        self.done = False
        self.value: Any = None

    # repro: hot-path
    def fire(self, value: Any = None) -> None:
        if self.done:
            raise SimulationError(f"completion {self.name} fired twice")
        self.done = True
        self.value = value
        self.fire_count += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []  # repro: allow[REP121] reason=fresh list per broadcast is the latch semantics; the drained list is handed to the resume loop
            schedule = self.sim.schedule
            for process in waiters:
                schedule(0.0, process._resume_cb, value)

    def _add_waiter(self, process: "Process") -> None:
        if self.done:
            self.sim.schedule(0.0, process._resume_cb, self.value)
        else:
            super()._add_waiter(process)


class Process:
    """A running coroutine activity.

    Create via :func:`spawn`.  A process is itself awaitable from another
    process by yielding it (join semantics).
    """

    __slots__ = (
        "sim",
        "name",
        "_body",
        "finished",
        "result",
        "_joiners",
        "_resume_cb",
        "on_finish",
    )

    def __init__(self, sim: Simulator, body: ProcessBody, name: str):
        self.sim = sim
        self.name = name
        self._body = body
        self.finished = False
        self.result: Any = None
        self._joiners: List["Process"] = []
        #: ``self._resume`` bound once: every wake-up of this process
        #: reuses the same bound method instead of materialising a new
        #: one per event (the process layer's hottest allocation).
        self._resume_cb = self._resume
        #: Optional ``callable(process)`` invoked synchronously inside
        #: ``_finish`` — no event is scheduled, so registering one cannot
        #: perturb dispatch order.  :meth:`repro.core.system.System.run`
        #: uses it to count down outstanding workload processes.
        self.on_finish: Optional[Any] = None

    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._resume(None)

    # repro: hot-path
    def _resume(self, value: Any) -> None:
        """Advance the generator until it yields the next command, and
        arrange the wake-up that command asks for.

        Runs for nearly every event in a simulation, so the two common
        commands — a float delay, a completion or signal wait — are tested
        by exact class; other numbers, joins and errors take
        :meth:`_dispatch_slow`.
        """
        try:
            command = self._body.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        cls = command.__class__
        if cls is float:
            self.sim.schedule(command, self._resume_cb, None)
        elif cls is Completion or cls is Signal:
            command._add_waiter(self)
        else:
            self._dispatch_slow(command)

    def _dispatch_slow(self, command: Any) -> None:
        if isinstance(command, Real) and not isinstance(command, bool):
            self.sim.schedule(command, self._resume_cb, None)
        elif isinstance(command, Signal):
            command._add_waiter(self)
        elif isinstance(command, Process):
            if command.finished:
                self.sim.schedule(0.0, self._resume_cb, command.result)
            else:
                command._joiners.append(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        joiners = self._joiners
        if joiners:
            self._joiners = []
            schedule = self.sim.schedule
            for joiner in joiners:
                schedule(0.0, joiner._resume_cb, result)
        if self.on_finish is not None:
            self.on_finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


def first_of(sim: Simulator, *signals: Signal) -> Completion:
    """A completion that fires with ``(index, value)`` of whichever signal
    fires first.  Later firings of the other signals are ignored.

    Used to race an I/O completion against a timeout (the paper's §V
    remedy for long-latency reads: a timeout-based exception).
    """
    result = Completion(sim, "first-of")

    def waiter(signal: Signal, index: int) -> ProcessBody:
        value = yield signal
        if not result.done:
            result.fire((index, value))

    for index, signal in enumerate(signals):
        spawn(sim, waiter(signal, index), f"first-of-{index}")
    return result


def timer(sim: Simulator, delay_ns: float, name: str = "timer") -> Completion:
    """A completion that fires after ``delay_ns``."""
    completion = Completion(sim, name)
    sim.schedule(delay_ns, completion.fire, None)
    return completion


def spawn(sim: Simulator, body: ProcessBody, name: str = "process") -> Process:
    """Create a process from a generator and start it at the current instant.

    The first segment of the body runs from a zero-delay event, so the
    spawner continues to run to completion first.
    """
    process = Process(sim, body, name)
    sim.schedule(0.0, process._start)
    return process
