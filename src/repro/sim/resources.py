"""Queueing resources built on processes, signals and callbacks.

These primitives carry the contention behaviour of the model:

* :class:`Mutex` — in-order exclusive lock (page-table lock, PMSHR port in
  the software-emulated SMU).
* :class:`Server` — a k-server queueing station (the NVMe device's
  internal service slots).
* :class:`FifoChannel` — a producer/consumer queue (NVMe completion
  queues).

Thread-side callers are processes: they ``yield from mutex.acquire()`` or
``yield from channel.get()`` inside a process body.  Device-side callers
are plain callbacks: :meth:`Server.acquire` runs a job callback once it
holds a slot, and :meth:`FifoChannel.consume` runs a callback per entry.
Every callback runs from exactly the event that would have resumed the
equivalent process, so both styles dispatch the same events in the same
order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Completion, WaitSignal


class Mutex:
    """An exclusive lock granting ownership in FIFO order.

    Usage inside a process body::

        yield from mutex.acquire()
        try:
            ...
        finally:
            mutex.release()
    """

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._ticket_name = f"{name}-ticket"
        self._locked = False
        self._waiters: Deque[Completion] = deque()
        #: Total number of acquisitions that had to wait (contention metric).
        self.contended_acquires = 0

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Generator[Any, Any, None]:
        if not self._locked:
            self._locked = True
            return
        self.contended_acquires += 1
        ticket = Completion(self.sim, self._ticket_name)
        self._waiters.append(ticket)
        yield WaitSignal(ticket)

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"mutex {self.name} released while unlocked")
        if self._waiters:
            # Hand the lock directly to the next waiter: stays locked.
            self._waiters.popleft().fire()
        else:
            self._locked = False


class Server:
    """A station with ``capacity`` parallel servers and a FIFO queue.

    Jobs are callbacks: ``acquire(callback, *args)`` runs
    ``callback(*args)`` holding one server, at once if one is free and
    otherwise once a release hands one over; the job ends its service
    with ``release(service_ns)``.  This is the building block for
    device-internal parallelism: an NVMe device with 8 channels is
    ``Server(sim, capacity=8)``.

    A hand-off is one zero-delay event: ``busy`` drops at the release and
    rises only when that event runs, so a job arriving at the same
    instant in between finds the slot free and takes it.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "server"):
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._busy = 0
        #: Queued jobs as ``(enqueue time, callback, args)``, FIFO.
        self._waiters: Deque[Tuple[float, Callable[..., Any], Tuple[Any, ...]]] = deque()
        self._handoff_cb = self._handoff
        #: Aggregate busy time across all servers (for utilisation).
        self.busy_time_ns = 0.0
        self.jobs_served = 0
        self.total_queue_wait_ns = 0.0

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # repro: hot-path
    def acquire(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` on a free server, or queue it (FIFO)."""
        if self._busy < self.capacity:
            self._busy += 1
            callback(*args)
        else:
            self._waiters.append((self.sim.now, callback, args))

    # repro: hot-path
    def release(self, service_ns: float) -> None:
        """End one job's service of ``service_ns`` and free its server."""
        self._busy -= 1
        self.busy_time_ns += service_ns
        self.jobs_served += 1
        waiters = self._waiters
        if waiters:
            self.sim.schedule_transient(0.0, self._handoff_cb, waiters.popleft())

    # repro: hot-path
    def _handoff(self, job: Tuple[float, Callable[..., Any], Tuple[Any, ...]]) -> None:
        enqueue_time, callback, args = job
        self.total_queue_wait_ns += self.sim.now - enqueue_time
        self._busy += 1
        callback(*args)

    def utilisation(self, elapsed_ns: float) -> float:
        """Mean fraction of servers busy over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_time_ns / (elapsed_ns * self.capacity)


class FifoChannel:
    """A FIFO between producers and a consumer.

    ``capacity=None`` gives an unbounded channel (puts never block).
    Consumers are processes calling the blocking :meth:`get`, or one
    callback registered with :meth:`consume`; a channel uses one style,
    not both.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "chan"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"channel capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"{name}-put"
        self._get_name = f"{name}-get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Completion] = deque()
        self._putters: Deque[Completion] = deque()
        #: The :meth:`consume` callback and its leading arguments.
        self._consumer: Optional[Callable[..., Any]] = None
        self._consumer_args: Tuple[Any, ...] = ()
        #: True while a drain event is scheduled (or running); puts then
        #: join that drain instead of scheduling another.
        self._drain_pending = False
        self._drain_cb = self._drain
        #: Simulation-order sanitizer hook (set by SimSanitizer.watch):
        #: channels carry cross-component traffic (NVMe completion queues,
        #: block-layer request queues), so same-instant puts from
        #: different producers are tie-break ordered.
        self._sanitizer = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def drain_pending(self) -> bool:
        """A consumer drain is scheduled but has not finished yet."""
        return self._drain_pending

    def try_get(self) -> Any:
        """Non-blocking get; raises IndexError when empty."""
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        item = self._items.popleft()
        if self._putters:
            self._putters.popleft().fire()
        return item

    def put(self, item: Any) -> Generator[Any, Any, None]:
        """Blocking put (only blocks when the channel is bounded and full)."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            ticket = Completion(self.sim, self._put_name)
            self._putters.append(ticket)
            yield WaitSignal(ticket)
        self._push(item)

    # repro: hot-path
    def put_nowait(self, item: Any) -> None:
        """Non-blocking put; raises on a full bounded channel."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise SimulationError(f"channel {self.name} full")
        self._push(item)

    # repro: hot-path
    def _push(self, item: Any) -> None:
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        self._items.append(item)
        if self._getters:
            self._getters.popleft().fire()
        elif self._consumer is not None and not self._drain_pending:
            self._drain_pending = True
            self.sim.schedule_transient(0.0, self._drain_cb)

    def get(self) -> Generator[Any, Any, Any]:
        """Blocking get."""
        while not self._items:
            ticket = Completion(self.sim, self._get_name)
            self._getters.append(ticket)
            yield WaitSignal(ticket)
        return self.try_get()

    def consume(self, callback: Callable[..., Any], *args: Any) -> None:
        """Deliver every entry, in order, as ``callback(*args, item)``.

        The callback version of a consumer process looping on :meth:`get`,
        with the same wake-ups: registration schedules one zero-delay
        event (where spawning the process would), which delivers whatever
        is already queued; after that, a put to an idle channel schedules
        one zero-delay drain, and entries put before it runs join it.
        """
        if self._consumer is not None:
            raise SimulationError(f"channel {self.name} already has a consumer")
        self._consumer = callback
        self._consumer_args = args
        self._drain_pending = True
        self.sim.schedule_transient(0.0, self._drain_cb)

    # repro: hot-path
    def _drain(self) -> None:
        items = self._items
        putters = self._putters
        callback = self._consumer
        args = self._consumer_args
        sanitizer = self._sanitizer
        while items:
            if sanitizer is not None:
                # Charge the read to the consumer, as a consumer process
                # calling get() would be, not to this dispatch loop.
                sanitizer.note_write(self, sanitizer.callback_site(callback))
            item = items.popleft()
            if putters:
                putters.popleft().fire()
            callback(*args, item)
        self._drain_pending = False
