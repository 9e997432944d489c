"""NVMe device, namespaces, and queue pairs.

The model follows the NVMe flow the paper relies on (§II-B, §III-C):

* the host writes a 64-byte command into a submission queue (SQ) in memory
  and rings the SQ doorbell (one PCIe register write);
* the device fetches, executes, then writes a completion entry into the
  completion queue (CQ) in memory;
* completion is signalled either by an interrupt (OS-managed queues) or by
  the SMU's completion unit snooping the CQ memory write (SMU queues have
  interrupts disabled, §III-C).

Both delivery styles map onto the queue pair's completion queue, a
:class:`repro.sim.FifoChannel` with one consumer callback — the kernel's
interrupt dispatcher or the SMU's completion unit; the *costs* they pay
on delivery differ and are charged by the respective consumers.

The device is hardware, not a thread, so a command is a chain of
scheduled callbacks rather than a process: arrival (one zero-delay event
after the doorbell), a slot of the ``parallel_ops``-server station
(queueing FIFO when all are busy), service end, and the CQ write.  Reads
are inflated while writes occupy slots (see :mod:`repro.storage.latency`).
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.config import BLOCKS_PER_PAGE, DeviceConfig
from repro.errors import StorageError
from repro.sim import FifoChannel, Server, Signal, Simulator, StatAccumulator
from repro.storage.latency import DeviceLatencyModel


class NVMeOpcode(enum.Enum):
    READ = "read"
    WRITE = "write"


class NVMeStatus(enum.Enum):
    """Completion status (the subset of NVMe status codes the model needs)."""

    SUCCESS = "success"
    #: Media error on a read (NVMe 02h/81h Unrecovered Read Error).
    UNRECOVERED_READ = "unrecovered-read"
    #: Media error on a write (NVMe 02h/80h Write Fault).
    WRITE_FAULT = "write-fault"
    #: The host's command timeout fired and the abort reaped the command.
    COMMAND_TIMEOUT = "command-timeout"


@dataclass
class Namespace:
    """A storage volume organised into logical blocks (one per file system)."""

    nsid: int
    capacity_blocks: int
    #: Next unallocated block, for the simple bump allocator used by the
    #: file-system model.
    _next_free_block: int = 0

    def allocate_blocks(self, count: int) -> int:
        """Allocate ``count`` contiguous blocks, returning the first LBA."""
        if self._next_free_block + count > self.capacity_blocks:
            raise StorageError(
                f"namespace {self.nsid}: out of blocks "
                f"({self._next_free_block}+{count} > {self.capacity_blocks})"
            )
        lba = self._next_free_block
        self._next_free_block += count
        return lba

    def allocate_page_blocks(self) -> int:
        """Allocate one page worth of blocks (8 × 512 B)."""
        return self.allocate_blocks(BLOCKS_PER_PAGE)

    def check_lba(self, lba: int, blocks: int) -> None:
        if not (0 <= lba and lba + blocks <= self.capacity_blocks):
            raise StorageError(f"namespace {self.nsid}: LBA {lba} out of range")


#: ``dataclass(slots=True)`` needs Python 3.10; older interpreters build
#: the same class without slots.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTTED)
class NVMeCommand:
    """One 64-byte NVMe command (the subset the model needs).

    Every device command builds one, so the class is slotted; the hot
    consumers test :attr:`status` and :attr:`opcode` directly rather than
    through the :attr:`ok`/:attr:`is_write` properties.  The fields a
    submitter sets come first, so the per-command constructions pass them
    positionally (keyword arguments cost about twice as much per call).
    """

    opcode: NVMeOpcode
    nsid: int
    lba: int
    #: Command identifier — the SMU tags it with the PMSHR entry index so
    #: completion can find the entry (§III-C).
    cid: int = 0
    #: Destination DMA address (the free page frame).
    dma_addr: int = 0
    #: Opaque submitter cookie carried through completion — the writeback
    #: path stores the backing :class:`repro.os.filesystem.File` here so
    #: the interrupt handler can latch write errors against it.
    context: Any = None
    blocks: int = BLOCKS_PER_PAGE
    submit_time_ns: float = 0.0
    complete_time_ns: float = 0.0
    #: Completion status stamped by the device (fault injection can make
    #: this a failure; consumers must check :attr:`ok`).
    status: NVMeStatus = NVMeStatus.SUCCESS

    @property
    def is_write(self) -> bool:
        return self.opcode is NVMeOpcode.WRITE

    @property
    def ok(self) -> bool:
        return self.status is NVMeStatus.SUCCESS

    @property
    def device_time_ns(self) -> float:
        return self.complete_time_ns - self.submit_time_ns


class QueuePair:
    """An SQ/CQ pair.

    ``interrupt_enabled`` distinguishes OS-managed queues from SMU queues;
    the model's delivery mechanism is the same CQ consumer callback —
    consumers pay their own costs (interrupt delivery vs. snoop).
    """

    def __init__(
        self,
        sim: Simulator,
        qid: int,
        depth: int = 1024,
        interrupt_enabled: bool = True,
        owner: str = "os",
    ):
        self.sim = sim
        self.qid = qid
        self.depth = depth
        self.interrupt_enabled = interrupt_enabled
        self.owner = owner
        self.outstanding = 0
        #: Slots claimed by issuers that have passed admission but not yet
        #: submitted (the SMU host controller's backpressure reservation).
        self.reserved = 0
        self.submitted = 0
        self.completed = 0
        #: Completed commands, in completion order.  A FIFO (rather than a
        #: broadcast signal) guarantees no completion is ever lost when two
        #: commands finish at the same instant; the consumer callback is the
        #: kernel's interrupt dispatcher or the SMU's completion unit.
        self.cq = FifoChannel(sim, name=f"qp{qid}-cq")
        #: Fired whenever a command completes and its SQ slot frees up —
        #: submitters blocked on a full queue wait here (backpressure).
        self.slot_freed = Signal(sim, name=f"qp{qid}-slot-freed")

    @property
    def occupied(self) -> int:
        """Slots in use or spoken for (outstanding commands + reservations)."""
        return self.outstanding + self.reserved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueuePair {self.qid} owner={self.owner} outstanding={self.outstanding}>"


class NVMeDevice:
    """One NVMe device with namespaces, queue pairs, and a service station."""

    def __init__(self, sim: Simulator, config: DeviceConfig, rng, name: Optional[str] = None):
        self.sim = sim
        self.config = config
        self.name = name or config.name
        self.latency_model = DeviceLatencyModel(config, rng)
        self._server = Server(sim, capacity=config.parallel_ops, name=f"{self.name}-srv")
        self._parallel_ops = float(config.parallel_ops)
        # Bound once: every command schedules these.
        self._execute_cb = self._execute
        self._start_service_cb = self._start_service
        self._end_service_cb = self._end_service
        self._complete_late_cb = self._complete_late
        self._write_done_cb = self._write_done
        self._writes_in_service = 0
        self._qid_counter = itertools.count(1)
        self.queue_pairs: Dict[int, QueuePair] = {}
        self.namespaces: Dict[int, Namespace] = {}
        #: Set by the system builder when the config carries a fault plan;
        #: ``None`` means every command completes successfully.
        self.fault_injector: Optional[Any] = None
        # -- statistics ---------------------------------------------------
        self.reads_completed = 0
        self.writes_completed = 0
        self.read_errors = 0
        self.write_errors = 0
        self.timeouts = 0
        self.read_device_time = StatAccumulator("read-device-time")
        self.write_device_time = StatAccumulator("write-device-time")

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def create_namespace(self, capacity_blocks: int) -> Namespace:
        nsid = len(self.namespaces) + 1
        namespace = Namespace(nsid=nsid, capacity_blocks=capacity_blocks)
        self.namespaces[nsid] = namespace
        return namespace

    def create_queue_pair(
        self, depth: int = 1024, interrupt_enabled: bool = True, owner: str = "os"
    ) -> QueuePair:
        if len(self.queue_pairs) >= self.config.max_queue_pairs:
            raise StorageError(f"{self.name}: queue-pair limit reached")
        qid = next(self._qid_counter)
        qp = QueuePair(self.sim, qid, depth, interrupt_enabled, owner)
        self.queue_pairs[qid] = qp
        return qp

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    # repro: hot-path
    def submit(self, qp: QueuePair, command: NVMeCommand) -> None:
        """Doorbell write arrived: device begins fetching the command.

        The *caller* charges its own submission costs (building the command,
        the doorbell write); this method starts device-side processing.
        """
        if qp.qid not in self.queue_pairs:
            raise StorageError(f"{self.name}: unknown queue pair {qp.qid}")
        if qp.outstanding >= qp.depth:
            raise StorageError(f"{self.name}: queue {qp.qid} overflow")
        namespace = self.namespaces.get(command.nsid)
        if namespace is None:
            raise StorageError(f"{self.name}: unknown namespace {command.nsid}")
        namespace.check_lba(command.lba, command.blocks)
        qp.outstanding += 1
        qp.submitted += 1
        command.submit_time_ns = self.sim.now
        sink = self.sim.trace
        if sink is not None:
            sink.instant(
                "nvme.submit",
                device=self.name,
                qid=qp.qid,
                cid=command.cid,
                opcode=command.opcode.value,
                nsid=command.nsid,
                lba=command.lba,
            )
        self.sim.schedule(0.0, self._execute_cb, qp, command)

    # repro: hot-path
    def _execute(self, qp: QueuePair, command: NVMeCommand) -> None:
        """Command fetched: take a service slot, queueing if all are busy."""
        self._server.acquire(self._start_service_cb, qp, command)

    # repro: hot-path
    def _start_service(self, qp: QueuePair, command: NVMeCommand) -> None:
        service_ns = self._service_time(command)
        self.sim.schedule(
            service_ns, self._end_service_cb, qp, command, service_ns
        )

    # repro: hot-path
    def _service_time(self, command: NVMeCommand) -> float:
        if command.opcode is NVMeOpcode.WRITE:
            self._writes_in_service += 1
            duration = self.latency_model.write_service_ns()
            self.sim.schedule(duration, self._write_done_cb)
        else:
            occupancy = self._writes_in_service / self._parallel_ops
            duration = self.latency_model.read_service_ns(occupancy)
        return duration

    # repro: hot-path
    def _write_done(self) -> None:
        self._writes_in_service -= 1

    # repro: hot-path
    def _end_service(self, qp: QueuePair, command: NVMeCommand, service_ns: float) -> None:
        self._server.release(service_ns)
        if self.fault_injector is not None:
            decision = self.fault_injector.decide(self.name, command, self.sim.now)
            if decision is not None:
                if decision.extra_delay_ns > 0.0:
                    # A timed-out command holds its SQ slot until the
                    # host's abort reaps it.
                    self.sim.schedule(
                        decision.extra_delay_ns,
                        self._complete_late_cb,
                        qp,
                        command,
                        decision.status_name,
                    )
                    return
                command.status = NVMeStatus[decision.status_name]
        self._complete(qp, command)

    # repro: hot-path
    def _complete_late(self, qp: QueuePair, command: NVMeCommand, status_name: str) -> None:
        command.status = NVMeStatus[status_name]
        self._complete(qp, command)

    # repro: hot-path
    def _complete(self, qp: QueuePair, command: NVMeCommand) -> None:
        command.complete_time_ns = self.sim.now
        qp.outstanding -= 1
        qp.completed += 1
        qp.slot_freed.fire(qp)
        status = command.status
        if status is not NVMeStatus.SUCCESS:
            # Failed commands are tallied separately and excluded from the
            # device-time statistics (they would skew the latency tables).
            if status is NVMeStatus.COMMAND_TIMEOUT:
                self.timeouts += 1
            elif command.opcode is NVMeOpcode.WRITE:
                self.write_errors += 1
            else:
                self.read_errors += 1
        elif command.opcode is NVMeOpcode.WRITE:
            self.writes_completed += 1
            self.write_device_time.add(command.complete_time_ns - command.submit_time_ns)
        else:
            self.reads_completed += 1
            self.read_device_time.add(command.complete_time_ns - command.submit_time_ns)
        sink = self.sim.trace
        if sink is not None:
            sink.instant(
                "nvme.complete",
                device=self.name,
                qid=qp.qid,
                cid=command.cid,
                status=command.status.value,
                device_time_ns=command.device_time_ns,
            )
        # CQ entry write: this is the memory transaction the SMU snoops and
        # the event the interrupt path is raised for.
        qp.cq.put_nowait(command)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._server.busy + self._server.queue_length

    def utilisation(self, elapsed_ns: float) -> float:
        return self._server.utilisation(elapsed_ns)
