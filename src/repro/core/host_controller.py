"""The SMU's NVMe host controller (paper §III-C, Figures 8/9).

Holds up to eight sets of NVMe queue descriptor registers — one per block
device behind this SMU (3-bit device ID).  When the OS enables hardware
demand paging for a file, it allocates a fresh, *isolated* NVMe queue pair
on the device (separate from all OS-managed queues), disables its
interrupts, and programs one descriptor set; from then on the controller
can issue 4 KB reads and consume completions entirely in hardware:

* issue = build a 64-byte command in the SQ (77.16 ns memory write) + ring
  the SQ doorbell (1.60 ns PCIe register write);
* completion = snoop the memory write the device performs at
  ``CQ base + CQ head`` and run the CQ protocol (no interrupt).

Each command is tagged (``cid``) with the index of the PMSHR entry that
caused it, so the completion unit can find the entry (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import SmuConfig
from repro.errors import SmuError
from repro.sim import Simulator
from repro.storage.nvme import NVMeCommand, NVMeDevice, NVMeOpcode, QueuePair


@dataclass
class QueueDescriptor:
    """One programmed descriptor-register set (Figure 9)."""

    device_id: int
    device: NVMeDevice
    qp: QueuePair
    nsid: int


class SmuHostController:
    """The NVMe host controller block of one SMU."""

    def __init__(
        self,
        sim: Simulator,
        config: SmuConfig,
        on_completion: Callable[[NVMeCommand], None],
    ):
        self.sim = sim
        self.config = config
        self._on_completion = on_completion
        self._descriptors: List[Optional[QueueDescriptor]] = [None] * config.devices_per_smu
        self.commands_issued = 0
        self.completions_snooped = 0
        #: Times an issuing miss found its SQ full and had to wait for a
        #: completion to free a slot.
        self.sq_backpressure_waits = 0

    # ------------------------------------------------------------------
    # control plane: the OS programs descriptor sets
    # ------------------------------------------------------------------
    def install_device(self, device: NVMeDevice, nsid: int) -> int:
        """Allocate an isolated, interrupt-less queue pair and program a
        descriptor set for it; returns the 3-bit device ID."""
        for device_id, slot in enumerate(self._descriptors):
            if slot is None:
                qp = device.create_queue_pair(
                    depth=self.config.sq_depth, interrupt_enabled=False, owner="smu"
                )
                descriptor = QueueDescriptor(device_id, device, qp, nsid)
                self._descriptors[device_id] = descriptor
                qp.cq.consume(self._completion_unit, descriptor)
                return device_id
        raise SmuError(
            f"all {self.config.devices_per_smu} descriptor sets in use "
            "(3-bit device ID exhausted)"
        )

    def descriptor(self, device_id: int) -> QueueDescriptor:
        if not 0 <= device_id < len(self._descriptors):
            raise SmuError(f"device ID {device_id} out of range")
        slot = self._descriptors[device_id]
        if slot is None:
            raise SmuError(f"device ID {device_id} has no programmed descriptor")
        return slot

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    @property
    def issue_latency_ns(self) -> float:
        """Command build + SQ doorbell (Figure 11b's dominant before-device
        costs: 77.16 ns + 1.60 ns)."""
        return self.config.nvme_command_write_ns + self.config.doorbell_write_ns

    def await_sq_slot(self, thread, device_id: int):
        """Backpressure: stall the issuing miss until the SQ has a slot.

        A full submission queue is congestion, not a programming error —
        the controller holds the doorbell write until a completion frees a
        slot instead of overflowing the queue.  The slot is *reserved* on
        return (several misses stall concurrently between admission and
        doorbell), so the caller must issue with ``claimed=True``.
        """
        qp = self.descriptor(device_id).qp
        while qp.occupied >= qp.depth:
            self.sq_backpressure_waits += 1
            yield from thread.mwait(qp.slot_freed)
        qp.reserved += 1

    def issue_read(
        self, device_id: int, lba: int, dma_addr: int, tag: int, claimed: bool = False
    ) -> None:
        """Issue a 4 KB read without a PRP list (§III-C).

        The caller (the page-miss handler pipeline) accounts the
        ``issue_latency_ns`` stall; this method performs the submission.
        ``claimed`` converts a reservation taken by :meth:`await_sq_slot`
        into the real outstanding slot.
        """
        descriptor = self.descriptor(device_id)
        if claimed:
            descriptor.qp.reserved -= 1
        command = NVMeCommand(
            NVMeOpcode.READ, nsid=descriptor.nsid, lba=lba, cid=tag, dma_addr=dma_addr
        )
        descriptor.device.submit(descriptor.qp, command)
        self.commands_issued += 1
        sink = self.sim.trace
        if sink is not None:
            sink.instant(
                "smu_host.sq_doorbell", device_id=device_id, lba=lba, cid=tag
            )

    # repro: hot-path
    def _completion_unit(self, descriptor: QueueDescriptor, command: NVMeCommand) -> None:
        """Snoop one CQ memory write and percolate the completion upward.

        The queue pair's CQ consumer callback: the snoop is hardware
        reacting to a memory write, so it runs per entry (see
        :meth:`repro.sim.FifoChannel.consume`).
        """
        self.completions_snooped += 1
        sink = self.sim.trace
        if sink is not None:
            sink.instant(
                "smu_host.cq_snoop",
                device_id=descriptor.device_id,
                cid=command.cid,
                status=command.status.value,
            )
        # CQ protocol (pointer, phase, CQ doorbell) costs are charged in
        # the page-miss handler's after-device accounting.
        self._on_completion(command)
