"""Kernel block-I/O stack: OS-managed NVMe queues with interrupt completion.

This is the I/O path of conventional demand paging (OSDP): the fault handler
submits a read through here, blocks, and an interrupt eventually fires the
per-command completion.  The *latency costs* of submission and completion
are charged by the fault path from :class:`repro.config.OsdpCosts`; this
module provides the mechanics (queue pair, dispatcher, per-command
completions) and the write path used by the KV-store's WAL/flush traffic.

The dispatcher is the queue pair's CQ consumer callback (see
:meth:`repro.sim.FifoChannel.consume`): interrupt delivery is hardware
raising an event, so it runs per completion entry rather than as a
process blocked on the CQ.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from repro.errors import KernelError
from repro.sim import Completion, Simulator
from repro.storage.nvme import NVMeCommand, NVMeDevice, NVMeOpcode, NVMeStatus


class BlockIoStack:
    """One device's OS-managed I/O queues plus the interrupt dispatcher."""

    def __init__(self, sim: Simulator, device: NVMeDevice, queue_depth: int = 1024):
        self.sim = sim
        self.device = device
        self.qp = device.create_queue_pair(
            depth=queue_depth, interrupt_enabled=True, owner="os"
        )
        self._cid_counter = itertools.count(1)
        #: In-flight commands by cid: a read's completion, or ``None`` for
        #: a write (nothing waits on one).
        self._inflight: Dict[int, Optional[Completion]] = {}
        self.reads_submitted = 0
        self.writes_submitted = 0
        self.read_errors = 0
        self.write_errors = 0
        #: Invoked from the interrupt dispatcher when a *write* completes
        #: with an error — the kernel hooks this to latch the failure
        #: against the backing file (Linux's errseq_t / AS_EIO analogue).
        self.on_write_error: Optional[Callable[[NVMeCommand], None]] = None
        #: Completion label (a debugging aid), minted once per stack so
        #: submission does no string formatting.
        self._io_name = f"io-{device.name}"
        self.qp.cq.consume(self._interrupt_dispatcher)

    # ------------------------------------------------------------------
    # repro: hot-path
    def submit_read(
        self, nsid: int, lba: int, dma_addr: int = 0, context: Any = None
    ) -> Completion:
        """Dispatch a 4 KB read; returns a completion that fires with the command."""
        completion = Completion(self.sim, self._io_name)
        self._submit(NVMeOpcode.READ, nsid, lba, dma_addr, context, completion)
        self.reads_submitted += 1
        return completion

    # repro: hot-path
    def submit_write(
        self, nsid: int, lba: int, dma_addr: int = 0, context: Any = None
    ) -> None:
        """Dispatch a 4 KB write (WAL/flush/writeback traffic).

        Writes are fire-and-forget: no caller waits on one, so none gets a
        completion.  The write still counts in :attr:`inflight` until its
        CQ entry arrives (the kernel's write throttle reads it).
        ``context`` names the object the write belongs to (the backing
        file) so an error completion can be latched against it.
        """
        self._submit(NVMeOpcode.WRITE, nsid, lba, dma_addr, context, None)
        self.writes_submitted += 1

    # repro: hot-path
    def _submit(
        self,
        opcode: NVMeOpcode,
        nsid: int,
        lba: int,
        dma_addr: int,
        context: Any,
        completion: Optional[Completion],
    ) -> None:
        cid = next(self._cid_counter)
        self._inflight[cid] = completion
        self.device.submit(
            self.qp,
            NVMeCommand(opcode, nsid, lba, cid, dma_addr, context),
        )

    # ------------------------------------------------------------------
    # repro: hot-path
    def _interrupt_dispatcher(self, command: NVMeCommand) -> None:
        """Take one CQ entry and fire its per-command completion.

        Models the device interrupt: the *delivery* cost is charged by the
        woken fault path (``interrupt_delivery_ns``), not here.
        """
        try:
            completion = self._inflight.pop(command.cid)
        except KeyError:
            raise KernelError(f"completion for unknown cid {command.cid}") from None
        if command.status is not NVMeStatus.SUCCESS:
            if command.opcode is NVMeOpcode.WRITE:
                self.write_errors += 1
                if self.on_write_error is not None:
                    self.on_write_error(command)
            else:
                self.read_errors += 1
        if completion is not None:
            completion.fire(command)

    @property
    def inflight(self) -> int:
        return len(self._inflight)
