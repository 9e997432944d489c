"""Post-run invariant checker for the storage/SMU/OS stack.

Error paths are exactly where resource leaks hide: a miss that fails over
to the OS must still release its PMSHR entry, return its free frame, drop
its in-flight tag, and drain its per-pid outstanding count — otherwise a
later ``munmap`` barrier hangs or the frame pool slowly bleeds.  This
module checks all of that at a quiescent point (workload finished, event
queue drained of storage traffic):

1. **PMSHR drained** — no outstanding entries in any socket's CAM (nor in
   the SWDP emulated table) and no dangling completion tags in any SMU.
2. **Barrier counters drained** — every SMU's per-pid outstanding map is
   empty, so a future ``munmap`` barrier cannot hang.
3. **I/O quiescent** — no in-flight commands in the OS block stack, the
   SMU queue pairs, or the device service station, and every completion
   queue drained: no entry its consumer never took, no drain still
   pending (a lost wake-up would strand completions there).
4. **Page table ⟷ resident frames** — every present PTE maps an allocated
   frame, every OS-tracked page is mapped by the PTE it records, and the
   frame pool's used count equals the frames accounted for by owners
   (resident pages + pending-sync hardware installs + free-queue slots).

``assert_invariants`` raises :class:`repro.errors.InvariantViolation` with
every failure listed; injected-fault tests and the ``resilience``
experiment run it after every simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import InvariantViolation
from repro.vm.pte import decode_pte


@dataclass
class InvariantReport:
    """Outcome of one :func:`check_invariants` pass."""

    violations: List[str] = field(default_factory=list)
    observed: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise InvariantViolation(
                "post-run invariant check failed:\n  - "
                + "\n  - ".join(self.violations)
            )


def _iter_smus(system: Any):
    if system.smu_complex is not None:
        yield from system.smu_complex.smus
    elif system.smu is not None:  # pragma: no cover - complex covers this
        yield system.smu


def check_invariants(system: Any) -> InvariantReport:
    """Check every invariant; returns a report (never raises)."""
    report = InvariantReport()
    kernel = system.kernel
    note = report.violations.append

    # -- 1/2: SMU state drained ----------------------------------------
    for smu in _iter_smus(system):
        if smu.pmshr.outstanding:
            note(
                f"SMU {smu.socket_id}: {smu.pmshr.outstanding} leaked PMSHR "
                f"entries (PTE addrs {sorted(smu.pmshr._by_pte_addr)[:4]}...)"
            )
        if smu._inflight_by_tag:
            note(
                f"SMU {smu.socket_id}: dangling in-flight completion tags "
                f"{sorted(smu._inflight_by_tag)}"
            )
        if smu._outstanding_by_pid:
            counts = dict(sorted(smu._outstanding_by_pid.items()))
            note(
                f"SMU {smu.socket_id}: per-pid outstanding counts not drained "
                f"{counts} (munmap barrier would hang)"
            )
    sw_pmshr = kernel.fault_handler.sw_pmshr
    if sw_pmshr is not None and sw_pmshr.outstanding:
        note(f"SWDP emulated PMSHR holds {sw_pmshr.outstanding} leaked entries")
    if kernel.fault_handler.inflight_faults:
        note(f"{kernel.fault_handler.inflight_faults} OS faults still in flight")

    # -- 3: storage stack quiescent ------------------------------------
    if kernel.blockio.inflight:
        note(f"OS block stack holds {kernel.blockio.inflight} in-flight commands")
    if kernel.smu_blockio is not None and kernel.smu_blockio.inflight:
        note(
            f"SMU block stack holds {kernel.smu_blockio.inflight} in-flight commands"
        )
    if system.device.in_flight:
        note(f"device {system.device.name} still servicing {system.device.in_flight}")
    for qid, qp in system.device.queue_pairs.items():
        if qp.outstanding:
            note(f"queue pair {qid} ({qp.owner}) has {qp.outstanding} outstanding")
        if len(qp.cq):
            note(
                f"queue pair {qid} ({qp.owner}) CQ holds {len(qp.cq)} entries "
                "its consumer never took"
            )
        if qp.cq.drain_pending:
            note(f"queue pair {qid} ({qp.owner}) CQ drain still pending")

    # -- 4: page table consistent with resident frames -----------------
    # Membership sets are fine, but anything *reported* (violation text,
    # the observed dict) must be sorted first: iterating a set of PFNs
    # would make the report text depend on hash order.
    tracked = set(kernel._page_info.keys())
    pending = set()
    free = set(kernel.frame_pool._free)
    for process in kernel.processes:
        for vpn, value in process.page_table.iter_populated():
            decoded = decode_pte(value)
            if not decoded.present:
                continue
            if decoded.pfn in free:
                note(
                    f"{process.name}: PTE for vpn {vpn:#x} maps freed frame "
                    f"{decoded.pfn}"
                )
            if decoded.lba_bit and decoded.pfn not in tracked:
                pending.add(decoded.pfn)
    for pfn in sorted(kernel._page_info):
        page = kernel._page_info[pfn]
        pte = decode_pte(page.process.page_table.get_pte(page.vaddr))
        if not pte.present or pte.pfn != pfn:
            note(
                f"OS tracks PFN {pfn} at {page.vaddr:#x} but the PTE does not "
                f"map it (present={pte.present} pfn={pte.pfn})"
            )
    queued = sum(queue.occupancy for queue in kernel.iter_free_queues())
    used = kernel.frame_pool.used_frames
    accounted = len(tracked) + len(pending) + queued
    if used != accounted:
        note(
            f"frame leak: pool says {used} frames in use, owners account for "
            f"{accounted} (resident={len(tracked)} pending-sync={len(pending)} "
            f"queued={queued}; resident sample {sorted(tracked)[:8]} "
            f"pending sample {sorted(pending)[:8]})"
        )

    report.observed.update(
        {
            "used_frames": used,
            "accounted_frames": accounted,
            "resident": len(tracked),
            "pending_sync": len(pending),
            "pending_pfns": sorted(pending),
            "queued": queued,
        }
    )
    return report


def assert_invariants(system: Any) -> InvariantReport:
    """Run :func:`check_invariants` and raise on any violation."""
    report = check_invariants(system)
    report.raise_if_failed()
    return report
