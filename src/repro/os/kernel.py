"""The kernel facade: memory management, syscalls, and the control plane.

One :class:`Kernel` instance models the OS of one simulated machine.  It
wires together the frame pool, page cache, LRU lists, file system, block
layer and fault handler, and implements the paper's OS support (§IV):

* the extended ``mmap()`` with the fast-mmap flag (LBA-augmenting PTEs and
  marking the file for block-remap propagation);
* metadata synchronisation for hardware-handled page misses (shared by
  kpted, ``msync``/``fsync`` and ``munmap``);
* free-page-queue refill (synchronous fallback and kpoold);
* page replacement that turns evicted fast-mmap pages back into
  LBA-augmented PTEs;
* fork-time reversion of LBA-augmented PTEs (§V).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.config import PagingMode, SystemConfig
from repro.cpu.core import CpuComplex
from repro.errors import IoError, KernelError, OutOfMemoryError
from repro.mem.address import PAGE_SHIFT
from repro.mem.physmem import FramePool
from repro.os.blockio import BlockIoStack
from repro.os.fault import PageFaultHandler
from repro.os.filesystem import File, FileSystem
from repro.os.lru import PageInfo
from repro.os.reclaim import ReclaimPolicy, create_reclaim_policy
from repro.os.page_cache import PageCache
from repro.os.process import ProcessContext
from repro.os.vma import MmapFlags, Vma
from repro.sim import Counter, Signal, Simulator
from repro.storage.nvme import NVMeDevice
from repro.vm.pte import (
    PFN_MASK,
    PFN_SHIFT,
    PRESENT_BIT,
    STATE_MASK,
    PteStatus,
    evict_to_lba,
    hw_install_frame,
    make_anon_lba_pte,
    make_lba_pte,
    make_present_pte,
    make_swap_pte,
    os_sync_metadata,
    pte_status,
    update_lba,
)

#: Kernel-time slices are charged in batches of this many pages.
_CHARGE_BATCH = 64
#: Cost to populate one PTE during fast mmap (control path, §IV-B).
_MMAP_POPULATE_PTE_NS = 45.0
#: Base cost of entering/leaving any syscall.
_SYSCALL_BASE_NS = 350.0
#: Per-page teardown cost in munmap (PTE clear + TLB shootdown share).
_UNMAP_PAGE_NS = 120.0
#: Per-page direct-reclaim cost (LRU scan, unmap, free).
_RECLAIM_PAGE_NS = 600.0
#: Write-queue throttle: a thread issuing a file write waits while this
#: many or more commands are in flight on the OS queue pair — every
#: in-flight command counts, reads and other threads' writes included
#: (models a bounded WAL buffer).
_WRITE_THROTTLE = 32


class Kernel:
    """The OS of one simulated machine."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        cpu_complex: CpuComplex,
        device: NVMeDevice,
        namespace_blocks: int = 1 << 24,
    ):
        self.sim = sim
        self.config = config
        self.mode = config.mode
        self.cpu_complex = cpu_complex
        self.device = device
        self.counters = Counter()
        self.shutdown = False
        #: Fired by allocation paths when free frames dip below the low
        #: watermark; kswapd sleeps on it.
        self.memory_pressure = Signal(sim, "memory-pressure")

        self.frame_pool = FramePool(config.memory)
        namespace = device.create_namespace(namespace_blocks)
        self.fs = FileSystem(namespace)
        self.fs.add_remap_hook(self._on_block_remap)
        self.page_cache = PageCache()
        #: Pluggable page-replacement policy (``"clock"`` by default).
        self.reclaim: ReclaimPolicy = create_reclaim_policy(
            config.control_plane.reclaim_policy
        )
        self.processes: List[ProcessContext] = []
        #: PFN → PageInfo for every frame the OS knows about.
        self._page_info: dict = {}

        self.blockio = BlockIoStack(sim, device)
        #: Isolated queue for the (software-emulated or hardware) SMU.
        self.smu_blockio: Optional[BlockIoStack] = None
        # Imported lazily: repro.core's package init reaches back into
        # repro.os, so a module-level import would be circular.
        from repro.core.free_page_queue import FreePageQueue

        self.free_page_queue: Optional[FreePageQueue] = None
        #: §V extension: per-logical-core free-page queues (None unless
        #: ``config.smu.per_core_free_queues`` is set).
        self.per_core_queues: Optional[dict] = None
        #: Swap space: a hidden file on the same namespace.  OSDP uses it
        #: with conventional swap PTEs; HWDP/SWDP with LBA-augmented PTEs
        #: (the §V anonymous-page extension).
        self.swap_file: Optional[File] = self.fs.create_file(
            "[swap]", max(256, config.memory.total_frames)
        )
        self._next_swap_page = 0
        if self.mode is not PagingMode.OSDP:
            depth = min(
                config.smu.free_page_queue_depth, config.memory.total_frames // 8
            )
            prefetch = config.smu.prefetch_buffer_entries
            if config.smu.per_core_free_queues:
                cores = cpu_complex.logical_cores
                per_depth = max(4, depth // len(cores))
                self.per_core_queues = {
                    core.core_id: FreePageQueue(per_depth, prefetch)
                    for core in cores
                }
            else:
                self.free_page_queue = FreePageQueue(depth, prefetch)
            if self.mode is PagingMode.SWDP:
                self.smu_blockio = BlockIoStack(sim, device)

        self.fault_handler = PageFaultHandler(self)
        for core in cpu_complex.logical_cores:
            core.mmu.fault_handler = self.fault_handler.handle

        #: The SMU (set by the system builder in HWDP mode).
        self.smu: Optional[Any] = None
        #: Fault injector (set by the system builder when the config
        #: carries a fault plan); consulted by the refill path for
        #: queue-starvation injection.
        self.fault_injector: Optional[Any] = None
        # Async writeback failures are latched against the backing file
        # (errseq_t-style) and reported at the next msync/fsync.
        self.blockio.on_write_error = self._note_write_error

    def _note_write_error(self, command: Any) -> None:
        self.counters.add("writeback.errors")
        if command.context is not None:
            command.context.note_write_error()

    # ==================================================================
    # page pinning
    # ==================================================================
    def pin_page(self, pfn: int) -> None:
        """Exempt a resident frame from reclaim (DMA target, kernel hold)."""
        page = self._page_info.get(pfn)
        if page is None:
            raise KernelError(f"cannot pin untracked PFN {pfn}")
        page.pinned = True

    def unpin_page(self, pfn: int) -> None:
        """Make a pinned frame reclaimable again."""
        page = self._page_info.get(pfn)
        if page is None:
            raise KernelError(f"cannot unpin untracked PFN {pfn}")
        page.pinned = False

    # ==================================================================
    # processes
    # ==================================================================
    def create_process(self, name: str = "proc") -> ProcessContext:
        process = ProcessContext(self, name)
        self.processes.append(process)
        return process

    # ==================================================================
    # frame allocation and reclaim
    # ==================================================================
    def alloc_frame(self, thread: Any) -> Generator[Any, Any, int]:
        """Allocate one frame in a fault path (charges the alloc phase).

        Pressure below the low watermark wakes kswapd (background reclaim);
        direct reclaim only runs when the pool is actually empty — the
        Linux division of labour.
        """
        yield from thread.kernel_phase(self.config.osdp_costs.page_alloc_ns, "page_alloc")
        if self.frame_pool.below_low_watermark:
            self.memory_pressure.fire()
        pfn = self.frame_pool.try_alloc()
        if pfn < 0:
            yield from self.direct_reclaim(thread)
            pfn = self.frame_pool.try_alloc()
            if pfn < 0:
                raise OutOfMemoryError("no reclaimable memory left")
        return pfn

    def direct_reclaim(self, thread: Any) -> Generator[Any, Any, int]:
        """Evict pages until the high watermark is met; charges kernel time."""
        target = self.config.memory.high_watermark - self.frame_pool.free_frames
        if target <= 0:
            return 0
        victims = self.reclaim.select_victims(target)
        for start in range(0, len(victims), _CHARGE_BATCH):
            batch = victims[start : start + _CHARGE_BATCH]
            for page in batch:
                self.evict_page(page)
            yield from thread.kernel_phase(
                _RECLAIM_PAGE_NS * len(batch), "direct_reclaim"
            )
        self.counters.add("reclaim.direct_pages", len(victims))
        return len(victims)

    def evict_page(self, page: PageInfo) -> None:
        """Unmap one LRU victim and free its frame.

        In non-OSDP modes a page of a fast-mmap VMA turns back into an
        LBA-augmented PTE (§IV-B eviction rule); otherwise the PTE is
        cleared like any dropped clean file page.
        """
        table = page.process.page_table
        vaddr = page.vaddr
        pfn = page.pfn
        file = page.file
        current = table.get_pte(vaddr)
        if not current & PRESENT_BIT or (current & PFN_MASK) >> PFN_SHIFT != pfn:
            raise KernelError(
                f"evicting PFN {pfn} but PTE({vaddr:#x}) does not map it"
            )
        if page.dirty and file is not None:
            # Writeback before drop (fire-and-forget; the device write
            # contends with reads, which is the behaviour that matters).
            lba = file.lba_of_page(page.file_page)
            self.blockio.submit_write(file.nsid, lba, pfn, file)
            self.counters.add("reclaim.writebacks")
            page.dirty = False
        if self.mode is not PagingMode.OSDP and page.vma.is_fastmap:
            if file is not None:
                lba = file.lba_of_page(page.file_page)
            else:
                # §V anonymous extension: swap the page out and record the
                # swap LBA so the SMU can fault it back in.
                swap_page = self._alloc_swap_page()
                lba = self.swap_file.lba_of_page(swap_page)
                self.blockio.submit_write(self.swap_file.nsid, lba, pfn, self.swap_file)
                self.counters.add("reclaim.anon_swapped")
            table.set_pte(vaddr, evict_to_lba(current, lba))
            self.counters.add("reclaim.lba_augmented")
        elif file is None:
            # Conventional anonymous swap-out: the swap offset (biased by
            # one so an empty PTE stays distinguishable) goes in the PTE.
            swap_page = self._alloc_swap_page()
            self.blockio.submit_write(
                self.swap_file.nsid,
                self.swap_file.lba_of_page(swap_page),
                pfn,
                self.swap_file,
            )
            table.set_pte(vaddr, make_swap_pte(swap_page + 1))
            self.counters.add("reclaim.anon_swapped")
        else:
            table.set_pte(vaddr, 0)
        # Unmap the rest of the reverse map (other VMAs mapping the frame).
        for other_process, other_vma, other_vaddr in page.extra_mappings:
            other_table = other_process.page_table
            if other_table.get_pte(other_vaddr) & PRESENT_BIT:
                if (
                    self.mode is not PagingMode.OSDP
                    and other_vma.is_fastmap
                    and other_vma.file is not None
                ):
                    lba = other_vma.file.lba_of_page(other_vma.file_page_of(other_vaddr))
                    other_table.set_pte(
                        other_vaddr,
                        evict_to_lba(other_table.get_pte(other_vaddr), lba),
                    )
                else:
                    other_table.set_pte(other_vaddr, 0)
            self.cpu_complex.tlb_shootdown(other_vaddr >> PAGE_SHIFT)
        page.extra_mappings.clear()
        if file is not None:
            self.page_cache.remove(file, page.file_page)
        self.cpu_complex.tlb_shootdown(vaddr >> PAGE_SHIFT)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note("kernel.page_info", "write")
        self._page_info.pop(pfn, None)
        self.frame_pool.free(pfn)
        self.counters.add("reclaim.evicted")

    # ==================================================================
    # page installation (fault paths and the SMU call these)
    # ==================================================================
    def install_resident_page(
        self, process: ProcessContext, vma: Vma, vaddr: int, pfn: int
    ) -> int:
        """Conventional install: present PTE + inline OS metadata update."""
        current = process.page_table.get_pte(vaddr)
        if current & PRESENT_BIT:
            # Lost a race (another path installed first): drop our frame.
            self.frame_pool.free(pfn)
            self.counters.add("install.lost_race")
            return (current & PFN_MASK) >> PFN_SHIFT
        process.page_table.set_pte(
            vaddr, make_present_pte(pfn, writable=vma.writable)
        )
        self._track_resident(process, vma, vaddr, pfn)
        sink = self.sim.trace
        if sink is not None:
            sink.instant("kernel.pte_install", vaddr=f"{vaddr:#x}", pfn=pfn)
        return pfn

    def map_cached_page(
        self, process: ProcessContext, vma: Vma, vaddr: int, pfn: int
    ) -> None:
        """Map an already-cached file page (minor fault).

        Registers the new mapping in the page's reverse map so eviction and
        teardown can find every PTE referencing the frame.
        """
        process.page_table.set_pte(
            vaddr, make_present_pte(pfn, writable=vma.writable)
        )
        page = self._page_info.get(pfn)
        if page is not None and (process, vma, vaddr) not in page.extra_mappings:
            page.extra_mappings.append((process, vma, vaddr))
        self.reclaim.touch(pfn)

    def hw_install_page(
        self, process: ProcessContext, vma: Vma, vaddr: int, walk: Any, pfn: int
    ) -> None:
        """SMU-style install: PRESENT+LBA PTE, upper bits set, *no* metadata.

        The OS metadata update is deferred to kpted (§IV-C).
        """
        installed = hw_install_frame(walk.pte, pfn)
        process.page_table.write_entry(walk.pte_addr, installed)
        process.page_table.mark_sync_pending(vaddr)
        self.counters.add("install.hw_pending")
        sink = self.sim.trace
        if sink is not None:
            sink.instant("kernel.hw_pte_install", vaddr=f"{vaddr:#x}", pfn=pfn)

    def sync_hw_page(self, process: ProcessContext, vaddr: int, pte_addr: int) -> bool:
        """One deferred metadata update (kpted / msync / munmap path)."""
        value = process.page_table.read_entry(pte_addr)
        if value & STATE_MASK != STATE_MASK:
            return False  # not RESIDENT_PENDING_SYNC: already synced or gone
        vma = process.find_vma(vaddr)
        if vma is None:
            raise KernelError(f"pending-sync PTE at {vaddr:#x} has no VMA")
        process.page_table.write_entry(pte_addr, os_sync_metadata(value))
        self._track_resident(process, vma, vaddr, (value & PFN_MASK) >> PFN_SHIFT)
        self.counters.add("sync.pages")
        return True

    def _track_resident(
        self, process: ProcessContext, vma: Vma, vaddr: int, pfn: int
    ) -> None:
        file = vma.file
        file_page = vma.file_page_of(vaddr) if file is not None else None
        page = PageInfo(pfn, process, vma, vaddr, file, file_page)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note("kernel.page_info", "write")
        self.reclaim.insert(page)
        self._page_info[pfn] = page
        if file is not None:
            self.page_cache.insert(file, file_page, pfn)

    def _alloc_swap_page(self) -> int:
        """Bump-allocate one swap page (the model never recycles slots;
        long runs are bounded by swap-file size, a documented scale limit)."""
        if self.swap_file is None:
            raise KernelError("no swap space configured (OSDP mode)")
        page = self._next_swap_page
        if page >= self.swap_file.num_pages:
            raise OutOfMemoryError("swap space exhausted")
        self._next_swap_page += 1
        return page

    # ==================================================================
    # free-page-queue topology (§V per-core extension)
    # ==================================================================
    def free_queue_for(self, core_id: int):
        """The free-page queue serving ``core_id`` (global unless the
        per-core extension is enabled); None in OSDP mode."""
        if self.per_core_queues is not None:
            queue = self.per_core_queues.get(core_id)
            if queue is None:
                raise KernelError(f"no free-page queue for core {core_id}")
            return queue
        return self.free_page_queue

    def iter_free_queues(self):
        """All free-page queues (one, or one per logical core)."""
        if self.per_core_queues is not None:
            return list(self.per_core_queues.values())
        return [self.free_page_queue] if self.free_page_queue is not None else []

    def nsid_for_vma(self, vma: Vma) -> int:
        """Namespace backing a VMA's misses (its file, or swap for anon)."""
        if vma.file is not None:
            return vma.file.nsid
        if self.swap_file is None:
            raise KernelError("anonymous fast paging needs swap space")
        return self.swap_file.nsid

    # ==================================================================
    # access-bit sampling (called from ThreadContext.mem_access)
    # ==================================================================
    def note_access(self, pfn: int, is_write: bool) -> None:
        self.reclaim.touch(pfn)
        if is_write:
            page = self._page_info.get(pfn)
            if page is not None:
                page.dirty = True

    # ==================================================================
    # free-page-queue refill (§IV-D)
    # ==================================================================
    def refill_free_page_queue(
        self, thread: Any, reason: str = "sync", core_id: Optional[int] = None
    ) -> Generator[Any, Any, int]:
        """Top up the SMU's free-page queue(s); charges per-page cost.

        ``core_id`` narrows a synchronous refill to the faulting core's
        queue under the §V per-core extension; kpoold passes None and
        services every queue.
        """
        if self.fault_injector is not None and self.fault_injector.starving(
            self.sim.now
        ):
            # Injected queue starvation: the refill silently does nothing,
            # driving the hardware path into its queue-empty fallback.
            self.counters.add("refill.starved")
            return 0
        if core_id is not None and self.per_core_queues is not None:
            queues = [self.free_queue_for(core_id)]
        else:
            queues = self.iter_free_queues()
        if not queues:
            return 0
        batch_limit = self.config.control_plane.kpoold_refill_batch
        refilled_total = 0
        for queue in queues:
            want = min(queue.space, batch_limit)
            if want <= 0:
                continue
            if self.frame_pool.free_frames - want < self.config.memory.low_watermark:
                # Ask kswapd for background reclaim next time, but restock
                # synchronously now — the queue must not starve the SMU.
                self.memory_pressure.fire()
                yield from self.direct_reclaim(thread)
            available = max(
                0, self.frame_pool.free_frames - self.config.memory.low_watermark
            )
            take = min(want, available)
            if take <= 0:
                continue
            frames = self.frame_pool.alloc_batch(take)
            accepted = queue.refill(frames)
            if accepted < len(frames):
                # ``want`` was computed before reclaim/charging yielded the
                # CPU; a concurrent refill (kpoold vs sync fallback) may
                # have filled the queue meanwhile and ``refill`` is bounded
                # — return the rejected frames instead of leaking them.
                for pfn in frames[accepted:]:
                    self.frame_pool.free(pfn)
                self.counters.add("refill.overflow_returned", len(frames) - accepted)
            yield from thread.kernel_phase(
                self.config.control_plane.kpoold_page_refill_ns * len(frames),
                f"refill_{reason}",
            )
            refilled_total += accepted
        if refilled_total:
            self.counters.add(f"refill.{reason}_pages", refilled_total)
            sink = self.sim.trace
            if sink is not None:
                sink.instant("kernel.queue_refill", reason=reason, pages=refilled_total)
        return refilled_total

    # ==================================================================
    # syscalls
    # ==================================================================
    def sys_mmap(
        self,
        thread: Any,
        file: Optional[File],
        num_pages: int,
        flags: MmapFlags = MmapFlags.NONE,
        file_page_offset: int = 0,
        writable: bool = True,
    ) -> Generator[Any, Any, Vma]:
        """``mmap()`` with the paper's fast-mmap extension (§IV-B)."""
        process = thread.process
        if file is not None and file_page_offset + num_pages > file.num_pages:
            raise KernelError(
                f"mmap beyond EOF of {file.name!r}: "
                f"{file_page_offset}+{num_pages} > {file.num_pages}"
            )
        yield from thread.kernel_phase(_SYSCALL_BASE_NS, "mmap")
        start = process.layout.place(num_pages << PAGE_SHIFT)
        vma = Vma(
            start=start,
            num_pages=num_pages,
            file=file,
            file_page_offset=file_page_offset,
            flags=flags,
            writable=writable,
        )
        process.layout.insert(vma)

        if (
            flags & MmapFlags.FASTMAP
            and file is None
            and self.mode is not PagingMode.OSDP
        ):
            # §V anonymous extension: populate every PTE with the reserved
            # first-touch constant so the SMU zero-fills without I/O.
            for begin in range(0, num_pages, _CHARGE_BATCH * 8):
                count = min(_CHARGE_BATCH * 8, num_pages - begin)
                for index in range(begin, begin + count):
                    process.page_table.set_pte(
                        start + (index << PAGE_SHIFT),
                        make_anon_lba_pte(writable=writable),
                    )
                yield from thread.kernel_phase(
                    _MMAP_POPULATE_PTE_NS * count, "mmap_populate"
                )
            self.counters.add("mmap.anon_fastmap_areas")

        fastmap_active = (
            bool(flags & MmapFlags.FASTMAP)
            and file is not None
            and self.mode is not PagingMode.OSDP
        )
        if fastmap_active:
            file.fastmap_marked = True
            # Populate every PTE with either the cached frame or the LBA —
            # the whole-table population the paper discusses (0.2 % space).
            pages = list(range(num_pages))
            for begin in range(0, num_pages, _CHARGE_BATCH * 8):
                chunk = pages[begin : begin + _CHARGE_BATCH * 8]
                for index in chunk:
                    vaddr = start + (index << PAGE_SHIFT)
                    file_page = file_page_offset + index
                    cached = self.page_cache.lookup(file, file_page)
                    if cached is not None:
                        process.page_table.set_pte(
                            vaddr, make_present_pte(cached, writable=writable)
                        )
                        self.reclaim.touch(cached)
                    else:
                        lba = file.lba_of_page(file_page)
                        process.page_table.set_pte(
                            vaddr, make_lba_pte(lba, writable=writable)
                        )
                yield from thread.kernel_phase(
                    _MMAP_POPULATE_PTE_NS * len(chunk), "mmap_populate"
                )
            self.counters.add("mmap.fastmap_areas")

        if flags & MmapFlags.POPULATE:
            yield from self._populate(thread, vma)
        return vma

    def _populate(self, thread: Any, vma: Vma) -> Generator[Any, Any, None]:
        """MAP_POPULATE: preload every page (warm start for the Fig 4 ideal).

        Bulk-loaded without per-page device time — the experiments use it
        only to build a fully warm baseline, not on any measured path.
        """
        for begin in range(0, vma.num_pages, _CHARGE_BATCH * 4):
            count = min(_CHARGE_BATCH * 4, vma.num_pages - begin)
            for index in range(begin, begin + count):
                vaddr = vma.start + (index << PAGE_SHIFT)
                if thread.process.page_table.get_pte(vaddr) & PRESENT_BIT:
                    continue
                if vma.file is not None:
                    cached = self.page_cache.lookup(vma.file, vma.file_page_of(vaddr))
                    if cached is not None:
                        self.map_cached_page(thread.process, vma, vaddr, cached)
                        continue
                pfn = self.frame_pool.try_alloc()
                if pfn < 0:
                    raise OutOfMemoryError(
                        "MAP_POPULATE dataset does not fit in memory"
                    )
                self.install_resident_page(thread.process, vma, vaddr, pfn)
            yield from thread.kernel_phase(150.0 * count, "populate")
        self.counters.add("mmap.populated_pages", vma.num_pages)

    def sys_munmap(self, thread: Any, vma: Vma) -> Generator[Any, Any, None]:
        """``munmap()``: SMU barrier, metadata sync, then teardown (§IV-C)."""
        process = thread.process
        yield from thread.kernel_phase(_SYSCALL_BASE_NS, "munmap")
        if self.smu is not None:
            yield from self.smu.barrier(process)
        yield from self._sync_vma(thread, vma)
        pages = list(vma.pages())
        for begin in range(0, len(pages), _CHARGE_BATCH):
            chunk = pages[begin : begin + _CHARGE_BATCH]
            for vpn in chunk:
                self._teardown_page(process, vma, vpn << PAGE_SHIFT)
            yield from thread.kernel_phase(_UNMAP_PAGE_NS * len(chunk), "unmap")
        process.layout.remove(vma)

    def sys_msync(self, thread: Any, vma: Vma) -> Generator[Any, Any, int]:
        """``msync()``/``fsync()``: synchronise deferred metadata first (§IV-C)."""
        yield from thread.kernel_phase(_SYSCALL_BASE_NS, "msync")
        synced = yield from self._sync_vma(thread, vma)
        if vma.file is not None and vma.file.consume_write_error():
            # A writeback of this file failed since the last sync point;
            # report it exactly once (Linux errseq_t semantics).
            self.counters.add("msync.io_errors")
            raise IoError(
                f"{thread.name}: msync of {vma.file.name!r} reports an "
                "earlier writeback error (EIO)"
            )
        return synced

    def _sync_vma(self, thread: Any, vma: Vma) -> Generator[Any, Any, int]:
        process = thread.process
        synced = 0
        pages = list(vma.pages())
        for begin in range(0, len(pages), _CHARGE_BATCH):
            chunk = pages[begin : begin + _CHARGE_BATCH]
            updated = 0
            for vpn in chunk:
                vaddr = vpn << PAGE_SHIFT
                walk = process.page_table.walk(vaddr)
                if not walk.complete:
                    continue
                if pte_status(walk.pte) is PteStatus.RESIDENT_PENDING_SYNC:
                    if self.sync_hw_page(process, vaddr, walk.pte_addr):
                        updated += 1
            if updated:
                yield from thread.kernel_phase(
                    self.config.osdp_costs.metadata_update_ns
                    * self.config.control_plane.kpted_batch_factor
                    * updated,
                    "msync_update",
                )
            synced += updated
        return synced

    def _teardown_page(self, process: ProcessContext, vma: Vma, vaddr: int) -> None:
        previous = process.page_table.clear_pte(vaddr)
        if not previous & PRESENT_BIT:
            return
        pfn = (previous & PFN_MASK) >> PFN_SHIFT
        self.cpu_complex.tlb_shootdown(vaddr >> PAGE_SHIFT)
        page = self._page_info.get(pfn)
        if page is not None and page.mapcount > 1:
            # Shared frame: drop just this mapping from the reverse map.
            mapping = (process, vma, vaddr)
            if mapping in page.extra_mappings:
                page.extra_mappings.remove(mapping)
            else:
                # The primary mapping went away: promote an extra.
                page.process, page.vma, page.vaddr = page.extra_mappings.pop(0)
                page.file_page = (
                    page.vma.file_page_of(page.vaddr)
                    if page.vma.file is not None
                    else None
                )
            return
        if page is not None:
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.note("kernel.page_info", "write")
            self._page_info.pop(pfn, None)
            self.reclaim.remove(pfn)
            if page.file is not None:
                self.page_cache.remove(page.file, page.file_page)
        self.frame_pool.free(pfn)

    def sys_fork(self, thread: Any) -> Generator[Any, Any, ProcessContext]:
        """fork(): reverts LBA-augmented PTEs in the parent (§V)."""
        yield from thread.kernel_phase(_SYSCALL_BASE_NS * 4, "fork")
        child = thread.process.fork()
        self.processes.append(child)
        self.counters.add("fork.count")
        return child

    # ==================================================================
    # file write path (WAL/flush traffic of the KV store)
    # ==================================================================
    def file_write(
        self, thread: Any, file: File, page_index: int
    ) -> Generator[Any, Any, None]:
        """Append-style 4 KB file write (WAL): async submit with throttle."""
        yield from thread.kernel_phase(_SYSCALL_BASE_NS, "write_syscall")
        while self.blockio.inflight >= _WRITE_THROTTLE:
            # Bounded write buffer: wait for the oldest write to land.
            yield from thread.stall(self.config.device.write_latency_ns / 4)
        lba = file.lba_of_page(page_index % file.num_pages)
        self.blockio.submit_write(file.nsid, lba, 0, file)
        self.counters.add("write.submitted")

    # ==================================================================
    # block-remap hook (§IV-B)
    # ==================================================================
    def _on_block_remap(self, file: File, page_index: int, old_lba: int, new_lba: int) -> None:
        """File system moved a block: update LBA-augmented PTEs in place."""
        for process in self.processes:
            for vma in process.layout.fastmap_vmas():
                if vma.file is not file:
                    continue
                if not (
                    vma.file_page_offset
                    <= page_index
                    < vma.file_page_offset + vma.num_pages
                ):
                    continue
                vaddr = vma.vaddr_of_file_page(page_index)
                value = process.page_table.get_pte(vaddr)
                if pte_status(value) is PteStatus.NON_RESIDENT_HW:
                    process.page_table.set_pte(vaddr, update_lba(value, new_lba))
                    self.counters.add("remap.pte_updates")

    # ==================================================================
    def stop(self) -> None:
        """Signal kernel daemons to exit at their next wake-up."""
        self.shutdown = True
        # kswapd sleeps on the pressure signal; nudge it so it observes
        # the shutdown flag and terminates.
        self.memory_pressure.fire()
