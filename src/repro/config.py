"""System configuration and calibrated timing constants.

Every latency number the model uses lives here, with its provenance:

* **OSDP page-fault phase costs** come from Figure 3 of the paper (each
  phase expressed there as a fraction of the Z-SSD device time) cross-checked
  against Figure 11(a)'s before/after-device deltas (−2.38 µs / −6.16 µs).
* **SMU hardware timings** come from Figure 11(b): register writes, PMSHR
  CAM lookup, NVMe command memory write (77.16 ns), PCIe doorbell (1.60 ns),
  and the 97-cycle PTE/PMD/PUD update.
* **Device times** come from Figure 17: 4 KB read device time of 10.9 µs
  (Z-SSD), ~6.5 µs (Optane SSD), 2.1 µs (Optane DC PMM).
* **SW-only (software-emulated SMU) costs** are back-solved from Figure 17's
  normalized latencies (HWDP is 14 % lower on Z-SSD and 44 % lower on Optane
  DC PMM), which pins the SW-only software overhead at ≈ 1.9 µs per fault.

The CPU matches Table II: Intel Xeon E5-2640 v3 — 2.8 GHz, 8 physical cores,
2-way SMT.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> errors only)
    from repro.faults.plan import FaultPlan

#: Bytes per page — the paper targets 4 KB pages throughout.
PAGE_SIZE = 4096
#: Bytes per logical block (NVMe LBA granularity); one page = 8 blocks.
BLOCK_SIZE = 512
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE


class PagingMode(Enum):
    """Which demand-paging implementation a simulated machine runs."""

    #: Conventional OS-based demand paging (vanilla-kernel baseline).
    OSDP = "osdp"
    #: Software-only SMU emulation inside the fault handler (paper §VI-A).
    SWDP = "swdp"
    #: Hardware-based demand paging with MMU extension + SMU (the proposal).
    HWDP = "hwdp"


# ----------------------------------------------------------------------
# CPU
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CpuConfig:
    """Core count, frequency and the behavioural IPC/pollution model.

    The pollution model follows the paper's observation (§II-B, Fig 4/14)
    that page-fault handling pollutes caches and branch predictors, lowering
    user-level IPC by several percent.  We carry a per-logical-core pollution
    scalar ``p ∈ [0, 1]``:

    * every kernel instruction executed on the core raises ``p`` toward 1 at
      rate ``1/pollution_saturation_instr``;
    * every user instruction decays ``p`` toward 0 at rate
      ``1/pollution_decay_instr``;
    * effective user IPC = ``base_user_ipc · (1 − pollution_ipc_penalty·p)``
      and user-level miss rates scale as ``base · (1 + sensitivity·p)``.
    """

    freq_ghz: float = 2.8
    physical_cores: int = 8
    smt_ways: int = 2
    #: User-level IPC of an unpolluted core running the test workloads.
    base_user_ipc: float = 2.0
    #: Kernel code has lower ILP; used to convert phase latencies to
    #: retired-instruction counts for Fig 15.
    kernel_ipc: float = 0.8
    #: Per-thread throughput multiplier when the SMT sibling is actively
    #: issuing (two active hyperthreads each get ~62 % of solo throughput).
    smt_share_factor: float = 0.62
    #: Kernel instructions needed to drive pollution to saturation.
    pollution_saturation_instr: float = 40_000.0
    #: User instructions over which pollution decays by 1/e.  Refilling
    #: caches and re-training a branch predictor takes on the order of a
    #: million instructions; the value is calibrated (with the penalty
    #: below) to the ~7 % steady-state user-IPC delta of Figure 14.
    pollution_decay_instr: float = 1_200_000.0
    #: Max fractional user-IPC loss at full pollution (calibrated to the
    #: ~7 % user-IPC delta of Fig 14).
    pollution_ipc_penalty: float = 0.12
    #: Baseline user-level miss rates per kilo-instruction and their
    #: sensitivity to pollution, used for the Fig 4/14 miss-event bars.
    miss_rates_per_kinstr: Dict[str, float] = field(
        default_factory=lambda: {
            "l1d_miss": 18.0,
            "l2_miss": 7.0,
            "llc_miss": 2.5,
            "branch_miss": 5.0,
        }
    )
    miss_pollution_sensitivity: Dict[str, float] = field(
        default_factory=lambda: {
            "l1d_miss": 0.55,
            "l2_miss": 0.75,
            "llc_miss": 0.9,
            "branch_miss": 0.65,
        }
    )

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ConfigError("freq_ghz must be positive")
        if self.physical_cores < 1 or self.smt_ways < 1:
            raise ConfigError("need at least one core and one SMT way")
        if not 0 < self.smt_share_factor <= 1:
            raise ConfigError("smt_share_factor must be in (0, 1]")

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.freq_ghz

    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.freq_ghz

    def kernel_ns_to_instructions(self, ns: float) -> float:
        """Retired kernel instructions for a kernel phase of ``ns`` length."""
        return self.ns_to_cycles(ns) * self.kernel_ipc

    @property
    def logical_cores(self) -> int:
        return self.physical_cores * self.smt_ways


# ----------------------------------------------------------------------
# Storage devices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceConfig:
    """An NVMe storage device's service model.

    ``read_latency_ns`` is the 4 KB *device time* (SQ doorbell to CQ write)
    exactly as the paper defines it.  ``parallel_ops`` bounds device-internal
    concurrency; beyond it, requests queue.  ``write_interference`` inflates
    read service time proportionally to the fraction of device slots busy
    with writes — the mechanism behind the paper's observation that YCSB's
    writes raise read latency and shrink HWDP's relative gain (§VI-C).
    """

    name: str = "z-ssd"
    read_latency_ns: float = 10_900.0
    write_latency_ns: float = 14_000.0
    parallel_ops: int = 6
    #: Lognormal sigma of service-time variation (ultra-low-latency devices
    #: are tight; Z-NAND read variation is small).
    latency_sigma: float = 0.03
    #: Fractional read-latency inflation per unit write occupancy.
    write_interference: float = 1.6
    #: NVMe queue pair count limit (the protocol allows 64 Ki).
    max_queue_pairs: int = 65536

    def __post_init__(self) -> None:
        if self.read_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise ConfigError("device latencies must be positive")
        if self.parallel_ops < 1:
            raise ConfigError("parallel_ops must be >= 1")


#: Samsung SZ985 Z-SSD (Table II; Fig 17 reports its 10.9 µs 4 KB read).
#: Write latency reflects the host-visible latency of its DRAM-buffered
#: Z-NAND writes; with 6 device slots this yields ~3.5 GB/s write bandwidth,
#: in line with the product brief.
ZSSD = DeviceConfig(
    name="z-ssd",
    read_latency_ns=10_900.0,
    write_latency_ns=7_000.0,
    parallel_ops=6,
)
#: Intel Optane SSD DC P4800X-class (Fig 17 middle bar).
OPTANE_SSD = DeviceConfig(
    name="optane-ssd", read_latency_ns=6_500.0, write_latency_ns=7_000.0, latency_sigma=0.02
)
#: Intel Optane DC PMM in App-Direct used as a block device (Fig 17: 2.1 µs).
OPTANE_PMM = DeviceConfig(
    name="optane-pmm",
    read_latency_ns=2_100.0,
    write_latency_ns=2_600.0,
    parallel_ops=8,
    latency_sigma=0.01,
    write_interference=0.6,
)

DEVICE_PRESETS: Dict[str, DeviceConfig] = {
    "z-ssd": ZSSD,
    "optane-ssd": OPTANE_SSD,
    "optane-pmm": OPTANE_PMM,
}


# ----------------------------------------------------------------------
# OSDP fault-path costs (Figure 3 / Figure 11a)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OsdpCosts:
    """Per-phase CPU costs of one OS-handled page fault, in nanoseconds.

    The *critical path* is::

        exception_walk → handler_entry → page_alloc → io_submit
          → [device I/O] → interrupt_delivery → io_completion
          → context_switch_in → metadata_update → pte_update_return

    ``context_switch_out`` happens after I/O submission and overlaps the
    device time, so it consumes CPU cycles (and pollutes) but adds no
    latency unless the machine is otherwise idle.

    Defaults reproduce Figure 3's fractions on the 10.9 µs Z-SSD:
    before-device ≈ 2.37 µs, after-device ≈ 6.19 µs, total overhead ≈ 78 %
    of device time (paper: 76.3 %).
    """

    #: Exception raise + page-table walk (2.45 % of device time).
    exception_walk_ns: float = 267.0
    #: Fault-handler entry, VMA lookup, page-cache probe.
    handler_entry_ns: float = 250.0
    #: Page-frame allocation from the buddy/per-cpu allocator.
    page_alloc_ns: float = 780.0
    #: File-system + block layer + NVMe driver submission (9.85 %).
    io_submit_ns: float = 1_074.0
    #: Context switch away after submission (9.85 %) — overlapped.
    context_switch_out_ns: float = 1_074.0
    #: Interrupt delivery (2.5 %).
    interrupt_delivery_ns: float = 273.0
    #: Block-layer completion + page-cache insertion + wakeup (20.6 %).
    io_completion_ns: float = 2_245.0
    #: Scheduling the faulting thread back in.
    context_switch_in_ns: float = 1_074.0
    #: LRU insertion, rmap, accounting.
    metadata_update_ns: float = 2_300.0
    #: PTE write, TLB fill, return-from-exception.
    pte_update_return_ns: float = 300.0

    @property
    def before_device_ns(self) -> float:
        """Critical-path CPU time before the device I/O starts."""
        return (
            self.exception_walk_ns
            + self.handler_entry_ns
            + self.page_alloc_ns
            + self.io_submit_ns
        )

    @property
    def after_device_ns(self) -> float:
        """Critical-path CPU time after the device CQ write."""
        return (
            self.interrupt_delivery_ns
            + self.io_completion_ns
            + self.context_switch_in_ns
            + self.metadata_update_ns
            + self.pte_update_return_ns
        )

    @property
    def critical_path_ns(self) -> float:
        return self.before_device_ns + self.after_device_ns

    @property
    def total_cpu_ns(self) -> float:
        """All CPU time consumed per fault, including overlapped switch-out."""
        return self.critical_path_ns + self.context_switch_out_ns

    def phase_table(self) -> Dict[str, float]:
        """Ordered phase → ns mapping (for the Fig 3 / Fig 11a benches)."""
        return {
            "exception_walk": self.exception_walk_ns,
            "handler_entry": self.handler_entry_ns,
            "page_alloc": self.page_alloc_ns,
            "io_submit": self.io_submit_ns,
            "context_switch_out": self.context_switch_out_ns,
            "interrupt_delivery": self.interrupt_delivery_ns,
            "io_completion": self.io_completion_ns,
            "context_switch_in": self.context_switch_in_ns,
            "metadata_update": self.metadata_update_ns,
            "pte_update_return": self.pte_update_return_ns,
        }


# ----------------------------------------------------------------------
# SW-only SMU emulation costs (paper §VI-A, Figure 17)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SwdpCosts:
    """Costs of the paper's software-emulated SMU fault path.

    The kernel still takes the exception, but an early LBA-bit check jumps
    to an SMU-emulation routine: PMSHR table ops, direct NVMe command
    construction, mwait-based completion polling — no block layer, no
    context switch, no interrupt-driven completion.

    ``before + after + exception ≈ 1.9 µs`` reproduces Figure 17 (14 % HWDP
    advantage at 10.9 µs device time, 44 % at 2.1 µs).

    ``contention_ns_per_outstanding`` models the cache-line contention of
    the memory-resident PMSHR table the paper reports for ≥4 threads
    (§VI-C, "limitation of our software-based model").
    """

    exception_walk_ns: float = 267.0
    #: PMSHR-table lookup/insert + NVMe command build + doorbell.
    emu_submit_ns: float = 680.0
    #: mwait wake, completion protocol, PTE update, PMSHR release, return.
    emu_complete_ns: float = 950.0
    contention_ns_per_outstanding: float = 260.0

    @property
    def before_device_ns(self) -> float:
        return self.exception_walk_ns + self.emu_submit_ns

    @property
    def after_device_ns(self) -> float:
        return self.emu_complete_ns

    @property
    def critical_path_ns(self) -> float:
        return self.before_device_ns + self.after_device_ns


# ----------------------------------------------------------------------
# SMU hardware timing (Figure 11b) and sizing (§III-C, §VI-D)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SmuConfig:
    """SMU sizing and hardware-path timing.

    Timing values are straight from Figure 11(b); sizes from §III-C and the
    area discussion in §VI-D (32 PMSHR entries of 300 bits, eight 352-bit
    NVMe descriptor register sets, a 16-entry free-page prefetch buffer).
    """

    # -- sizing ---------------------------------------------------------
    pmshr_entries: int = 32
    prefetch_buffer_entries: int = 16
    devices_per_smu: int = 8
    #: Depth of the memory-resident free-page queue (paper §VI-C uses 4096
    #: frames = 16 MB; experiments scale this with memory size).
    free_page_queue_depth: int = 4096
    #: Submission-queue depth of each SMU-owned NVMe queue pair.  When the
    #: queue is full the host controller applies backpressure (the issuing
    #: miss waits for a slot) rather than failing the submission.
    sq_depth: int = 1024

    # -- Figure 11(b) timings --------------------------------------------
    #: MMU→SMU request: two register writes.
    request_reg_write_cycles: int = 2
    #: PMSHR CAM lookup.
    cam_lookup_cycles: int = 5
    #: Writing the 64-byte NVMe command to the SQ in memory.
    nvme_command_write_ns: float = 77.16
    #: Ringing a PCIe doorbell register.
    doorbell_write_ns: float = 1.60
    #: Memory read for a free-page-queue entry when the prefetch buffer is
    #: cold (hidden during device time otherwise).
    free_page_fetch_ns: float = 90.0
    #: Completion-unit protocol handling after snooping the CQ write.
    completion_unit_cycles: int = 2
    #: Reading+writing PTE, PMD and PUD entries (three LLC round trips).
    entry_update_cycles: int = 97
    #: Broadcasting completion to cores / resuming the walk.
    notify_cycles: int = 2

    # -- §V extensions (off by default; the paper leaves them as future
    # -- work / discussion items) ----------------------------------------
    #: Zero-fill time for a first-touch anonymous page (DMA-engine memset
    #: of 4 KB); used when the reserved LBA constant bypasses I/O.
    anon_zero_fill_ns: float = 200.0
    #: When set, a hardware miss outstanding longer than this raises a
    #: timeout exception and the OS context-switches the thread out (§V
    #: "Long Latency I/O").  None disables the timeout.
    long_io_timeout_ns: Optional[float] = None
    #: Sequential-stream readahead degree (§V "Prefetching Support"):
    #: after two consecutive misses on adjacent PTEs, prefetch this many
    #: subsequent pages.  0 disables readahead (the paper's design point).
    readahead_degree: int = 0
    #: Which prefetch policy drives the SMU readahead block (registered in
    #: :mod:`repro.core.prefetcher`): ``"sequential"`` (default, the
    #: ascending-stream detector), ``"stride"`` (direction-aware strides)
    #: or ``"markov"`` (miss-stream successor prediction).  Validated when
    #: the SMU is built; inert while ``readahead_degree`` is 0.
    prefetcher: str = "sequential"
    #: Per-core free-page queues (§V "Enforcing OS-level Resource
    #: Management Policy"): instead of one global architectural queue, each
    #: logical core gets its own, letting the OS apply per-thread memory
    #: policy (NUMA, cgroups, page colouring) to the frames it supplies.
    per_core_free_queues: bool = False

    # -- PMSHR entry layout (for the area model, §VI-D) -------------------
    pmshr_entry_bits: int = 300  # three 64-bit addrs + 64-bit PFN + 41-bit LBA + 3-bit dev
    nvme_descriptor_bits: int = 352
    prefetch_entry_bits: int = 116  # <PFN (52), DMA address (64)> pair

    def __post_init__(self) -> None:
        if self.pmshr_entries < 1:
            raise ConfigError("pmshr_entries must be >= 1")
        if self.free_page_queue_depth < 1:
            raise ConfigError("free_page_queue_depth must be >= 1")
        if not 1 <= self.devices_per_smu <= 8:
            raise ConfigError("devices_per_smu must be in [1, 8] (3-bit device ID)")
        if self.sq_depth < 1:
            raise ConfigError("sq_depth must be >= 1")

    def before_device_ns(self, cpu: CpuConfig) -> float:
        """Hardware critical path from miss detection to SQ doorbell."""
        cycles = self.request_reg_write_cycles + self.cam_lookup_cycles
        return (
            cpu.cycles_to_ns(cycles)
            + self.nvme_command_write_ns
            + self.doorbell_write_ns
        )

    def after_device_ns(self, cpu: CpuConfig) -> float:
        """Hardware critical path from CQ snoop to walk resumption."""
        cycles = (
            self.completion_unit_cycles + self.entry_update_cycles + self.notify_cycles
        )
        return cpu.cycles_to_ns(cycles) + self.doorbell_write_ns


# ----------------------------------------------------------------------
# OS control-plane parameters (§IV)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ControlPlaneConfig:
    """Parameters of the OS support: kpted, kpoold, and batching costs."""

    #: kpted scan period (paper: 1 s).
    kpted_period_ns: float = 1_000_000_000.0
    #: kpoold refill period (paper: 4 ms).
    kpoold_period_ns: float = 4_000_000.0
    #: Whether kpoold runs at all (ablation §IV-D).
    kpoold_enabled: bool = True
    #: Per-PTE metadata-update cost when batched by kpted, as a fraction of
    #: the inline OSDP ``metadata_update_ns`` (batching amortises locking
    #: and cache misses; Fig 15 shows kpted cycles shrink via batching).
    kpted_batch_factor: float = 0.75
    #: Cost to visit one upper-level (PUD/PMD) entry during the kpted scan.
    kpted_scan_entry_ns: float = 60.0
    #: Per-page cost for kpoold to allocate+enqueue one free page.
    kpoold_page_refill_ns: float = 420.0
    #: Pages refilled per kpoold wake-up batch.
    kpoold_refill_batch: int = 512
    #: Background reclaim daemon (vanilla-Linux behaviour, all modes): it
    #: wakes on memory-pressure signals and reclaims to the high watermark
    #: so fault paths rarely pay direct-reclaim cost.
    kswapd_enabled: bool = True
    #: Per-page reclaim cost in kswapd (same work as direct reclaim).
    kswapd_page_reclaim_ns: float = 600.0
    #: Page-replacement policy (registered in :mod:`repro.os.reclaim`):
    #: ``"clock"`` (default two-list clock, §IV-C), ``"second-chance"``,
    #: ``"lru2"``, ``"arc"`` or ``"happy"``.  Validated when the kernel is
    #: built (config cannot import the OS layer).
    reclaim_policy: str = "clock"

    def __post_init__(self) -> None:
        # A daemon re-arms its period forever: a zero period would freeze
        # the clock and a negative one would fail only once simulated.
        if self.kpted_period_ns <= 0:
            raise ConfigError("kpted_period_ns must be positive")
        if self.kpoold_period_ns <= 0:
            raise ConfigError("kpoold_period_ns must be positive")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryConfig:
    """Physical-memory sizing (scaled down from Table II's 32 GB)."""

    total_frames: int = 16_384  # 64 MB of 4 KB frames at default scale
    #: Reclaim begins when free frames drop below this fraction.
    low_watermark_frac: float = 0.06
    #: Reclaim tops up to this fraction.
    high_watermark_frac: float = 0.12

    def __post_init__(self) -> None:
        if self.total_frames < 64:
            raise ConfigError("need at least 64 frames")
        if not 0 < self.low_watermark_frac < self.high_watermark_frac < 1:
            raise ConfigError("watermarks must satisfy 0 < low < high < 1")

    @property
    def low_watermark(self) -> int:
        return max(8, int(self.total_frames * self.low_watermark_frac))

    @property
    def high_watermark(self) -> int:
        return max(16, int(self.total_frames * self.high_watermark_frac))


# ----------------------------------------------------------------------
# Error-path policy (retry budgets and backoff)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """How each paging path reacts to storage errors.

    Both paths retry a failed page-in read a bounded number of times with
    linear backoff before giving up.  The SMU's giving-up action is to
    release the PMSHR entry unfilled and fail the miss back to the OS
    fault handler — the same fallback route as a dry free-page queue
    (§IV-D) — while the OS path delivers the failure to the faulting
    thread as :class:`repro.errors.IoError` (the SIGBUS analogue).
    """

    #: Additional read attempts the SMU completion unit makes (0 = none).
    smu_io_retries: int = 2
    #: Linear backoff between SMU attempts: attempt ``k`` waits ``k`` times this.
    smu_retry_backoff_ns: float = 500.0
    #: Additional read attempts the OS fault handler makes.
    os_io_retries: int = 2
    #: Linear backoff between OS attempts.
    os_retry_backoff_ns: float = 2_000.0

    def __post_init__(self) -> None:
        if self.smu_io_retries < 0 or self.os_io_retries < 0:
            raise ConfigError("retry counts must be >= 0")
        if self.smu_retry_backoff_ns < 0 or self.os_retry_backoff_ns < 0:
            raise ConfigError("retry backoffs must be >= 0")


# ----------------------------------------------------------------------
# Top-level system configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated machine."""

    mode: PagingMode = PagingMode.OSDP
    #: Number of sockets, each with its own SMU in HWDP mode (the 3-bit
    #: socket-ID field of the LBA-augmented PTE routes a miss to its home
    #: SMU, §III-B).  The model keeps memory and cores uniform; sockets
    #: only multiply SMUs and their device attachment points.
    sockets: int = 1
    cpu: CpuConfig = field(default_factory=CpuConfig)
    device: DeviceConfig = field(default_factory=lambda: ZSSD)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    osdp_costs: OsdpCosts = field(default_factory=OsdpCosts)
    swdp_costs: SwdpCosts = field(default_factory=SwdpCosts)
    smu: SmuConfig = field(default_factory=SmuConfig)
    control_plane: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Declarative fault plan; ``None`` (the default) builds no injector at
    #: all, so fault-free runs are byte-identical to builds without the
    #: faults package.
    fault_plan: Optional["FaultPlan"] = None
    master_seed: int = 0xD5EED
    #: Per-access user-side overhead of the mmap engine (load issue, TLB
    #: handling, FIO bookkeeping) — present in both OSDP and HWDP.
    user_access_overhead_ns: float = 450.0

    def __post_init__(self) -> None:
        if not 1 <= self.sockets <= 8:
            raise ConfigError("sockets must be in [1, 8] (3-bit socket ID)")

    def with_mode(self, mode: PagingMode) -> "SystemConfig":
        """Copy of this config with a different paging mode."""
        return replace(self, mode=mode)

    def with_device(self, device: DeviceConfig) -> "SystemConfig":
        return replace(self, device=device)


def table2_configuration() -> Dict[str, str]:
    """The paper's Table II (experimental configuration), for the docs/bench."""
    return {
        "Server": "Dell R730",
        "OS": "Ubuntu 16.04.6",
        "Kernel": "Linux 4.9.30",
        "CPU": "Intel Xeon E5-2640v3 2.8GHz 8 physical cores (HT)",
        "Storage devices": "Samsung SZ985 800GB Z-SSD",
        "Memory": "DDR4 32GB",
    }
