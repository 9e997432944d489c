"""SMU prefetchers — the paper's §V "Prefetching Support", pluggable.

The paper leaves prefetching in the SMU as future work; this module
implements the natural designs within the published architecture behind
one :class:`Prefetcher` interface (selected via ``SmuConfig.prefetcher``):

* the page-miss handler calls :meth:`Prefetcher.observe_demand_miss` for
  every demand miss it accepts; the policy updates its predictor and may
  emit candidate *PTE addresses* to prefetch;
* for each candidate that is non-resident LBA-augmented, the shared issue
  pipeline allocates a PMSHR entry and a free frame and issues the read;
* completions reuse the normal machinery: the page-table updater installs
  the frame with the LBA bit kept set, and the PMSHR broadcast wakes any
  demand miss that arrived meanwhile (coalescing makes prefetch hits free).

Prefetches never cross a leaf-table boundary (the hardware only has entry
*addresses*, and the next table's address is unknown), never consume the
last free pages, and are dropped — not queued — when the PMSHR is busy.
A dropped or failed prefetch returns its frame to the free-page queue it
was popped from (falling back to the global pool, explicitly counted,
only if that queue refilled to capacity meanwhile) so per-core queue
occupancy stays symmetric under pressure.

Shipped policies:

* ``sequential`` — the original ascending-adjacent-PTE stream detector;
* ``stride`` — direction-aware: adjacent strides (|Δ| = one PTE) in
  either direction trigger immediately, larger strides once repeated;
* ``markov`` — a bounded first-order Markov predictor over the demand
  miss stream, prefetching the most frequent successors of each PTE.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import SmuError
from repro.mem.address import PAGE_SIZE
from repro.sim import Counter, spawn
from repro.vm.pte import (
    ANON_FIRST_TOUCH_LBA,
    LBA_BIT,
    LBA_FIELD_MASK,
    LBA_SHIFT,
    STATE_MASK,
    decode_pte,
)

#: Bytes per leaf page-table entry.
_PTE_SIZE = 8


class Prefetcher:
    """Base class: predictor hook points + the shared issue pipeline."""

    #: Registry name (set by the :func:`register_prefetcher` decorator).
    policy_name: str = "?"

    def __init__(self, smu: Any, degree: int):
        self.smu = smu
        self.degree = degree
        self._last_demand_pte_addr: Optional[int] = None
        self.stats = Counter()

    # ------------------------------------------------------------------
    def observe_demand_miss(
        self, walk: Any, decoded: Any, page_table: Any, core_id: int = 0
    ) -> None:
        """Called by the SMU on every demand miss it accepts."""
        previous = self._last_demand_pte_addr
        self._last_demand_pte_addr = walk.pte_addr
        self._record(previous, walk, decoded)
        if self.degree <= 0:
            return
        targets = self._targets(previous, walk)
        if targets is None:
            return
        self._issue_prefetches(walk, page_table, core_id, targets)

    # -- policy hook points --------------------------------------------
    def _record(self, previous: Optional[int], walk: Any, decoded: Any) -> None:
        """Train the predictor on one miss (runs even when degree is 0)."""

    def _targets(self, previous: Optional[int], walk: Any) -> Optional[Iterator[int]]:
        """Candidate PTE addresses to prefetch, or None for no trigger.

        Returned iterators are consumed lazily: a candidate after a
        PMSHR-full or no-frames drop is never generated, so per-candidate
        stats (e.g. table-boundary stops) reflect only inspected entries.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared issue pipeline
    # ------------------------------------------------------------------
    def _issue_prefetches(
        self, walk: Any, page_table: Any, core_id: int, targets: Iterator[int]
    ) -> None:
        smu = self.smu
        free_queue = smu.kernel.free_queue_for(core_id)
        for target_addr in targets:
            value = page_table.read_entry(target_addr)
            if value & STATE_MASK != LBA_BIT:
                continue  # only NON_RESIDENT_HW entries are fetchable
            if (value & LBA_FIELD_MASK) >> LBA_SHIFT == ANON_FIRST_TOUCH_LBA:
                continue  # nothing to read for first-touch anonymous pages
            if smu.pmshr.lookup(target_addr) is not None:
                continue  # already being fetched (demand or prefetch)
            if smu.pmshr.is_full:
                self.stats.add("dropped_pmshr_full")
                break
            # Keep a reserve so prefetching never starves demand misses.
            if free_queue.occupancy <= 2:
                self.stats.add("dropped_no_frames")
                break
            pop = free_queue.pop()
            if pop.empty:
                self.stats.add("dropped_no_frames")
                break
            decoded = decode_pte(value)
            entry = smu.pmshr.allocate(
                target_addr,
                walk.pmd_entry_addr,
                walk.pud_entry_addr,
                decoded.device_id,
                decoded.lba,
            )
            entry.pfn = pop.pfn
            self.stats.add("issued")
            spawn(
                smu.sim,
                self._prefetch_pipeline(entry, decoded, pop.pfn, page_table, free_queue),
                f"smu-readahead-{entry.index}",
            )

    def _return_frame(self, free_queue: Any, pfn: int) -> None:
        """Undo a pop: the dropped prefetch's frame goes back where it
        came from, keeping per-core queue occupancy symmetric."""
        if free_queue.give_back(pfn):
            self.stats.add("frames_returned_queue")
        else:
            # The producer refilled the queue to capacity meanwhile; hand
            # the frame to the global pool and count the transfer.
            self.stats.add("frames_returned_pool")
            self.smu.kernel.frame_pool.free(pfn)

    def _prefetch_pipeline(self, entry, decoded, pfn: int, page_table, free_queue):
        """Background hardware activity for one prefetch."""
        smu = self.smu
        qp = smu.host.descriptor(decoded.device_id).qp
        if qp.occupied >= qp.depth:
            # Prefetches never queue behind a full SQ — demand misses own
            # the backpressure path; a speculative read is simply dropped.
            self.stats.add("dropped_sq_full")
            self._return_frame(free_queue, pfn)
            smu.pmshr.release(entry, None)
            return
        qp.reserved += 1
        yield smu.host.issue_latency_ns
        io_done = smu._register_io(entry)
        smu.host.issue_read(decoded.device_id, decoded.lba, pfn, entry.index, claimed=True)
        yield io_done
        command = io_done.value
        if command is not None and not command.ok:
            # Speculative reads are never retried: return the frame and
            # invalidate the entry so a later demand miss refetches.
            self.stats.add("io_errors")
            smu.kernel.counters.add("smu.prefetch_io_errors")
            self._return_frame(free_queue, pfn)
            smu.pmshr.release(entry, None)
            return
        yield smu.config.cpu.cycles_to_ns(
            smu.config.smu.completion_unit_cycles + smu.config.smu.entry_update_cycles
        )
        smu.updater.apply(
            page_table, entry.pte_addr, entry.pmd_entry_addr, entry.pud_entry_addr, pfn
        )
        smu.kernel.counters.add("install.hw_pending")
        smu.kernel.counters.add("smu.prefetched_pages")
        self.stats.add("completed")
        smu.pmshr.release(entry, pfn)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_PREFETCHERS: Dict[str, Callable[[Any, int], Prefetcher]] = {}


def register_prefetcher(name: str):
    """Class decorator: make a prefetcher constructible by name."""

    def decorator(cls):
        if name in _PREFETCHERS:
            raise SmuError(f"prefetcher {name!r} registered twice")
        cls.policy_name = name
        _PREFETCHERS[name] = cls
        return cls

    return decorator


def prefetcher_names() -> List[str]:
    """Every registered prefetcher name, sorted."""
    return sorted(_PREFETCHERS)


def create_prefetcher(name: str, smu: Any, degree: int) -> Prefetcher:
    """Instantiate a registered prefetcher (``SmuConfig.prefetcher``)."""
    factory = _PREFETCHERS.get(name)
    if factory is None:
        raise SmuError(
            f"unknown prefetcher {name!r}; known: {', '.join(sorted(_PREFETCHERS))}"
        )
    return factory(smu, degree)


# ----------------------------------------------------------------------
# sequential readahead (the original ascending stream detector)
# ----------------------------------------------------------------------
@register_prefetcher("sequential")
class SequentialReadahead(Prefetcher):
    """The SMU's original readahead block: ascending adjacent PTEs only.

    Two misses on addresses exactly one PTE apart (ascending) flag a
    sequential stream; the next ``degree`` PTEs of the same leaf table are
    prefetched.  Kept bit-for-bit compatible with the pre-plugin
    behaviour — this is the default policy.
    """

    def _targets(self, previous: Optional[int], walk: Any) -> Optional[Iterator[int]]:
        if previous is None or walk.pte_addr - previous != _PTE_SIZE:
            return None
        self.stats.add("sequential_detected")
        return self._sequential_targets(walk)

    def _sequential_targets(self, walk: Any) -> Iterator[int]:
        table_end = (walk.pte_addr & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        for step in range(1, self.degree + 1):
            target_addr = walk.pte_addr + _PTE_SIZE * step
            if target_addr >= table_end:
                self.stats.add("stopped_at_table_boundary")
                return
            yield target_addr


# ----------------------------------------------------------------------
# stride prefetcher (direction-aware; fixes the descending-scan gap)
# ----------------------------------------------------------------------
@register_prefetcher("stride")
class StridePrefetcher(Prefetcher):
    """Direction-aware stride detection over the demand-miss PTE stream.

    Adjacent strides (|Δ| = one PTE, ascending *or* descending) trigger
    immediately, matching the sequential detector's latency while also
    covering reverse file iteration.  Larger strides must repeat once
    (two equal deltas) before the prefetcher trusts them.  Targets follow
    the detected stride and stop at the leaf-table boundary in either
    direction.
    """

    #: Largest |Δ| considered a stride, in PTEs (beyond this it's a jump).
    max_stride_ptes = 64

    def __init__(self, smu: Any, degree: int):
        super().__init__(smu, degree)
        self._last_delta: Optional[int] = None

    def _targets(self, previous: Optional[int], walk: Any) -> Optional[Iterator[int]]:
        if previous is None:
            return None
        delta = walk.pte_addr - previous
        confirmed = delta == self._last_delta
        self._last_delta = delta
        if delta == 0 or delta % _PTE_SIZE != 0:
            return None
        if abs(delta) > _PTE_SIZE * self.max_stride_ptes:
            return None
        if abs(delta) != _PTE_SIZE and not confirmed:
            return None  # larger strides need one repetition
        self.stats.add("stride_detected")
        if delta < 0:
            self.stats.add("descending_detected")
        return self._stride_targets(walk, delta)

    def _stride_targets(self, walk: Any, delta: int) -> Iterator[int]:
        table_start = walk.pte_addr & ~(PAGE_SIZE - 1)
        table_end = table_start + PAGE_SIZE
        for step in range(1, self.degree + 1):
            target_addr = walk.pte_addr + delta * step
            if target_addr < table_start or target_addr >= table_end:
                self.stats.add("stopped_at_table_boundary")
                return
            yield target_addr


# ----------------------------------------------------------------------
# Markov prefetcher over the miss stream
# ----------------------------------------------------------------------
@register_prefetcher("markov")
class MarkovPrefetcher(Prefetcher):
    """First-order Markov prediction over demand-miss PTE addresses.

    A bounded transition table records, for each miss address, how often
    each successor followed it; a repeated miss then prefetches its most
    frequent successors (count-descending, insertion order on ties).
    Cross-table successors are dropped — the hardware only trusts entry
    addresses within the current leaf table — and counted.
    """

    #: Bounded predictor state: miss addresses tracked (FIFO eviction).
    max_states = 1024
    #: Successors remembered per miss address.
    max_successors = 8

    def __init__(self, smu: Any, degree: int):
        super().__init__(smu, degree)
        self._transitions: "OrderedDict[int, OrderedDict[int, int]]" = OrderedDict()

    def _record(self, previous: Optional[int], walk: Any, decoded: Any) -> None:
        if previous is None or previous == walk.pte_addr:
            return
        successors = self._transitions.get(previous)
        if successors is None:
            if len(self._transitions) >= self.max_states:
                self._transitions.popitem(last=False)
            successors = OrderedDict()
            self._transitions[previous] = successors
        successors[walk.pte_addr] = successors.get(walk.pte_addr, 0) + 1
        if len(successors) > self.max_successors:
            # Drop the least-frequent successor (oldest on ties).
            weakest = None
            weakest_count = None
            for addr, count in successors.items():
                if weakest_count is None or count < weakest_count:
                    weakest, weakest_count = addr, count
            del successors[weakest]

    def _targets(self, previous: Optional[int], walk: Any) -> Optional[Iterator[int]]:
        predicted = self.predict(walk.pte_addr)
        if not predicted:
            return None
        self.stats.add("markov_predicted")
        return self._markov_targets(walk, predicted)

    def predict(self, pte_addr: int) -> List[int]:
        """Successor addresses of ``pte_addr``, most frequent first."""
        successors = self._transitions.get(pte_addr)
        if not successors:
            return []
        # Stable sort: equal counts keep first-observed order.
        ranked = sorted(successors.items(), key=lambda item: -item[1])
        return [addr for addr, _count in ranked]

    def _markov_targets(self, walk: Any, candidates: List[int]) -> Iterator[int]:
        table_start = walk.pte_addr & ~(PAGE_SIZE - 1)
        table_end = table_start + PAGE_SIZE
        emitted = 0
        for target_addr in candidates:
            if emitted >= self.degree:
                return
            if target_addr < table_start or target_addr >= table_end:
                self.stats.add("dropped_cross_table")
                continue
            emitted += 1
            yield target_addr
