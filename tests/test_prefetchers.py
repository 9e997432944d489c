"""Tests for the pluggable SMU prefetchers (repro.core.prefetcher)."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BLOCKS_PER_PAGE, PagingMode
from repro.core.free_page_queue import FreePageQueue
from repro.core.prefetcher import (
    MarkovPrefetcher,
    SequentialReadahead,
    StridePrefetcher,
    create_prefetcher,
    prefetcher_names,
    register_prefetcher,
)
from repro.core.system import build_system
from repro.errors import SmuError
from repro.faults import FaultKind, FaultPlan, FaultRule, assert_invariants
from repro.os.vma import MmapFlags
from repro.sim import Simulator
from repro.vm import PteStatus, decode_pte
from repro.vm.pte import is_anon_first_touch

from tests.helpers import tiny_config, touch_pages


def build_prefetch_system(
    prefetcher,
    degree=4,
    pages=64,
    fault_plan=None,
    per_core=False,
    free_queue_depth=96,
):
    """HWDP system with one mapped file and the given prefetch policy."""
    config = tiny_config(
        PagingMode.HWDP, free_queue_depth=free_queue_depth, fault_plan=fault_plan
    )
    config = replace(
        config,
        smu=replace(
            config.smu,
            readahead_degree=degree,
            prefetcher=prefetcher,
            per_core_free_queues=per_core,
        ),
    )
    system = build_system(config)
    process = system.create_process("app")
    thread = system.workload_thread(process, index=0)
    file = system.kernel.fs.create_file("data", pages)
    holder = {}

    def do_mmap():
        holder["vma"] = yield from system.kernel.sys_mmap(
            thread, file, pages, MmapFlags.FASTMAP
        )

    proc = system.spawn(do_mmap(), "mmap")
    while not proc.finished:
        system.sim.step()
    return system, thread, holder["vma"], file


def drain(system, ns=200_000.0):
    system.sim.run(until=system.sim.now + ns)


def walk_at(pte_addr):
    return SimpleNamespace(pte_addr=pte_addr)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert prefetcher_names() == ["markov", "sequential", "stride"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(SmuError, match="sequential"):
            create_prefetcher("nope", None, 4)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SmuError, match="twice"):

            @register_prefetcher("sequential")
            class Duplicate(SequentialReadahead):
                pass

    def test_policy_name_attribute(self):
        assert SequentialReadahead.policy_name == "sequential"
        assert StridePrefetcher.policy_name == "stride"
        assert MarkovPrefetcher.policy_name == "markov"


# ----------------------------------------------------------------------
# stride (satellite: direction-aware detection)
# ----------------------------------------------------------------------
class TestStride:
    def test_ascending_stream_triggers_like_sequential(self):
        system, thread, vma, _file = build_prefetch_system("stride")
        touch_pages(system, thread, vma, [0, 1, 2])
        drain(system)
        ra = system.smu.readahead
        assert ra.stats["stride_detected"] > 0
        assert ra.stats["issued"] > 0
        assert system.kernel.counters["smu.prefetched_pages"] > 0

    def test_descending_scan_prefetches(self):
        # Regression: the sequential detector only recognises ascending
        # adjacency, so a reverse scan got zero readahead.  The stride
        # policy must detect |delta| == one PTE in either direction.
        system, thread, vma, _file = build_prefetch_system("sequential")
        touch_pages(system, thread, vma, [12, 11, 10])
        drain(system)
        assert system.smu.readahead.stats["issued"] == 0

        system, thread, vma, _file = build_prefetch_system("stride")
        touch_pages(system, thread, vma, [12, 11, 10])
        drain(system)
        ra = system.smu.readahead
        assert ra.stats["descending_detected"] > 0
        assert ra.stats["issued"] > 0
        assert system.kernel.counters["smu.prefetched_pages"] > 0

    def test_larger_stride_needs_one_repetition(self):
        system, thread, vma, _file = build_prefetch_system("stride", pages=64)
        # One delta of 4 pages is not yet a trusted stride...
        touch_pages(system, thread, vma, [0, 4])
        drain(system)
        assert system.smu.readahead.stats["issued"] == 0
        # ...the repeated delta confirms it and prefetching starts.
        touch_pages(system, thread, vma, [8])
        drain(system)
        ra = system.smu.readahead
        assert ra.stats["stride_detected"] > 0
        assert ra.stats["issued"] > 0

    def test_random_access_does_not_prefetch(self):
        system, thread, vma, _file = build_prefetch_system("stride")
        touch_pages(system, thread, vma, [0, 9, 33, 17])
        drain(system)
        assert system.smu.readahead.stats["issued"] == 0


# ----------------------------------------------------------------------
# markov predictor
# ----------------------------------------------------------------------
class TestMarkov:
    def test_predicts_most_frequent_successor_first(self):
        pf = MarkovPrefetcher(smu=None, degree=4)
        a, b, c = 0x8000, 0x8010, 0x8020
        pf._record(a, walk_at(b), None)
        pf._record(a, walk_at(b), None)
        pf._record(a, walk_at(c), None)
        assert pf.predict(a) == [b, c]
        assert pf.predict(b) == []

    def test_equal_counts_keep_first_observed_order(self):
        pf = MarkovPrefetcher(smu=None, degree=4)
        a, b, c = 0x8000, 0x8010, 0x8020
        pf._record(a, walk_at(c), None)
        pf._record(a, walk_at(b), None)
        assert pf.predict(a) == [c, b]

    def test_successor_table_bounded(self):
        pf = MarkovPrefetcher(smu=None, degree=4)
        a = 0x8000
        successors = [0x8100 + 8 * i for i in range(pf.max_successors + 1)]
        for addr in successors:
            pf._record(a, walk_at(addr), None)
        predicted = pf.predict(a)
        assert len(predicted) == pf.max_successors
        # The weakest (oldest on ties) successor was evicted.
        assert successors[0] not in predicted

    def test_state_table_fifo_bounded(self):
        pf = MarkovPrefetcher(smu=None, degree=4)
        pf.max_states = 2
        pf._record(0x8000, walk_at(0x8008), None)
        pf._record(0x8010, walk_at(0x8018), None)
        pf._record(0x8020, walk_at(0x8028), None)
        assert pf.predict(0x8000) == []  # oldest state evicted
        assert pf.predict(0x8020) == [0x8028]

    def test_cross_table_candidates_dropped(self):
        pf = MarkovPrefetcher(smu=None, degree=4)
        inside, outside = 0x8010, 0x9010  # different leaf tables
        targets = list(pf._markov_targets(walk_at(0x8000), [outside, inside]))
        assert targets == [inside]
        assert pf.stats["dropped_cross_table"] == 1

    def test_first_pass_issues_nothing(self):
        # An untrained predictor must not speculate on a fresh miss stream.
        system, thread, vma, _file = build_prefetch_system("markov")
        touch_pages(system, thread, vma, [0, 1, 2, 3])
        drain(system)
        assert system.smu.readahead.stats["issued"] == 0


# ----------------------------------------------------------------------
# free-page-queue give-back (satellite: frame return on drop/error)
# ----------------------------------------------------------------------
class TestGiveBack:
    def test_give_back_requeues_at_the_head(self):
        queue = FreePageQueue(depth=4, prefetch_entries=0)
        queue.refill([1, 2, 3])
        assert queue.pop().pfn == 1
        assert queue.give_back(1) is True
        assert queue.stats["given_back"] == 1
        assert queue.pop().pfn == 1  # returned frame is consumed first

    def test_give_back_on_full_queue_rejected(self):
        queue = FreePageQueue(depth=2, prefetch_entries=0)
        queue.refill([1, 2])
        assert queue.give_back(9) is False
        assert queue.stats["give_back_overflow"] == 1
        assert queue.occupancy == 2

    def test_refill_is_bounded(self):
        # The kernel relies on the bounded accept count to return rejected
        # frames to the pool (the TOCTOU refill-overflow fix).
        queue = FreePageQueue(depth=2, prefetch_entries=0)
        assert queue.refill([1, 2, 3]) == 2


def _data_lba_window(pages, first_page):
    """LBA window [first_page, end) of the test file, discovered from an
    identically-configured throwaway system (allocation is deterministic)."""
    system = build_system(tiny_config(PagingMode.HWDP))
    file = system.kernel.fs.create_file("data", pages)
    return (
        file.lba_of_page(first_page),
        file.lba_of_page(pages - 1) + BLOCKS_PER_PAGE,
    )


class TestPrefetchFrameReturn:
    """Regression for the prefetch drop/error frame-return paths.

    A failed or dropped prefetch used to free its frame straight to the
    global pool; under per-core free-page queues that silently drained
    the originating core's queue.  Frames must flow back to the queue
    they were popped from, and the post-run invariant checker must see
    balanced frame accounting.
    """

    PAGES = 64

    def _plan(self):
        # Demand pages 0-1 stay readable; every prefetch target (page 2+)
        # errors out, so each issued prefetch exercises the error path.
        lba_lo, lba_hi = _data_lba_window(self.PAGES, first_page=2)
        return FaultPlan(
            rules=(
                FaultRule(
                    kind=FaultKind.READ_ERROR,
                    lba_start=lba_lo,
                    lba_end=lba_hi,
                    probability=1.0,
                ),
            ),
            name="prefetch-read-errors",
        )

    @pytest.mark.parametrize("per_core", [False, True])
    def test_failed_prefetch_returns_frame_to_originating_queue(self, per_core):
        system, thread, vma, _file = build_prefetch_system(
            "sequential",
            pages=self.PAGES,
            fault_plan=self._plan(),
            per_core=per_core,
        )
        touch_pages(system, thread, vma, [0, 1])
        drain(system)

        ra = system.smu.readahead
        assert ra.stats["issued"] >= 1
        assert ra.stats["io_errors"] == ra.stats["issued"]
        assert system.kernel.counters["smu.prefetch_io_errors"] >= 1
        # Every failed prefetch handed its frame back; the queue path is
        # the common case (pool fallback only on a meanwhile-full queue).
        returned = ra.stats["frames_returned_queue"] + ra.stats["frames_returned_pool"]
        assert returned == ra.stats["io_errors"]
        assert ra.stats["frames_returned_queue"] >= 1

        given_back = {
            id(q): q.stats["given_back"]
            for q in system.kernel.iter_free_queues()
            if q.stats["given_back"]
        }
        assert given_back, "no queue saw a returned frame"
        if per_core:
            # The faulting thread runs on logical core 0: its queue — and
            # only its queue — got the frames back.
            origin = system.kernel.free_queue_for(0)
            assert set(given_back) == {id(origin)}

        # No frame leaked anywhere on the error path.
        assert_invariants(system)

    def test_failed_prefetch_keeps_pte_refetchable(self):
        system, thread, vma, _file = build_prefetch_system(
            "sequential", pages=self.PAGES, fault_plan=self._plan()
        )
        touch_pages(system, thread, vma, [0, 1])
        drain(system)
        assert system.smu.readahead.stats["io_errors"] >= 1
        # The failed target was not installed; a later demand miss on it
        # must raise the error to the application (SIGBUS), not hit a
        # stale mapping.
        from repro.errors import IoError

        with pytest.raises(IoError):
            touch_pages(system, thread, vma, [2])


# ----------------------------------------------------------------------
# the candidate filter's raw-bit tests against decode_pte
# ----------------------------------------------------------------------
@given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=300, deadline=None)
def test_candidate_filter_matches_decode(value):
    """A candidate is issued exactly when ``decode_pte`` calls it
    NON_RESIDENT_HW and not a first-touch anonymous marker, and the PMSHR
    entry carries the decoded device ID and LBA."""
    allocated = []
    smu = SimpleNamespace(
        sim=Simulator(),
        kernel=SimpleNamespace(free_queue_for=lambda core: SimpleNamespace(
            occupancy=8, pop=lambda: SimpleNamespace(empty=False, pfn=5))),
        pmshr=SimpleNamespace(
            lookup=lambda addr: None, is_full=False,
            allocate=lambda *args: allocated.append(args) or SimpleNamespace(
                index=0, pfn=None)),
    )
    prefetcher = SequentialReadahead(smu, 1)
    table = SimpleNamespace(read_entry=lambda addr: value)
    walk = SimpleNamespace(pmd_entry_addr=16, pud_entry_addr=24)
    prefetcher._issue_prefetches(walk, table, 0, iter([4096]))
    decoded = decode_pte(value)
    if decoded.status is PteStatus.NON_RESIDENT_HW and not is_anon_first_touch(decoded):
        assert allocated == [(4096, 16, 24, decoded.device_id, decoded.lba)]
        assert prefetcher.stats.get("issued") == 1
    else:
        assert allocated == []
        assert prefetcher.stats.get("issued") == 0
