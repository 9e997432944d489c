"""Tests for the LRU lists, PageInfo, and the page cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.os.filesystem import FileSystem
from repro.os.lru import LruLists, PageInfo
from repro.os.page_cache import PageCache
from repro.os.vma import Vma
from repro.storage.nvme import Namespace


def make_page(pfn, file=None, file_page=None):
    vma = Vma(start=0x10000, num_pages=1024, file=file)
    return PageInfo(
        pfn=pfn,
        process=None,
        vma=vma,
        vaddr=0x10000 + pfn * 4096,
        file=file,
        file_page=file_page,
    )


def make_file(pages=64):
    return FileSystem(Namespace(nsid=1, capacity_blocks=1 << 16)).create_file(
        "f", pages
    )


class TestLruLists:
    def test_insert_goes_inactive(self):
        lru = LruLists()
        lru.insert(make_page(1))
        assert lru.inactive_count == 1
        assert lru.active_count == 0
        assert lru.contains(1)

    def test_double_insert_rejected(self):
        lru = LruLists()
        lru.insert(make_page(1))
        with pytest.raises(KernelError):
            lru.insert(make_page(1))

    def test_two_touches_promote(self):
        lru = LruLists()
        lru.insert(make_page(1))
        lru.touch(1)  # sets referenced
        assert lru.inactive_count == 1
        lru.touch(1)  # promotes
        assert lru.active_count == 1
        assert lru.inactive_count == 0

    def test_touch_unknown_is_noop(self):
        LruLists().touch(99)  # no error

    def test_remove(self):
        lru = LruLists()
        lru.insert(make_page(1))
        page = lru.remove(1)
        assert page.pfn == 1
        assert not lru.contains(1)
        assert lru.remove(1) is None

    def test_victims_come_from_inactive_head(self):
        lru = LruLists()
        for pfn in range(4):
            lru.insert(make_page(pfn))
        victims = lru.select_victims(2)
        assert [v.pfn for v in victims] == [0, 1]
        assert len(lru) == 2

    def test_referenced_pages_get_second_chance(self):
        lru = LruLists()
        for pfn in range(3):
            lru.insert(make_page(pfn))
        lru.touch(0)  # referenced: skipped once
        victims = lru.select_victims(1)
        assert victims[0].pfn == 1
        # Page 0 lost its reference bit and moved to the tail.
        next_victims = lru.select_victims(2)
        assert [v.pfn for v in next_victims] == [2, 0]

    def test_active_pages_demoted_when_inactive_drains(self):
        lru = LruLists()
        for pfn in range(2):
            lru.insert(make_page(pfn))
            lru.touch(pfn)
            lru.touch(pfn)  # both active
        assert lru.active_count == 2
        victims = lru.select_victims(1)
        assert len(victims) == 1
        assert victims[0].active is False

    def test_select_more_than_available(self):
        lru = LruLists()
        lru.insert(make_page(1))
        victims = lru.select_victims(10)
        assert len(victims) == 1
        assert len(lru) == 0

    def test_promotion_clears_referenced(self):
        # Regression: promotion must consume the reference bit — a page
        # demoted later must not arrive on the inactive list with a free
        # second chance it never earned.
        lru = LruLists()
        lru.insert(make_page(1))
        lru.touch(1)
        lru.touch(1)  # promotes inactive -> active
        assert lru.get(1).referenced is False

    def test_promote_demote_victim_cycle(self):
        # Full clock cycle: insert -> promote -> demote -> evict.  After
        # promotion (which consumes the reference) and demotion, the page
        # must be evictable on the first inactive pass — under the old
        # behaviour the stale reference bit bought it a second lap.
        lru = LruLists()
        lru.insert(make_page(1))
        lru.touch(1)
        lru.touch(1)  # active, reference consumed
        assert lru.active_count == 1
        victims = lru.select_victims(1)  # demote pass + inactive pass
        assert [v.pfn for v in victims] == [1]
        assert len(lru) == 0

    def test_all_referenced_inactive_terminates(self):
        # Rotation bound: every inactive page referenced; one full lap
        # clears the bits, the second takes victims — no infinite loop.
        lru = LruLists()
        for pfn in range(5):
            lru.insert(make_page(pfn))
            lru.touch(pfn)  # referenced, still inactive
        victims = lru.select_victims(5)
        assert [v.pfn for v in victims] == [0, 1, 2, 3, 4]

    def test_active_only_demotion_pass(self):
        # Empty inactive list: victims must come via the demotion pass,
        # oldest active first, with active/referenced cleared on the way.
        lru = LruLists()
        for pfn in range(3):
            lru.insert(make_page(pfn))
            lru.touch(pfn)
            lru.touch(pfn)
        assert lru.inactive_count == 0
        victims = lru.select_victims(2)
        assert [v.pfn for v in victims] == [0, 1]
        assert all(not v.active and not v.referenced for v in victims)

    def test_count_larger_than_residency(self):
        # Asking for more victims than pages exist drains the lists and
        # terminates (mixed active/inactive, some referenced).
        lru = LruLists()
        for pfn in range(4):
            lru.insert(make_page(pfn))
        lru.touch(0)  # referenced inactive
        lru.touch(1)
        lru.touch(1)  # active
        victims = lru.select_victims(100)
        assert sorted(v.pfn for v in victims) == [0, 1, 2, 3]
        assert len(lru) == 0

    def test_pinned_pages_never_selected(self):
        lru = LruLists()
        for pfn in range(3):
            lru.insert(make_page(pfn))
        lru.get(0).pinned = True
        victims = lru.select_victims(3)
        assert sorted(v.pfn for v in victims) == [1, 2]
        assert lru.contains(0)  # pinned page rotated back
        assert lru.select_victims(1) == []  # only the pinned page remains

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_property_victims_unique_and_tracked(self, pfns):
        lru = LruLists()
        for pfn in pfns:
            lru.insert(make_page(pfn))
        victims = lru.select_victims(len(pfns) // 2 + 1)
        victim_pfns = [v.pfn for v in victims]
        assert len(set(victim_pfns)) == len(victim_pfns)
        for pfn in victim_pfns:
            assert not lru.contains(pfn)
        assert len(lru) + len(victims) == len(pfns)


class TestPageCache:
    def test_miss_then_hit(self):
        cache = PageCache()
        file = make_file()
        assert cache.lookup(file, 0) is None
        cache.insert(file, 0, 42)
        assert cache.lookup(file, 0) == 42
        assert cache.hit_rate == 0.5

    def test_same_index_different_files(self):
        cache = PageCache()
        fs = FileSystem(Namespace(nsid=1, capacity_blocks=1 << 16))
        a, b = fs.create_file("a", 4), fs.create_file("b", 4)
        cache.insert(a, 0, 1)
        cache.insert(b, 0, 2)
        assert cache.lookup(a, 0) == 1
        assert cache.lookup(b, 0) == 2

    def test_alias_insert_rejected(self):
        cache = PageCache()
        file = make_file()
        cache.insert(file, 3, 10)
        with pytest.raises(KernelError):
            cache.insert(file, 3, 11)

    def test_idempotent_insert_allowed(self):
        cache = PageCache()
        file = make_file()
        cache.insert(file, 3, 10)
        cache.insert(file, 3, 10)
        assert len(cache) == 1

    def test_remove(self):
        cache = PageCache()
        file = make_file()
        cache.insert(file, 1, 5)
        assert cache.remove(file, 1) == 5
        assert cache.remove(file, 1) is None
        assert cache.lookup(file, 1) is None


# ----------------------------------------------------------------------
# the clock scan against the peek-then-delete loop it replaced
# ----------------------------------------------------------------------
class _ReferenceClock(LruLists):
    """``select_victims`` taking each list head by peek and delete."""

    def select_victims(self, count):
        victims = []
        rotations = 0
        limit = 2 * (len(self._inactive) + len(self._active)) + count
        while len(victims) < count and rotations < limit:
            rotations += 1
            if self._inactive:
                pfn, page = next(iter(self._inactive.items()))
                del self._inactive[pfn]
                if page.pinned:
                    self._inactive[pfn] = page
                    continue
                if page.referenced:
                    page.referenced = False
                    self._inactive[pfn] = page
                    continue
                victims.append(page)
            elif self._active:
                pfn, page = next(iter(self._active.items()))
                del self._active[pfn]
                page.active = False
                page.referenced = False
                self._inactive[pfn] = page
            else:
                break
        self.reclaims += len(victims)
        return victims


def _clock_state(lru):
    def pages(lists):
        return [(pfn, p.active, p.referenced, p.pinned) for pfn, p in lists.items()]

    return pages(lru._inactive), pages(lru._active), lru.reclaims


@given(
    pages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
        min_size=0,
        max_size=30,
    ),
    counts=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_property_clock_victims_match_reference(pages, counts):
    """Victim order and both lists' order and flags match, with pinned,
    referenced and active pages mixed, over several scans."""
    clocks = [LruLists(), _ReferenceClock()]
    for lru in clocks:
        for pfn, (touches, pinned) in enumerate(pages):
            page = make_page(pfn)
            page.pinned = pinned
            lru.insert(page)
            for _ in range(touches):
                lru.touch(pfn)
    for count in counts:
        victims = [[page.pfn for page in lru.select_victims(count)] for lru in clocks]
        assert victims[0] == victims[1]
        assert _clock_state(clocks[0]) == _clock_state(clocks[1])
        for lru in clocks:
            for pfn in victims[0]:
                lru.touch(pfn + 1)  # keep the lists moving between scans
