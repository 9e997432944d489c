"""Tests for the LBA-augmented PTE codec (paper Fig 6 / Table I)."""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.errors import PageTableError
from repro.vm import pte as ptemod
from repro.vm import (
    PteStatus,
    UpperStatus,
    decode_pte,
    describe_upper,
    evict_to_lba,
    hw_install_frame,
    make_lba_pte,
    make_present_pte,
    make_swap_pte,
    os_sync_metadata,
    pte_status,
    revert_to_normal,
    table1_rows,
    update_lba,
)

pfns = st.integers(min_value=0, max_value=ptemod.MAX_PFN)
lbas = st.integers(min_value=0, max_value=ptemod.MAX_LBA)
device_ids = st.integers(min_value=0, max_value=ptemod.MAX_DEVICE_ID)
socket_ids = st.integers(min_value=0, max_value=ptemod.MAX_SOCKET_ID)
pkeys = st.integers(min_value=0, max_value=ptemod.MAX_PKEY)
bools = st.booleans()


class TestPresentPte:
    def test_basic_roundtrip(self):
        value = make_present_pte(0x1234, writable=True, user=True)
        decoded = decode_pte(value)
        assert decoded.present
        assert not decoded.lba_bit
        assert decoded.pfn == 0x1234
        assert decoded.writable and decoded.user
        assert decoded.status is PteStatus.RESIDENT

    @given(pfn=pfns, writable=bools, user=bools, nx=bools, pkey=pkeys, pending=bools)
    @settings(max_examples=200)
    def test_roundtrip_property(self, pfn, writable, user, nx, pkey, pending):
        value = make_present_pte(
            pfn, writable=writable, user=user, nx=nx, pkey=pkey, lba_pending=pending
        )
        decoded = decode_pte(value)
        assert decoded.present
        assert decoded.pfn == pfn
        assert decoded.writable == writable
        assert decoded.user == user
        assert decoded.nx == nx
        assert decoded.pkey == pkey
        assert decoded.lba_bit == pending
        expected = PteStatus.RESIDENT_PENDING_SYNC if pending else PteStatus.RESIDENT
        assert decoded.status is expected

    def test_pfn_overflow_rejected(self):
        with pytest.raises(PageTableError):
            make_present_pte(ptemod.MAX_PFN + 1)

    def test_pkey_overflow_rejected(self):
        with pytest.raises(PageTableError):
            make_present_pte(1, pkey=16)

    def test_value_fits_64_bits(self):
        value = make_present_pte(ptemod.MAX_PFN, nx=True, pkey=15, lba_pending=True)
        assert 0 <= value < 1 << 64


class TestLbaPte:
    @given(lba=lbas, dev=device_ids, sid=socket_ids, writable=bools, nx=bools, pkey=pkeys)
    @settings(max_examples=200)
    def test_roundtrip_property(self, lba, dev, sid, writable, nx, pkey):
        value = make_lba_pte(
            lba, device_id=dev, socket_id=sid, writable=writable, nx=nx, pkey=pkey
        )
        decoded = decode_pte(value)
        assert not decoded.present
        assert decoded.lba_bit
        assert decoded.lba == lba
        assert decoded.device_id == dev
        assert decoded.socket_id == sid
        assert decoded.writable == writable
        assert decoded.nx == nx
        assert decoded.pkey == pkey
        assert decoded.status is PteStatus.NON_RESIDENT_HW

    def test_max_capacity_is_one_petabyte(self):
        # 41 LBA bits x 512-byte blocks = 1 PB per namespace, as in the paper.
        assert (ptemod.MAX_LBA + 1) * 512 == 1 << 50

    def test_lba_overflow_rejected(self):
        with pytest.raises(PageTableError):
            make_lba_pte(ptemod.MAX_LBA + 1)

    def test_device_id_overflow_rejected(self):
        with pytest.raises(PageTableError):
            make_lba_pte(0, device_id=8)

    def test_socket_id_overflow_rejected(self):
        with pytest.raises(PageTableError):
            make_lba_pte(0, socket_id=8)

    def test_value_fits_64_bits(self):
        value = make_lba_pte(
            ptemod.MAX_LBA, device_id=7, socket_id=7, nx=True, pkey=15
        )
        assert 0 <= value < 1 << 64


class TestSwapPte:
    def test_swap_entry_faults_to_os(self):
        value = make_swap_pte(0xBEEF)
        assert pte_status(value) is PteStatus.NON_RESIDENT_OS

    def test_zero_entry_faults_to_os(self):
        assert pte_status(0) is PteStatus.NON_RESIDENT_OS


class TestTransitions:
    """The state machine of §III-B/§IV (Table I transitions)."""

    @given(lba=lbas, pfn=pfns, writable=bools, nx=bools, pkey=pkeys)
    @settings(max_examples=100)
    def test_hw_install_preserves_protection_and_keeps_lba_bit(
        self, lba, pfn, writable, nx, pkey
    ):
        before = make_lba_pte(lba, writable=writable, nx=nx, pkey=pkey)
        after = hw_install_frame(before, pfn)
        decoded = decode_pte(after)
        assert decoded.status is PteStatus.RESIDENT_PENDING_SYNC
        assert decoded.pfn == pfn
        assert decoded.writable == writable
        assert decoded.nx == nx
        assert decoded.pkey == pkey

    def test_hw_install_rejects_present_pte(self):
        with pytest.raises(PageTableError):
            hw_install_frame(make_present_pte(1), 2)

    def test_hw_install_rejects_swap_pte(self):
        with pytest.raises(PageTableError):
            hw_install_frame(make_swap_pte(1), 2)

    def test_os_sync_clears_lba_bit_only(self):
        installed = hw_install_frame(make_lba_pte(77, writable=False), 5)
        synced = os_sync_metadata(installed)
        decoded = decode_pte(synced)
        assert decoded.status is PteStatus.RESIDENT
        assert decoded.pfn == 5
        assert not decoded.writable

    def test_os_sync_rejects_normal_resident(self):
        with pytest.raises(PageTableError):
            os_sync_metadata(make_present_pte(5))

    @given(pfn=pfns, lba=lbas, dev=device_ids, writable=bools)
    @settings(max_examples=100)
    def test_evict_roundtrip(self, pfn, lba, dev, writable):
        present = make_present_pte(pfn, writable=writable)
        evicted = evict_to_lba(present, lba, device_id=dev)
        decoded = decode_pte(evicted)
        assert decoded.status is PteStatus.NON_RESIDENT_HW
        assert decoded.lba == lba
        assert decoded.device_id == dev
        assert decoded.writable == writable

    def test_full_lifecycle(self):
        """mmap → hw miss → kpted sync → evict → hw miss again."""
        pte = make_lba_pte(100, writable=True)
        pte = hw_install_frame(pte, 42)
        pte = os_sync_metadata(pte)
        assert pte_status(pte) is PteStatus.RESIDENT
        pte = evict_to_lba(pte, 200)
        assert decode_pte(pte).lba == 200
        pte = hw_install_frame(pte, 43)
        assert decode_pte(pte).pfn == 43

    def test_fork_reverts_to_normal(self):
        pte = make_lba_pte(123)
        assert revert_to_normal(pte) == 0

    def test_revert_rejects_present(self):
        with pytest.raises(PageTableError):
            revert_to_normal(make_present_pte(1))

    def test_update_lba_on_block_remap(self):
        pte = make_lba_pte(10, device_id=2, writable=False, nx=True)
        updated = update_lba(pte, 999)
        decoded = decode_pte(updated)
        assert decoded.lba == 999
        assert decoded.device_id == 2
        assert not decoded.writable
        assert decoded.nx

    def test_update_lba_rejects_resident(self):
        with pytest.raises(PageTableError):
            update_lba(make_present_pte(1), 5)


class TestTableOne:
    """The codec implements exactly the semantics of the paper's Table I."""

    def test_leaf_rows(self):
        assert pte_status(make_swap_pte(3)) is PteStatus.NON_RESIDENT_OS
        assert pte_status(make_lba_pte(3)) is PteStatus.NON_RESIDENT_HW
        assert (
            pte_status(make_present_pte(3, lba_pending=True))
            is PteStatus.RESIDENT_PENDING_SYNC
        )
        assert pte_status(make_present_pte(3)) is PteStatus.RESIDENT

    def test_upper_rows(self):
        present_child = make_present_pte(7)
        assert describe_upper(present_child) is UpperStatus.NO_SYNC_NEEDED
        assert describe_upper(present_child | ptemod.LBA_BIT) is UpperStatus.SYNC_NEEDED

    def test_table1_rows_complete(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert sum(1 for row in rows if row[0] == "PTE") == 4
        assert sum(1 for row in rows if row[0] == "PUD/PMD") == 2


class TestFieldDisjointness:
    """Bit fields must never overlap (a corrupted codec would alias fields)."""

    def test_lba_layout_masks_disjoint(self):
        masks = [
            ptemod.PRESENT_BIT,
            ptemod.LBA_BIT,
            ptemod.LBA_FIELD_MASK,
            ptemod.DEVICE_FIELD_MASK,
            ptemod.SOCKET_FIELD_MASK,
            ptemod.PKEY_MASK,
            ptemod.NX_BIT,
            ptemod.WRITABLE_BIT | ptemod.USER_BIT,
        ]
        combined = 0
        for mask in masks:
            assert combined & mask == 0, f"overlap at {mask:#x}"
            combined |= mask

    def test_present_layout_masks_disjoint(self):
        masks = [
            ptemod.PRESENT_BIT,
            ptemod.PROT_MASK,
            ptemod.LBA_BIT,
            ptemod.PFN_MASK,
            ptemod.PKEY_MASK,
            ptemod.NX_BIT,
        ]
        combined = 0
        for mask in masks:
            assert combined & mask == 0
            combined |= mask


# ----------------------------------------------------------------------
# Reference codec: the decode/re-encode formulation that the bit-mask
# transitions replaced.  The transitions must agree with it on every
# input: the same value, or the same PageTableError.
# ----------------------------------------------------------------------
def _ref_decode(value):
    present = bool(value & ptemod.PRESENT_BIT)
    lba_bit = bool(value & ptemod.LBA_BIT)
    if present:
        status = PteStatus.RESIDENT_PENDING_SYNC if lba_bit else PteStatus.RESIDENT
    else:
        status = PteStatus.NON_RESIDENT_HW if lba_bit else PteStatus.NON_RESIDENT_OS
    return ptemod.DecodedPte(
        raw=value,
        present=present,
        lba_bit=lba_bit,
        writable=bool(value & ptemod.WRITABLE_BIT),
        user=bool(value & ptemod.USER_BIT),
        nx=bool(value & ptemod.NX_BIT),
        pkey=(value & ptemod.PKEY_MASK) >> ptemod.PKEY_SHIFT,
        pfn=(value & ptemod.PFN_MASK) >> ptemod.PFN_SHIFT,
        lba=(value & ptemod.LBA_FIELD_MASK) >> ptemod.LBA_SHIFT,
        device_id=(value & ptemod.DEVICE_FIELD_MASK) >> ptemod.DEVICE_SHIFT,
        socket_id=(value & ptemod.SOCKET_FIELD_MASK) >> ptemod.SOCKET_SHIFT,
        status=status,
    )


def _ref_make_lba_pte(lba, *, device_id=0, socket_id=0, writable=True, user=True,
                      nx=False, pkey=0):
    if not 0 <= lba <= ptemod.MAX_LBA:
        raise PageTableError(f"LBA {lba:#x} exceeds {ptemod.LBA_BITS} bits")
    if not 0 <= device_id <= ptemod.MAX_DEVICE_ID:
        raise PageTableError(f"device ID {device_id} exceeds {ptemod.DEVICE_BITS} bits")
    if not 0 <= socket_id <= ptemod.MAX_SOCKET_ID:
        raise PageTableError(f"socket ID {socket_id} exceeds {ptemod.SOCKET_BITS} bits")
    if not 0 <= pkey <= ptemod.MAX_PKEY:
        raise PageTableError(f"pkey {pkey} exceeds {ptemod.PKEY_BITS} bits")
    value = (
        ptemod.LBA_BIT
        | (lba << ptemod.LBA_SHIFT)
        | (device_id << ptemod.DEVICE_SHIFT)
        | (socket_id << ptemod.SOCKET_SHIFT)
        | (pkey << ptemod.PKEY_SHIFT)
    )
    if writable:
        value |= ptemod.WRITABLE_BIT
    if user:
        value |= ptemod.USER_BIT
    if nx:
        value |= ptemod.NX_BIT
    return value


def _ref_pte_status(value):
    return _ref_decode(value).status


def _ref_hw_install_frame(lba_pte, pfn):
    decoded = _ref_decode(lba_pte)
    if decoded.present or not decoded.lba_bit:
        raise PageTableError(
            f"hw_install_frame on PTE in state {decoded.status}; "
            "expected NON_RESIDENT_HW"
        )
    return make_present_pte(
        pfn, writable=decoded.writable, user=decoded.user, nx=decoded.nx,
        pkey=decoded.pkey, lba_pending=True,
    )


def _ref_os_sync_metadata(pte):
    decoded = _ref_decode(pte)
    if decoded.status is not PteStatus.RESIDENT_PENDING_SYNC:
        raise PageTableError(
            f"os_sync_metadata on PTE in state {decoded.status}; "
            "expected RESIDENT_PENDING_SYNC"
        )
    return pte & ~ptemod.LBA_BIT


def _ref_evict_to_lba(present_pte, lba, *, device_id=0, socket_id=0):
    decoded = _ref_decode(present_pte)
    if not decoded.present:
        raise PageTableError("evict_to_lba requires a present PTE")
    return _ref_make_lba_pte(
        lba, device_id=device_id, socket_id=socket_id, writable=decoded.writable,
        user=decoded.user, nx=decoded.nx, pkey=decoded.pkey,
    )


def _ref_revert_to_normal(lba_pte):
    decoded = _ref_decode(lba_pte)
    if decoded.present or not decoded.lba_bit:
        raise PageTableError("revert_to_normal requires a NON_RESIDENT_HW PTE")
    return 0


def _ref_update_lba(lba_pte, new_lba, *, device_id=None, socket_id=None):
    decoded = _ref_decode(lba_pte)
    if decoded.present or not decoded.lba_bit:
        raise PageTableError("update_lba requires a NON_RESIDENT_HW PTE")
    return _ref_make_lba_pte(
        new_lba,
        device_id=decoded.device_id if device_id is None else device_id,
        socket_id=decoded.socket_id if socket_id is None else socket_id,
        writable=decoded.writable, user=decoded.user, nx=decoded.nx, pkey=decoded.pkey,
    )


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("raise", message)`` for one call."""
    try:
        return ("ok", fn(*args, **kwargs))
    except PageTableError as exc:
        return ("raise", str(exc))


def _field(max_value):
    """One field's values: anywhere in range, its extremes, just outside."""
    return st.one_of(
        st.integers(min_value=0, max_value=max_value),
        st.sampled_from([0, 1, max_value, max_value + 1, -1]),
    )


def _extreme(max_value):
    return st.sampled_from([0, 1, max_value])


#: Raw 64-bit entries: arbitrary bit patterns, plus well-formed entries of
#: both layouts with every field at an extreme.
raw_ptes = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.builds(
        make_present_pte, _extreme(ptemod.MAX_PFN), writable=bools, user=bools,
        nx=bools, pkey=_extreme(ptemod.MAX_PKEY), lba_pending=bools,
    ),
    st.builds(
        make_lba_pte, _extreme(ptemod.MAX_LBA),
        device_id=_extreme(ptemod.MAX_DEVICE_ID), socket_id=_extreme(ptemod.MAX_SOCKET_ID),
        writable=bools, user=bools, nx=bools, pkey=_extreme(ptemod.MAX_PKEY),
    ),
    st.sampled_from([0, (1 << 64) - 1, ptemod.STATE_MASK, ptemod.LBA_BIT, ptemod.PRESENT_BIT]),
)


class TestTransitionsMatchReference:
    """Bit-mask transitions ≡ the decode/re-encode reference, input for input."""

    @given(value=raw_ptes)
    @settings(max_examples=200)
    def test_decode_and_status(self, value):
        decoded, expected = decode_pte(value), _ref_decode(value)
        for name in ptemod.DecodedPte.__dataclass_fields__:
            assert getattr(decoded, name) == getattr(expected, name), name
        assert decoded.status is expected.status
        assert pte_status(value) is _ref_pte_status(value)

    @given(value=raw_ptes, pfn=_field(ptemod.MAX_PFN))
    @settings(max_examples=200)
    def test_hw_install_frame(self, value, pfn):
        assert _outcome(hw_install_frame, value, pfn) == _outcome(
            _ref_hw_install_frame, value, pfn
        )

    @given(value=raw_ptes)
    @settings(max_examples=200)
    def test_os_sync_metadata(self, value):
        assert _outcome(os_sync_metadata, value) == _outcome(_ref_os_sync_metadata, value)

    @given(value=raw_ptes, lba=_field(ptemod.MAX_LBA), dev=_field(ptemod.MAX_DEVICE_ID),
           sid=_field(ptemod.MAX_SOCKET_ID))
    @settings(max_examples=200)
    def test_evict_to_lba(self, value, lba, dev, sid):
        assert _outcome(evict_to_lba, value, lba, device_id=dev, socket_id=sid) == (
            _outcome(_ref_evict_to_lba, value, lba, device_id=dev, socket_id=sid)
        )

    @given(value=raw_ptes, lba=_field(ptemod.MAX_LBA),
           dev=st.one_of(st.none(), _field(ptemod.MAX_DEVICE_ID)),
           sid=st.one_of(st.none(), _field(ptemod.MAX_SOCKET_ID)))
    @settings(max_examples=200)
    def test_update_lba(self, value, lba, dev, sid):
        assert _outcome(update_lba, value, lba, device_id=dev, socket_id=sid) == (
            _outcome(_ref_update_lba, value, lba, device_id=dev, socket_id=sid)
        )

    @given(value=raw_ptes)
    @settings(max_examples=200)
    def test_revert_to_normal(self, value):
        assert _outcome(revert_to_normal, value) == _outcome(_ref_revert_to_normal, value)

    def test_generator_covers_all_four_states(self):
        # Without this the properties above could pass vacuously.
        for status in PteStatus:
            find(raw_ptes, lambda value, status=status: _ref_pte_status(value) is status)
