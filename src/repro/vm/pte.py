"""LBA-augmented page-table-entry codec (paper §III-B, Figure 6, Table I).

A PTE is a 64-bit integer.  Two layouts exist, selected by the PRESENT and
LBA bits:

**Present page** (Figure 6a)::

    bit  0        PRESENT = 1
    bits 1..8     protection / status flags (W, USER, PWT, PCD, A, D, PAT, G)
    bit  10       LBA bit — with PRESENT=1 it means "page miss was handled
                  by hardware; OS metadata not yet synchronised" (Table I)
    bits 12..51   PFN (40 bits)
    bits 59..62   protection key (x86 pkeys)
    bit  63       NX

**Non-present, LBA-augmented page** (Figure 6b)::

    bit  0        PRESENT = 0
    bits 1..8     preserved protection flags (so the hardware-installed
                  mapping keeps page-level permissions, §III-B)
    bit  10       LBA bit = 1 — the PFN field holds a storage location and
                  a page miss is handled by hardware
    bits 12..52   LBA (41 bits → up to 1 PB per namespace)
    bits 53..55   device ID (3 bits → 8 devices per socket)
    bits 56..58   socket ID (3 bits → 8 sockets; selects the home SMU)
    bits 59..62   protection key
    bit  63       NX

A non-present PTE with the LBA bit *clear* is a conventional invalid entry
(swap offset or empty) and faults to the OS.

Upper-level entries (PMD/PUD) reuse the LBA bit with a different meaning
(§III-B, Table I): "some PTE below was hardware-handled and awaits OS
metadata synchronisation".  :func:`describe_upper` captures that.

The Table I transitions (:func:`hw_install_frame`, :func:`os_sync_metadata`,
:func:`evict_to_lba`, :func:`update_lba`, :func:`revert_to_normal`) and
:func:`pte_status` are bit operations on the raw integer, as in the
hardware: each tests the PRESENT/LBA pair and builds its result with masks.
:class:`DecodedPte` (from :func:`decode_pte`) is the readable view for
tests, tracing and cold paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PageTableError

# ----------------------------------------------------------------------
# Bit layout
# ----------------------------------------------------------------------
PRESENT_BIT = 1 << 0
WRITABLE_BIT = 1 << 1
USER_BIT = 1 << 2
PWT_BIT = 1 << 3
PCD_BIT = 1 << 4
ACCESSED_BIT = 1 << 5
DIRTY_BIT = 1 << 6
PAT_BIT = 1 << 7
GLOBAL_BIT = 1 << 8
#: The paper's prototype repurposes software-available bit 10 as the LBA bit.
LBA_BIT = 1 << 10

PROT_MASK = (
    WRITABLE_BIT | USER_BIT | PWT_BIT | PCD_BIT | ACCESSED_BIT | DIRTY_BIT | PAT_BIT | GLOBAL_BIT
)

PFN_SHIFT = 12
PFN_BITS = 40
PFN_MASK = ((1 << PFN_BITS) - 1) << PFN_SHIFT

LBA_SHIFT = 12
LBA_BITS = 41
LBA_FIELD_MASK = ((1 << LBA_BITS) - 1) << LBA_SHIFT

DEVICE_SHIFT = 53
DEVICE_BITS = 3
DEVICE_FIELD_MASK = ((1 << DEVICE_BITS) - 1) << DEVICE_SHIFT

SOCKET_SHIFT = 56
SOCKET_BITS = 3
SOCKET_FIELD_MASK = ((1 << SOCKET_BITS) - 1) << SOCKET_SHIFT

PKEY_SHIFT = 59
PKEY_BITS = 4
PKEY_MASK = ((1 << PKEY_BITS) - 1) << PKEY_SHIFT

NX_BIT = 1 << 63

MAX_PFN = (1 << PFN_BITS) - 1
MAX_LBA = (1 << LBA_BITS) - 1

#: Anonymous-page extension (paper §V): a reserved LBA-field constant marks
#: "first touch of an anonymous page".  The SMU recognises it and bypasses
#: I/O processing, handing back a zero-filled frame.  The all-ones LBA is
#: safe to reserve: it would name the last 512 bytes of a maximal 1 PB
#: namespace, which no page-sized allocation ever starts at.
ANON_FIRST_TOUCH_LBA = MAX_LBA
MAX_DEVICE_ID = (1 << DEVICE_BITS) - 1
MAX_SOCKET_ID = (1 << SOCKET_BITS) - 1
MAX_PKEY = (1 << PKEY_BITS) - 1

#: The two bits that select a leaf PTE's Table I state.
STATE_MASK = PRESENT_BIT | LBA_BIT
#: Fields every transition carries across both layouts: page-level
#: permissions (W, USER), protection key and NX (§III-B).
_CARRIED_MASK = WRITABLE_BIT | USER_BIT | PKEY_MASK | NX_BIT


class PteStatus(enum.Enum):
    """The four leaf-PTE states of Table I."""

    #: PRESENT=0, LBA=0 — invalid/swap entry; page miss handled by the OS.
    NON_RESIDENT_OS = "non-resident, not LBA-augmented (OS handles miss)"
    #: PRESENT=0, LBA=1 — LBA-augmented; page miss handled by hardware.
    NON_RESIDENT_HW = "non-resident, LBA-augmented (hardware handles miss)"
    #: PRESENT=1, LBA=1 — hardware installed the page; OS metadata pending.
    RESIDENT_PENDING_SYNC = "resident, hardware-handled, OS metadata not updated"
    #: PRESENT=1, LBA=0 — a conventional resident page.
    RESIDENT = "resident (conventional)"


class UpperStatus(enum.Enum):
    """Upper-level (PMD/PUD) entry states of Table I."""

    #: LBA=0 — no PTE below needs OS metadata synchronisation.
    NO_SYNC_NEEDED = "no PTE below requires OS metadata update"
    #: LBA=1 — one or more PTEs below were hardware-handled.
    SYNC_NEEDED = "lower table(s) hold hardware-handled PTEs awaiting sync"


#: ``value & STATE_MASK`` → Table I leaf status.
_STATUS_OF_BITS = {
    0: PteStatus.NON_RESIDENT_OS,
    LBA_BIT: PteStatus.NON_RESIDENT_HW,
    PRESENT_BIT | LBA_BIT: PteStatus.RESIDENT_PENDING_SYNC,
    PRESENT_BIT: PteStatus.RESIDENT,
}


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def make_present_pte(
    pfn: int,
    *,
    writable: bool = True,
    user: bool = True,
    nx: bool = False,
    pkey: int = 0,
    lba_pending: bool = False,
    accessed: bool = False,
    dirty: bool = False,
    global_page: bool = False,
) -> int:
    """Encode a present PTE (Figure 6a).

    ``lba_pending`` sets the LBA bit alongside PRESENT — the Table I state
    meaning "installed by hardware, OS metadata not yet updated".
    """
    if not 0 <= pfn <= MAX_PFN:
        raise PageTableError(f"PFN {pfn:#x} exceeds {PFN_BITS} bits")
    if not 0 <= pkey <= MAX_PKEY:
        raise PageTableError(f"pkey {pkey} exceeds {PKEY_BITS} bits")
    value = PRESENT_BIT | (pfn << PFN_SHIFT) | (pkey << PKEY_SHIFT)
    if writable:
        value |= WRITABLE_BIT
    if user:
        value |= USER_BIT
    if nx:
        value |= NX_BIT
    if lba_pending:
        value |= LBA_BIT
    if accessed:
        value |= ACCESSED_BIT
    if dirty:
        value |= DIRTY_BIT
    if global_page:
        value |= GLOBAL_BIT
    return value


def _lba_fields(lba: int, device_id: int, socket_id: int) -> int:
    """LBA bit plus the range-checked storage location of Figure 6b."""
    if not 0 <= lba <= MAX_LBA:
        raise PageTableError(f"LBA {lba:#x} exceeds {LBA_BITS} bits")
    if not 0 <= device_id <= MAX_DEVICE_ID:
        raise PageTableError(f"device ID {device_id} exceeds {DEVICE_BITS} bits")
    if not 0 <= socket_id <= MAX_SOCKET_ID:
        raise PageTableError(f"socket ID {socket_id} exceeds {SOCKET_BITS} bits")
    return (
        LBA_BIT
        | (lba << LBA_SHIFT)
        | (device_id << DEVICE_SHIFT)
        | (socket_id << SOCKET_SHIFT)
    )


def make_lba_pte(
    lba: int,
    *,
    device_id: int = 0,
    socket_id: int = 0,
    writable: bool = True,
    user: bool = True,
    nx: bool = False,
    pkey: int = 0,
) -> int:
    """Encode a non-present LBA-augmented PTE (Figure 6b)."""
    value = _lba_fields(lba, device_id, socket_id)
    if not 0 <= pkey <= MAX_PKEY:
        raise PageTableError(f"pkey {pkey} exceeds {PKEY_BITS} bits")
    value |= pkey << PKEY_SHIFT
    if writable:
        value |= WRITABLE_BIT
    if user:
        value |= USER_BIT
    if nx:
        value |= NX_BIT
    return value


def make_anon_lba_pte(*, writable: bool = True, user: bool = True, nx: bool = False,
                      pkey: int = 0) -> int:
    """A first-touch anonymous PTE for the §V extension: LBA field set to
    the reserved constant so the SMU zero-fills instead of reading disk."""
    return make_lba_pte(
        ANON_FIRST_TOUCH_LBA, writable=writable, user=user, nx=nx, pkey=pkey
    )


def is_anon_first_touch(value: int) -> bool:
    """True when a decoded/raw PTE is a first-touch anonymous marker."""
    decoded = decode_pte(value) if isinstance(value, int) else value
    return (
        decoded.status is PteStatus.NON_RESIDENT_HW
        and decoded.lba == ANON_FIRST_TOUCH_LBA
    )


def make_swap_pte(swap_offset: int) -> int:
    """Encode a conventional non-present swap entry (LBA bit clear).

    The OS stores an architecture-independent swap offset in the PFN field;
    the MMU treats any PRESENT=0, LBA=0 entry as an OS-handled fault.
    """
    if not 0 <= swap_offset <= MAX_PFN:
        raise PageTableError(f"swap offset {swap_offset:#x} too large")
    return swap_offset << PFN_SHIFT


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
@dataclass(slots=True, eq=False)
class DecodedPte:
    """A decoded view of one 64-bit leaf PTE.

    Treated as immutable by every consumer; not ``frozen`` because the
    per-field ``object.__setattr__`` of frozen dataclasses dominates
    :func:`decode_pte` on the miss path (one decode per hardware miss).
    """

    raw: int
    present: bool
    lba_bit: bool
    writable: bool
    user: bool
    nx: bool
    pkey: int
    pfn: int  # valid when present
    lba: int  # valid when LBA-augmented & non-present
    device_id: int
    socket_id: int
    status: PteStatus


def decode_pte(value: int) -> DecodedPte:
    """Decode a leaf PTE into its fields and Table I status."""
    return DecodedPte(
        value,
        bool(value & PRESENT_BIT),
        bool(value & LBA_BIT),
        bool(value & WRITABLE_BIT),
        bool(value & USER_BIT),
        bool(value & NX_BIT),
        (value & PKEY_MASK) >> PKEY_SHIFT,
        (value & PFN_MASK) >> PFN_SHIFT,
        (value & LBA_FIELD_MASK) >> LBA_SHIFT,
        (value & DEVICE_FIELD_MASK) >> DEVICE_SHIFT,
        (value & SOCKET_FIELD_MASK) >> SOCKET_SHIFT,
        _STATUS_OF_BITS[value & STATE_MASK],
    )


def pte_status(value: int) -> PteStatus:
    """Table I status of a leaf PTE."""
    return _STATUS_OF_BITS[value & STATE_MASK]


def describe_upper(value: int) -> UpperStatus:
    """Table I status of an upper-level (PMD/PUD) entry."""
    return UpperStatus.SYNC_NEEDED if value & LBA_BIT else UpperStatus.NO_SYNC_NEEDED


# ----------------------------------------------------------------------
# Transitions (the state machine of §III-B/§IV)
# ----------------------------------------------------------------------
def hw_install_frame(lba_pte: int, pfn: int) -> int:
    """The SMU's page-table update: LBA field → PFN, PRESENT set.

    The LBA bit is deliberately *kept set* so kpted later knows this PTE's
    OS metadata must be synchronised (§III-C step 7: "SMU does not clear
    the LBA bit").  Protection bits, pkey and NX are preserved.
    """
    if lba_pte & STATE_MASK != LBA_BIT:
        raise PageTableError(
            f"hw_install_frame on PTE in state {pte_status(lba_pte)}; "
            "expected NON_RESIDENT_HW"
        )
    if not 0 <= pfn <= MAX_PFN:
        raise PageTableError(f"PFN {pfn:#x} exceeds {PFN_BITS} bits")
    return (lba_pte & _CARRIED_MASK) | STATE_MASK | (pfn << PFN_SHIFT)


def os_sync_metadata(pte: int) -> int:
    """kpted's final act for one PTE: clear the LBA bit (§IV-C)."""
    if pte & STATE_MASK != STATE_MASK:
        raise PageTableError(
            f"os_sync_metadata on PTE in state {pte_status(pte)}; "
            "expected RESIDENT_PENDING_SYNC"
        )
    return pte & ~LBA_BIT


def evict_to_lba(present_pte: int, lba: int, *, device_id: int = 0, socket_id: int = 0) -> int:
    """Page replacement in a fast-mmap VMA: present PTE → LBA-augmented.

    Implements §IV-B's eviction rule: record the LBA, clear PRESENT, set the
    LBA bit, preserving protections.
    """
    if not present_pte & PRESENT_BIT:
        raise PageTableError("evict_to_lba requires a present PTE")
    return _lba_fields(lba, device_id, socket_id) | (present_pte & _CARRIED_MASK)


def revert_to_normal(lba_pte: int) -> int:
    """fork() support (§V): LBA-augmented PTE → conventional empty PTE.

    Shared mappings are unsupported, so on fork every LBA-augmented entry
    reverts to an ordinary non-present entry whose miss the OS handles.
    """
    if lba_pte & STATE_MASK != LBA_BIT:
        raise PageTableError("revert_to_normal requires a NON_RESIDENT_HW PTE")
    return 0


def update_lba(lba_pte: int, new_lba: int, *, device_id: int = None, socket_id: int = None) -> int:
    """File-system block remap (§IV-B): refresh the LBA field in place."""
    if lba_pte & STATE_MASK != LBA_BIT:
        raise PageTableError("update_lba requires a NON_RESIDENT_HW PTE")
    if device_id is None:
        device_id = (lba_pte & DEVICE_FIELD_MASK) >> DEVICE_SHIFT
    if socket_id is None:
        socket_id = (lba_pte & SOCKET_FIELD_MASK) >> SOCKET_SHIFT
    return _lba_fields(new_lba, device_id, socket_id) | (lba_pte & _CARRIED_MASK)


# ----------------------------------------------------------------------
# Huge-page semantics (§V "Huge Page Support")
# ----------------------------------------------------------------------
#: x86's page-size bit: in a PMD/PUD entry, bit 7 selects a huge mapping
#: (in a leaf PTE the same bit is PAT — context decides, as on real x86).
PS_BIT = PAT_BIT


def make_huge_pmd(pfn: int, **kwargs) -> int:
    """A present PMD-level (2 MB) huge-page mapping: PS bit set."""
    return make_present_pte(pfn, **kwargs) | PS_BIT


def make_huge_lba_pmd(lba: int, **kwargs) -> int:
    """A non-present LBA-augmented huge mapping (§V extension sketch)."""
    return make_lba_pte(lba, **kwargs) | PS_BIT


def is_huge(value: int) -> bool:
    return bool(value & PS_BIT)


def describe_pmd(value: int):
    """§V's dual reading of a PMD entry's LBA bit.

    * PS set — the entry *is* the mapping: the LBA bit carries leaf-PTE
      (Table I) semantics for the huge page itself, so this returns a
      :class:`PteStatus`.
    * PS clear — the entry points at a last-level page table: the LBA bit
      carries the Table I upper-level meaning ("some PTE below was
      hardware-handled"), so this returns an :class:`UpperStatus`.
    """
    if is_huge(value):
        return pte_status(value)
    return describe_upper(value)


def table1_rows():
    """The full Table I as (type, lba, present, pfn-field, description) rows.

    Used by the ``table1_semantics`` experiment to print the reproduced
    table and by tests to assert the codec implements exactly these rows.
    """
    return [
        ("PTE", 0, 0, "0s / swap", PteStatus.NON_RESIDENT_OS.value),
        ("PTE", 1, 0, "LBA", PteStatus.NON_RESIDENT_HW.value),
        ("PTE", 1, 1, "PFN", PteStatus.RESIDENT_PENDING_SYNC.value),
        ("PTE", 0, 1, "PFN", PteStatus.RESIDENT.value),
        ("PUD/PMD", 0, "X", "PFN of next-level table", UpperStatus.NO_SYNC_NEEDED.value),
        ("PUD/PMD", 1, "X", "PFN of next-level table", UpperStatus.SYNC_NEEDED.value),
    ]
