"""Emulated CVM private memory: frames, privilege-aware page tables, CoW forks.

The emulator models a 4 KiB-paged address space with per-privilege-level
read/write permissions, a free-frame pool, and a cost model that
charges simulated microseconds for page validation, copy-on-write copies,
hashing, and data transfers.  Simulated time is an explicit integer
accumulator; nothing here touches the wall clock, so all timing assertions
are deterministic.

Per-frame facts are typed columns in ``FrameStore`` (``array.array``,
``bytearray`` and a list), which the run operations of an invocation index
frame by frame without numpy's per-call cost; a page table is two
plain lists, frame id and grants code per vpn, and a copy-on-write view
reads its sealed base's lists until it first changes a base vpn.  Tables
map, unmap, check and move data a run of pages at a time.  Frame contents
are real bytes, so that measurement digests are genuine, yet a multi-GiB
pool stays cheap to reserve: every page is a slice of an immutable
``bytes`` that two more ``FrameStore`` columns name, and a page never
written reads as zeros.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BaseInUse,
    ConfigInvalid,
    DoubleMap,
    NotSealed,
    OutOfHostMemory,
    OutOfMemory,
    PermissionDenied,
)

PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)


def pages_for(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold nbytes."""
    return max(0, math.ceil(nbytes / PAGE_SIZE))


class PrivilegeLevel(IntEnum):
    """Intra-CVM privilege tiers; numerically smaller means more privileged."""

    PL0_MONITOR = 0
    PL1_PROCESS = 1
    PL2_GUEST = 2


PL0 = PrivilegeLevel.PL0_MONITOR
PL1 = PrivilegeLevel.PL1_PROCESS
PL2 = PrivilegeLevel.PL2_GUEST


class AccessKind(str, Enum):
    READ = "read"
    WRITE = "write"


class FaultKind(str, Enum):
    NOT_MAPPED = "not_mapped"
    PERMISSION_VIOLATION = "permission_violation"
    COW_FAULT = "cow_fault"


@dataclass(frozen=True)
class PageFault:
    """Typed fault returned (never raised) by PageTable.access."""

    kind: FaultKind
    vpn: int
    level: PrivilegeLevel


@dataclass(frozen=True)
class PagePerms:
    """Per-privilege-level read/write grants for one mapping.

    Mappings use only the interned constants below (``PagePerms.PROCESS_RW``
    and so on), so thousands of entries share five objects.
    """

    read: frozenset
    write: frozenset

    def can(self, level: PrivilegeLevel, kind: AccessKind) -> bool:
        grants = self.read if kind is AccessKind.READ else self.write
        return level in grants


_interned = functools.cache(PagePerms)  # one object per distinct pair
PagePerms.MONITOR_PRIVATE = _interned(frozenset({PL0}), frozenset({PL0}))
PagePerms.PROCESS_RW = _interned(frozenset({PL0, PL1}), frozenset({PL0, PL1}))
PagePerms.PROCESS_RO = _interned(frozenset({PL0, PL1}), frozenset({PL0}))
# Write-only object grant: the writer streams data out but cannot read it
# back through this mapping.
PagePerms.PROCESS_WO = _interned(frozenset({PL0}), frozenset({PL0, PL1}))
PagePerms.GUEST_RW = _interned(frozenset({PL0, PL2}), frozenset({PL0, PL2}))


@dataclass
class CostModel:
    """Simulated-time rates; defaults follow the emulated platform profile.

    validation_us_per_page: one-time cost of validating a fresh 4 KiB page.
    hash_mb_per_s: SHA-512 measurement throughput (MiB/s); also used for
        transport crypto charges, which similarly lack acceleration.
    cow_copy_us_per_page: page copy cost (tunable; chosen so descriptor-clone
        dominated trustlet creation lands under the 0.2 ms bound).
    transfer_us_per_mb: cross-level data transfer cost per MiB.
    """

    validation_us_per_page: float = 24.0
    hash_mb_per_s: float = 54.5
    cow_copy_us_per_page: float = 2.0
    transfer_us_per_mb: float = 1089.0

    def __post_init__(self) -> None:
        for rate in fields(self):
            if getattr(self, rate.name) <= 0:
                raise ConfigInvalid(f"{rate.name} must be strictly positive")

    def validation_us(self, pages: int) -> int:
        return int(round(pages * self.validation_us_per_page))

    def copy_us(self, pages: int) -> int:
        return int(round(pages * self.cow_copy_us_per_page))

    def hash_us(self, nbytes: int) -> int:
        return int(round(nbytes / (self.hash_mb_per_s * 1048576) * 1e6))

    def transfer_us(self, nbytes: int) -> int:
        return int(round(nbytes / 1048576 * self.transfer_us_per_mb))

    def crypto_us(self, nbytes: int) -> int:
        return self.hash_us(nbytes)


def _grown(col, n: int, fill: object = 0):
    """A copy of the column col extended to n items, the new ones fill."""
    unit = col[:0]  # empty, of col's type (and an array's typecode)
    unit.append(fill)
    out = unit * n
    out[: len(col)] = col
    return out


# Owner-column values besides the levels: a frame in a pool's free list,
# and a handed-out frame that no level owns.
FREE, NO_OWNER = -2, -1
# One-item owner columns per value, repeated to fill a run.
_FILL = {v: array("b", [v]) for v in (FREE, NO_OWNER, *PrivilegeLevel)}


class FrameStore:
    """Owns every frame: its facts, its bytes and the copy counter.

    Each per-frame fact is a column indexed by frame id, grown by
    ``reserve``: reference count, base id and offset (``array.array``),
    validated and base-grants-PL1 flags (``bytearray``), owner level
    (signed bytes: ``FREE`` while in a pool, ``NO_OWNER`` for none), and
    the immutable ``bytes`` holding the frame's page (a list; ``None``
    reads as zeros).  Python indexes these at list speed, so a run
    operation loops over its frames and pays no per-call numpy cost; the
    few whole-column computations read them through ``np.frombuffer``
    views made and dropped within one call.  Pages are never changed in
    place: a write points the frame at new bytes, a copy points two frames
    at the same ones, and a buffer lives while any frame refers to it.

    A frame's reference count is the number of page-table entries, CoW view
    entries included, that map it, in two parts.  Explicit counts move with
    every table's own mappings.  A sealed table's frames are registered
    once as a *base*, and each CoW view adds one to the base's view count
    instead of touching every frame; a view that stops mapping a base frame
    takes an explicit reference off it, which may go negative.

    Per base the store also keeps what ``resident_split`` needs to count
    the base's frames without visiting each: its PL1-granted frame count,
    a column marking those frames, and its *odd* frames, those whose
    explicit count is not one, which the bulk calls keep current.  Every
    other frame of a base counts ``1 + views``.
    """

    def __init__(self) -> None:
        self._ref = array("q", [0]) * 1024
        self._ref_sum = 0  # of _ref, which only the bulk calls change
        # Base id of each frame; 0 means the frame belongs to no base.
        self._base_of = array("i", [0]) * 1024
        self._validated = bytearray(1024)
        self._owner = array("b", [FREE]) * 1024
        self._base_pl1 = bytearray(1024)  # its base grants PL1
        self._src: list[Optional[bytes]] = [None] * 1024
        self._off = array("q", [0]) * 1024
        # Per base id: live view count, registered frame count and how many
        # of those its table grants PL1 access.  Slot 0 stays zero so frames
        # of no base add nothing; the next base id is the lists' length.
        self._views = [0]
        self._base_size = [0]
        self._base_pl1_size = [0]
        # Per live base id, its odd frames.
        self._odd: dict[int, set[int]] = {}
        self._next_fid = 0
        self.copied_bytes_total = 0

    # -- frame lifecycle --

    def reserve(self, n: int, validated: bool) -> tuple[int, int]:
        """Reserve n fresh, free frame ids; no page bytes are allocated."""
        start = self._next_fid
        self._next_fid += n
        if self._next_fid > len(self._ref):
            new_len = max(self._next_fid, len(self._ref) * 2)
            self._ref = _grown(self._ref, new_len)
            self._base_of = _grown(self._base_of, new_len)
            self._validated = _grown(self._validated, new_len)
            self._owner = _grown(self._owner, new_len, FREE)
            self._base_pl1 = _grown(self._base_pl1, new_len)
            self._src = _grown(self._src, new_len, None)
            self._off = _grown(self._off, new_len)
        if validated:
            self._validated[start : self._next_fid] = b"\1" * n
        return start, self._next_fid

    def n_frames(self) -> int:
        """Number of frame ids reserved so far; every id is below it."""
        return self._next_fid

    def claim(self, lo: int, hi: int,
              owner_level: Optional[PrivilegeLevel]) -> int:
        """Hand out the free frames lo..hi-1: validate them and record
        their owner; returns how many were not validated before."""
        validated, n = self._validated, hi - lo
        fresh = validated.count(0, lo, hi)
        if fresh:
            validated[lo:hi] = b"\1" * n
        self._owner[lo:hi] = _FILL[NO_OWNER if owner_level is None
                                   else owner_level] * n
        return fresh

    def take_back(self, runs: Sequence[tuple[int, int]]) -> None:
        """Return disjoint runs of handed-out frames to the free state and
        drop their bytes: all of them, or, if a frame is free or still
        mapped, none, failing an assertion."""
        owner, ref, base_of = self._owner, self._ref, self._base_of
        for lo, hi in runs:
            if FREE in owner[lo:hi]:
                raise AssertionError("frame released while free")
            # A frame with explicit references is mapped, and so is one of
            # a base, which its sealed table maps.
            if any(ref[lo:hi]) or any(base_of[lo:hi]):
                raise AssertionError("frame released while mapped")
        src, free = self._src, _FILL[FREE]
        for lo, hi in runs:
            src[lo:hi] = [None] * (hi - lo)
            owner[lo:hi] = free * (hi - lo)

    def validated_of(self, fids: Sequence[int]) -> np.ndarray:
        return np.frombuffer(self._validated, dtype=bool)[fids]

    def owners_of(self, fids: Sequence[int]) -> np.ndarray:
        return np.frombuffer(self._owner, dtype=np.int8)[fids]

    # -- shared bases --

    def register_base(self, fids: np.ndarray, pl1_fids: np.ndarray) -> int:
        """Register a sealed table's frames as one base; returns its id.

        Each frame may appear once, and in no other live base, so that one
        view count stands for exactly one mapping per frame.  pl1_fids are
        those of them that the table grants PL1 access.
        """
        if len(fids):
            ordered = np.sort(fids)
            if (ordered[1:] == ordered[:-1]).any():
                raise DoubleMap("a sealed table maps one frame twice")
            if np.frombuffer(self._base_of, dtype=np.int32)[fids].any():
                raise DoubleMap("frame already belongs to another sealed table")
        base = len(self._views)
        self._views.append(0)
        self._base_size.append(len(fids))
        self._base_pl1_size.append(len(pl1_fids))
        np.frombuffer(self._base_of, dtype=np.int32)[fids] = base
        np.frombuffer(self._base_pl1, dtype=bool)[pl1_fids] = True
        odd = np.frombuffer(self._ref, dtype=np.int64)[fids] != 1
        self._odd[base] = set(fids[odd].tolist())
        return base

    def unregister_base(self, base: int, fids: Sequence[int]) -> None:
        """Forget a base with no live views; its frames count explicitly."""
        if self._views[base]:
            raise BaseInUse(f"base {base} still has {self._views[base]} live views")
        np.frombuffer(self._base_of, dtype=np.int32)[fids] = 0
        np.frombuffer(self._base_pl1, dtype=bool)[fids] = False
        self._base_size[base] = self._base_pl1_size[base] = 0
        del self._odd[base]

    def add_view(self, base: int) -> None:
        self._views[base] += 1

    def drop_view(self, base: int) -> None:
        if self._views[base] <= 0:
            raise AssertionError(f"view underflow on base {base}")
        self._views[base] -= 1

    # -- reference counting --

    def ref(self, fid: int) -> int:
        return self._ref[fid] + self._views[self._base_of[fid]]

    def bulk_incref(self, fids: Sequence[int]) -> None:
        ref = self._ref
        for fid in fids:
            ref[fid] += 1
        self._ref_sum += len(fids)
        if any(map(self._base_of.__getitem__, fids)):
            self._note_odd(fids)

    def bulk_decref(self, fids: Sequence[int]) -> list[int]:
        """Drop one reference per entry of fids; returns the frames this
        left unmapped, distinct and in ascending order."""
        ref, base_of, views = self._ref, self._base_of, self._views
        for fid in fids:
            ref[fid] -= 1
        self._ref_sum -= len(fids)
        freed = []
        for fid in fids:
            count = ref[fid] + views[base_of[fid]]
            if count <= 0:
                if count:
                    raise AssertionError(f"ref underflow on frames {list(fids)}")
                freed.append(fid)
        if any(map(base_of.__getitem__, fids)):
            self._note_odd(fids)
        # A frame that fids holds twice is in freed twice.
        return sorted(set(freed)) if len(freed) > 1 else freed

    def _note_odd(self, fids: Iterable[int]) -> None:
        """Bring the odd sets of fids' bases up to date after a change to
        fids' explicit counts."""
        ref, base_of, odd = self._ref, self._base_of, self._odd
        for fid in fids:
            base = base_of[fid]
            if not base:
                continue
            if ref[fid] == 1:
                odd[base].discard(fid)
            else:
                odd[base].add(fid)

    def refs_of(self, fids: Iterable[int]) -> array:
        ref, base_of, views = self._ref, self._base_of, self._views
        return array("q", [ref[fid] + views[base_of[fid]] for fid in fids])

    def total_refs(self) -> int:
        # Per base rather than per frame: callers check this after every
        # step of long randomized runs.
        return self._ref_sum + sum(map(operator.mul, self._views, self._base_size))

    def resident_split(self, bases: Sequence[int], fids: np.ndarray,
                       pl1: np.ndarray) -> tuple[int, int]:
        """(shared, exclusive) frame counts over the union of the distinct
        bases' frames and fids, each frame counted once.

        Shared frames are mapped by more than one entry, exclusive ones by
        exactly one that grants PL1 access; pl1 marks the entries of fids
        that do.  A base's frames count from its sizes and view count,
        and only its odd frames one by one; entries of fids in one of the
        bases are skipped, as the base counts them already.
        """
        shared = sum(self._base_size[b] for b in bases if self._views[b])
        exclusive = sum(self._base_pl1_size[b] for b in bases if not self._views[b])
        ref = np.frombuffer(self._ref, dtype=np.int64)
        base_of = np.frombuffer(self._base_of, dtype=np.int32)
        base_pl1 = np.frombuffer(self._base_pl1, dtype=bool)
        views = np.array(self._views, dtype=np.int64)
        odd = np.array([f for b in bases for f in self._odd[b]], dtype=np.int64)
        if len(odd):  # counted above as 1 + views; correct them
            odd_views = views[base_of[odd]]
            refs = ref[odd] + odd_views
            odd_pl1 = base_pl1[odd]
            shared += (np.count_nonzero(refs > 1)
                       - np.count_nonzero(odd_views > 0))
            exclusive += (np.count_nonzero(odd_pl1 & (refs == 1))
                          - np.count_nonzero(odd_pl1 & (odd_views == 0)))
        counted = np.zeros(len(views), dtype=bool)
        counted[list(bases)] = True
        keep = ~counted[base_of[fids]]
        fids, pl1 = fids[keep], pl1[keep]
        refs = ref[fids] + views[base_of[fids]]
        shared += len(set(fids[refs > 1].tolist()))
        # A frame one entry maps is in fids once: no dedup needed.
        exclusive += np.count_nonzero(pl1 & (refs == 1))
        return int(shared), int(exclusive)

    # -- byte access (monitor-side, uncharged) --

    def _page(self, fid: int) -> bytes | memoryview:
        if not 0 <= fid < self._next_fid:
            raise KeyError(f"unknown frame {fid}")
        src = self._src[fid]
        if src is None:
            return _ZERO_PAGE
        off = self._off[fid]
        return memoryview(src)[off : off + PAGE_SIZE]

    def write_bytes(self, fid: int, offset: int, data: bytes) -> None:
        page = self._page(fid)
        self._src[fid] = b"".join(
            (page[:offset], data, page[offset + len(data) :]))
        self._off[fid] = 0

    def write_range(self, fids: Sequence[int], *chunks: bytes) -> None:
        """Write the chunks end to end across fids, one page per frame from
        its start; a single buffer is one chunk.

        A ``bytes`` chunk is referred to as it is, and any other chunk,
        which its owner may change later, is first copied into one.  A
        page that straddles two chunks is joined into new bytes, and so is
        a partial last page, which keeps the bytes past the data.
        """
        size = sum(map(len, chunks))
        if size > len(fids) * PAGE_SIZE:
            raise ValueError("data exceeds the frames' capacity")
        if size and (min(fids) < 0 or max(fids) >= self._next_fid):
            raise KeyError(f"unknown frame in {min(fids)}..{max(fids)}")
        src, off = self._src, self._off
        i, head = 0, []  # the next page's index in fids; its pieces so far
        for chunk in chunks:
            if type(chunk) is not bytes:
                chunk = bytes(chunk)
            start = 0
            if head:  # the page straddling the chunks before this one
                start = PAGE_SIZE - sum(map(len, head))
                head.append(memoryview(chunk)[:start])
                if len(chunk) < start:
                    continue
                self.write_bytes(fids[i], 0, b"".join(head))
                i, head = i + 1, []
            full = (len(chunk) - start) // PAGE_SIZE
            end = start + full * PAGE_SIZE
            for fid, at in zip(fids[i : i + full], range(start, end, PAGE_SIZE)):
                src[fid] = chunk
                off[fid] = at
            i += full
            if end < len(chunk):
                head = [memoryview(chunk)[end:]]
        if head:
            self.write_bytes(fids[i], 0, b"".join(head))

    def read_bytes(self, fid: int) -> bytes:
        return bytes(self._page(fid))

    def read_range(self, fids: Sequence[int], nbytes: int) -> bytes:
        """The first nbytes held by fids, one page per frame from its start."""
        if nbytes > len(fids) * PAGE_SIZE:
            raise ValueError("nbytes exceeds the frames' capacity")
        pages = [self._page(fid) for fid in fids[: pages_for(nbytes)]]
        if nbytes % PAGE_SIZE:
            pages[-1] = pages[-1][: nbytes % PAGE_SIZE]
        return b"".join(pages)

    def copy_frame(self, src_fids: int | Sequence[int],
                   dst_fids: int | Sequence[int]) -> None:
        """Copy a frame's page, or a run's pages: the copies refer to the
        same bytes, since a write gives its frame new ones."""
        if isinstance(dst_fids, int):
            src_fids, dst_fids = (src_fids,), (dst_fids,)
        src, off = self._src, self._off
        for s, d in zip(src_fids, dst_fids):
            src[d] = src[s]
            off[d] = off[s]
        self.copied_bytes_total += PAGE_SIZE * len(dst_fids)


class PageEntry(NamedTuple):
    """One mapping, as ``PageTable.lookup`` reports it."""

    frame_id: int
    perms: PagePerms


# A table stores a mapping's grants as a code: 0-4 index the five interned
# grants, and ``seal`` turns code c into c + 5, the same grants without PL1
# write.  Views read codes 5-9 as inherited unchanged from their base: only
# a sealed table makes them, and every change a view makes writes 0-4.
_GRANTS = (PagePerms.MONITOR_PRIVATE, PagePerms.PROCESS_RW,
           PagePerms.PROCESS_RO, PagePerms.PROCESS_WO, PagePerms.GUEST_RW)
_SEALED = len(_GRANTS)
_PERMS = _GRANTS + tuple(_interned(p.read, p.write - {PL1}) for p in _GRANTS)
# Per level, the codes whose grants allow a read, and those allowing a write.
_READABLE, _WRITABLE = ([frozenset(c for c, p in enumerate(_PERMS) if p.can(level, kind))
                         for level in PrivilegeLevel] for kind in AccessKind)
_PL1_CODES = np.array([PL1 in p.read | p.write for p in _PERMS])
_GUEST_CODES = frozenset(c for c, p in enumerate(_GRANTS) if PL2 in p.read | p.write)
_CODE_OF = {id(p): c for c, p in enumerate(_GRANTS)}


def _code(perms: PagePerms) -> int:
    """The grants code of perms: found by identity for the interned
    constants, which mappings use, and by equality for any other."""
    code = _CODE_OF.get(id(perms))
    return _GRANTS.index(perms) if code is None else code


def _mapped(fid: Iterable[int], perm: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The mapped frames of a table's two lists, or of several tables'
    lists end to end, and which of them their grants code gives PL1 access."""
    fids = np.fromiter(fid, dtype=np.int64)
    keep = fids >= 0
    return fids[keep], _PL1_CODES[np.fromiter(perm, dtype=np.int64)[keep]]


class PageTable:
    """Per-process virtual address space.

    Two plain lists indexed by ``vpn - _lo`` hold the mappings: ``_fid``,
    the frame id or -1, and ``_perm``, the grants' code (see ``_PERMS``).
    A copy-on-write *view* of a sealed base starts its lists at the base's
    ``next_unused_vpn()`` and reads the vpns below from the base, so a fork
    allocates nothing per page; its first change below that point copies
    the base's lists into its own.  A vpn is *inherited* while it keeps
    its sealed code: a PL1 write to it is a resolvable ``COW_FAULT``, and
    after the monitor changed the vpn a ``PERMISSION_VIOLATION``.  The
    store counts a base's views once (see ``FrameStore``); releasing a view
    that copied its base gives each base frame back its reference.

    ``read_run`` and ``write_run`` check every page of a run first, then
    make one ``FrameStore`` call; ``access`` is the one-page case.  A
    sealed table refuses every mutation.
    """

    def __init__(self, store: FrameStore, owner: int,
                 base: Optional["PageTable"] = None):
        if base is not None and not base.sealed:
            raise NotSealed(f"table of process {base.owner} is not sealed")
        self.store = store
        self.owner = owner
        self.base = base
        self.sealed = False
        self._base_id: Optional[int] = None  # set while forkable
        self._sealed_fids = array("q")
        self._next_vpn = base.next_unused_vpn() if base is not None else 0
        self._lo = self._next_vpn  # nonzero only in a view that reads its base
        self._fid, self._perm = [], []  # frame id and grants code per vpn
        self._n = 0  # mapped entries in the two lists

    # -- lookup helpers --

    def _slot(self, vpn: int) -> tuple[int, int]:
        """(frame id, grants code) at vpn; frame id -1 if unmapped."""
        i = vpn - self._lo
        if 0 <= i < len(self._fid):
            return self._fid[i], self._perm[i]
        if i < 0 and self._lo:
            return self.base._slot(vpn)
        return -1, 0

    def _slots(self, vpns: Sequence[int]) -> tuple[list[int], list[int]]:
        lo, fid, perm = self._lo, self._fid, self._perm
        if vpns and lo <= min(vpns) and max(vpns) < lo + len(fid):
            return [fid[v - lo] for v in vpns], [perm[v - lo] for v in vpns]
        slots = [self._slot(v) for v in vpns]
        return [f for f, _ in slots], [c for _, c in slots]

    def lookup(self, vpn: int) -> Optional[PageEntry]:
        i = vpn - self._lo
        if i < 0:
            return self.base.lookup(vpn) if self._lo else None
        if i < len(self._fid) and self._fid[i] >= 0:
            return PageEntry(self._fid[i], _PERMS[self._perm[i]])
        return None

    def mapped_vpns(self) -> Iterator[int]:
        own = itertools.compress(range(self._lo, self._lo + len(self._fid)),
                                 map((-1).__lt__, self._fid))  # fid >= 0
        return itertools.chain(self.base.mapped_vpns(), own) if self._lo else own

    def n_entries(self) -> int:
        return self._n + (self.base.n_entries() if self._lo else 0)

    def next_unused_vpn(self) -> int:
        return self._next_vpn

    def take_vpns(self, n: int) -> list[int]:
        """Hand out n fresh virtual page numbers (bump allocation)."""
        vpns = list(range(self._next_vpn, self._next_vpn + n))
        self._next_vpn += n
        return vpns

    def local_frame_ids(self) -> array:
        """Frames in this table's own lists, in vpn order (cached if sealed)."""
        if self.sealed:
            return self._sealed_fids
        return array("q", [fid for fid in self._fid if fid >= 0])

    def base_counted(self) -> Optional[int]:
        """Id of the base whose frames this table maps without own entries
        for them: its own base if sealed, or the base a view still reads."""
        if self.sealed:
            return self._base_id
        return self.base._base_id if self._lo else None

    # -- mutation (PL0 only; a sealed table refuses all of it) --

    def _require_mutable(self, caller: PrivilegeLevel, action: str) -> None:
        if caller is not PL0:
            raise PermissionDenied(f"{caller.name} may not {action}")
        if self.sealed:
            raise NotSealed(
                f"table of process {self.owner} is sealed; templates are frozen")

    def _own(self, vpn: int) -> int:
        """vpn's index in the lists, first copying a view's base lists under
        its own if vpn is below them (the view count covers their frames)."""
        if vpn < self._lo:
            base, gap = self.base, self._lo - len(self.base._fid)
            self._fid = base._fid + [-1] * gap + self._fid
            self._perm = base._perm + [0] * gap + self._perm
            self._n += base._n
            self._lo = 0
        return vpn - self._lo

    def map_page(self, vpn: int, frame_id: int, perms: PagePerms,
                 caller: PrivilegeLevel = PL0) -> None:
        """Install a mapping. Only the monitor manages page tables."""
        self._map_run(vpn, [frame_id], perms, caller)

    def map_range(self, fids: Sequence[int], perms: PagePerms,
                  caller: PrivilegeLevel = PL0) -> list[int]:
        """Map fids at fresh consecutive vpns, all with perms; returns the
        vpns."""
        vpn = self._next_vpn
        self._map_run(vpn, fids, perms, caller)
        return list(range(vpn, vpn + len(fids)))

    def _map_run(self, vpn: int, fids: Sequence[int], perms: PagePerms,
                 caller: PrivilegeLevel) -> None:
        """Map fids at vpn, vpn + 1, ...: all of them, or, if any check
        fails, none."""
        self._require_mutable(caller, "map pages")
        code = _code(perms)
        if vpn < 0 or len(fids) and (min(fids) < 0
                                     or max(fids) >= self.store.n_frames()):
            raise KeyError(f"vpn {vpn} or a frame is out of range")
        if code in _GUEST_CODES:
            held = [fid for fid, owner in zip(fids, self.store.owners_of(fids))
                    if owner in (PL0, PL1)]
            if held:
                raise PermissionDenied(f"frame {held[0]} is owned by PL0 or "
                                       "PL1 and cannot be exposed to the guest")
        stop, end = vpn + len(fids), self._lo + len(self._fid)
        if vpn < end:
            taken = [v for v in range(vpn, min(stop, end)) if self._slot(v)[0] >= 0]
            if taken:
                raise DoubleMap(f"vpn {taken[0]} already mapped in process {self.owner}")
        i = self._own(vpn)
        j = i + len(fids)
        if j > len(self._fid):
            self._fid += [-1] * (j - len(self._fid))
            self._perm += [0] * (j - len(self._perm))
        self._fid[i:j] = fids
        self._perm[i:j] = [code] * len(fids)
        self.store.bulk_incref(fids)
        self._n += len(fids)
        if stop > self._next_vpn:
            self._next_vpn = stop

    def unmap_range(self, vpns: Sequence[int],
                    caller: PrivilegeLevel = PL0) -> list[int]:
        """Remove the mappings at vpns: all of them, or, if any is not
        mapped, none.  Returns the frames left unmapped."""
        if not vpns:  # an empty run changes nothing, whoever asks
            return []
        self._require_mutable(caller, "unmap pages")
        if len(set(vpns)) != len(vpns):
            raise KeyError("a vpn is unmapped twice")
        fids = self._mapped_or_refuse(vpns)
        for vpn in vpns:
            self._fid[vpn - self._lo] = -1
        self._n -= len(vpns)
        return self.store.bulk_decref(fids)

    def _mapped_or_refuse(self, vpns: Sequence[int]) -> list[int]:
        """The frames at vpns; KeyError if one is not mapped."""
        fids, _ = self._slots(vpns)
        if -1 in fids:
            raise KeyError(f"vpn {vpns[fids.index(-1)]} not mapped")
        if vpns:
            self._own(min(vpns))
        return fids

    def set_perms(self, vpns: Sequence[int], perms: PagePerms,
                  caller: PrivilegeLevel = PL0) -> None:
        """Give the mappings at vpns perms: all of them, or, if any is not
        mapped, none."""
        self._require_mutable(caller, "change permissions")
        code = _code(perms)
        self._mapped_or_refuse(vpns)
        for vpn in vpns:
            self._perm[vpn - self._lo] = code

    def seal(self, caller: PrivilegeLevel = PL0) -> None:
        """Strip PL1 write everywhere and freeze the table for forking.

        The frames are registered with the store as one base here, once,
        so that forks need not touch them.  A refused seal changes nothing.
        """
        if caller is not PL0:
            raise PermissionDenied(f"{caller.name} may not seal")
        if self.sealed:
            return
        if self.base is not None:
            raise NotSealed("a copy-on-write view cannot be sealed")
        sealed = [code + _SEALED for code in self._perm]
        fids, pl1 = _mapped(self._fid, sealed)
        self._base_id = self.store.register_base(fids, fids[pl1])
        self._perm = sealed
        self._sealed_fids = array("q", fids.tobytes())
        self.sealed = True

    # -- access (any level; faults are return values) --

    def access(self, level: PrivilegeLevel, vpn: int, kind: AccessKind,
               data: Optional[bytes] = None):
        """Read or write one page, checked as a page of a run is: returns
        page bytes for a read, None for a write, or the PageFault."""
        kind = AccessKind(kind)
        fids = self._checked(level, [vpn], kind)
        if isinstance(fids, PageFault):
            return fids
        if kind is AccessKind.READ:
            return self.store.read_bytes(fids[0])
        if data is None or len(data) > PAGE_SIZE:
            raise ValueError("a page write needs data of at most one page")
        self.store.write_bytes(fids[0], 0, data)
        return None

    def read_run(self, level: PrivilegeLevel, vpns: Sequence[int],
                 nbytes: int):
        """Read the first nbytes held by the pages at vpns, after checking
        every page: returns the bytes, or the first page's PageFault."""
        fids = self._checked(level, vpns, AccessKind.READ)
        return (fids if isinstance(fids, PageFault)
                else self.store.read_range(fids, nbytes))

    def write_run(self, level: PrivilegeLevel, vpns: Sequence[int],
                  data: bytes) -> Optional[PageFault]:
        """Write data from the start of the pages at vpns, after checking
        every page: returns None, or the first page's PageFault having
        written nothing.  A write to a shared frame is a COW_FAULT."""
        fids = self._checked(level, vpns, AccessKind.WRITE)
        if isinstance(fids, PageFault):
            return fids
        self.store.write_range(fids, data)
        return None

    def _checked(self, level: PrivilegeLevel, vpns: Sequence[int],
                 kind: AccessKind):
        """The frames at vpns if every page allows the access, else the
        first failing page's fault."""
        write = kind is AccessKind.WRITE
        allowed = (_WRITABLE if write else _READABLE)[level]
        fids, codes = self._slots(vpns)
        if -1 not in fids and allowed.issuperset(codes) and (
                not write or max(map(self.store.ref, fids), default=0) <= 1):
            return fids
        for vpn, fid, code in zip(vpns, fids, codes):
            if fid < 0:
                return PageFault(FaultKind.NOT_MAPPED, vpn, level)
            if code not in allowed:
                if (write and level is PL1 and code >= _SEALED
                        and self.base is not None):
                    # Inherited read-only from the sealed template: the
                    # owner's write is a resolvable CoW fault.
                    return PageFault(FaultKind.COW_FAULT, vpn, level)
                return PageFault(FaultKind.PERMISSION_VIOLATION, vpn, level)
            if write and self.store.ref(fid) > 1:
                return PageFault(FaultKind.COW_FAULT, vpn, level)
        raise AssertionError("no page of the run faults")

    # -- forking --

    def fork_cow(self, new_owner: int) -> "PageTable":
        """Create a CoW view of this sealed table: O(1), zero bytes copied.
        Sealing stripped every PL1 write grant, so the base is read-only."""
        if self._base_id is None:
            raise NotSealed(f"zygote table of process {self.owner} is not sealed")
        child = PageTable(self.store, new_owner, base=self)
        self.store.add_view(self._base_id)
        return child

    def resolve_cow(self, vpn: int, pool: "MemoryPool",
                    model: CostModel) -> tuple[int, int]:
        """Break sharing for vpn: copy the page into a fresh exclusive frame.

        Returns (new frame id, simulated charge in microseconds).
        """
        self._require_mutable(PL0, "resolve faults")
        old_fid, _ = self._slot(vpn)
        if old_fid < 0:
            raise KeyError(f"vpn {vpn} not mapped")
        if self.store.ref(old_fid) <= 1:
            raise ValueError(f"vpn {vpn} is not shared; nothing to resolve")
        new_fids, charge = alloc_frames(pool, 1, model, owner_level=PL1)
        self.store.copy_frame(old_fid, new_fids[0])
        i = self._own(vpn)
        self._fid[i], self._perm[i] = new_fids[0], _code(PagePerms.PROCESS_RW)
        self.store.bulk_incref(new_fids)
        self.store.bulk_decref([old_fid])
        return new_fids[0], charge + model.copy_us(1)

    def release_all(self) -> list[int]:
        """Unmap everything; returns frame ids whose ref_count reached 0.

        Costs O(own list entries), not O(base pages).  A sealed table with
        live views is refused with ``BaseInUse``; release them first.
        """
        local = (self._sealed_fids if self.sealed
                 else [fid for fid in self._fid if fid >= 0])
        if self._base_id is not None:
            self.store.unregister_base(self._base_id, local)
            self._base_id = None
            self._sealed_fids = array("q")
        freed = self.store.bulk_decref(local)
        if self.base is not None:
            if not self._lo:
                self.store.bulk_incref(self.base.local_frame_ids())
            self.store.drop_view(self.base._base_id)
            self.base = None
        self._fid, self._perm, self._n, self._lo = [], [], 0, 0
        return freed


class MemoryPool:
    """Free-frame pool.

    Free frames are id runs in a deque, taken from the front and given back
    at the end, where a run that starts at the last run's end joins it.
    Frames are so handed out in the order they became free, the rest of
    the boot range first, and a take costs O(frames taken) however many
    runs the list holds; that order decides which frames pay validation.
    The store claims each run a take pops, and takes a release's runs back,
    in one call each.  Host memory grows with the frame columns, and with
    page bytes only as frames are written.
    """

    def __init__(self, store: FrameStore):
        self.store = store
        self._ranges: deque[tuple[int, int]] = deque()
        self.free_count = 0

    def grow(self, n_frames: int, validated: bool) -> None:
        if n_frames <= 0:
            return
        self._give_back([self.store.reserve(n_frames, validated=validated)])
        self.free_count += n_frames

    def take(self, n: int, owner_level: Optional[PrivilegeLevel] = None
             ) -> tuple[list[int], int]:
        """Claim n frames for owner_level; returns them and how many of
        them were not validated before."""
        if n > self.free_count:
            raise OutOfMemory(f"requested {n} frames, {self.free_count} free")
        out: list[int] = []
        ranges, left, claim, fresh = self._ranges, n, self.store.claim, 0
        while left:
            lo, hi = ranges.popleft()
            if hi - lo > left:
                ranges.appendleft((lo + left, hi))
                hi = lo + left
            fresh += claim(lo, hi, owner_level)
            out += range(lo, hi)
            left -= hi - lo
        self.free_count -= n
        return out, fresh

    def release(self, fids: Sequence[int]) -> None:
        """Give back distinct frames that are handed out and unmapped; if
        any is not, none is given back and an assertion fails."""
        if not len(fids):
            return
        ordered = sorted(fids)
        runs = []  # of consecutive ids
        lo = last = ordered[0]
        for fid in itertools.islice(ordered, 1, None):
            if fid != last + 1:
                if fid == last:
                    raise AssertionError("frame released twice")
                runs.append((lo, last + 1))
                lo = fid
            last = fid
        runs.append((lo, last + 1))
        self.store.take_back(runs)
        self._give_back(runs)
        self.free_count += len(ordered)

    def _give_back(self, runs: list[tuple[int, int]]) -> None:
        """Append free runs, the first joining the last run if that ends
        where it starts."""
        ranges = self._ranges
        if ranges and ranges[-1][1] == runs[0][0]:
            ranges[-1] = (ranges[-1][0], runs.pop(0)[1])
        ranges.extend(runs)


def alloc_frames(pool: MemoryPool, n: int, model: CostModel,
                 owner_level: Optional[PrivilegeLevel] = None) -> tuple[list[int], int]:
    """Allocate n frames; returns (frame ids, simulated validation charge).

    Every frame not yet validated is validated now at
    validation_us_per_page, so a pool grown validated charges nothing.
    """
    fids, fresh = pool.take(n, owner_level)
    return fids, model.validation_us(fresh)


def preallocate(pool: MemoryPool, nbytes: int, model: CostModel) -> int:
    """Grow the pool by ceil(nbytes/4096) validated frames at boot.

    Returns the validation charge added to the boot time.  Page bytes are
    only allocated when frames are later written.
    """
    pages = pages_for(nbytes)
    try:
        pool.grow(pages, validated=True)
    except MemoryError as exc:  # pragma: no cover - host-dependent
        raise OutOfHostMemory(str(exc)) from exc
    return model.validation_us(pages)


@dataclass
class MemoryAccounting:
    shared_bytes: int
    exclusive_bytes: int
    total_resident_bytes: int


def accounting(tables: Iterable[PageTable]) -> MemoryAccounting:
    """Resident-memory split over a set of page tables.

    A frame that any of the tables maps counts once, however many of them
    map it.  It is shared if more than one page-table entry maps it,
    counting every live table's entries, not only those of the set; it is
    exclusive if exactly one entry maps it and that entry grants PL1
    access.  A frame that only tables outside the set map counts nothing.

    Cost: O(entries in the own lists of the set's unsealed tables +
    distinct sealed bases), however many pages a base holds.  A base that
    a sealed table of the set is, or that a view of the set still reads,
    is counted from the store's per-base state (see ``FrameStore``); the
    unsealed tables' own frames are read once, those of a counted base
    skipped.
    """
    tables = list(tables)
    if not tables:
        return MemoryAccounting(0, 0, 0)
    store = tables[0].store
    bases = sorted({t.base_counted() for t in tables} - {None})
    own = [t for t in tables if not t.sealed]
    fids, pl1 = _mapped(itertools.chain.from_iterable(t._fid for t in own),
                        itertools.chain.from_iterable(t._perm for t in own))
    shared, exclusive = store.resident_split(bases, fids, pl1)
    return MemoryAccounting(shared * PAGE_SIZE, exclusive * PAGE_SIZE,
                            (shared + exclusive) * PAGE_SIZE)
