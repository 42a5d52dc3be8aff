"""Emulated CVM private memory: frames, privilege-aware page tables, CoW forks.

The emulator models a 4 KiB-paged address space with per-privilege-level
read/write permissions, a free-frame pool, and a cost model that
charges simulated microseconds for page validation, copy-on-write copies,
hashing, and data transfers.  Simulated time is an explicit integer
accumulator; nothing here touches the wall clock, so all timing assertions
are deterministic.

Per-frame facts are typed columns in ``FrameStore`` (``array.array``,
``bytearray`` and a list); a page table is two plain lists, frame id and
grants code per vpn, and a copy-on-write view reads its sealed base's
lists until it first changes a base vpn.  Each call has one form: frames
go in and out as *runs* of consecutive frame ids, ``(lo, hi)``, and vpns
as a ``range``.  The pool hands frames out and takes them back as runs,
a table maps a list of runs at fresh vpns and checks a range of vpns
with list slices, and the store counts references and moves and copies
bytes a run at a time with slice assignments and C-level scans.  An
operation on n pages in r runs so takes O(r) Python steps, and a
one-page run no numpy call.  Frame contents are real bytes, so that
measurement digests are genuine, yet a multi-GiB pool stays cheap to
reserve: every page is a slice of an immutable ``bytes`` that two more
``FrameStore`` columns name, and a page never written reads as zeros.
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
from itertools import chain, compress, repeat, starmap
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


# A run of frames: the ids lo, lo + 1, ..., hi - 1, as the pair (lo, hi).
Run = tuple[int, int]


def runs_of(fids: Sequence[int]) -> list[Run]:
    """fids as runs of consecutive ascending ids, in fids' order; a frame
    that fids holds twice is in two runs.  A list that is one run, the
    usual case, is found with one C-level comparison."""
    if type(fids) is not list:
        fids = (fids.tolist() if isinstance(fids, (array, np.ndarray))
                else list(fids))
    n = len(fids)
    if not n:
        return []
    lo = last = fids[0]
    if n == 1 or last + n - 1 == fids[-1] and fids == list(range(lo, lo + n)):
        return [(lo, lo + n)]
    runs = []
    for fid in itertools.islice(fids, 1, None):
        if fid != last + 1:
            runs.append((lo, last + 1))
            lo = fid
        last = fid
    runs.append((lo, last + 1))
    return runs


def frames_of(runs: Sequence[Run]) -> list[int]:
    """The frame ids of runs, in order."""
    return list(chain.from_iterable(starmap(range, runs)))


def _zero(seg: array) -> bool:
    """Whether every item of a typed slice is zero: a C-level byte count,
    where ``any`` makes a Python int of each item."""
    raw = seg.tobytes()
    return raw.count(0) == len(raw)


def _union(runs: list[Run]) -> list[Run]:
    """The frames of runs, each once, as disjoint runs in ascending
    order; runs that overlap or touch are joined."""
    runs = sorted(runs)
    out = runs[:1]
    for lo, hi in itertools.islice(runs, 1, None):
        last_lo, last_hi = out[-1]
        if lo <= last_hi:
            out[-1] = (last_lo, max(hi, last_hi))
        else:
            out.append((lo, hi))
    return out


def n_frames_of(runs: Sequence[Run]) -> int:
    """How many frames runs hold."""
    if len(runs) == 1:
        return runs[0][1] - runs[0][0]
    return -sum(starmap(operator.sub, runs))  # of lo - hi, at C level


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

    crypto_us = hash_us


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
# One-item owner columns per value, and a zero count, repeated to fill a run.
_FILL = {v: array("b", [v]) for v in (FREE, NO_OWNER, *PrivilegeLevel)}
_NO_REFS = array("q", [0])
_FREE_BYTE = _FILL[FREE].tobytes()


class FrameStore:
    """Owns every frame: its facts, its bytes and the copy counter.

    Each per-frame fact is a column indexed by frame id, grown by
    ``reserve``: reference count, base id and relative offset
    (``array.array``), validated and base-grants-PL1 flags
    (``bytearray``), owner level (signed bytes: ``FREE`` while in a pool,
    ``NO_OWNER`` for none), and the immutable ``bytes`` holding the
    frame's page (a list; ``None`` reads as zeros).  A frame's page starts
    at its relative offset plus ``fid * PAGE_SIZE`` in those bytes, so the
    frames of a run written from one buffer hold one offset value.

    The unit of work is a *run*, frame ids ``lo..hi-1`` as the pair
    ``(lo, hi)``: the run calls (``claim``, ``take_back``,
    ``clear_runs``, ``incref_runs``, ``decref_runs``, ``any_shared``,
    ``read_runs``, ``write_runs``, ``copy_runs``) take a list of runs and
    touch each with slice reads, slice assignments and C-level scans, so
    their Python steps grow with the runs, not the frames, and no numpy
    call is made.  The few whole-column computations read the
    columns through ``np.frombuffer`` views made and dropped within one
    call.  Pages are never changed in place: a write points the frame at
    new bytes, a copy points two frames at the same ones, and a buffer
    lives while any frame refers to it.

    A frame's reference count is the number of page-table entries, CoW view
    entries included, that map it, in two parts.  Explicit counts move with
    every table's own mappings.  A sealed table's frames are registered
    once as a *base*, and each CoW view adds one to the base's view count
    instead of touching every frame; a view that stops mapping a base frame
    takes an explicit reference off it, which may go negative.

    Per base the store also keeps what ``resident_split`` needs to count
    the base's frames without visiting each: its PL1-granted frame count,
    a column marking those frames, and its *odd* frames, those whose
    explicit count is not one, which the run calls keep current.  Every
    other frame of a base counts ``1 + views``.
    """

    def __init__(self) -> None:
        self._ref = array("q", [0]) * 1024
        self._ref_sum = 0  # of _ref, which only the run calls change
        # Base id of each frame; 0 means the frame belongs to no base.
        self._base_of = array("i", [0]) * 1024
        self._validated = bytearray(1024)
        self._owner = array("b", [FREE]) * 1024
        self._base_pl1 = bytearray(1024)  # its base grants PL1
        self._src: list[Optional[bytes]] = [None] * 1024
        # The page's offset in _src's bytes, less fid * PAGE_SIZE.
        self._rel = array("q", [0]) * 1024
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
            self._rel = _grown(self._rel, new_len)
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

    def take_back(self, runs: Sequence[Run], refs: int = 0) -> None:
        """Free disjoint runs of handed-out frames, each mapped refs times
        by the grants unmapped with them and by nothing else, in one pass:
        all of them, or, if one is free or mapped otherwise, none, failing
        an assertion."""
        for lo, hi in runs:
            if not self._mapped_only(lo, hi, refs):
                raise AssertionError("frame released while mapped")
        self._free(runs)
        for lo, hi in runs:
            self._ref[lo:hi] = _NO_REFS * (hi - lo)
            self._ref_sum -= refs * (hi - lo)

    def _mapped_only(self, lo: int, hi: int, refs: int) -> bool:
        """Whether each frame of the run lo..hi-1 is mapped refs times,
        none by a sealed table (a frame of a base)."""
        ref, base_of = self._ref, self._base_of
        if hi - lo == 1:
            return ref[lo] == refs and not base_of[lo]
        return ref[lo:hi].count(refs) == hi - lo and _zero(base_of[lo:hi])

    def _free(self, runs: Sequence[Run]) -> None:
        """Mark the runs' unmapped frames free and drop their bytes: all of
        them, or, if one is free already, none, failing an assertion."""
        owner, src, fill = self._owner, self._src, _FILL[FREE]
        for lo, hi in runs:
            if (owner[lo] == FREE if hi - lo == 1
                    else _FREE_BYTE in owner[lo:hi].tobytes()):
                raise AssertionError("frame released while free")
        for lo, hi in runs:
            src[lo:hi] = [None] * (hi - lo)
            owner[lo:hi] = fill * (hi - lo)

    def clear_runs(self, runs: Sequence[Run]) -> None:
        """Drop the runs' bytes: their pages read as zeros again."""
        src = self._src
        for lo, hi in runs:
            src[lo:hi] = [None] * (hi - lo)

    def validated_of(self, fids: Sequence[int]) -> np.ndarray:
        return np.frombuffer(self._validated, dtype=bool)[fids]

    def owners_of(self, fids: Sequence[int]) -> np.ndarray:
        return np.frombuffer(self._owner, dtype=np.int8)[fids]

    def held_frame(self, runs: Sequence[Run]) -> Optional[int]:
        """The first frame of runs that PL0 or PL1 owns, or None."""
        for lo, hi in runs:
            owners = self._owner[lo:hi]
            at = [owners.index(level) for level in (PL0, PL1)
                  if level in owners]
            if at:
                return lo + min(at)
        return None

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

    def incref_runs(self, runs: Sequence[Run]) -> None:
        self._add(runs, 1)

    def decref_runs(self, runs: Sequence[Run]) -> list[Run]:
        """Drop one reference per frame of each run; returns the frames
        this left unmapped as disjoint runs in ascending order.  A run
        whose frames each had just this reference, the usual case, is
        checked and cleared with two C-level scans."""
        ref, base_of, views = self._ref, self._base_of, self._views
        freed: list[Run] = []
        rest: list[Run] = []
        apart = True  # freed so far ascending, no two touching
        for lo, hi in runs:
            if self._mapped_only(lo, hi, 1):
                ref[lo:hi] = _NO_REFS * (hi - lo)
                self._ref_sum -= hi - lo
                apart = apart and (not freed or freed[-1][1] < lo)
                freed.append((lo, hi))
            else:
                rest.append((lo, hi))
        if rest:
            self._add(rest, -1)
        for lo, hi in rest:
            if hi - lo == 1:
                count = ref[lo] + views[base_of[lo]]
                if count <= 0:
                    if count:
                        raise AssertionError(f"ref underflow on frame {lo}")
                    freed.append((lo, hi))
                continue
            counts = self._counts(lo, hi)
            zeros = counts.count(0)
            if zeros == hi - lo:
                freed.append((lo, hi))
                continue
            if min(counts) < 0:
                raise AssertionError(f"ref underflow on frames {lo}..{hi - 1}")
            if zeros:
                freed += runs_of(list(compress(range(lo, hi),
                                               map(operator.not_, counts))))
        # Runs out of order, touching or holding a frame twice need joining.
        if len(freed) > 1 and (rest or not apart):
            freed = _union(freed)
        return freed

    def _add(self, runs: Sequence[Run], delta: int) -> None:
        """Add delta to the explicit count of each frame of each run, then
        bring the odd sets of the runs that hold base frames up to date."""
        ref, base_of = self._ref, self._base_of
        total, based = 0, []
        for lo, hi in runs:
            n = hi - lo
            total += n
            if n == 1:
                ref[lo] += delta
                if base_of[lo]:
                    based.append((lo, hi))
                continue
            seg = ref[lo:hi]
            unit = seg[:1]
            if seg == unit * n:  # the usual case: one count for the whole run
                unit[0] += delta
                ref[lo:hi] = unit * n
            else:
                ref[lo:hi] = array("q", map(operator.add, seg, repeat(delta)))
            if not _zero(base_of[lo:hi]):
                based.append((lo, hi))
        self._ref_sum += delta * total
        if based:
            self._note_odd(based)

    def _counts(self, lo: int, hi: int) -> array:
        """The reference counts of the run lo..hi-1."""
        seg, bases = self._ref[lo:hi], self._base_of[lo:hi]
        if _zero(bases):
            return seg
        return array("q", map(operator.add, seg,
                              map(self._views.__getitem__, bases)))

    def any_shared(self, runs: Sequence[Run]) -> bool:
        """Whether a frame of runs, each of them mapped, has a reference
        count above one."""
        for lo, hi in runs:
            if hi - lo == 1:
                if self.ref(lo) > 1:
                    return True
                continue
            counts = self._counts(lo, hi)
            if counts.count(1) != hi - lo and max(counts) > 1:
                return True
        return False

    def _note_odd(self, runs: Iterable[Run]) -> None:
        """Bring the odd sets of the runs' bases up to date after a change
        to the runs' explicit counts."""
        ref, base_of, odd = self._ref, self._base_of, self._odd
        for fid in chain.from_iterable(starmap(range, runs)):
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
        off = self._rel[fid] + fid * PAGE_SIZE
        page = memoryview(src)[off : off + PAGE_SIZE]
        if len(page) < PAGE_SIZE:  # a buffer's last page: zeros past its end
            return bytes(page) + bytes(PAGE_SIZE - len(page))
        return page

    def _in_range(self, runs: Sequence[Run]) -> None:
        for lo, hi in runs:
            if lo < 0 or hi > self._next_fid:
                raise KeyError(f"unknown frame in {lo}..{hi - 1}")

    def _view(self, fid: int, chunk: bytes, at: int) -> None:
        """Point fid's page at chunk from offset at."""
        self._src[fid] = chunk
        self._rel[fid] = at - fid * PAGE_SIZE

    def write_bytes(self, fid: int, offset: int, data: bytes) -> None:
        page = self._page(fid)
        self._view(fid, b"".join(
            (page[:offset], data, page[offset + len(data) :])), 0)

    def write_runs(self, runs: Sequence[Run], *chunks: bytes) -> None:
        """Write the chunks end to end across the runs' frames, one page
        per frame from its start; a single buffer is one chunk.

        A ``bytes`` chunk is referred to as it is, and any other chunk,
        which its owner may change later, is first copied into one.  The
        full pages a chunk fills in a run take one slice assignment per
        column.  A partial last page keeps the bytes past the data: a page
        never written, all zeros, refers to the chunk's last bytes, which
        read as the chunk's end and zeros; any other is joined into new
        bytes, as is a page that straddles two chunks.
        """
        size = sum(map(len, chunks))
        if size > n_frames_of(runs) * PAGE_SIZE:
            raise ValueError("data exceeds the frames' capacity")
        if not size:
            return
        self._in_range(runs)
        src, rel = self._src, self._rel
        if size < PAGE_SIZE and len(chunks) == 1:  # part of one page
            fid, chunk = runs[0][0], chunks[0]
            if src[fid] is None:
                src[fid] = bytes(chunk) if type(chunk) is not bytes else chunk
                rel[fid] = -fid * PAGE_SIZE
            else:
                self.write_bytes(fid, 0, chunk)
            return
        left = iter(runs)
        lo = hi = 0  # the frames of the current run not yet written
        head = []  # the pieces so far of the page straddling chunks
        for chunk in chunks:
            if not chunk:
                continue
            if type(chunk) is not bytes:
                chunk = bytes(chunk)
            at = 0
            if head:
                at = PAGE_SIZE - sum(map(len, head))
                head.append(memoryview(chunk)[:at])
                if len(chunk) < at:
                    continue
                while lo == hi:
                    lo, hi = next(left)
                self.write_bytes(lo, 0, b"".join(head))
                lo, head = lo + 1, []
            full = (len(chunk) - at) // PAGE_SIZE
            while full:
                while lo == hi:
                    lo, hi = next(left)
                n = min(full, hi - lo)
                src[lo : lo + n] = [chunk] * n
                unit = rel[:1]
                unit[0] = at - lo * PAGE_SIZE
                rel[lo : lo + n] = unit * n
                lo, at, full = lo + n, at + n * PAGE_SIZE, full - n
            if at < len(chunk):
                head, tail = [memoryview(chunk)[at:]], (chunk, at)
        if head:
            while lo == hi:
                lo, hi = next(left)
            if len(head) == 1 and src[lo] is None:
                self._view(lo, *tail)
            else:
                self.write_bytes(lo, 0, b"".join(head))

    def read_bytes(self, fid: int) -> bytes:
        return bytes(self._page(fid))

    def read_runs(self, runs: Sequence[Run], nbytes: int) -> bytes:
        """The first nbytes held by the runs' frames, one page per frame
        from its start.

        A *stretch* is pages that continue one another's bytes: the same
        source, each page just past the last (pages never written continue
        one another as zeros).  Each stretch is read as one slice of its
        source, and the source itself when it is exactly the data.  A run
        that is one stretch is found with two C-level comparisons, and the
        stretches of any other run with two C-level scans.
        """
        if nbytes > n_frames_of(runs) * PAGE_SIZE:
            raise ValueError("nbytes exceeds the frames' capacity")
        src, rel = self._src, self._rel
        if 0 < nbytes <= PAGE_SIZE:  # one page
            fid = runs[0][0]
            if not 0 <= fid < self._next_fid:
                raise KeyError(f"unknown frame {fid}")
            source, start = src[fid], rel[fid] + fid * PAGE_SIZE
            if source is None:
                return bytes(nbytes)
            if start == 0 and len(source) == nbytes:
                return source
            return bytes(self._page(fid)[:nbytes])
        pages = left = pages_for(nbytes)
        pieces: list[list] = []  # [source, start, end] per stretch
        for lo, hi in runs:
            if not left:
                break
            n = min(hi - lo, left)
            left -= n
            if lo < 0 or lo + n > self._next_fid:
                raise KeyError(f"unknown frame in {lo}..{lo + n - 1}")
            srcs, rels = src[lo : lo + n], rel[lo : lo + n]
            if srcs.count(srcs[0]) == n and (
                    srcs[0] is None or rels == rels[:1] * n):
                cuts = (0, n)
            else:
                cuts = sorted({0, n, *compress(range(1, n), map(
                    operator.is_not, srcs[1:], srcs)), *compress(
                        range(1, n), map(operator.ne, rels[1:], rels))})
            for a, b in zip(cuts, cuts[1:]):
                source, start = srcs[a], rels[a] + (lo + a) * PAGE_SIZE
                last = pieces[-1] if pieces else None
                if last and last[0] is source and (
                        source is None or last[2] == start):
                    last[2] += (b - a) * PAGE_SIZE
                else:
                    pieces.append([source, start,
                                   start + (b - a) * PAGE_SIZE])
        if not pieces:
            return b""
        pieces[-1][2] -= pages * PAGE_SIZE - nbytes
        source, start, end = pieces[0]
        if len(pieces) == 1 and source is not None and end <= len(source):
            return source if start == 0 and end == len(source) \
                else source[start:end]
        parts = []
        for source, start, end in pieces:
            if source is None:
                parts.append(bytes(end - start))
                continue
            parts.append(memoryview(source)[start:end])
            if end > len(source):  # a buffer's last page: zeros past its end
                parts.append(bytes(end - len(source)))
        return b"".join(parts)

    def copy_runs(self, from_runs: Sequence[Run],
                  to_runs: Sequence[Run]) -> None:
        """Copy the pages of from_runs' frames, in order, to to_runs'
        frames, a slice assignment per column for each stretch the two
        have in common: the copies refer to the same bytes, since a write
        gives its frame new ones."""
        n = n_frames_of(from_runs)
        if n != n_frames_of(to_runs):
            raise ValueError("copy between runs of unequal frame counts")
        src, rel, to = self._src, self._rel, iter(to_runs)
        d = d_hi = 0
        for s, s_hi in from_runs:
            while s < s_hi:
                if d == d_hi:
                    d, d_hi = next(to)
                k = min(s_hi - s, d_hi - d)
                src[d : d + k] = src[s : s + k]
                rel[d : d + k] = array("q", map(operator.add, rel[s : s + k],
                                                repeat((s - d) * PAGE_SIZE)))
                s, d = s + k, d + k
        self.copied_bytes_total += PAGE_SIZE * n


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

    Frame runs are the unit a table takes and gives, and a ``range`` the
    one form of a vpn argument (any other sequence is a ``TypeError``):
    ``map_runs`` maps a list of runs at fresh consecutive vpns past the
    lists and returns them as a ``range``, and a range of vpns is
    unmapped, re-granted and checked with list slices, those below a
    view's own lists read from (or, to change them, first copied from)
    its base's; the frames it holds go to the store as runs
    (``runs_of``).  ``read_run`` and ``write_run`` check every page of a
    run first, then make one ``FrameStore`` call; ``access`` and
    ``resolve_cow`` are the one-page case.  A sealed table refuses every
    mutation.
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
        # Nonzero only in a view that reads its base: the base's length.
        self._lo = base.next_unused_vpn() if base is not None else 0
        self._fid, self._perm = [], []  # frame id and grants code per vpn
        self._n = 0  # mapped entries in the two lists

    # -- lookup helpers --

    def _slots(self, vpns: range) -> tuple[list[int], list[int]]:
        """(frame ids, grants codes) at the range of vpns, frame id -1
        where unmapped; vpns below a view's own lists read its base's.
        Any other sequence of vpns is refused with TypeError."""
        if type(vpns) is not range or vpns.step != 1:
            raise TypeError(f"vpns must be a range of step 1, not {vpns!r}")
        start, stop, lo = vpns.start, max(vpns.start, vpns.stop), self._lo
        if start < lo:  # below the own lists: the base's, or negative vpns
            mid = min(stop, lo)
            fids, codes = (self.base._slots(range(start, mid)) if lo
                           else ([-1] * (mid - start), [0] * (mid - start)))
            if mid == stop:
                return fids, codes
            own = self._slots(range(mid, stop))
            return fids + own[0], codes + own[1]
        i, j = start - lo, stop - lo
        fids, codes = self._fid[i:j], self._perm[i:j]
        if len(fids) < j - i:  # past the own lists: unmapped
            fids += [-1] * (j - i - len(fids))
            codes += [0] * (j - i - len(codes))
        return fids, codes

    def _frames_at(self, vpns: range) -> list[int]:
        """The frames at vpns; KeyError if one is not mapped."""
        fids, _ = self._slots(vpns)
        if -1 in fids:
            raise KeyError(f"vpn {vpns[fids.index(-1)]} not mapped")
        return fids

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
        return self._lo + len(self._fid)

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
            self._fid = self.base._fid + self._fid
            self._perm = self.base._perm + self._perm
            self._n += self.base._n
            self._lo = 0
        return vpn - self._lo

    def map_runs(self, runs: Sequence[Run], perms: PagePerms,
                 caller: PrivilegeLevel = PL0) -> range:
        """Map the runs' frames, in order, at fresh consecutive vpns, all
        with perms: all of them, or, if any check fails, none.  Returns
        the vpns."""
        self._require_mutable(caller, "map pages")
        code = _code(perms)
        n, limit, bad = 0, self.store._next_fid, False
        for lo, hi in runs:
            bad = bad or lo < 0 or hi > limit
            n += hi - lo
        if bad:
            raise KeyError("a frame is out of range")
        if code in _GUEST_CODES:
            held = self.store.held_frame(runs)
            if held is not None:
                raise PermissionDenied(f"frame {held} is owned by PL0 or "
                                       "PL1 and cannot be exposed to the guest")
        vpn = self.next_unused_vpn()
        self._fid += range(*runs[0]) if len(runs) == 1 else frames_of(runs)
        self._perm += [code] * n
        self.store.incref_runs(runs)
        self._n += n
        return range(vpn, vpn + n)

    def unmap_range(self, vpns: range,
                    caller: PrivilegeLevel = PL0) -> list[Run]:
        """Remove the mappings at vpns: all of them, or, if any is not
        mapped, none.  Returns the frames left unmapped as disjoint runs
        in ascending order."""
        if not vpns:  # an empty run changes nothing, whoever asks
            return []
        self._require_mutable(caller, "unmap pages")
        fids = self._frames_at(vpns)
        i = self._own(vpns.start)
        self._fid[i : i + len(fids)] = [-1] * len(fids)
        self._n -= len(fids)
        return self.store.decref_runs(runs_of(fids))

    def _grant(self, vpns: range, runs: Sequence[Run]) -> tuple[int, int]:
        """The slice i:j of the own lists at which vpns map the runs'
        frames in order (``MemoryPool.release_runs``), or AssertionError."""
        i, j = vpns.start - self._lo, vpns.stop - self._lo
        frames = list(range(*runs[0])) if len(runs) == 1 else frames_of(runs)
        if self.sealed or i < 0 or self._fid[i:j] != frames:
            raise AssertionError(f"vpns {vpns} of process {self.owner} do "
                                 "not map the frames released")
        return i, j

    def set_perms(self, vpns: range, perms: PagePerms,
                  caller: PrivilegeLevel = PL0) -> None:
        """Give the mappings at vpns perms: all of them, or, if any is not
        mapped, none."""
        self._require_mutable(caller, "change permissions")
        code = _code(perms)
        n = len(self._frames_at(vpns))
        if n:
            i = self._own(vpns.start)
            self._perm[i : i + n] = [code] * n

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
        runs = self._checked(level, range(vpn, vpn + 1), kind)
        if isinstance(runs, PageFault):
            return runs
        fid = runs[0][0]
        if kind is AccessKind.READ:
            return self.store.read_bytes(fid)
        if data is None or len(data) > PAGE_SIZE:
            raise ValueError("a page write needs data of at most one page")
        self.store.write_bytes(fid, 0, data)
        return None

    def read_run(self, level: PrivilegeLevel, vpns: range, nbytes: int):
        """Read the first nbytes held by the pages at vpns, after checking
        every page: returns the bytes, or the first page's PageFault."""
        runs = self._checked(level, vpns, AccessKind.READ)
        return (runs if isinstance(runs, PageFault)
                else self.store.read_runs(runs, nbytes))

    def write_run(self, level: PrivilegeLevel, vpns: range,
                  data: bytes) -> Optional[PageFault]:
        """Write data from the start of the pages at vpns, after checking
        every page: returns None, or the first page's PageFault having
        written nothing.  A write to a shared frame is a COW_FAULT."""
        runs = self._checked(level, vpns, AccessKind.WRITE)
        if isinstance(runs, PageFault):
            return runs
        self.store.write_runs(runs, data)
        return None

    def _checked(self, level: PrivilegeLevel, vpns: range, kind: AccessKind):
        """The frames at vpns, as runs, if every page allows the access,
        else the first failing page's fault."""
        write = kind is AccessKind.WRITE
        allowed = (_WRITABLE if write else _READABLE)[level]
        fids, codes = self._slots(vpns)
        if -1 not in fids and allowed.issuperset(codes):
            runs = runs_of(fids)
            if not write or not self.store.any_shared(runs):
                return runs
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
        (old,) = self._frames_at(range(vpn, vpn + 1))
        if self.store.ref(old) <= 1:
            raise ValueError(f"vpn {vpn} is not shared; nothing to resolve")
        runs, charge = alloc_runs(pool, 1, model, owner_level=PL1)
        new = runs[0][0]
        self.store.copy_runs([(old, old + 1)], runs)
        i = self._own(vpn)
        self._fid[i], self._perm[i] = new, _code(PagePerms.PROCESS_RW)
        self.store.incref_runs(runs)
        self.store.decref_runs([(old, old + 1)])
        return new, charge + model.copy_us(1)

    def truncate(self, stop: int, pool: "MemoryPool",
                 caller: PrivilegeLevel = PL0) -> None:
        """Unmap and forget the vpns from stop on, so that the next
        ``map_runs`` maps at stop again, and give the frames this left
        unmapped back to pool, as ``release_all`` does.  A view that
        still reads its base keeps reading it below stop."""
        self._require_mutable(caller, "truncate")
        i = stop - self._lo
        if not 0 <= i <= len(self._fid):
            raise ValueError(f"vpn {stop} is outside the own lists")
        fids = list(filter((-1).__lt__, self._fid[i:]))  # fid >= 0
        del self._fid[i:], self._perm[i:]
        self._n -= len(fids)
        self._drop(fids, pool)

    def _drop(self, fids: Sequence[int], pool: "MemoryPool") -> list[Run]:
        """Unmap fids and give back the frames this frees, found in that
        one pass, to pool; returns them."""
        freed = self.store.decref_runs(runs_of(fids))
        self.store._free(freed)
        pool._give_back(freed)
        return freed

    @property
    def diverged(self) -> bool:
        """Whether this view changed a vpn of its base (a resolved CoW
        fault, say), so that it no longer reads the base's lists."""
        return self.base is not None and not self._lo

    def release_all(self, pool: "MemoryPool") -> list[Run]:
        """Unmap everything and give the frames whose ref_count reached 0
        back to pool; returns them as disjoint runs in ascending order.

        Costs O(own list entries), not O(base pages).  A sealed table with
        live views is refused with ``BaseInUse``; release them first.
        """
        local = (self._sealed_fids if self.sealed
                 else list(filter((-1).__lt__, self._fid)))  # fid >= 0
        if self._base_id is not None:
            self.store.unregister_base(self._base_id, local)
            self._base_id = None
            self._sealed_fids = array("q")
        freed = self._drop(local, pool)
        if self.base is not None:
            if not self._lo:
                self.store.incref_runs(runs_of(self.base.local_frame_ids()))
            self.store.drop_view(self.base._base_id)
            self.base = None
        self._fid, self._perm, self._n, self._lo = [], [], 0, 0
        return freed


class MemoryPool:
    """Free-frame pool.

    Free frames are id runs in a deque, taken from the front and given back
    at the end, where a run that starts at the last run's end joins it.
    Frames are so handed out in the order they became free, the rest of
    the boot range first; that order decides which frames pay validation.
    The list stays FIFO, fragmented as it gets on long churn: an
    address-ordered, coalescing list halved create+delete in isolation
    but moved no end-to-end workload, and it would change which frames
    pay validation.  Runs are what the pool hands out and takes back:
    ``take_runs`` returns the runs it popped, each claimed in one store
    call; ``release_runs`` takes an object's runs and unmaps its grants,
    and a released table gives back what it frees, in the pass that finds
    it, so each costs O(runs), however many frames the runs hold.  Host
    memory grows with the frame columns, and with page bytes only as
    frames are written.
    """

    def __init__(self, store: FrameStore):
        self.store = store
        self._ranges: deque[Run] = deque()
        self.free_count = 0

    def grow(self, n_frames: int, validated: bool) -> None:
        if n_frames <= 0:
            return
        self._give_back([self.store.reserve(n_frames, validated=validated)])

    def take_runs(self, n: int, owner_level: Optional[PrivilegeLevel] = None
                  ) -> tuple[list[Run], int]:
        """Claim n frames for owner_level; returns them, as the runs they
        were taken in, and how many of them were not validated before."""
        if n > self.free_count:
            raise OutOfMemory(f"requested {n} frames, {self.free_count} free")
        runs: list[Run] = []
        ranges, left, claim, fresh = self._ranges, n, self.store.claim, 0
        while left:
            lo, hi = ranges.popleft()
            if hi - lo > left:
                ranges.appendleft((lo + left, hi))
                hi = lo + left
            fresh += claim(lo, hi, owner_level)
            runs.append((lo, hi))
            left -= hi - lo
        self.free_count -= n
        return runs, fresh

    def release_runs(self, runs: Sequence[Run],
                     grants: Sequence[tuple["PageTable", range]] = ()) -> None:
        """Give back the runs' frames, in id order, and unmap the grants:
        each a table and the range of vpns at which it maps the frames in
        the runs' order.  One pass checks that the frames are distinct,
        handed out and mapped by the grants alone, and frees them
        (``FrameStore.take_back``); if not, an assertion fails."""
        if not runs:
            return
        spans = []
        for table, vpns in grants:
            spans.append((table, *table._grant(vpns, runs)))
        if len(runs) > 1:
            joined = _union(runs)
            if n_frames_of(joined) != n_frames_of(runs):
                raise AssertionError("frame released twice")
            runs = joined
        self.store.take_back(runs, len(spans))
        for table, i, j in spans:
            table._fid[i:j] = [-1] * (j - i)
            table._n -= j - i
        self._give_back(runs)

    def _give_back(self, runs: Sequence[Run]) -> None:
        """Count and append the runs of frames the store freed, disjoint
        and in id order, the first joining the last run if that ends
        where it starts."""
        if not runs:
            return
        self.free_count += n_frames_of(runs)
        ranges = self._ranges
        if ranges and ranges[-1][1] == runs[0][0]:
            ranges[-1] = (ranges[-1][0], runs[0][1])
            runs = itertools.islice(runs, 1, None)
        ranges.extend(runs)


def alloc_runs(pool: MemoryPool, n: int, model: CostModel,
               owner_level: Optional[PrivilegeLevel] = None
               ) -> tuple[list[Run], int]:
    """Allocate n frames; returns (their runs, simulated validation charge).

    Every frame not yet validated is validated now at
    validation_us_per_page, so a pool grown validated charges nothing.
    """
    runs, fresh = pool.take_runs(n, owner_level)
    return runs, model.validation_us(fresh)


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
