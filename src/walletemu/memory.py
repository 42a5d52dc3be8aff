"""Emulated CVM private memory: frames, privilege-aware page tables, CoW forks.

The emulator models a 4 KiB-paged address space with per-privilege-level
read/write permissions, a prevalidated frame pool, and a cost model that
charges simulated microseconds for page validation, copy-on-write copies,
hashing, and data transfers.  Simulated time is an explicit integer
accumulator; nothing here touches the wall clock, so all timing assertions
are deterministic.

Per-frame facts are numpy columns in ``FrameStore``, and page tables map,
unmap, allocate and free a run of frames in one step.  Frame contents are
real bytes, held only for written frames, so that measurement digests over
memory are genuine while multi-GiB pools stay cheap to reserve.  A page is
either a private ``bytearray`` or a read-only view of the immutable bytes
it was populated from, so a zygote image is mapped without copying it; the
first write to a viewed page gives the frame its own copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Iterator, Optional, Sequence

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

    def pl1_accessible(self) -> bool:
        return PL1 in self.read or PL1 in self.write

    def without_pl1_write(self) -> "PagePerms":
        if PL1 not in self.write:
            return self
        return _interned(self.read, self.write - {PL1})


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
        for name in ("validation_us_per_page", "hash_mb_per_s",
                     "cow_copy_us_per_page", "transfer_us_per_mb"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"{name} must be strictly positive")

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


def _grown(arr: np.ndarray, n: int, fill: int = 0) -> np.ndarray:
    """A copy of arr extended to n elements, the new ones set to fill."""
    out = np.full(n, fill, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


# Owner-column values besides the levels: a frame in a pool's free list,
# and a handed-out frame that no level owns.
FREE, NO_OWNER = -2, -1


class FrameStore:
    """Owns every frame: its facts, its bytes and the copy counter.

    Each per-frame fact is a numpy column indexed by frame id, grown by
    ``reserve``: reference count, base id, validated, and owner level
    (``FREE`` while in a pool, ``NO_OWNER`` for none).  Contents live in a
    dict holding only written frames; any other frame reads as zeros.  A
    page there is a ``bytearray`` the frame owns, or a read-only
    ``memoryview`` slice of a ``bytes`` object it was populated from by
    ``write_range`` (copied frames share the view).  ``write_bytes`` swaps
    a view for a private ``bytearray`` before its first write, and
    ``take_back`` drops it, so the backing object is freed with the last
    frame that views it.

    A frame's reference count is the number of page-table entries, CoW view
    entries included, that map it, kept in two parts.  Explicit counts move
    with every local mapping.  A sealed table's frames are registered once
    as a *base*; each CoW view of it adds one to the base's view count
    instead of touching every frame, so forking and releasing a view cost
    O(local overrides), not O(base pages).  ``ref``, ``refs_of`` and
    ``total_refs`` add the two parts.  A view that stops aliasing a base
    page takes one explicit reference off its frame, so an explicit count
    may go negative while the total stays exact.
    """

    def __init__(self) -> None:
        self._ref = np.zeros(1024, dtype=np.int64)
        # Base id of each frame; 0 means the frame belongs to no base.
        self._base_of = np.zeros(1024, dtype=np.int32)
        self._validated = np.zeros(1024, dtype=bool)
        self._owner = np.full(1024, FREE, dtype=np.int8)
        self._data: dict[int, bytearray | memoryview] = {}
        # Per base id: live view count and registered frame count.  Slot 0
        # stays zero so frames of no base add nothing.
        self._views = np.zeros(8, dtype=np.int64)
        self._base_size = np.zeros(8, dtype=np.int64)
        self._next_base = 1
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
        self._validated[start : self._next_fid] = validated
        return start, self._next_fid

    def n_frames(self) -> int:
        """Number of frame ids reserved so far; every id is below it."""
        return self._next_fid

    def hand_out(self, lo: int, hi: int) -> None:
        """Mark the free frames lo..hi-1 as handed out by a pool."""
        self._owner[lo:hi] = NO_OWNER

    def claim(self, fids: np.ndarray, owner_level: Optional[PrivilegeLevel]) -> int:
        """Validate fids and record their owner; returns how many were
        not validated before."""
        fresh = len(fids) - int(np.count_nonzero(self._validated[fids]))
        self._validated[fids] = True
        self._owner[fids] = NO_OWNER if owner_level is None else owner_level
        return fresh

    def take_back(self, fids: np.ndarray, refs: np.ndarray) -> None:
        """Return distinct, handed-out fids to the free state and drop their
        bytes.  refs are the fids' reference counts, read once by the
        caller (``refs_of``); a mapped frame fails an assertion."""
        if np.count_nonzero(self._owner[fids] == FREE):
            raise AssertionError("frame released while free")
        if np.count_nonzero(refs):
            raise AssertionError("frame released while mapped")
        for fid in fids.tolist():
            self._data.pop(fid, None)
        self._owner[fids] = FREE

    def validated_of(self, fids: np.ndarray) -> np.ndarray:
        return self._validated[fids]

    def owners_of(self, fids: np.ndarray) -> np.ndarray:
        return self._owner[fids]

    # -- shared bases --

    def register_base(self, fids: np.ndarray) -> int:
        """Register a sealed table's frames as one base; returns its id.

        Each frame may appear once, and in no other live base, so that one
        view count stands for exactly one mapping per frame.
        """
        if len(fids):
            ordered = np.sort(fids)
            if (ordered[1:] == ordered[:-1]).any():
                raise DoubleMap("a sealed table maps one frame twice")
            if self._base_of[fids].any():
                raise DoubleMap("frame already belongs to another sealed table")
        base = self._next_base
        self._next_base += 1
        if base >= len(self._views):
            self._views = _grown(self._views, 2 * base)
            self._base_size = _grown(self._base_size, 2 * base)
        self._base_of[fids] = base
        self._base_size[base] = len(fids)
        return base

    def unregister_base(self, base: int, fids: np.ndarray) -> None:
        """Forget a base with no live views; its frames count explicitly."""
        if self._views[base]:
            raise BaseInUse(
                f"base {base} still has {int(self._views[base])} live views")
        self._base_of[fids] = 0
        self._base_size[base] = 0

    def add_view(self, base: int) -> None:
        self._views[base] += 1

    def drop_view(self, base: int) -> None:
        if self._views[base] <= 0:
            raise AssertionError(f"view underflow on base {base}")
        self._views[base] -= 1

    # -- reference counting --

    def ref(self, fid: int) -> int:
        return int(self._ref[fid] + self._views[self._base_of[fid]])

    def incref(self, fid: int) -> None:
        self._ref[fid] += 1

    def decref(self, fid: int) -> int:
        self._ref[fid] -= 1
        ref = self.ref(fid)
        if ref < 0:
            raise AssertionError(f"ref underflow on frame {fid}")
        return ref

    def bulk_incref(self, fids: np.ndarray) -> None:
        # add.at accumulates duplicate ids correctly, unlike fancy indexing.
        np.add.at(self._ref, fids, 1)

    def bulk_decref(self, fids: np.ndarray) -> np.ndarray:
        """Drop one reference per entry of fids; returns their new counts."""
        np.add.at(self._ref, fids, -1)
        refs = self.refs_of(fids)
        if np.count_nonzero(refs < 0):
            raise AssertionError(f"ref underflow on frames {fids.tolist()}")
        return refs

    def refs_of(self, fids: np.ndarray) -> np.ndarray:
        return self._ref[fids] + self._views[self._base_of[fids]]

    def total_refs(self) -> int:
        # Per base rather than per frame: callers check this after every
        # step of long randomized runs.
        return int(self._ref[: self._next_fid].sum()
                   + (self._views * self._base_size).sum())

    # -- byte access (monitor-side, uncharged) --

    def write_bytes(self, fid: int, offset: int, data: bytes) -> None:
        page = self._data.get(fid)
        if type(page) is not bytearray:  # unwritten, or a read-only view
            if page is None and not 0 <= fid < self._next_fid:
                raise KeyError(f"unknown frame {fid}")
            page = self._data[fid] = bytearray(
                PAGE_SIZE if page is None else page)
        page[offset : offset + len(data)] = data

    def write_range(self, fids: Sequence[int], data: bytes) -> None:
        """Write data across fids, one page per frame from its start.

        Each full page of an immutable ``bytes`` object is kept as a
        read-only view of it rather than copied; a ``bytearray`` or
        ``memoryview``, which its owner may change later, is copied, and
        so is a partial last page.
        """
        if len(data) > len(fids) * PAGE_SIZE:
            raise ValueError("data exceeds the frames' capacity")
        if len(data) and (min(fids) < 0 or max(fids) >= self._next_fid):
            raise KeyError(f"unknown frame in {min(fids)}..{max(fids)}")
        view = memoryview(data)
        page_of = (lambda chunk: chunk) if type(data) is bytes else bytearray
        full = len(data) // PAGE_SIZE
        self._data.update(
            (fids[i], page_of(view[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]))
            for i in range(full))
        if len(data) > full * PAGE_SIZE:
            self.write_bytes(fids[full], 0, view[full * PAGE_SIZE :])

    def read_bytes(self, fid: int) -> bytes:
        page = self._data.get(fid)
        return bytes(PAGE_SIZE) if page is None else bytes(page)

    def copy_frame(self, src_fid: int, dst_fid: int) -> None:
        """Copy a page; a read-only view is shared, since a write to
        either frame gives that frame a private page first."""
        page = self._data.get(src_fid)
        if page is None:
            self._data.pop(dst_fid, None)  # both are zero pages
        else:
            self._data[dst_fid] = (page if type(page) is memoryview
                                   else bytearray(page))
        self.copied_bytes_total += PAGE_SIZE


@dataclass
class PageEntry:
    frame_id: int
    perms: PagePerms


class PageTable:
    """Per-process virtual address space.

    A table either owns all of its entries, or is a copy-on-write *view*
    over a sealed base table: lookups fall through to the base unless the
    view has stopped aliasing that page.  ``_hidden`` holds exactly the
    base vpns the view no longer aliases, because it unmapped them, broke
    their sharing, or overrode their permissions with a local entry.
    Views let a 147 MiB zygote be forked hundreds of times without
    duplicating page-table entries or touching its frames' counts: the
    frame store counts a base's views once (see ``FrameStore``), and
    frame reference counts stay exact.

    A sealed table is frozen: every mutation is refused, so the PL1 write
    grants ``seal`` strips cannot come back and every view sees the same
    read-only base.
    """

    def __init__(self, store: FrameStore, owner: int,
                 base: Optional["PageTable"] = None):
        if base is not None and not base.sealed:
            raise NotSealed(f"table of process {base.owner} is not sealed")
        self.store = store
        self.owner = owner
        self.base = base
        self.entries: dict[int, PageEntry] = {}
        self._hidden: set[int] = set()
        self.sealed = False
        self._base_id: Optional[int] = None  # set while forkable
        self._sealed_fids: Optional[np.ndarray] = None
        self._sealed_pl1_fids: Optional[np.ndarray] = None
        self._next_vpn = base.next_unused_vpn() if base is not None else 0

    # -- lookup helpers --

    def lookup(self, vpn: int) -> Optional[PageEntry]:
        entry = self.entries.get(vpn)
        if entry is None and self.base is not None and vpn not in self._hidden:
            entry = self.base.entries.get(vpn)
        return entry

    def _aliases(self, vpn: int) -> bool:
        return (self.base is not None and vpn not in self._hidden
                and vpn in self.base.entries)

    def mapped_vpns(self) -> Iterator[int]:
        if self.base is not None:
            yield from (v for v in self.base.entries if v not in self._hidden)
        yield from self.entries

    def n_entries(self) -> int:
        return self.n_aliased() + len(self.entries)

    def n_aliased(self) -> int:
        """Entries served by the base table rather than local overrides."""
        if self.base is None:
            return 0
        return len(self.base.entries) - len(self._hidden)

    def next_unused_vpn(self) -> int:
        return self._next_vpn

    def take_vpns(self, n: int) -> list[int]:
        """Hand out n fresh virtual page numbers (bump allocation)."""
        vpns = list(range(self._next_vpn, self._next_vpn + n))
        self._next_vpn += n
        return vpns

    def local_frame_ids(self, pl1_only: bool = False) -> np.ndarray:
        """Frames of this table's own entries; a sealed table's are cached."""
        if self.sealed:
            return self._sealed_pl1_fids if pl1_only else self._sealed_fids
        if pl1_only:
            it = (e.frame_id for e in self.entries.values()
                  if e.perms.pl1_accessible())
        else:
            it = (e.frame_id for e in self.entries.values())
        return np.fromiter(it, dtype=np.int64)

    def _aliased_frame_ids(self, pl1_only: bool = False) -> np.ndarray:
        assert self.base is not None
        if not self._hidden:
            return self.base.local_frame_ids(pl1_only=pl1_only)
        it = (e.frame_id for vpn, e in self.base.entries.items()
              if vpn not in self._hidden
              and (not pl1_only or e.perms.pl1_accessible()))
        return np.fromiter(it, dtype=np.int64)

    def frame_id_parts(self, pl1_only: bool = False) -> list[np.ndarray]:
        """Arrays jointly covering every mapped frame.

        Views that still alias every base page return the base's cached
        array object, so callers can deduplicate by identity.
        """
        parts = [self.local_frame_ids(pl1_only=pl1_only)]
        if self.base is not None:
            parts.append(self._aliased_frame_ids(pl1_only=pl1_only))
        return parts

    # -- mutation (PL0 only; a sealed table refuses all of it) --

    def _require_mutable(self, caller: PrivilegeLevel, action: str) -> None:
        if caller is not PL0:
            raise PermissionDenied(f"{caller.name} may not {action}")
        if self.sealed:
            raise NotSealed(
                f"table of process {self.owner} is sealed; templates are frozen")

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
        if len(fids) and (min(fids) < 0 or max(fids) >= self.store.n_frames()):
            raise KeyError(f"unknown frame in {min(fids)}..{max(fids)}")
        if PL2 in perms.read or PL2 in perms.write:
            arr = np.array(fids, dtype=np.int64)
            held = arr[np.isin(self.store.owners_of(arr), (PL0, PL1))]
            if len(held):
                raise PermissionDenied(f"frame {held[0]} is owned by PL0 or "
                                       "PL1 and cannot be exposed to the guest")
        vpns = range(vpn, vpn + len(fids))
        taken = self.entries.keys() & vpns
        if self.base is not None:
            taken |= (self.base.entries.keys() & vpns) - self._hidden
        if taken:
            raise DoubleMap(f"vpn {min(taken)} already mapped in process {self.owner}")
        self.store.bulk_incref(fids)
        self.entries.update(zip(vpns, (PageEntry(f, perms) for f in fids)))
        self._next_vpn = max(self._next_vpn, vpns.stop)

    def unmap_page(self, vpn: int, caller: PrivilegeLevel = PL0) -> int:
        """Remove a mapping and return the frame's new reference count."""
        return int(self._unmap_run([vpn], caller)[1][0])

    def unmap_range(self, vpns: Sequence[int],
                    caller: PrivilegeLevel = PL0) -> list[int]:
        """Remove the mappings at vpns; returns the frames left unmapped."""
        if not vpns:  # the common case of an invocation that staged no files
            return []
        fids, refs = self._unmap_run(vpns, caller)
        return sorted(set(fids[refs == 0].tolist()))

    def _unmap_run(self, vpns: Sequence[int],
                   caller: PrivilegeLevel) -> tuple[np.ndarray, np.ndarray]:
        """Remove the mappings at vpns: all of them, or, if any is not
        mapped, none.  Returns their frames and the frames' new counts."""
        self._require_mutable(caller, "unmap pages")
        wanted = set(vpns)
        if len(wanted) != len(vpns):
            raise KeyError("a vpn is unmapped twice")
        local = self.entries.keys() & wanted
        aliased = set()
        if self.base is not None:
            aliased = ((wanted - local) & self.base.entries.keys()) - self._hidden
        missing = wanted - local - aliased
        if missing:
            raise KeyError(f"vpn {min(missing)} not mapped")
        fids = np.fromiter(
            (self.entries.pop(v).frame_id if v in local
             else self.base.entries[v].frame_id for v in vpns),
            dtype=np.int64, count=len(vpns))
        self._hidden |= aliased
        return fids, self.store.bulk_decref(fids)

    def set_perms(self, vpn: int, perms: PagePerms,
                  caller: PrivilegeLevel = PL0) -> None:
        self._require_mutable(caller, "change permissions")
        entry = self.entries.get(vpn)
        if entry is not None:
            entry.perms = perms
            return
        if not self._aliases(vpn):
            raise KeyError(f"vpn {vpn} not mapped")
        # A local override keeps the shared base pristine.  Hiding the
        # alias drops one reference and the local entry adds it back.
        self._hidden.add(vpn)
        self.entries[vpn] = PageEntry(self.base.entries[vpn].frame_id, perms)

    def seal(self, caller: PrivilegeLevel = PL0) -> None:
        """Strip PL1 write everywhere and freeze the table for forking.

        The frames are registered with the store as one base here, once,
        so that forks need not touch them.
        """
        if caller is not PL0:
            raise PermissionDenied(f"{caller.name} may not seal")
        if self.sealed:
            return
        if self.base is not None:
            raise NotSealed("a copy-on-write view cannot be sealed")
        for entry in self.entries.values():
            entry.perms = entry.perms.without_pl1_write()
        fids = self.local_frame_ids()
        pl1_fids = self.local_frame_ids(pl1_only=True)
        self._base_id = self.store.register_base(fids)
        self._sealed_fids, self._sealed_pl1_fids = fids, pl1_fids
        self.sealed = True

    # -- access (any level; faults are return values) --

    def access(self, level: PrivilegeLevel, vpn: int, kind: AccessKind,
               data: Optional[bytes] = None, offset: int = 0):
        """Read or write one page.

        Returns page bytes for a successful read, None for a successful
        write, or a PageFault value.  Writes additionally require the frame
        to be exclusively mapped (ref_count == 1); a write to a shared frame
        yields a COW_FAULT for the monitor to resolve.
        """
        kind = AccessKind(kind)
        entry = self.lookup(vpn)
        if entry is None:
            return PageFault(FaultKind.NOT_MAPPED, vpn, level)
        aliased = vpn not in self.entries and self.base is not None
        if not entry.perms.can(level, kind):
            if kind is AccessKind.WRITE and aliased and level is PL1:
                # The page is inherited read-only from the sealed template:
                # the owner's write attempt is a resolvable CoW fault, not a
                # plain permission error.
                return PageFault(FaultKind.COW_FAULT, vpn, level)
            return PageFault(FaultKind.PERMISSION_VIOLATION, vpn, level)
        if kind is AccessKind.READ:
            return self.store.read_bytes(entry.frame_id)
        if self.store.ref(entry.frame_id) > 1:
            return PageFault(FaultKind.COW_FAULT, vpn, level)
        if data is None:
            raise ValueError("write access requires data")
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses page boundary")
        self.store.write_bytes(entry.frame_id, offset, data)
        return None

    # -- forking --

    def fork_cow(self, new_owner: int) -> "PageTable":
        """Create a CoW alias of this sealed table: O(1), zero bytes copied.

        Sealing stripped every PL1 write grant and the sealed table
        refuses mutation, so the view inherits a read-only base.
        """
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
        entry = self.lookup(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn} not mapped")
        if self.store.ref(entry.frame_id) <= 1:
            raise ValueError(f"vpn {vpn} is not shared; nothing to resolve")
        new_fids, charge = alloc_frames(pool, 1, model, owner_level=PL1)
        new_fid = new_fids[0]
        old_fid = entry.frame_id
        self.store.copy_frame(old_fid, new_fid)
        charge += model.copy_us(1)
        if self._aliases(vpn):
            self._hidden.add(vpn)
        self.entries[vpn] = PageEntry(new_fid, PagePerms.PROCESS_RW)
        self.store.incref(new_fid)
        self.store.decref(old_fid)
        return new_fid, charge

    def release_all(self) -> list[int]:
        """Unmap everything; returns frame ids whose ref_count reached 0.

        Costs O(local entries + hidden vpns): the local frames are decref'd,
        the hidden base frames get back the reference hiding took, and the
        base loses one view.  A sealed table with live views is refused
        with ``BaseInUse``; its views must be released first.
        """
        local = self.local_frame_ids()
        if self._base_id is not None:
            self.store.unregister_base(self._base_id, local)
            self._base_id = None
            self._sealed_fids = self._sealed_pl1_fids = np.empty(0, np.int64)
        refs = self.store.bulk_decref(local)
        freed = sorted(set(local[refs == 0].tolist()))
        if self.base is not None:
            hidden = np.fromiter(
                (self.base.entries[vpn].frame_id for vpn in self._hidden),
                dtype=np.int64, count=len(self._hidden))
            self.store.bulk_incref(hidden)
            self.store.drop_view(self.base._base_id)
            self.base = None
            self._hidden = set()
        self.entries.clear()
        return freed


class MemoryPool:
    """Free-frame pool, optionally prevalidated at boot.

    Free frames are id ranges, taken from the front and given back at the
    end; the store's owner column marks them ``FREE``.  Host memory grows
    with the frame columns, and with page bytes only as frames are written.
    """

    def __init__(self, store: FrameStore, prevalidated: bool = False):
        self.store = store
        self.prevalidated = prevalidated
        self._ranges: list[tuple[int, int]] = []
        self.free_count = 0
        self.clock_charged_us = 0

    def grow(self, n_frames: int, validated: bool) -> None:
        if n_frames <= 0:
            return
        lo, hi = self.store.reserve(n_frames, validated=validated)
        self._ranges.append((lo, hi))
        self.free_count += n_frames

    def take(self, n: int) -> list[int]:
        if n > self.free_count:
            raise OutOfMemory(f"requested {n} frames, {self.free_count} free")
        out: list[int] = []
        while len(out) < n:
            lo, hi = self._ranges.pop(0)
            mid = min(hi, lo + n - len(out))
            self.store.hand_out(lo, mid)
            out.extend(range(lo, mid))
            if mid < hi:
                self._ranges.insert(0, (mid, hi))
        self.free_count -= n
        return out

    def release(self, fids: Sequence[int]) -> None:
        """Give back distinct frames that are handed out and unmapped; a
        frame that is free or still mapped fails an assertion."""
        if not len(fids):
            return
        arr = np.array(fids, dtype=np.int64)
        self._give_back(arr, self.store.refs_of(arr))

    def release_unmapped(self, fids: Sequence[int]) -> None:
        """Give back those of the distinct, handed-out fids that no page
        table maps; the others stay handed out."""
        arr = np.array(fids, dtype=np.int64)
        refs = self.store.refs_of(arr)
        unmapped = refs == 0
        self._give_back(arr[unmapped], refs[unmapped])

    def _give_back(self, fids: np.ndarray, refs: np.ndarray) -> None:
        ordered = sorted(fids.tolist())
        if not ordered:
            return
        if len(set(ordered)) != len(ordered):
            raise AssertionError("frame released twice")
        self.store.take_back(fids, refs)
        cuts = [i for i in range(1, len(ordered)) if ordered[i] != ordered[i - 1] + 1]
        bounds = [0, *cuts, len(ordered)]  # the runs of consecutive ids
        self._ranges.extend((ordered[lo], ordered[hi - 1] + 1)
                            for lo, hi in zip(bounds, bounds[1:]))
        self.free_count += len(ordered)


def alloc_frames(pool: MemoryPool, n: int, model: CostModel,
                 owner_level: Optional[PrivilegeLevel] = None) -> tuple[list[int], int]:
    """Allocate n frames; returns (frame ids, simulated validation charge).

    A prevalidated pool charges nothing; otherwise every not-yet-validated
    frame is validated now at validation_us_per_page.
    """
    fids = pool.take(n)
    fresh = pool.store.claim(np.array(fids, dtype=np.int64), owner_level)
    charge = 0 if pool.prevalidated else model.validation_us(fresh)
    pool.clock_charged_us += charge
    return fids, charge


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
    pool.prevalidated = True
    charge = model.validation_us(pages)
    pool.clock_charged_us += charge
    return charge


@dataclass
class MemoryAccounting:
    shared_bytes: int
    exclusive_bytes: int
    total_resident_bytes: int


def accounting(tables: Iterable[PageTable]) -> MemoryAccounting:
    """Resident-memory split over a set of page tables.

    shared: frames referenced by more than one entry, counted once.
    exclusive: singly-referenced frames granted any PL1 access.
    Base arrays shared between sibling CoW views are deduplicated by object
    identity, and the distinct frame ids are found with a boolean mask over
    all frame ids rather than a sort or hash, keeping the computation
    O(distinct frames + reserved frames) even with hundreds of forks.
    """
    tables = list(tables)
    if not tables:
        return MemoryAccounting(0, 0, 0)
    store = tables[0].store

    def unique_fids(pl1_only: bool) -> np.ndarray:
        seen = np.zeros(store.n_frames(), dtype=bool)
        parts: dict[int, np.ndarray] = {}
        for table in tables:
            for arr in table.frame_id_parts(pl1_only=pl1_only):
                parts[id(arr)] = arr
        for arr in parts.values():
            seen[arr] = True
        return np.flatnonzero(seen)

    mapped = unique_fids(pl1_only=False)
    if not len(mapped):
        return MemoryAccounting(0, 0, 0)
    shared = int((store.refs_of(mapped) > 1).sum()) * PAGE_SIZE
    pl1_mapped = unique_fids(pl1_only=True)
    exclusive = 0
    if len(pl1_mapped):
        exclusive = int((store.refs_of(pl1_mapped) == 1).sum()) * PAGE_SIZE
    return MemoryAccounting(shared, exclusive, shared + exclusive)
