"""Monitor-owned data objects: the inter-function communication path.

A data object is a run of frames with at most one writer and one reader
attachment.  The writer's bytes go through a write-only grant that it
alone maps; attaching the reader downgrades the writer's mappings, so no
frame is ever PL1-writable while shared.  A chain object is an output
object the monitor makes when a linked producer completes, sized by that
output, and hands to the consumer as its input: the payload is never
copied.  When functions are not co-located the copy-and-encrypt fallback
path models the conventional network route.

An object lives from one call to one call.  ``make`` allocates its
frames, writes its bytes and maps its parties' grants; ``end`` unmaps
every grant and gives the frames back in one pass.  A process that exits
or is recreated ``leave``s its objects, and each that nobody else holds
goes with its table's pages, the only ones mapping it.  A writer's
quota use is derived from the live objects it writes.  An invocation's
input and its copies of the external files it reads are input objects
the monitor writes; which object is which, or a process's current
output, is the monitor's to know, and it ends each.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .crypto import Rng, symmetric_decrypt, symmetric_encrypt
from .errors import (
    AlreadyAttached,
    NoRoute,
    QuotaExceeded,
    UnknownObject,
)
from .guest import GuestBroker
from .memory import (
    PL1,
    CostModel,
    MemoryPool,
    PageFault,
    PagePerms,
    PageTable,
    Run,
    frames_of,
    n_frames_of,
    pages_for,
)

MONITOR_PID = 0
_NO_VPNS = range(0)


class ObjectType(str, Enum):
    PLAIN = "plain"
    INPUT = "input"
    OUTPUT = "output"
    CHAIN = "chain"


@dataclass
class CopyCounter:
    """Payload-path accounting.

    payload_bytes_copied counts bytes written or copied on the object path:
    producers' own writes plus fallback copies.  Monitor-side population of
    the initial request input is charged simulated time but not counted, so
    a co-located k-chain with payload p shows exactly k*|p|.  crypto_ops
    counts only object-path cipher operations, not request/response crypto
    at the user edge.
    """

    payload_bytes_copied: int = 0
    crypto_ops: int = 0
    fallback_copies: int = 0
    colocated_fallbacks: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DataObject:
    """One object: its frames as the runs the pool handed out, and each
    party's grant as the range of consecutive vpns it is mapped at."""

    obj_id: int
    length: int
    otype: ObjectType
    runs: list[Run]
    writer: Optional[int] = None
    reader: Optional[int] = None
    sealed: bool = False
    writer_vpns: range = _NO_VPNS
    reader_vpns: range = _NO_VPNS
    writer_table: Optional[PageTable] = None
    reader_table: Optional[PageTable] = None

    @property
    def frames(self) -> list[int]:
        """The frame ids, in page order."""
        return frames_of(self.runs)

    @property
    def pages(self) -> int:
        return n_frames_of(self.runs)

    def attachments(self) -> set[int]:
        return {pid for pid in (self.writer, self.reader) if pid is not None}


class ObjectStore:
    """All live data objects of one monitor instance.

    An object's frame runs are the unit it passes to the memory layer:
    the pool hands them out and takes them back as runs, each grant maps
    them at one range of vpns, and reads check and move a grant's pages
    a run at a time.  Making, attaching, reading and ending an object of
    n pages in r runs so takes O(r) Python steps, with the per-page work
    in slice assignments and C-level scans.
    """

    def __init__(self, pool: MemoryPool, model: CostModel,
                 quota_objects: int = 64,
                 quota_bytes: int = 256 * 1048576):
        self.pool = pool
        self.model = model
        self.quota_objects = quota_objects
        self.quota_bytes = quota_bytes
        self.objects: dict[int, DataObject] = {}
        self.counter = CopyCounter()
        self._next_id = 1
        self._attached: dict[int, set[int]] = {}

    def attached_view(self, pid: int) -> set[int]:
        """Live set of object ids attached to pid (descriptor's view)."""
        return self._attached.setdefault(pid, set())

    def _check_quota(self, pid: int, more_objects: int, more_bytes: int,
                     supersedes: Optional[int] = None) -> None:
        """Refuse with QuotaExceeded a writer's growth past its quota,
        counted over the live objects it writes other than ``supersedes``
        (at most quota_objects) and their payload bytes (``length``)."""
        count = size = 0
        for obj_id in self._attached.get(pid, ()):
            obj = self.objects[obj_id]
            if obj.writer == pid and obj_id != supersedes:
                count += 1
                size += obj.length
        if count + more_objects > self.quota_objects:
            raise QuotaExceeded(
                f"process {pid} exceeds {self.quota_objects} objects")
        if size + more_bytes > self.quota_bytes:
            raise QuotaExceeded(f"process {pid} exceeds object byte quota")

    # -- making and ending ----------------------------------------------------------

    def make(self, data: bytes, otype: ObjectType = ObjectType.PLAIN,
             writer: Optional[PageTable] = None,
             reader: Optional[PageTable] = None,
             supersedes: Optional[int] = None) -> tuple[int, int, int]:
        """Make an object holding data, in one call: check the writer's
        quota, allocate the frames, write data and map each party's grant.

        A party is a process, named by its page table (``owner`` is its
        pid), or the monitor (None), which writes at PL0 and is mapped
        nothing.  A writer's grant is write-only (read-only if a reader
        shares it), a reader's read-only.  A process's object is sealed:
        its bytes went to frames its fresh grant alone maps, so the write
        cannot fault, and none follows; it counts toward
        payload_bytes_copied, the monitor's write does not.  The quota
        leaves out ``supersedes``, an object the caller ends once this
        one exists.  Returns (obj_id, allocation and write charge_us).
        """
        wpid = MONITOR_PID if writer is None else writer.owner
        if writer is not None:
            self._check_quota(wpid, 1, len(data), supersedes)
        if reader is not None and reader.owner == wpid:
            raise AlreadyAttached(f"process {wpid} already attached as writer")
        runs, fresh = self.pool.take_runs(pages_for(max(1, len(data))), PL1)
        self.pool.store.write_runs(runs, data)
        obj = DataObject(self._next_id, len(data), otype, runs, writer=wpid,
                         sealed=writer is not None)
        self._next_id += 1
        self.objects[obj.obj_id] = obj
        attached = self._attached
        attached.setdefault(wpid, set()).add(obj.obj_id)
        if writer is not None:
            obj.writer_table = writer
            obj.writer_vpns = writer.map_runs(runs, PagePerms.PROCESS_WO
                                              if reader is None
                                              else PagePerms.PROCESS_RO)
            self.counter.payload_bytes_copied += len(data)
        if reader is not None:
            obj.reader, obj.reader_table = reader.owner, reader
            obj.reader_vpns = reader.map_runs(runs, PagePerms.PROCESS_RO)
            attached.setdefault(reader.owner, set()).add(obj.obj_id)
        return (obj.obj_id, self.model.validation_us(fresh),
                self.model.transfer_us(len(data)))

    def end(self, obj_id: Optional[int]) -> None:
        """End one object in one pass: unmap every party's grant and give
        its frames back (``MemoryPool.release_runs``; an assertion fails,
        changing nothing, if anything else maps one).  The writer's quota
        use drops with it.  An id no longer live, or None, is ignored."""
        obj = self.objects.get(obj_id)
        if obj is None:
            return
        grants = []
        if obj.writer_table is not None:
            grants.append((obj.writer_table, obj.writer_vpns))
        if obj.reader_table is not None:
            grants.append((obj.reader_table, obj.reader_vpns))
        self.pool.release_runs(obj.runs, grants)
        del self.objects[obj_id]
        for pid in (obj.writer, obj.reader):
            if pid is not None:
                self._attached[pid].discard(obj_id)

    def get(self, obj_id: int) -> DataObject:
        obj = self.objects.get(obj_id)
        if obj is None:
            raise UnknownObject(f"no object {obj_id}")
        return obj

    def attach_reader(self, table: PageTable, obj_id: int) -> DataObject:
        """Grant the process of table read-only mappings; a second reader
        is rejected.

        The writer's write grant (if any) is downgraded to read-only
        first, so shared frames are never PL1-writable.
        """
        obj, pid = self.get(obj_id), table.owner
        if obj.reader is not None:
            if obj.reader == pid:
                return obj  # idempotent re-attach
            raise AlreadyAttached(f"object {obj_id} already has a reader")
        if obj.writer == pid:
            raise AlreadyAttached(f"process {pid} already attached as writer")
        if obj.writer_vpns:
            obj.writer_table.set_perms(obj.writer_vpns, PagePerms.PROCESS_RO)
        obj.reader, obj.reader_table = pid, table
        obj.reader_vpns = table.map_runs(obj.runs, PagePerms.PROCESS_RO)
        self._attached.setdefault(pid, set()).add(obj_id)
        return obj

    def leave(self, pid: int) -> None:
        """pid leaves the objects it is attached to, as its process exits
        or is recreated, and an object nobody else holds goes with it.

        The caller then unmaps pid's grants with its page table
        (``release_all``, or ``truncate`` past the pages it keeps), whose
        one pass frees the gone objects' frames with the table's.  An
        object the monitor also holds (an input) keeps its frames: pid's
        grant on it is unmapped here.  Visits only pid's objects.
        """
        objects = self.objects
        for obj_id in self._attached.pop(pid, ()):
            obj = objects[obj_id]
            if obj.writer == pid:
                obj.writer, obj.writer_table = None, None
                obj.writer_vpns = _NO_VPNS
            else:
                if obj.writer == MONITOR_PID:
                    obj.reader_table.unmap_range(obj.reader_vpns)
                obj.reader, obj.reader_table = None, None
                obj.reader_vpns = _NO_VPNS
            if obj.writer is None and obj.reader is None:
                del objects[obj_id]

    # -- reading ----------------------------------------------------------------------

    def read_through(self, table: PageTable, obj_id: int) -> bytes:
        """The reader pulls bytes through its PL1 read-only mappings."""
        obj = self.get(obj_id)
        if obj.reader_table is not table:
            raise UnknownObject(f"process {table.owner} has no read grant "
                                f"on object {obj_id}")
        data = table.read_run(PL1, obj.reader_vpns, obj.length)
        if isinstance(data, PageFault):
            raise PermissionError(f"object read faulted: {data.kind.value}")
        return data

    def read_monitor(self, obj_id: int) -> bytes:
        """Monitor (PL0) reads an object's content directly."""
        obj = self.get(obj_id)
        return self.pool.store.read_runs(obj.runs, obj.length)

    def dump(self) -> list[dict]:
        """Debug view of the live object table (JSON-serializable)."""
        return [
            {
                "obj_id": obj.obj_id,
                "otype": obj.otype.value,
                "length": obj.length,
                "pages": obj.pages,
                "writer": obj.writer,
                "reader": obj.reader,
                "sealed": obj.sealed,
            }
            for obj_id, obj in sorted(self.objects.items())
        ]


def fallback_transfer(src: ObjectStore, obj_id: int,
                      dst: Optional[ObjectStore], transport_key: bytes,
                      guest: GuestBroker, rng: Rng,
                      colocated: bool = False) -> tuple[bytes, bytes, int]:
    """Ship an output object over the conventional encrypted network path.

    The payload is encrypted (1 crypto op), copied to the guest (1 copy),
    decrypted at the destination monitor (1 crypto op), and copied into the
    destination's input staging (1 copy).  Returns (ciphertext envelope,
    delivered plaintext, charge_us).
    """
    if dst is None:
        raise NoRoute("no destination monitor for fallback transfer")
    payload = src.read_monitor(obj_id)
    envelope = symmetric_encrypt(transport_key, payload, rng)
    src.counter.crypto_ops += 1
    guest.observe(envelope)
    src.counter.payload_bytes_copied += len(payload)
    src.counter.fallback_copies += 1
    if colocated:
        src.counter.colocated_fallbacks += 1
    delivered = symmetric_decrypt(transport_key, envelope)
    dst.counter.crypto_ops += 1
    dst.counter.payload_bytes_copied += len(delivered)
    dst.counter.fallback_copies += 1
    charge = 2 * src.model.crypto_us(len(payload)) + 2 * src.model.transfer_us(len(payload))
    return envelope, delivered, charge
