"""Monitor-owned data objects: the inter-function communication path.

A data object is a run of frames with at most one writer and one reader
attachment.  The writer streams bytes through write-only page mappings
while solely attached; attaching the reader downgrades the writer's
mappings, so no frame is ever PL1-writable while shared.  A chain object
is an output object the monitor creates when a linked producer completes,
sized by that output, and hands to the consumer as its input: the payload
is never copied.  When functions are not co-located the copy-and-encrypt
fallback path models the conventional network route.

The store owns an object from ``create`` to its release.  Detaching a
party unmaps that party's grant from its table, and an object's frames go
back to the pool when the monitor retires it, or with its last attached
process's frames when that exits (``reclaim`` hands them to the
teardown), so a page table only ever frees its own process's frames.  A
writer's quota use is derived from the live objects it writes.  An
invocation's input and its copies of the external files it reads are
input objects the monitor writes; which object is which, or a process's
current output, is the monitor's to know, and it retires each.
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
    NotWriter,
    PermissionDenied,
    QuotaExceeded,
    UnknownObject,
)
from .guest import GuestBroker
from .memory import (
    PAGE_SIZE,
    CostModel,
    MemoryPool,
    PageFault,
    PagePerms,
    PageTable,
    PrivilegeLevel,
    Run,
    alloc_runs,
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
    charged_bytes: int = 0  # counted against the writer's byte quota
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
    them at one range of vpns, and reads and writes check and move a
    grant's pages a run at a time.  Creating, writing, attaching,
    reading, detaching and releasing an object of n pages in r runs so
    takes O(r) Python steps, with the per-page work in slice assignments
    and C-level scans.
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

    def _written_by(self, pid: int) -> list[DataObject]:
        """pid's live objects as writer: at most quota_objects."""
        return [obj for obj in map(self.objects.__getitem__,
                                   self._attached.get(pid, ()))
                if obj.writer == pid]

    def _check_quota(self, pid: Optional[int], more_objects: int,
                     more_bytes: int, supersedes: Optional[int] = None) -> None:
        """Refuse with QuotaExceeded a writer's growth past its quota,
        counted over the live objects it writes other than ``supersedes``;
        the monitor has none."""
        if pid in (None, MONITOR_PID):
            return
        owned = [obj for obj in self._written_by(pid)
                 if obj.obj_id != supersedes]
        if len(owned) + more_objects > self.quota_objects:
            raise QuotaExceeded(
                f"process {pid} exceeds {self.quota_objects} objects")
        if sum(obj.charged_bytes for obj in owned) + more_bytes > self.quota_bytes:
            raise QuotaExceeded(f"process {pid} exceeds object byte quota")

    # -- creation ---------------------------------------------------------------

    def create(self, caller_pid: int, caller_table: Optional[PageTable],
               length: int, otype: ObjectType = ObjectType.PLAIN,
               supersedes: Optional[int] = None) -> tuple[int, int]:
        """Create an object with the caller attached as writer.

        Grants write-only mappings in the caller's table (monitor callers
        access frames directly at PL0).  ``supersedes`` names an object
        the caller retires once this one exists; the quota leaves it out.
        Returns (obj_id, charge_us).
        """
        if length <= 0:
            raise ValueError("object length must be positive")
        self._check_quota(caller_pid, 1, length, supersedes)
        runs, charge = alloc_runs(self.pool, pages_for(length), self.model,
                                  owner_level=PrivilegeLevel.PL1_PROCESS)
        obj = DataObject(self._next_id, length, otype, runs,
                         writer=caller_pid, charged_bytes=length)
        self._next_id += 1
        if caller_table is not None and caller_pid != MONITOR_PID:
            obj.writer_vpns = caller_table.map_runs(runs, PagePerms.PROCESS_WO)
            obj.writer_table = caller_table
        self.objects[obj.obj_id] = obj
        self.attached_view(caller_pid).add(obj.obj_id)
        return obj.obj_id, charge

    def get(self, obj_id: int) -> DataObject:
        obj = self.objects.get(obj_id)
        if obj is None:
            raise UnknownObject(f"no object {obj_id}")
        return obj

    # -- attachment ---------------------------------------------------------------

    def attach_reader(self, caller_pid: int, caller_table: Optional[PageTable],
                      obj_id: int) -> DataObject:
        """Grant the caller read-only mappings; second reader is rejected.

        The writer's write grants (if any) are downgraded to read-only
        first, so shared frames are never PL1-writable.
        """
        obj = self.get(obj_id)
        if obj.reader is not None:
            if obj.reader == caller_pid:
                return obj  # idempotent re-attach
            raise AlreadyAttached(f"object {obj_id} already has a reader")
        if obj.writer == caller_pid:
            raise AlreadyAttached(
                f"process {caller_pid} already attached as writer")
        if obj.writer_vpns:
            obj.writer_table.set_perms(obj.writer_vpns, PagePerms.PROCESS_RO)
        obj.reader = caller_pid
        self.attached_view(caller_pid).add(obj.obj_id)
        if caller_table is not None and caller_pid != MONITOR_PID:
            obj.reader_vpns = caller_table.map_runs(obj.runs,
                                                    PagePerms.PROCESS_RO)
            obj.reader_table = caller_table
        return obj

    def seal(self, obj_id: int) -> None:
        self.get(obj_id).sealed = True

    # -- data movement -------------------------------------------------------------

    def write_through(self, caller_pid: int, caller_table: PageTable,
                      obj_id: int, data: bytes) -> int:
        """Writer streams bytes through its PL1 mappings; returns charge_us.

        Counts toward payload_bytes_copied (a producer's own write).  A
        sealed object refuses every write with ``PermissionDenied``.
        """
        obj = self.get(obj_id)
        if obj.writer != caller_pid:
            raise NotWriter(
                f"process {caller_pid} is not the writer of object {obj_id}")
        if obj.sealed:
            raise PermissionDenied(f"object {obj_id} is sealed")
        if len(data) > obj.pages * PAGE_SIZE:
            raise ValueError("data exceeds object capacity")
        fault = caller_table.write_run(
            PrivilegeLevel.PL1_PROCESS,
            obj.writer_vpns[: pages_for(len(data))], data)
        if fault is not None:
            raise PermissionError(f"object write faulted: {fault.kind.value}")
        obj.length = len(data)
        self.counter.payload_bytes_copied += len(data)
        return self.model.transfer_us(len(data))

    def read_through(self, caller_pid: int, caller_table: PageTable,
                     obj_id: int) -> bytes:
        """Reader pulls bytes through its PL1 read-only mappings."""
        obj = self.get(obj_id)
        if obj.reader != caller_pid:
            raise UnknownObject(
                f"process {caller_pid} has no read grant on object {obj_id}")
        data = caller_table.read_run(
            PrivilegeLevel.PL1_PROCESS,
            obj.reader_vpns[: pages_for(obj.length)], obj.length)
        if isinstance(data, PageFault):
            raise PermissionError(f"object read faulted: {data.kind.value}")
        return data

    def write_monitor(self, obj_id: int, data: bytes) -> int:
        """Monitor (PL0) populates an object directly; charged, not counted."""
        obj = self.get(obj_id)
        self.pool.store.write_runs(obj.runs, data)
        obj.length = len(data)
        return self.model.transfer_us(len(data))

    def read_monitor(self, obj_id: int) -> bytes:
        """Monitor (PL0) reads an object's content directly."""
        obj = self.get(obj_id)
        return self.pool.store.read_runs(obj.runs, obj.length)

    # -- lifecycle -------------------------------------------------------------------

    def detach(self, pid: int, obj: DataObject) -> None:
        """Drop pid's attachment to obj and unmap its grant from its table.

        The frames stay the object's until ``retire`` gives them back or
        ``reclaim`` hands them to the process's teardown."""
        self._attached.get(pid, set()).discard(obj.obj_id)
        if obj.writer == pid:
            if obj.writer_table is not None:
                obj.writer_table.unmap_range(obj.writer_vpns)
            obj.writer, obj.writer_table = None, None
            obj.writer_vpns = _NO_VPNS
        if obj.reader == pid:
            if obj.reader_table is not None:
                obj.reader_table.unmap_range(obj.reader_vpns)
            obj.reader, obj.reader_table = None, None
            obj.reader_vpns = _NO_VPNS

    def retire(self, obj_id: Optional[int]) -> None:
        """Fully release one object: detach every party, then give back its
        frames.  Used for consumed inputs, superseded outputs and chain
        objects; the writer's quota use drops with the object.  An id that
        is no longer live, or None, is ignored."""
        obj = self.objects.get(obj_id)
        if obj is None:
            return
        for pid in obj.attachments():
            self.detach(pid, obj)
        self.pool.release_runs(obj.runs)
        del self.objects[obj.obj_id]

    def reclaim(self, pid: int) -> list[Run]:
        """Detach pid from its objects, forget every per-pid entry, and
        forget the objects nobody is still attached to; returns their
        frames as runs, which the caller gives back to the pool together
        with those pid's page table frees (``MemoryPool.release_runs``).

        Runs before pid's page table is released, so it leaves no object
        grant mapped there.  Visits only the objects attached to pid, in
        creation order.  An object with a surviving attachment persists
        until that party exits or the monitor retires it.  Idempotent.
        """
        freed: list[Run] = []
        for obj_id in sorted(self._attached.pop(pid, ())):
            obj = self.objects[obj_id]
            self.detach(pid, obj)
            if not obj.attachments():
                freed += obj.runs
                del self.objects[obj_id]
        return freed

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
