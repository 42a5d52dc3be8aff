"""Data-object store tests: attachments, grants, chaining accounting."""

import numpy as np
import pytest

from conftest import release_frames, take_frames
from walletemu.crypto import Rng
from walletemu.errors import (
    AlreadyAttached,
    NoRoute,
    QuotaExceeded,
    UnknownObject,
)
from walletemu.guest import GuestBroker
from walletemu.memory import (
    FREE,
    PAGE_SIZE,
    PL1,
    PL2,
    AccessKind,
    CostModel,
    FaultKind,
    FrameStore,
    MemoryPool,
    PageFault,
    PagePerms,
    PageTable,
    frames_of,
    pages_for,
)
from walletemu.objects import (
    MONITOR_PID,
    ObjectStore,
    ObjectType,
    fallback_transfer,
)

MIB = 1048576


@pytest.fixture
def env():
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(65536, validated=True)
    objects = ObjectStore(pool, CostModel())
    writer_table = PageTable(store, 1)
    reader_table = PageTable(store, 2)
    return objects, writer_table, reader_table


class TestCreate:
    def test_small_object_takes_one_page(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"8 bytes!", writer=writer)
        obj = objects.get(obj_id)
        assert len(obj.frames) == 1
        assert obj.writer == 1

    def test_two_page_object(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(bytes(8192), writer=writer)
        assert len(objects.get(obj_id).frames) == 2

    def test_object_count_quota(self, env):
        objects, writer, _ = env
        objects.quota_objects = 2
        objects.make(b"x", writer=writer)
        objects.make(b"x", writer=writer)
        with pytest.raises(QuotaExceeded):
            objects.make(b"x", writer=writer)

    def test_byte_quota(self, env):
        objects, writer, _ = env
        objects.quota_bytes = 4096
        free = objects.pool.free_count
        with pytest.raises(QuotaExceeded):
            objects.make(bytes(8192), writer=writer)
        assert objects.pool.free_count == free and not objects.objects


class TestFragmentedObject:
    def test_object_over_many_runs_round_trips_and_frees_every_frame(self):
        # Free frames left as runs of 2, 3, 1, 2 and 1 frames: a 9-page
        # object takes all five, moves its bytes through both grants and
        # the monitor, and gives every frame back when ended.
        store = FrameStore()
        pool = MemoryPool(store)
        pool.grow(16, validated=True)
        held = take_frames(pool, 16)
        for lo, hi in ((0, 2), (3, 6), (7, 8), (9, 11), (12, 13)):
            release_frames(pool, held[lo:hi])
        objects = ObjectStore(pool, CostModel())
        writer, reader = PageTable(store, 1), PageTable(store, 2)
        data = bytes(range(251)) * (9 * PAGE_SIZE // 251)
        assert pages_for(len(data)) == 9
        obj_id, _, _ = objects.make(data, ObjectType.OUTPUT, writer=writer)
        obj = objects.get(obj_id)
        assert obj.runs == [(0, 2), (3, 6), (7, 8), (9, 11), (12, 13)]
        assert obj.frames == [0, 1, 3, 4, 5, 7, 9, 10, 12]
        objects.attach_reader(reader, obj_id)
        assert objects.read_through(reader, obj_id) == data
        assert objects.read_monitor(obj_id) == data
        assert [store.read_bytes(f) for f in obj.frames] == [
            data[p * PAGE_SIZE : (p + 1) * PAGE_SIZE].ljust(PAGE_SIZE, b"\0")
            for p in range(9)]
        objects.end(obj_id)
        assert pool.free_count == 9
        assert (store.owners_of(np.arange(16)) == FREE).sum() == 9
        assert store.refs_of(range(16)).tolist() == [0] * 16
        assert writer.n_entries() == reader.n_entries() == 0
        assert pool.take_runs(9)[0] == [
            (0, 2), (3, 6), (7, 8), (9, 11), (12, 13)]


class TestMakeAndEnd:
    def test_make_charges_validation_and_the_transfer(self):
        # On an on-demand pool the fresh frames pay validation; the write
        # is charged by its length either way.
        store = FrameStore()
        pool = MemoryPool(store)
        pool.grow(64, validated=False)
        model = CostModel()
        objects = ObjectStore(pool, model)
        data = bytes(2 * PAGE_SIZE + 1)
        _, alloc_us, write_us = objects.make(data, ObjectType.INPUT)
        assert alloc_us == model.validation_us(3)
        assert write_us == model.transfer_us(len(data))
        objects.end(objects.make(data, ObjectType.INPUT)[0])
        assert objects.make(b"", ObjectType.INPUT)[1:] == (
            model.validation_us(1), 0)

    def test_monitor_input_grants_the_reader_alone(self, env):
        objects, _, reader = env
        base = objects.counter.snapshot()
        obj_id, _, _ = objects.make(b"input", ObjectType.INPUT, reader=reader)
        obj = objects.get(obj_id)
        assert (obj.writer, obj.reader, obj.sealed) == (MONITOR_PID, 2, False)
        assert obj.writer_vpns == range(0) and len(obj.reader_vpns) == 1
        assert objects.read_through(reader, obj_id) == b"input"
        # The monitor's write is charged, not counted.
        assert objects.counter.snapshot() == base

    def test_process_output_is_sealed_and_counted(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"output", ObjectType.OUTPUT,
                                    writer=writer)
        obj = objects.get(obj_id)
        assert obj.sealed and obj.length == 6
        assert objects.counter.payload_bytes_copied == 6
        entry = writer.lookup(obj.writer_vpns[0])
        assert entry.perms is PagePerms.PROCESS_WO

    def test_a_writer_cannot_read_its_own_input(self, env):
        objects, writer, _ = env
        with pytest.raises(AlreadyAttached):
            objects.make(b"x", writer=writer, reader=writer)
        assert not objects.objects

    def test_end_unmaps_both_grants_and_frees_in_one_pass(self, env,
                                                          monkeypatch):
        objects, writer, reader = env
        store = objects.pool.store
        obj_id, _, _ = objects.make(bytes(3 * PAGE_SIZE), writer=writer)
        frames = objects.attach_reader(reader, obj_id).frames
        free = objects.pool.free_count
        calls = []
        take_back = store.take_back
        monkeypatch.setattr(store, "take_back", lambda runs, refs=0: (
            calls.append((list(runs), refs)), take_back(runs, refs)))
        monkeypatch.setattr(store, "decref_runs", None)  # never called
        objects.end(obj_id)
        assert calls == [([(frames[0], frames[-1] + 1)], 2)]
        assert objects.pool.free_count == free + 3
        assert writer.n_entries() == reader.n_entries() == 0
        assert store.total_refs() == 0
        assert not objects.objects and not any(objects._attached.values())
        objects.end(obj_id)  # no longer live: ignored

    def test_end_refuses_a_frame_mapped_elsewhere_and_changes_nothing(
            self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"shared", writer=writer)
        obj = objects.get(obj_id)
        reader.map_runs(obj.runs, PagePerms.PROCESS_RO)  # not a grant
        free, dump = objects.pool.free_count, objects.dump()
        with pytest.raises(AssertionError, match="mapped"):
            objects.end(obj_id)
        assert objects.pool.free_count == free and objects.dump() == dump
        assert writer.n_entries() == reader.n_entries() == 1
        assert objects.read_monitor(obj_id) == b"shared"


class TestAttachments:
    def test_reader_sees_writer_bytes_without_copies(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"x" * 64, writer=writer)
        copied_before = objects.pool.store.copied_bytes_total
        objects.attach_reader(reader, obj_id)
        assert objects.read_through(reader, obj_id) == b"x" * 64
        assert objects.pool.store.copied_bytes_total == copied_before

    def test_reader_touches_only_the_pages_of_the_length(self, env,
                                                         monkeypatch):
        # A chain object is sized by its payload: 255 pages and 100 bytes
        # take 256 pages, which the reader reads in one store call.
        objects, writer, reader = env
        store = objects.pool.store
        data = b"c" * (255 * PAGE_SIZE + 100)
        obj_id, _, _ = objects.make(data, ObjectType.CHAIN, writer=writer)
        obj = objects.attach_reader(reader, obj_id)
        assert len(obj.frames) == 256
        touched: list[list[int]] = []
        read_runs = store.read_runs

        def recording(runs, nbytes):
            touched.append(frames_of(runs))
            return read_runs(runs, nbytes)

        monkeypatch.setattr(store, "read_runs", recording)
        assert objects.read_through(reader, obj_id) == data
        assert touched == [obj.frames]

    def test_second_reader_rejected(self, env):
        objects, writer, reader = env
        store = objects.pool.store
        third = PageTable(store, 3)
        obj_id, _, _ = objects.make(b"x", writer=writer)
        objects.attach_reader(reader, obj_id)
        with pytest.raises(AlreadyAttached):
            objects.attach_reader(third, obj_id)

    def test_only_the_writer_writes_through(self, env):
        # The writer's grant is the one mapping of the object that lets a
        # process write: another process finds nothing mapped there.
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"payload!", writer=writer)
        vpn = objects.get(obj_id).writer_vpns[0]
        fault = reader.access(PL1, vpn, AccessKind.WRITE, b"evil")
        assert fault.kind is FaultKind.NOT_MAPPED
        assert writer.lookup(vpn).perms is PagePerms.PROCESS_WO

    def test_sealed_object_refuses_its_writer(self, env):
        # A process's object is sealed when made; once it is shared its
        # writer's grant refuses the writer's writes.
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"first-data", writer=writer)
        obj = objects.attach_reader(reader, obj_id)
        assert obj.sealed
        fault = writer.access(PL1, obj.writer_vpns[0], AccessKind.WRITE,
                              b"evil")
        assert fault.kind is FaultKind.PERMISSION_VIOLATION
        assert objects.read_monitor(obj_id) == b"first-data"

    def test_reader_write_through_grant_faults(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"payload!", writer=writer)
        obj = objects.attach_reader(reader, obj_id)
        fault = reader.access(PL1, obj.reader_vpns[0], AccessKind.WRITE, b"x")
        assert isinstance(fault, PageFault)
        assert fault.kind is FaultKind.PERMISSION_VIOLATION

    def test_reader_attach_downgrades_writer_grant(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"payload!", writer=writer)
        obj = objects.attach_reader(reader, obj_id)
        store = objects.pool.store
        # No frame of the object is PL1-writable anywhere once shared.
        for vpn in obj.writer_vpns:
            entry = writer.lookup(vpn)
            assert PL1 not in entry.perms.write
            assert store.ref(entry.frame_id) == 2

    def test_unknown_object(self, env):
        objects, _, reader = env
        with pytest.raises(UnknownObject):
            objects.attach_reader(reader, 999)
        with pytest.raises(UnknownObject):
            objects.read_through(reader, 999)


class TestFallbackTransfer:
    def test_one_mib_costs_two_copies_two_crypto(self, env):
        objects, writer, _ = env
        payload = bytes(range(256)) * 4096  # 1 MiB
        obj_id, _, _ = objects.make(payload, writer=writer)
        base = objects.counter.snapshot()
        guest = GuestBroker()
        envelope, delivered, charge = fallback_transfer(
            objects, obj_id, objects, Rng(1).bytes(32), guest, Rng(2))
        delta_payload = objects.counter.payload_bytes_copied \
            - base["payload_bytes_copied"]
        assert delta_payload == 2 * MIB
        assert objects.counter.crypto_ops - base["crypto_ops"] == 2
        assert delivered == payload
        assert payload[:64] not in b"".join(guest.tap)

    def test_empty_payload_still_two_crypto_ops(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"", writer=writer)
        base = objects.counter.snapshot()
        _, delivered, _ = fallback_transfer(
            objects, obj_id, objects, Rng(1).bytes(32), GuestBroker(), Rng(2))
        assert objects.counter.crypto_ops - base["crypto_ops"] == 2
        assert delivered == b""

    def test_colocated_flagged(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"x" * 8, writer=writer)
        fallback_transfer(objects, obj_id, objects, Rng(1).bytes(32),
                          GuestBroker(), Rng(2), colocated=True)
        assert objects.counter.colocated_fallbacks == 1

    def test_no_destination_is_no_route(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"x" * 8, writer=writer)
        with pytest.raises(NoRoute):
            fallback_transfer(objects, obj_id, None, Rng(1).bytes(32),
                              GuestBroker(), Rng(2))


def leave(objects, table) -> None:
    """The exit of table's process: it leaves its objects, then its table
    gives back what it frees."""
    objects.leave(table.owner)
    table.release_all(objects.pool)


class TestReclaim:
    """A process's exit: ``leave``, then its table's release, which frees
    the frames of the objects that only it held."""

    def test_object_persists_until_reader_exits(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"chained!", writer=writer)
        objects.attach_reader(reader, obj_id)
        leave(objects, writer)
        assert obj_id in objects.objects  # reader still attached
        assert objects.read_through(reader, obj_id) == b"chained!"
        leave(objects, reader)
        assert obj_id not in objects.objects

    def test_unattached_objects_freed(self, env):
        objects, writer, _ = env
        obj_id, _, _ = objects.make(b"x", writer=writer)
        free_before = objects.pool.free_count
        leave(objects, writer)
        assert obj_id not in objects.objects
        assert objects.pool.free_count == free_before + 1

    def test_reclaim_idempotent(self, env):
        objects, writer, _ = env
        objects.make(b"x", writer=writer)
        leave(objects, writer)
        leave(objects, writer)
        assert not objects.objects

    def test_reclaim_forgets_every_entry_of_the_pid(self, env):
        objects, writer, _ = env
        objects.make(b"x", writer=writer)
        input_id, _, _ = objects.make(b"input", ObjectType.INPUT,
                                      reader=writer)
        frames = objects.get(input_id).frames
        leave(objects, writer)
        assert 1 not in objects._attached
        assert objects.get(input_id).reader is None  # the monitor ends it
        # The monitor's object keeps its frames past the table's release.
        assert (objects.pool.store.owners_of(frames) != FREE).all()
        assert objects.read_monitor(input_id) == b"input"
        objects.end(input_id)
        assert (objects.pool.store.owners_of(frames) == FREE).all()

    def test_reclaim_unmaps_the_grants_and_frees_the_frames(self, env):
        # Each exit leaves its table mapping none of the object's pages;
        # the last one frees them.
        objects, writer, reader = env
        obj_id, _, _ = objects.make(bytes(2 * PAGE_SIZE), writer=writer)
        frames = np.array(objects.attach_reader(reader, obj_id).frames)
        free_before = objects.pool.free_count
        leave(objects, reader)
        assert reader.n_entries() == 0
        assert obj_id in objects.objects  # the writer is still attached
        assert objects.pool.free_count == free_before
        leave(objects, writer)
        assert writer.n_entries() == 0
        assert objects.pool.free_count == free_before + 2
        assert (objects.pool.store.owners_of(frames) == FREE).all()
        assert objects.pool.store.total_refs() == 0

    def test_reclaim_visits_only_the_pids_objects(self, env):
        objects, writer, reader = env
        mine, _, _ = objects.make(b"x", writer=writer)
        for _ in range(5):
            objects.make(b"x", writer=reader)
        visited = []

        class Recording(dict):
            def __getitem__(self, obj_id):
                visited.append(obj_id)
                return super().__getitem__(obj_id)

        objects.objects = Recording(objects.objects)
        objects.leave(1)
        assert visited == [mine]


class TestTwoPartyBound:
    def test_roles_disjoint_and_bounded(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"x", writer=writer)
        with pytest.raises(AlreadyAttached):
            objects.attach_reader(writer, obj_id)  # writer as reader
        objects.attach_reader(reader, obj_id)
        obj = objects.get(obj_id)
        assert obj.attachments() == {1, 2}

    def test_guest_never_mapped(self, env):
        objects, writer, reader = env
        obj_id, _, _ = objects.make(b"y" * 64, writer=writer)
        obj = objects.attach_reader(reader, obj_id)
        for table, vpns in ((writer, obj.writer_vpns),
                            (reader, obj.reader_vpns)):
            for vpn in vpns:
                entry = table.lookup(vpn)
                assert PL2 not in entry.perms.read
                assert PL2 not in entry.perms.write
