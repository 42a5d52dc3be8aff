"""Data-object store tests: attachments, grants, chaining accounting."""

import numpy as np
import pytest

from conftest import release_frames
from walletemu.crypto import Rng
from walletemu.errors import (
    AlreadyAttached,
    NoRoute,
    NotWriter,
    PermissionDenied,
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
        obj_id, _ = objects.create(1, writer, 8)
        obj = objects.get(obj_id)
        assert len(obj.frames) == 1
        assert obj.writer == 1

    def test_two_page_object(self, env):
        objects, writer, _ = env
        obj_id, _ = objects.create(1, writer, 8192)
        assert len(objects.get(obj_id).frames) == 2

    def test_object_count_quota(self, env):
        objects, writer, _ = env
        objects.quota_objects = 2
        objects.create(1, writer, 8)
        objects.create(1, writer, 8)
        with pytest.raises(QuotaExceeded):
            objects.create(1, writer, 8)

    def test_byte_quota(self, env):
        objects, writer, _ = env
        objects.quota_bytes = 4096
        with pytest.raises(QuotaExceeded):
            objects.create(1, writer, 8192)


class TestFragmentedObject:
    def test_object_over_many_runs_round_trips_and_frees_every_frame(self):
        # Free frames left as runs of 2, 3, 1, 2 and 1 frames: a 9-page
        # object takes all five, moves its bytes through both grants and
        # the monitor, and gives every frame back when retired.
        store = FrameStore()
        pool = MemoryPool(store)
        pool.grow(16, validated=True)
        held, _ = pool.take(16)
        for lo, hi in ((0, 2), (3, 6), (7, 8), (9, 11), (12, 13)):
            release_frames(pool, held[lo:hi])
        objects = ObjectStore(pool, CostModel())
        writer, reader = PageTable(store, 1), PageTable(store, 2)
        data = bytes(range(251)) * (9 * PAGE_SIZE // 251)
        assert pages_for(len(data)) == 9
        obj_id, _ = objects.create(1, writer, len(data), ObjectType.OUTPUT)
        obj = objects.get(obj_id)
        assert obj.runs == [(0, 2), (3, 6), (7, 8), (9, 11), (12, 13)]
        assert obj.frames == [0, 1, 3, 4, 5, 7, 9, 10, 12]
        objects.write_through(1, writer, obj_id, data)
        objects.attach_reader(2, reader, obj_id)
        assert objects.read_through(2, reader, obj_id) == data
        assert objects.read_monitor(obj_id) == data
        assert [store.read_bytes(f) for f in obj.frames] == [
            data[p * PAGE_SIZE : (p + 1) * PAGE_SIZE].ljust(PAGE_SIZE, b"\0")
            for p in range(9)]
        objects.retire(obj_id)
        assert pool.free_count == 9
        assert (store.owners_of(np.arange(16)) == FREE).sum() == 9
        assert store.refs_of(range(16)).tolist() == [0] * 16
        assert writer.n_entries() == reader.n_entries() == 0
        assert pool.take_runs(9)[0] == [
            (0, 2), (3, 6), (7, 8), (9, 11), (12, 13)]


class TestAttachments:
    def test_reader_sees_writer_bytes_without_copies(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 64)
        objects.write_through(1, writer, obj_id, b"x" * 64)
        copied_before = objects.pool.store.copied_bytes_total
        objects.attach_reader(2, reader, obj_id)
        assert objects.read_through(2, reader, obj_id) == b"x" * 64
        assert objects.pool.store.copied_bytes_total == copied_before

    def test_reader_touches_only_the_pages_of_the_length(self, env,
                                                         monkeypatch):
        # A 1 MiB chain object holding 100 bytes is read from one page,
        # whatever its capacity.
        objects, writer, reader = env
        store = objects.pool.store
        obj_id, _ = objects.create(1, writer, MIB, ObjectType.CHAIN)
        objects.write_through(1, writer, obj_id, b"c" * 100)
        obj = objects.attach_reader(2, reader, obj_id)
        assert len(obj.frames) == 256
        touched: list[int] = []
        read_runs = store.read_runs

        def recording(runs, nbytes):
            touched.extend(frames_of(runs))
            return read_runs(runs, nbytes)

        monkeypatch.setattr(store, "read_runs", recording)
        assert objects.read_through(2, reader, obj_id) == b"c" * 100
        assert touched == obj.frames[:1]

    def test_second_reader_rejected(self, env):
        objects, writer, reader = env
        store = objects.pool.store
        third = PageTable(store, 3)
        obj_id, _ = objects.create(1, writer, 8)
        objects.attach_reader(2, reader, obj_id)
        with pytest.raises(AlreadyAttached):
            objects.attach_reader(3, third, obj_id)

    def test_only_the_writer_writes_through(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 8)
        with pytest.raises(NotWriter):
            objects.write_through(2, reader, obj_id, b"payload!")

    def test_sealed_object_refuses_its_writer(self, env):
        objects, writer, _ = env
        obj_id, _ = objects.create(1, writer, 16)
        objects.write_through(1, writer, obj_id, b"first-data")
        objects.seal(obj_id)
        with pytest.raises(PermissionDenied):
            objects.write_through(1, writer, obj_id, b"evil")
        assert objects.read_monitor(obj_id) == b"first-data"

    def test_reader_write_through_grant_faults(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 8)
        objects.write_through(1, writer, obj_id, b"payload!")
        obj = objects.attach_reader(2, reader, obj_id)
        fault = reader.access(PL1, obj.reader_vpns[0], AccessKind.WRITE, b"x")
        assert isinstance(fault, PageFault)
        assert fault.kind is FaultKind.PERMISSION_VIOLATION

    def test_reader_attach_downgrades_writer_grant(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 8)
        objects.write_through(1, writer, obj_id, b"payload!")
        obj = objects.attach_reader(2, reader, obj_id)
        store = objects.pool.store
        # No frame of the object is PL1-writable anywhere once shared.
        for vpn in obj.writer_vpns:
            entry = writer.lookup(vpn)
            assert PL1 not in entry.perms.write
            assert store.ref(entry.frame_id) == 2

    def test_unknown_object(self, env):
        objects, _, reader = env
        with pytest.raises(UnknownObject):
            objects.attach_reader(2, reader, 999)


class TestFallbackTransfer:
    def test_one_mib_costs_two_copies_two_crypto(self, env):
        objects, writer, _ = env
        payload = bytes(range(256)) * 4096  # 1 MiB
        obj_id, _ = objects.create(1, writer, len(payload))
        objects.write_through(1, writer, obj_id, payload)
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
        obj_id, _ = objects.create(1, writer, 1)
        base = objects.counter.snapshot()
        _, delivered, _ = fallback_transfer(
            objects, obj_id, objects, Rng(1).bytes(32), GuestBroker(), Rng(2))
        assert objects.counter.crypto_ops - base["crypto_ops"] == 2
        assert delivered == b"\x00"  # one zero page byte, never written

    def test_colocated_flagged(self, env):
        objects, writer, _ = env
        obj_id, _ = objects.create(1, writer, 8)
        objects.write_through(1, writer, obj_id, b"x" * 8)
        fallback_transfer(objects, obj_id, objects, Rng(1).bytes(32),
                          GuestBroker(), Rng(2), colocated=True)
        assert objects.counter.colocated_fallbacks == 1

    def test_no_destination_is_no_route(self, env):
        objects, writer, _ = env
        obj_id, _ = objects.create(1, writer, 8)
        with pytest.raises(NoRoute):
            fallback_transfer(objects, obj_id, None, Rng(1).bytes(32),
                              GuestBroker(), Rng(2))


class TestReclaim:
    def test_object_persists_until_reader_exits(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 8)
        objects.write_through(1, writer, obj_id, b"chained!")
        objects.attach_reader(2, reader, obj_id)
        objects.pool.release_runs(objects.reclaim(1))
        assert obj_id in objects.objects  # reader still attached
        assert objects.read_through(2, reader, obj_id) == b"chained!"
        writer.release_all()
        objects.pool.release_runs(objects.reclaim(2))
        reader.release_all()
        assert obj_id not in objects.objects

    def test_unattached_objects_freed(self, env):
        objects, writer, _ = env
        obj_id, _ = objects.create(1, writer, 8)
        free_before = objects.pool.free_count
        objects.pool.release_runs(objects.reclaim(1))
        writer.release_all()
        assert obj_id not in objects.objects
        assert objects.pool.free_count == free_before + 1

    def test_reclaim_idempotent(self, env):
        objects, writer, _ = env
        objects.create(1, writer, 8)
        objects.pool.release_runs(objects.reclaim(1))
        writer.release_all()
        objects.pool.release_runs(objects.reclaim(1))
        assert not objects.objects

    def test_reclaim_forgets_every_entry_of_the_pid(self, env):
        objects, writer, _ = env
        objects.create(1, writer, 8)
        input_id, _ = objects.create(MONITOR_PID, None, 8, ObjectType.INPUT)
        objects.attach_reader(1, writer, input_id)
        objects.pool.release_runs(objects.reclaim(1))
        writer.release_all()
        assert 1 not in objects._attached
        assert objects.get(input_id).reader is None  # the monitor retires it

    def test_reclaim_unmaps_the_grants_and_frees_the_frames(self, env):
        # Before either table is released, each reclaim leaves that table
        # mapping none of the object's pages; the last one frees them.
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 2 * PAGE_SIZE)
        frames = np.array(objects.attach_reader(2, reader, obj_id).frames)
        free_before = objects.pool.free_count
        objects.pool.release_runs(objects.reclaim(2))
        assert reader.n_entries() == 0
        assert obj_id in objects.objects  # the writer is still attached
        objects.pool.release_runs(objects.reclaim(1))
        assert writer.n_entries() == 0
        assert objects.pool.free_count == free_before + 2
        assert (objects.pool.store.owners_of(frames) == FREE).all()
        assert writer.release_all() == reader.release_all() == []

    def test_reclaim_visits_only_the_pids_objects(self, env, monkeypatch):
        objects, writer, reader = env
        mine, _ = objects.create(1, writer, 8)
        for _ in range(5):
            objects.create(2, reader, 8)
        visited = []
        detach = objects.detach
        monkeypatch.setattr(objects, "detach", lambda pid, obj: (
            visited.append(obj.obj_id), detach(pid, obj)))
        objects.pool.release_runs(objects.reclaim(1))
        assert visited == [mine]


class TestTwoPartyBound:
    def test_roles_disjoint_and_bounded(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 8)
        with pytest.raises(AlreadyAttached):
            objects.attach_reader(1, writer, obj_id)  # writer as reader
        objects.attach_reader(2, reader, obj_id)
        obj = objects.get(obj_id)
        assert obj.attachments() == {1, 2}

    def test_guest_never_mapped(self, env):
        objects, writer, reader = env
        obj_id, _ = objects.create(1, writer, 64)
        objects.write_through(1, writer, obj_id, b"y" * 64)
        obj = objects.attach_reader(2, reader, obj_id)
        for table, vpns in ((writer, obj.writer_vpns),
                            (reader, obj.reader_vpns)):
            for vpn in vpns:
                entry = table.lookup(vpn)
                assert PL2 not in entry.perms.read
                assert PL2 not in entry.perms.write
