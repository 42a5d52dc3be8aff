"""Memory-model tests: frames, permissions, CoW forking, cost charges."""

import random
import sys

import numpy as np
import pytest

from walletemu.errors import (
    BaseInUse,
    ConfigInvalid,
    DoubleMap,
    NotSealed,
    OutOfMemory,
    PermissionDenied,
)
from walletemu.memory import (
    PAGE_SIZE,
    PL0,
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
    accounting,
    alloc_frames,
    preallocate,
)


def make_pool(store, frames=4096, prevalidated=False):
    pool = MemoryPool(store, prevalidated=prevalidated)
    pool.grow(frames, validated=prevalidated)
    return pool


def build_zygote_table(store, pool, model, pages, owner=1, fill=b"\xAB"):
    # Populated from one immutable bytes object, as the monitor populates a
    # zygote, so its pages are read-only views until written.
    fids, _ = alloc_frames(pool, pages, model, owner_level=PL1)
    table = PageTable(store, owner)
    for vpn, fid in enumerate(fids):
        table.map_page(vpn, fid, PagePerms.PROCESS_RW)
    store.write_range(fids, fill * (pages * PAGE_SIZE))
    table.seal()
    return table


class TestCostModel:
    def test_defaults(self):
        m = CostModel()
        assert m.validation_us_per_page == 24.0
        assert m.hash_mb_per_s == 54.5
        assert m.transfer_us_per_mb == 1089.0

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigInvalid):
            CostModel(validation_us_per_page=0)
        with pytest.raises(ConfigInvalid):
            CostModel(hash_mb_per_s=-1)


class TestAllocFrames:
    def test_prevalidated_pool_charges_nothing(self, store, model):
        pool = make_pool(store, prevalidated=True)
        _, charge = alloc_frames(pool, 1, model)
        assert charge == 0

    def test_unvalidated_frame_costs_one_validation(self, store, model):
        pool = make_pool(store)
        _, charge = alloc_frames(pool, 1, model)
        assert charge == 24

    def test_sixty_mib_costs_368640_us(self, model):
        # 60 MiB = 15,360 pages; cross-check against the quoted 6 ms/MB
        # rate: 60 * 6.144 ms = 368.64 ms.
        store = FrameStore()
        pool = make_pool(store, frames=15360)
        _, charge = alloc_frames(pool, 15360, model)
        assert charge == 15360 * 24 == 368_640
        assert charge == pytest.approx(60 * 6.144e3)

    def test_revalidation_not_charged_after_release(self, store, model):
        pool = make_pool(store, frames=4)
        fids, first = alloc_frames(pool, 4, model)
        assert first == 96
        pool.release(fids)
        refids, second = alloc_frames(pool, 4, model)
        assert sorted(refids) == sorted(fids)
        assert second == 0  # frames stay validated across release

    def test_double_release_refused(self, store, model):
        pool = make_pool(store, frames=16)
        fids, _ = alloc_frames(pool, 2, model)
        pool.release(fids)
        with pytest.raises(AssertionError):
            pool.release(fids)
        with pytest.raises(AssertionError):
            pool.release([fids[0], fids[0]])
        assert pool.free_count == 16

    def test_release_of_a_mapped_frame_refused(self, store, model):
        pool = make_pool(store, frames=16)
        fids, _ = alloc_frames(pool, 2, model, owner_level=PL1)
        PageTable(store, 1).map_range(fids, PagePerms.PROCESS_RW)
        with pytest.raises(AssertionError):
            pool.release(fids)
        assert pool.free_count == 14

    def test_out_of_memory(self, store, model):
        pool = make_pool(store, frames=2)
        with pytest.raises(OutOfMemory):
            alloc_frames(pool, 3, model)

    def test_charge_accumulates_on_pool_clock(self, store, model):
        pool = make_pool(store)
        alloc_frames(pool, 10, model)
        assert pool.clock_charged_us == 240


class TestPreallocate:
    def test_single_page_costs_24_us(self, store, model):
        pool = MemoryPool(store)
        assert preallocate(pool, 4096, model) == 24

    def test_zero_bytes_costs_nothing(self, store, model):
        pool = MemoryPool(store)
        assert preallocate(pool, 0, model) == 0

    def test_sixteen_gib_validation_component(self, store, model):
        # 4,194,304 pages x 24 us; the quoted 238 s boot increase covers
        # more than validation, so only this component is asserted.
        pool = MemoryPool(store)
        charge = preallocate(pool, 16 * 1024**3, model)
        assert charge == 4_194_304 * 24 == 100_663_296
        assert pool.prevalidated
        assert pool.free_count == 4_194_304

    def test_prevalidated_frames_are_validated(self, store, model):
        pool = MemoryPool(store)
        preallocate(pool, 8192, model)
        fids, charge = alloc_frames(pool, 2, model)
        assert charge == 0
        assert store.validated_of(np.array(fids)).all()


class TestMapPage:
    def test_monitor_maps_page(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 7)
        table.map_page(10, fids[0], PagePerms.PROCESS_RW)
        assert table.lookup(10).frame_id == fids[0]
        assert store.ref(fids[0]) == 1

    @pytest.mark.parametrize("level", [PL1, PL2])
    def test_lower_levels_may_not_map(self, store, pool, model, level):
        fids, _ = alloc_frames(pool, 1, model)
        table = PageTable(store, 7)
        with pytest.raises(PermissionDenied):
            table.map_page(0, fids[0], PagePerms.PROCESS_RW, caller=level)

    def test_double_map_rejected(self, store, pool, model):
        fids, _ = alloc_frames(pool, 2, model)
        table = PageTable(store, 7)
        table.map_page(0, fids[0], PagePerms.PROCESS_RO)
        with pytest.raises(DoubleMap):
            table.map_page(0, fids[1], PagePerms.PROCESS_RO)

    def test_shared_read_only_mapping_sees_same_bytes(self, store, pool, model):
        # CoW sharing oracle: both readers observe identical frame content.
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        store.write_bytes(fids[0], 0, b"shared-bytes")
        t1, t2 = PageTable(store, 1), PageTable(store, 2)
        t1.map_page(0, fids[0], PagePerms.PROCESS_RO)
        t2.map_page(0, fids[0], PagePerms.PROCESS_RO)
        assert store.ref(fids[0]) == 2
        r1 = t1.access(PL1, 0, AccessKind.READ)
        r2 = t2.access(PL1, 0, AccessKind.READ)
        assert r1 == r2 and r1[:12] == b"shared-bytes"

    def test_pl1_frame_cannot_be_exposed_to_guest(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 9)
        with pytest.raises(PermissionDenied):
            table.map_page(0, fids[0], PagePerms.GUEST_RW)


class TestMapRange:
    def test_maps_fresh_vpns_writable_by_the_process(self, store, pool,
                                                      model):
        fids, _ = alloc_frames(pool, 3, model, owner_level=PL1)
        table = PageTable(store, 7)
        table.map_page(4, fids[0], PagePerms.PROCESS_RO)
        vpns = table.map_range(fids[1:], PagePerms.PROCESS_RW)
        assert vpns == [5, 6]
        for vpn, fid in zip(vpns, fids[1:]):
            assert table.lookup(vpn).frame_id == fid
            assert store.ref(fid) == 1
            assert table.access(PL1, vpn, AccessKind.WRITE, b"ok") is None

    @pytest.mark.parametrize("level", [PL1, PL2])
    def test_lower_levels_may_not_map(self, store, pool, model, level):
        fids, _ = alloc_frames(pool, 2, model)
        table = PageTable(store, 7)
        with pytest.raises(PermissionDenied):
            table.map_range(fids, PagePerms.PROCESS_RW, caller=level)
        assert table.n_entries() == 0 and table.next_unused_vpn() == 0

    def test_sealed_table_refuses(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=2)
        fids, _ = alloc_frames(pool, 1, model)
        with pytest.raises(NotSealed):
            zygote.map_range(fids, PagePerms.PROCESS_RO)

    def test_unknown_frame_rejected(self, store):
        with pytest.raises(KeyError):
            PageTable(store, 7).map_range([123], PagePerms.PROCESS_RO)

    def test_pl1_frames_cannot_be_exposed_to_guest(self, store, pool, model):
        fids, _ = alloc_frames(pool, 2, model, owner_level=PL1)
        with pytest.raises(PermissionDenied):
            PageTable(store, 9).map_range(fids, PagePerms.GUEST_RW)

    def test_refused_run_maps_nothing(self, store, pool, model):
        guest_fids, _ = alloc_frames(pool, 2, model, owner_level=PL2)
        pl1_fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 9)
        with pytest.raises(PermissionDenied):
            table.map_range(guest_fids + pl1_fids, PagePerms.GUEST_RW)
        assert table.entries == {} and store.total_refs() == 0
        assert table.next_unused_vpn() == 0

    def test_refused_unmap_run_unmaps_nothing(self, store, pool, model):
        fids, _ = alloc_frames(pool, 2, model, owner_level=PL1)
        table = PageTable(store, 1)
        vpns = table.map_range(fids, PagePerms.PROCESS_RW)
        with pytest.raises(KeyError):
            table.unmap_range(vpns + [vpns[-1] + 1])
        assert table.n_entries() == 2 and store.total_refs() == 2

    def test_unmap_range_returns_the_frames_left_unmapped(self, store, pool,
                                                          model):
        fids, _ = alloc_frames(pool, 2, model, owner_level=PL1)
        table, other = PageTable(store, 1), PageTable(store, 2)
        vpns = table.map_range(fids, PagePerms.PROCESS_RW)
        other.map_page(0, fids[1], PagePerms.PROCESS_RO)
        assert table.unmap_range(vpns) == [fids[0]]
        assert table.n_entries() == 0 and store.ref(fids[1]) == 1


class TestWriteRange:
    def test_data_spans_frames_from_their_start(self, store, pool, model):
        fids, _ = alloc_frames(pool, 3, model)
        data = bytes(range(256)) * 40  # 10240 bytes: two full pages and a bit
        store.write_range(fids, data)
        out = b"".join(store.read_bytes(fid) for fid in fids)
        assert out[: len(data)] == data
        assert out[len(data):] == bytes(3 * PAGE_SIZE - len(data))

    def test_data_beyond_the_frames_rejected(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model)
        with pytest.raises(ValueError):
            store.write_range(fids, bytes(PAGE_SIZE + 1))

    def test_unknown_frame_rejected(self, store):
        with pytest.raises(KeyError):
            store.write_range([123], b"x")

    def test_bytes_are_viewed_until_a_frame_is_released(self, store, pool,
                                                         model):
        # Full pages of an immutable bytes object are kept as views of it,
        # not copies: the frames hold the object until the last one goes.
        fids, _ = alloc_frames(pool, 3, model)
        data = bytes(range(256)) * 40  # two full pages and a partial one
        baseline = sys.getrefcount(data)
        store.write_range(fids, data)
        assert sys.getrefcount(data) > baseline
        pool.release(fids[:1])
        assert sys.getrefcount(data) > baseline
        pool.release(fids[1:])
        assert sys.getrefcount(data) == baseline
        assert all(store.read_bytes(fid) == bytes(PAGE_SIZE) for fid in fids)

    def test_write_after_populate_touches_no_other_frame(self, store, pool,
                                                         model):
        fids, _ = alloc_frames(pool, 3, model)
        data = bytes(range(256)) * 32  # two full pages
        store.write_range(fids[:2], data)
        store.copy_frame(fids[0], fids[2])  # a sibling sharing the view
        store.write_bytes(fids[0], 10, b"zz")
        store.write_bytes(fids[2], 0, b"yy")
        assert data == bytes(range(256)) * 32
        assert store.read_bytes(fids[0]) == data[:10] + b"zz" + data[12:PAGE_SIZE]
        assert store.read_bytes(fids[2]) == b"yy" + data[2:PAGE_SIZE]
        assert store.read_bytes(fids[1]) == data[PAGE_SIZE:]

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_mutable_source_is_copied(self, store, pool, model, kind):
        fids, _ = alloc_frames(pool, 2, model)
        source = bytearray(b"\x11" * (PAGE_SIZE + 100))
        store.write_range(fids, kind(source))
        source[:] = b"\x22" * len(source)
        assert store.read_bytes(fids[0]) == b"\x11" * PAGE_SIZE
        assert store.read_bytes(fids[1]) == b"\x11" * 100 + bytes(PAGE_SIZE - 100)

    def test_copy_of_a_viewed_page_is_counted(self, store, pool, model):
        fids, _ = alloc_frames(pool, 2, model)
        store.write_range(fids[:1], b"\x33" * PAGE_SIZE)
        store.copy_frame(fids[0], fids[1])
        assert store.copied_bytes_total == PAGE_SIZE
        assert store.read_bytes(fids[1]) == b"\x33" * PAGE_SIZE


class TestAccess:
    def test_write_to_exclusive_writable_page(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 3)
        table.map_page(0, fids[0], PagePerms.PROCESS_RW)
        assert table.access(PL1, 0, AccessKind.WRITE, b"data") is None
        assert table.access(PL1, 0, AccessKind.READ)[:4] == b"data"

    def test_guest_read_of_process_frame_faults(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 3)
        table.map_page(0, fids[0], PagePerms.PROCESS_RW)
        fault = table.access(PL2, 0, AccessKind.READ)
        assert isinstance(fault, PageFault)
        assert fault.kind is FaultKind.PERMISSION_VIOLATION

    def test_write_to_shared_zygote_page_is_cow_fault(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=4)
        child = zygote.fork_cow(new_owner=2)
        fault = child.access(PL1, 0, AccessKind.WRITE, b"x")
        assert isinstance(fault, PageFault)
        assert fault.kind is FaultKind.COW_FAULT

    def test_unmapped_page_faults(self, store):
        table = PageTable(store, 3)
        fault = table.access(PL1, 99, AccessKind.READ)
        assert fault.kind is FaultKind.NOT_MAPPED


class TestForkCow:
    def test_fork_aliases_everything_with_zero_copies(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=300)
        before = store.copied_bytes_total
        child = zygote.fork_cow(new_owner=2)
        assert store.copied_bytes_total - before == 0
        assert child.n_aliased() == zygote.n_entries() == 300

    def test_double_fork_shares_at_refcount_three(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=8)
        zygote.fork_cow(2)
        zygote.fork_cow(3)
        fid = zygote.entries[0].frame_id
        assert store.ref(fid) == 3

    def test_fork_of_unsealed_table_rejected(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 1)
        table.map_page(0, fids[0], PagePerms.PROCESS_RW)
        with pytest.raises(NotSealed):
            table.fork_cow(2)

    def test_fork_and_release_never_touch_base_frames(self, store, model,
                                                      monkeypatch):
        # Size-independence guard: an override-free view costs O(1) in
        # the store, however large its zygote.
        pool = make_pool(store, frames=8192, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=4096)
        base_fids = set(int(f) for f in zygote.local_frame_ids())
        passed: list[int] = []

        def recording(method):
            def wrapper(ids):
                passed.extend(np.atleast_1d(ids).tolist())
                return method(ids)
            return wrapper

        for name in ("incref", "decref", "bulk_incref", "bulk_decref"):
            monkeypatch.setattr(store, name, recording(getattr(store, name)))
        child = zygote.fork_cow(2)
        assert store.ref(zygote.entries[0].frame_id) == 2
        assert child.release_all() == []
        assert not base_fids.intersection(passed)
        assert store.ref(zygote.entries[0].frame_id) == 1
        assert store.total_refs() == zygote.n_entries() == 4096


class TestResolveCow:
    def test_child_and_zygote_diverge_after_resolution(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=2, fill=b"\x11")
        child = zygote.fork_cow(2)
        child.resolve_cow(0, pool, model)
        assert child.access(PL1, 0, AccessKind.WRITE, b"kid") is None
        assert child.access(PL1, 0, AccessKind.READ)[:3] == b"kid"
        assert zygote.access(PL1, 0, AccessKind.READ)[:3] == b"\x11\x11\x11"

    def test_zygote_bytes_survive_random_child_writes(self, store, model):
        # Snapshot-oracle: zygote frames are byte-identical before and
        # after 1000 random child writes through CoW resolution.
        pool = make_pool(store, frames=4096, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=16, fill=b"\x5A")
        snapshot = [store.read_bytes(e.frame_id)
                    for _, e in sorted(zygote.entries.items())]
        child = zygote.fork_cow(2)
        rng = random.Random(7)
        for _ in range(1000):
            vpn = rng.randrange(16)
            data = rng.randbytes(32)
            result = child.access(PL1, vpn, AccessKind.WRITE, data)
            if isinstance(result, PageFault):
                assert result.kind is FaultKind.COW_FAULT
                child.resolve_cow(vpn, pool, model)
                assert child.access(PL1, vpn, AccessKind.WRITE, data) is None
        after = [store.read_bytes(e.frame_id)
                 for _, e in sorted(zygote.entries.items())]
        assert snapshot == after

    def test_hundred_faults_on_warm_pool_cost_200_us(self, store, model):
        pool = make_pool(store, frames=4096, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=128)
        child = zygote.fork_cow(2)
        total = sum(child.resolve_cow(vpn, pool, model)[1]
                    for vpn in range(100))
        assert total == 200

    def test_refcount_drops_on_old_frame(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=2)
        child = zygote.fork_cow(2)
        old_fid = zygote.entries[0].frame_id
        assert store.ref(old_fid) == 2
        child.resolve_cow(0, pool, model)
        assert store.ref(old_fid) == 1


class TestAccounting:
    def test_zygote_plus_one_trustlet(self, store, model):
        # Scaled version of the 147 MB + 60 KB example: shared counted
        # once, per-trustlet exclusive pages on top.
        pool = make_pool(store, frames=8192, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=64)
        child = zygote.fork_cow(2)
        fids, _ = alloc_frames(pool, 15, model, owner_level=PL1)
        for vpn, fid in zip(child.take_vpns(15), fids):
            child.map_page(vpn, fid, PagePerms.PROCESS_RW)
        usage = accounting([zygote, child])
        assert usage.shared_bytes == 64 * PAGE_SIZE
        assert usage.exclusive_bytes == 15 * PAGE_SIZE
        assert usage.total_resident_bytes == 79 * PAGE_SIZE

    def test_empty_set_is_all_zero(self):
        usage = accounting([])
        assert (usage.shared_bytes, usage.exclusive_bytes,
                usage.total_resident_bytes) == (0, 0, 0)

    def test_five_hundred_trustlets_scaled(self, store, model):
        pool = make_pool(store, frames=40000, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=128)
        tables = [zygote]
        for owner in range(2, 502):
            child = zygote.fork_cow(owner)
            fids, _ = alloc_frames(pool, 15, model, owner_level=PL1)
            for vpn, fid in zip(child.take_vpns(15), fids):
                child.map_page(vpn, fid, PagePerms.PROCESS_RW)
            tables.append(child)
        usage = accounting(tables)
        assert usage.shared_bytes == 128 * PAGE_SIZE
        assert usage.exclusive_bytes == 500 * 15 * PAGE_SIZE
        assert usage.total_resident_bytes == (128 + 7500) * PAGE_SIZE


class TestSealedTables:
    def test_sealed_table_refuses_unmap_and_resolve(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=4)
        zygote.fork_cow(2)
        with pytest.raises(NotSealed):
            zygote.unmap_page(0)
        with pytest.raises(NotSealed):
            zygote.resolve_cow(0, pool, model)
        assert zygote.n_entries() == 4

    def test_base_with_live_views_cannot_be_released(self, store, pool,
                                                     model):
        zygote = build_zygote_table(store, pool, model, pages=4)
        child = zygote.fork_cow(2)
        with pytest.raises(BaseInUse):
            zygote.release_all()
        assert zygote.n_entries() == 4
        assert store.total_refs() == 8
        child.release_all()
        assert len(zygote.release_all()) == 4
        assert store.total_refs() == 0
        with pytest.raises(NotSealed):
            zygote.fork_cow(3)

    def test_sealed_frames_must_be_distinct(self, store, pool, model):
        fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 1)
        table.map_page(0, fids[0], PagePerms.PROCESS_RO)
        table.map_page(1, fids[0], PagePerms.PROCESS_RO)
        with pytest.raises(DoubleMap):
            table.seal()


class TestInvariants:
    def test_refcount_conservation_over_random_ops(self, store, model):
        pool = make_pool(store, frames=8192, prevalidated=True)
        rng = random.Random(3)
        zygote = build_zygote_table(store, pool, model, pages=32)
        tables = [zygote]

        def total_entries():
            return sum(t.n_entries() for t in tables)

        for step in range(300):
            op = rng.randrange(4)
            if op == 0:
                tables.append(zygote.fork_cow(10 + step))
            elif op == 1 and len(tables) > 1:
                t = rng.choice(tables[1:])  # sealed templates are frozen
                fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
                t.map_page(t.take_vpns(1)[0], fids[0], PagePerms.PROCESS_RW)
            elif op == 2 and len(tables) > 1:
                t = rng.choice(tables[1:])
                shared = [v for v in t.mapped_vpns()
                          if store.ref(t.lookup(v).frame_id) > 1]
                if shared:
                    t.resolve_cow(rng.choice(shared), pool, model)
            elif op == 3 and len(tables) > 1:
                t = tables.pop(rng.randrange(1, len(tables)))
                pool.release(t.release_all())
            assert store.total_refs() == total_entries()

    def test_refcounts_match_brute_force_mapping_count(self, store, model):
        # Oracle: after every step, each frame's count equals the number of
        # live mappings of it, counted entry by entry.
        pool = make_pool(store, frames=4096, prevalidated=True)
        rng = random.Random(11)
        zygote = build_zygote_table(store, pool, model, pages=24)
        views: list[PageTable] = []

        def check():
            counts = np.zeros(store.n_frames(), dtype=np.int64)
            for table in [zygote] + views:
                vpns = list(table.mapped_vpns())
                assert len(vpns) == len(set(vpns)) == table.n_entries()
                for vpn in vpns:
                    counts[table.lookup(vpn).frame_id] += 1
            every = np.arange(store.n_frames())
            assert (store.refs_of(every) == counts).all()
            assert [store.ref(f) for f in every] == counts.tolist()
            assert store.total_refs() == counts.sum()

        for step in range(400):
            op = rng.randrange(6)
            if op == 0 or not views:
                views.append(zygote.fork_cow(10 + step))
                check()
                continue
            view = rng.choice(views)
            aliased = [v for v in view.mapped_vpns() if v in zygote.entries
                       and v not in view.entries]
            if op == 1:
                fids, _ = alloc_frames(pool, 1, model, owner_level=PL1)
                view.map_page(view.take_vpns(1)[0], fids[0],
                              PagePerms.PROCESS_RW)
            elif op == 2:
                shared = [v for v in view.mapped_vpns()
                          if store.ref(view.lookup(v).frame_id) > 1]
                if shared:
                    view.resolve_cow(rng.choice(shared), pool, model)
            elif op == 3 and aliased:
                view.set_perms(rng.choice(aliased), PagePerms.PROCESS_RO)
            elif op == 4:
                mapped = list(view.mapped_vpns())
                if mapped:
                    vpn = rng.choice(mapped)
                    frame = view.lookup(vpn).frame_id
                    if view.unmap_page(vpn) == 0:
                        pool.release([frame])
            elif op == 5:
                views.remove(view)
                freed = view.release_all()
                assert all(store.ref(f) == 0 for f in freed)
                pool.release(freed)
            check()
        for view in views:
            pool.release(view.release_all())
        pool.release(zygote.release_all())
        assert store.total_refs() == 0
        assert pool.free_count == 4096

    def test_cost_determinism(self, model):
        def run():
            store = FrameStore()
            pool = make_pool(store, frames=2048)
            zygote = build_zygote_table(store, pool, model, pages=64)
            child = zygote.fork_cow(2)
            charges = [alloc_frames(pool, 3, model)[1]]
            charges.extend(child.resolve_cow(v, pool, model)[1]
                           for v in range(8))
            charges.append(preallocate(MemoryPool(FrameStore()), 1 << 20, model))
            return charges

        assert run() == run()
