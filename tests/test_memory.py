"""Memory-model tests: frames, permissions, CoW forking, cost charges."""

import itertools
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conftest import reference_accounting, release_frames, take_frames
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
    MemoryAccounting,
    MemoryPool,
    PageFault,
    PagePerms,
    PageTable,
    accounting,
    alloc_runs,
    frames_of,
    n_frames_of,
    pages_for,
    preallocate,
    runs_of,
)


def make_pool(store, frames=4096, prevalidated=False):
    pool = MemoryPool(store)
    pool.grow(frames, validated=prevalidated)
    return pool


def build_zygote_table(store, pool, model, pages, owner=1, fill=b"\xAB"):
    # Populated from one immutable bytes object, as the monitor populates a
    # zygote, so its pages refer to that object until written.
    runs, _ = alloc_runs(pool, pages, model, owner_level=PL1)
    table = PageTable(store, owner)
    table.map_runs(runs, PagePerms.PROCESS_RW)
    store.write_runs(runs, fill * (pages * PAGE_SIZE))
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
        _, charge = alloc_runs(pool, 1, model)
        assert charge == 0

    def test_unvalidated_frame_costs_one_validation(self, store, model):
        pool = make_pool(store)
        _, charge = alloc_runs(pool, 1, model)
        assert charge == 24

    def test_sixty_mib_costs_368640_us(self, model):
        # 60 MiB = 15,360 pages; cross-check against the quoted 6 ms/MB
        # rate: 60 * 6.144 ms = 368.64 ms.
        store = FrameStore()
        pool = make_pool(store, frames=15360)
        _, charge = alloc_runs(pool, 15360, model)
        assert charge == 15360 * 24 == 368_640
        assert charge == pytest.approx(60 * 6.144e3)

    def test_revalidation_not_charged_after_release(self, store, model):
        pool = make_pool(store, frames=4)
        runs, first = alloc_runs(pool, 4, model)
        assert first == 96
        pool.release_runs(runs)
        reruns, second = alloc_runs(pool, 4, model)
        assert reruns == runs
        assert second == 0  # frames stay validated across release

    def test_double_release_refused(self, store, model):
        pool = make_pool(store, frames=16)
        fids = take_frames(pool, 2)
        release_frames(pool, fids)
        with pytest.raises(AssertionError):
            release_frames(pool, fids)
        with pytest.raises(AssertionError):
            release_frames(pool, [fids[0], fids[0]])
        assert pool.free_count == 16

    def test_release_of_a_mapped_frame_refused(self, store, model):
        pool = make_pool(store, frames=16)
        fids = take_frames(pool, 2, PL1)
        PageTable(store, 1).map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        with pytest.raises(AssertionError):
            release_frames(pool, fids)
        assert pool.free_count == 14

    def test_out_of_memory(self, store, model):
        pool = make_pool(store, frames=2)
        with pytest.raises(OutOfMemory):
            alloc_runs(pool, 3, model)

    def test_charge_is_returned(self, store, model):
        pool = make_pool(store)
        assert alloc_runs(pool, 10, model)[1] == 240


class TestReleaseRefusals:
    """A refused release changes nothing: not the free list, the owner
    column or any frame's bytes, also in runs before the offending frame."""

    @pytest.fixture
    def held(self, store, model):
        # Frames 0..9 handed out to PL1 and written; 10..15 free.
        pool = make_pool(store, frames=16)
        fids = take_frames(pool, 10, PL1)
        store.write_runs(runs_of(fids), bytes(range(10)) * PAGE_SIZE)
        return pool, fids

    @staticmethod
    def _state(pool):
        every = np.arange(pool.store.n_frames())
        return (pool.free_count, list(pool._ranges),
                pool.store.owners_of(every).tolist(),
                [pool.store.read_bytes(f) for f in every])

    def _refused(self, pool, fids, message):
        before = self._state(pool)
        with pytest.raises(AssertionError, match=message):
            release_frames(pool, fids)
        assert self._state(pool) == before

    def test_frame_twice_in_one_call(self, held):
        pool, fids = held
        self._refused(pool, [fids[0], fids[1], fids[4], fids[1]], "released twice")

    def test_free_frame_in_the_middle_of_a_handed_out_run(self, held):
        pool, fids = held
        release_frames(pool, [fids[5]])
        self._refused(pool, fids[0:2] + fids[3:8], "released while free")

    def test_mapped_frame(self, store, held):
        pool, fids = held
        PageTable(store, 1).map_runs(runs_of(fids[6:7]), PagePerms.PROCESS_RW)
        self._refused(pool, fids[0:2] + fids[5:8], "released while mapped")

    def test_base_frame_that_a_view_unmapped(self, store, held):
        # The base still maps the frame, though its explicit count is 0.
        pool, fids = held
        zygote = PageTable(store, 1)
        vpns = zygote.map_runs(runs_of(fids[6:8]), PagePerms.PROCESS_RO)
        zygote.seal()
        zygote.fork_cow(2).unmap_range(vpns[:1])
        assert store.ref(fids[6]) == 1
        self._refused(pool, fids[5:7], "released while mapped")


class _ListPool:
    """The reference free list: runs in a plain list, taken from the front
    with pop(0)/insert(0), and each released or grown run appended with no
    merging."""

    def __init__(self):
        self.runs, self.next_fid = [], 0

    def grow(self, n):
        self.runs.append((self.next_fid, self.next_fid + n))
        self.next_fid += n

    def take(self, n):
        out = []
        while len(out) < n:
            lo, hi = self.runs.pop(0)
            mid = min(hi, lo + n - len(out))
            out.extend(range(lo, mid))
            if mid < hi:
                self.runs.insert(0, (mid, hi))
        return out

    def release(self, fids):
        ordered = sorted(fids)
        lo = 0
        for i in range(1, len(ordered) + 1):
            if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
                self.runs.append((ordered[lo], ordered[i - 1] + 1))
                lo = i


class TestFreeListOrder:
    @given(prevalidated=st.booleans(),
           ops=st.lists(st.tuples(st.sampled_from(["take", "release", "grow"]),
                                  st.integers(1, 24), st.randoms()),
                        max_size=40))
    @settings(max_examples=150)
    def test_hand_out_order_and_charges_match_a_list_of_runs(
            self, prevalidated, ops):
        # Frames come out in the reference order, the boot range first and
        # then released runs in release order, so the same frames pay
        # validation; a final drain compares the whole free list.
        model = CostModel()
        store = FrameStore()
        pool, ref = MemoryPool(store), _ListPool()
        validated, held = set(), []
        for kind, n, rnd in [("grow", 32, None), *ops, ("drain", 0, None)]:
            if kind == "grow":
                fresh = rnd is not None and rnd.random() < 0.5
                pool.grow(n, validated=prevalidated or fresh)
                if prevalidated or fresh:
                    validated |= set(range(ref.next_fid, ref.next_fid + n))
                ref.grow(n)
                continue
            if kind == "release":
                gone = rnd.sample(held, min(n, len(held)))
                release_frames(pool, gone)
                ref.release(gone)
                held = [f for f in held if f not in gone]
                continue
            n = pool.free_count if kind == "drain" else min(n, pool.free_count)
            runs, charge = alloc_runs(pool, n, model)
            fids = frames_of(runs)
            assert fids == ref.take(n)
            assert charge == (0 if prevalidated else
                              model.validation_us(len(set(fids) - validated)))
            validated |= set(fids)
            held += fids
        assert pool.free_count == 0
        assert sorted(held) == list(range(store.n_frames()))

    def test_released_run_joins_an_adjacent_last_run(self, store):
        pool = make_pool(store, frames=8, prevalidated=True)
        fids = take_frames(pool, 8)
        release_frames(pool, fids[2:4])
        # Starting where the last run ends, it joins it; ending where the
        # last run starts, it is a run of its own.
        release_frames(pool, fids[4:6])
        release_frames(pool, fids[0:2])
        assert list(pool._ranges) == [(2, 6), (0, 2)]
        assert pool.take_runs(6) == ([(2, 6), (0, 2)], 0)


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
        assert pool.free_count == 4_194_304
        assert alloc_runs(pool, 1, model)[1] == 0

    def test_reserved_frame_retains_at_most_34_host_bytes(self, store, model):
        # A frame's facts are fixed-width columns: 8 B each for its count,
        # page offset and page slot, 4 B for its base id and 1 B each for
        # validated, owner and base grants, 31 B in all; a column wider
        # than needed, such as an 8 B base id, passes 34 B.
        pool = MemoryPool(store)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            preallocate(pool, 1024**3, model)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.free_count == 262_144
        assert (after - before) / 262_144 <= 34

    def test_prevalidated_frames_are_validated(self, store, model):
        pool = MemoryPool(store)
        preallocate(pool, 8192, model)
        runs, charge = alloc_runs(pool, 2, model)
        assert charge == 0
        assert store.validated_of(frames_of(runs)).all()


class TestMapPage:
    """A one-page run."""

    def test_monitor_maps_page(self, store, pool, model):
        runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 7)
        assert table.map_runs(runs, PagePerms.PROCESS_RW) == range(0, 1)
        assert table.lookup(0).frame_id == runs[0][0]
        assert store.ref(runs[0][0]) == 1

    @pytest.mark.parametrize("level", [PL1, PL2])
    def test_lower_levels_may_not_map(self, store, pool, model, level):
        runs, _ = alloc_runs(pool, 1, model)
        table = PageTable(store, 7)
        with pytest.raises(PermissionDenied):
            table.map_runs(runs, PagePerms.PROCESS_RW, caller=level)

    def test_shared_read_only_mapping_sees_same_bytes(self, store, pool, model):
        # CoW sharing oracle: both readers observe identical frame content.
        runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
        store.write_bytes(runs[0][0], 0, b"shared-bytes")
        t1, t2 = PageTable(store, 1), PageTable(store, 2)
        t1.map_runs(runs, PagePerms.PROCESS_RO)
        t2.map_runs(runs, PagePerms.PROCESS_RO)
        assert store.ref(runs[0][0]) == 2
        r1 = t1.access(PL1, 0, AccessKind.READ)
        r2 = t2.access(PL1, 0, AccessKind.READ)
        assert r1 == r2 and r1[:12] == b"shared-bytes"

    def test_pl1_frame_cannot_be_exposed_to_guest(self, store, pool, model):
        runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 9)
        with pytest.raises(PermissionDenied):
            table.map_runs(runs, PagePerms.GUEST_RW)


class TestMapRange:
    def test_maps_fresh_vpns_writable_by_the_process(self, store, pool,
                                                      model):
        fids = take_frames(pool, 3, PL1)
        table = PageTable(store, 7)
        table.map_runs(runs_of(fids[:1]), PagePerms.PROCESS_RO)
        vpns = table.map_runs(runs_of(fids[1:]), PagePerms.PROCESS_RW)
        assert vpns == range(1, 3)
        for vpn, fid in zip(vpns, fids[1:]):
            assert table.lookup(vpn).frame_id == fid
            assert store.ref(fid) == 1
            assert table.access(PL1, vpn, AccessKind.WRITE, b"ok") is None

    @pytest.mark.parametrize("level", [PL1, PL2])
    def test_lower_levels_may_not_map(self, store, pool, model, level):
        fids = take_frames(pool, 2)
        table = PageTable(store, 7)
        with pytest.raises(PermissionDenied):
            table.map_runs(runs_of(fids), PagePerms.PROCESS_RW, caller=level)
        assert table.n_entries() == 0 and table.next_unused_vpn() == 0

    def test_sealed_table_refuses(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=2)
        fids = take_frames(pool, 1)
        with pytest.raises(NotSealed):
            zygote.map_runs(runs_of(fids), PagePerms.PROCESS_RO)

    def test_unknown_frame_rejected(self, store):
        with pytest.raises(KeyError):
            PageTable(store, 7).map_runs(runs_of([123]), PagePerms.PROCESS_RO)

    def test_pl1_frames_cannot_be_exposed_to_guest(self, store, pool, model):
        fids = take_frames(pool, 2, PL1)
        with pytest.raises(PermissionDenied):
            PageTable(store, 9).map_runs(runs_of(fids), PagePerms.GUEST_RW)

    def test_grants_equal_to_a_constant_map_as_that_constant(self, store,
                                                             pool, model):
        # Tables find a constant's code by identity; an equal object made
        # apart from the constants takes the same code, and grants that
        # are none of them are refused.
        fids = take_frames(pool, 2, PL1)
        table = PageTable(store, 9)
        ro = PagePerms(frozenset({PL0, PL1}), frozenset({PL0}))
        assert ro == PagePerms.PROCESS_RO and ro is not PagePerms.PROCESS_RO
        vpns = table.map_runs(runs_of(fids), ro)
        assert table.lookup(vpns[0]).perms is PagePerms.PROCESS_RO
        table.set_perms(vpns, PagePerms(frozenset({PL0, PL1}), frozenset({PL0, PL1})))
        assert table.lookup(vpns[1]).perms is PagePerms.PROCESS_RW
        with pytest.raises(ValueError):
            table.set_perms(vpns, PagePerms(frozenset({PL1}), frozenset()))

    def test_refused_run_maps_nothing(self, store, pool, model):
        guest_fids = take_frames(pool, 2, PL2)
        pl1_fids = take_frames(pool, 1, PL1)
        table = PageTable(store, 9)
        with pytest.raises(PermissionDenied):
            table.map_runs(runs_of(guest_fids + pl1_fids), PagePerms.GUEST_RW)
        assert table.n_entries() == 0 and store.total_refs() == 0
        assert table.next_unused_vpn() == 0

    def test_refused_unmap_run_unmaps_nothing(self, store, pool, model):
        fids = take_frames(pool, 2, PL1)
        table = PageTable(store, 1)
        vpns = table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        with pytest.raises(KeyError):
            table.unmap_range(range(vpns.start, vpns.stop + 1))
        assert table.n_entries() == 2 and store.total_refs() == 2

    def test_unmap_range_returns_the_frames_left_unmapped(self, store, pool,
                                                          model):
        fids = take_frames(pool, 2, PL1)
        table, other = PageTable(store, 1), PageTable(store, 2)
        vpns = table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        other.map_runs(runs_of(fids[1:]), PagePerms.PROCESS_RO)
        assert table.unmap_range(vpns) == [(fids[0], fids[0] + 1)]
        assert table.n_entries() == 0 and store.ref(fids[1]) == 1


class TestWriteRange:
    def test_data_spans_frames_from_their_start(self, store, pool, model):
        fids = take_frames(pool, 3)
        data = bytes(range(256)) * 40  # 10240 bytes: two full pages and a bit
        store.write_runs(runs_of(fids), data)
        out = b"".join(store.read_bytes(fid) for fid in fids)
        assert out[: len(data)] == data
        assert out[len(data):] == bytes(3 * PAGE_SIZE - len(data))

    def test_data_beyond_the_frames_rejected(self, store, pool, model):
        fids = take_frames(pool, 1)
        with pytest.raises(ValueError):
            store.write_runs(runs_of(fids), bytes(PAGE_SIZE + 1))

    def test_unknown_frame_rejected(self, store):
        with pytest.raises(KeyError):
            store.write_runs(runs_of([123]), b"x")
        for fid in (-1, 123):  # -1 must not read a frame from the end
            with pytest.raises(KeyError):
                store.read_bytes(fid)
            with pytest.raises(KeyError):
                store.read_runs(runs_of([fid]), 1)

    def test_bytes_are_viewed_until_a_frame_is_released(self, store, pool,
                                                         model):
        # Full pages of an immutable bytes object refer to it, not to
        # copies: the frames hold the object until the last one goes.
        fids = take_frames(pool, 3)
        data = bytes(range(256)) * 40  # two full pages and a partial one
        baseline = sys.getrefcount(data)
        store.write_runs(runs_of(fids), data)
        assert sys.getrefcount(data) > baseline
        release_frames(pool, fids[:1])
        assert sys.getrefcount(data) > baseline
        release_frames(pool, fids[1:])
        assert sys.getrefcount(data) == baseline
        assert all(store.read_bytes(fid) == bytes(PAGE_SIZE) for fid in fids)

    def test_write_after_populate_touches_no_other_frame(self, store, pool,
                                                         model):
        fids = take_frames(pool, 3)
        data = bytes(range(256)) * 32  # two full pages
        store.write_runs(runs_of(fids[:2]), data)
        store.copy_runs(runs_of(fids[:1]), runs_of(fids[2:]))  # a sibling
        store.write_bytes(fids[0], 10, b"zz")
        store.write_bytes(fids[2], 0, b"yy")
        assert data == bytes(range(256)) * 32
        assert store.read_bytes(fids[0]) == data[:10] + b"zz" + data[12:PAGE_SIZE]
        assert store.read_bytes(fids[2]) == b"yy" + data[2:PAGE_SIZE]
        assert store.read_bytes(fids[1]) == data[PAGE_SIZE:]

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_mutable_source_is_copied(self, store, pool, model, kind):
        fids = take_frames(pool, 2)
        source = bytearray(b"\x11" * (PAGE_SIZE + 100))
        store.write_runs(runs_of(fids), kind(source))
        source[:] = b"\x22" * len(source)
        assert store.read_bytes(fids[0]) == b"\x11" * PAGE_SIZE
        assert store.read_bytes(fids[1]) == b"\x11" * 100 + bytes(PAGE_SIZE - 100)

    def test_chunks_are_written_end_to_end(self, store, pool, model):
        # A page inside one bytes chunk refers to that chunk; a page
        # straddling chunks, one inside a bytearray, and the partial last
        # page are new bytes, and the last keeps the bytes past the data.
        fids = take_frames(pool, 6)
        store.write_bytes(fids[5], 0, b"\x77" * PAGE_SIZE)
        chunks = (b"a" * (PAGE_SIZE + 10), b"b" * 20, b"",
                  bytearray(b"c" * 2 * PAGE_SIZE), b"d" * (2 * PAGE_SIZE - 25))
        store.write_runs(runs_of(fids), *chunks)
        data = b"".join(chunks)
        assert store.read_runs(runs_of(fids), len(data)) == data
        assert store.read_bytes(fids[5]) == b"d" * 5 + b"\x77" * (PAGE_SIZE - 5)
        assert store._src[fids[0]] is chunks[0]
        assert store._src[fids[4]] is chunks[4]
        assert not any(store._src[fids[p]] is chunk
                       for p in (1, 2, 3, 5) for chunk in chunks)

    def test_copy_of_a_viewed_page_is_counted(self, store, pool, model):
        fids = take_frames(pool, 2)
        store.write_runs(runs_of(fids[:1]), b"\x33" * PAGE_SIZE)
        store.copy_runs(runs_of(fids[:1]), runs_of(fids[1:]))
        assert store.copied_bytes_total == PAGE_SIZE
        assert store.read_bytes(fids[1]) == b"\x33" * PAGE_SIZE


class TestAccess:
    def test_write_to_exclusive_writable_page(self, store, pool, model):
        fids = take_frames(pool, 1, PL1)
        table = PageTable(store, 3)
        table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        assert table.access(PL1, 0, AccessKind.WRITE, b"data") is None
        assert table.access(PL1, 0, AccessKind.READ)[:4] == b"data"

    def test_guest_read_of_process_frame_faults(self, store, pool, model):
        fids = take_frames(pool, 1, PL1)
        table = PageTable(store, 3)
        table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
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

    def test_view_page_the_monitor_changed_is_no_cow_fault(self, store, pool,
                                                          model):
        # A page inherited unchanged is a resolvable CoW fault; once the
        # monitor has set its perms, even to the grants it inherited, a
        # PL1 write is a plain permission error.
        zygote = build_zygote_table(store, pool, model, pages=4)
        child = zygote.fork_cow(2)
        child.set_perms(range(0, 1), PagePerms.PROCESS_RO)
        assert child.lookup(0) == zygote.lookup(0)
        fault = child.access(PL1, 0, AccessKind.WRITE, b"x")
        assert fault.kind is FaultKind.PERMISSION_VIOLATION
        fault = child.access(PL1, 1, AccessKind.WRITE, b"x")
        assert fault.kind is FaultKind.COW_FAULT


class TestRuns:
    def test_run_reads_and_writes_across_pages(self, store, pool, model):
        fids = take_frames(pool, 3, PL1)
        table = PageTable(store, 3)
        vpns = table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        data = bytes(range(256)) * 40  # two full pages and a bit
        assert table.write_run(PL1, vpns, data) is None
        assert table.read_run(PL1, vpns, len(data)) == data
        assert table.read_run(PL1, vpns[:1], 10) == data[:10]

    def test_refused_write_writes_nothing(self, store, pool, model):
        # The first page that fails decides the fault, and no page of the
        # run is written, not even the ones before it.
        fids = take_frames(pool, 3, PL1)
        table, other = PageTable(store, 3), PageTable(store, 4)
        vpns = table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        table.set_perms(vpns[2:], PagePerms.PROCESS_RO)
        other.map_runs(runs_of(fids[1:2]), PagePerms.PROCESS_RO)
        fault = table.write_run(PL1, vpns, b"\x77" * (3 * PAGE_SIZE))
        assert fault == PageFault(FaultKind.COW_FAULT, vpns[1], PL1)
        assert table.read_run(PL0, vpns, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
        fault = table.write_run(PL1, range(vpns[2], vpns[2] + 2), b"x")
        assert fault.kind is FaultKind.PERMISSION_VIOLATION
        fault = table.write_run(PL1, range(vpns.stop, vpns.stop + 1), b"x")
        assert fault.kind is FaultKind.NOT_MAPPED

    def test_a_vpn_argument_is_a_range(self, store, pool, model):
        # A list of vpns is refused, not walked page by page, and so is a
        # range that skips vpns; the refusals change nothing.
        runs, _ = alloc_runs(pool, 2, model, owner_level=PL1)
        table = PageTable(store, 3)
        vpns = table.map_runs(runs, PagePerms.PROCESS_RW)
        calls = (lambda v: table.unmap_range(v),
                 lambda v: table.set_perms(v, PagePerms.PROCESS_RO),
                 lambda v: table.read_run(PL1, v, 10),
                 lambda v: table.write_run(PL1, v, b"x"))
        for call in calls:
            for wrong in (list(vpns), range(0, 2, 2)):
                with pytest.raises(TypeError):
                    call(wrong)
        assert table.n_entries() == 2 and store.total_refs() == 2
        assert table.lookup(1).perms is PagePerms.PROCESS_RW
        assert table.read_run(PL1, vpns, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)

    def test_a_range_across_a_views_base_reads_then_copies_it(self, store,
                                                                pool, model):
        # vpns 0-1 are the base's and 2 the view's own: a check reads both
        # lists, and a change first copies the base's lists under the view's.
        zygote = build_zygote_table(store, pool, model, pages=2, fill=b"\x11")
        view = zygote.fork_cow(2)
        runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
        assert view.map_runs(runs, PagePerms.PROCESS_RW) == range(2, 3)
        assert view.write_run(PL1, range(2, 3), b"\x22" * PAGE_SIZE) is None
        both = range(1, 3)
        assert view.read_run(PL1, both, 2 * PAGE_SIZE) == (
            b"\x11" * PAGE_SIZE + b"\x22" * PAGE_SIZE)
        assert view.write_run(PL1, both, b"x") == PageFault(
            FaultKind.COW_FAULT, 1, PL1)
        assert not view.diverged
        view.set_perms(both, PagePerms.PROCESS_RO)
        assert view.diverged
        assert view.lookup(0) == zygote.lookup(0)
        assert {view.lookup(1).perms, view.lookup(2).perms} == {
            PagePerms.PROCESS_RO}
        assert view.unmap_range(both) == runs  # the zygote keeps its frame
        assert list(view.mapped_vpns()) == [0]
        assert store.total_refs() == zygote.n_entries() + view.n_entries() == 3

    def test_read_checks_every_page_of_the_run(self, store, pool, model):
        fids = take_frames(pool, 2, PL1)
        table = PageTable(store, 3)
        vpns = table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
        table.set_perms(vpns[1:], PagePerms.MONITOR_PRIVATE)
        fault = table.read_run(PL1, vpns, 10)
        assert fault == PageFault(FaultKind.PERMISSION_VIOLATION, vpns[1], PL1)


class TestForkCow:
    def test_fork_aliases_everything_with_zero_copies(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=300)
        before = store.copied_bytes_total
        child = zygote.fork_cow(new_owner=2)
        assert store.copied_bytes_total - before == 0
        assert child.n_entries() == zygote.n_entries() == 300
        assert all(child.lookup(v) == zygote.lookup(v) for v in range(300))

    def test_double_fork_shares_at_refcount_three(self, store, pool, model):
        zygote = build_zygote_table(store, pool, model, pages=8)
        zygote.fork_cow(2)
        zygote.fork_cow(3)
        fid = zygote.lookup(0).frame_id
        assert store.ref(fid) == 3

    def test_fork_of_unsealed_table_rejected(self, store, pool, model):
        fids = take_frames(pool, 1, PL1)
        table = PageTable(store, 1)
        table.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
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
            def wrapper(runs):
                passed.extend(frames_of(runs))
                return method(runs)
            return wrapper

        # Every reference count change goes through the run forms.
        for name in ("incref_runs", "decref_runs"):
            monkeypatch.setattr(store, name, recording(getattr(store, name)))
        child = zygote.fork_cow(2)
        assert store.ref(zygote.lookup(0).frame_id) == 2
        assert child.release_all(pool) == []
        assert not base_fids.intersection(passed)
        assert store.ref(zygote.lookup(0).frame_id) == 1
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
        snapshot = [store.read_bytes(zygote.lookup(v).frame_id)
                    for v in sorted(zygote.mapped_vpns())]
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
        after = [store.read_bytes(zygote.lookup(v).frame_id)
                 for v in sorted(zygote.mapped_vpns())]
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
        old_fid = zygote.lookup(0).frame_id
        assert store.ref(old_fid) == 2
        child.resolve_cow(0, pool, model)
        assert store.ref(old_fid) == 1


# Tables over which a base's frames stop counting alike: each builds them
# on a fresh store and returns the ones to count.

def _view_resolved_a_cow_fault(store, pool, model):
    # Page 1 is left to the zygote alone, page 2 to the zygote and a view.
    zygote = build_zygote_table(store, pool, model, pages=4)
    views = [zygote.fork_cow(2), zygote.fork_cow(3)]
    for view in views:
        view.resolve_cow(1, pool, model)
    views[0].resolve_cow(2, pool, model)
    return [zygote, *views]


def _base_frame_mapped_explicitly(store, pool, model):
    zygote = build_zygote_table(store, pool, model, pages=4)
    table = PageTable(store, 2)
    fid = zygote.lookup(2).frame_id
    table.map_runs([(fid, fid + 1)], PagePerms.PROCESS_RO)
    return [zygote, table]


def _views_without_their_zygote(store, pool, model):
    zygote = build_zygote_table(store, pool, model, pages=4)
    views = [zygote.fork_cow(2), zygote.fork_cow(3)]
    for view in views:
        fids = take_frames(pool, 2, PL1)
        view.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
    return views


def _copied_view_alone(store, pool, model):
    zygote = build_zygote_table(store, pool, model, pages=4)
    view = zygote.fork_cow(2)
    view.set_perms(range(0, 1), PagePerms.PROCESS_RW)  # copies the base lists
    pool.release_runs(view.unmap_range(range(3, 4)))
    return [view]


def _base_page_granted_pl1_elsewhere(store, pool, model):
    # The other table maps the page before the zygote is sealed.
    fids = take_frames(pool, 3, PL0)
    table = PageTable(store, 2)
    table.map_runs(runs_of(fids[:1]), PagePerms.PROCESS_RW)
    zygote = PageTable(store, 1)
    zygote.map_runs(runs_of(fids[:1]), PagePerms.MONITOR_PRIVATE)
    zygote.map_runs(runs_of(fids[1:]), PagePerms.PROCESS_RO)
    zygote.seal()
    return [zygote, table]


def _zygote_after_its_last_view(store, pool, model):
    zygote = build_zygote_table(store, pool, model, pages=4)
    view = zygote.fork_cow(2)
    view.resolve_cow(0, pool, model)
    view.release_all(pool)
    return [zygote]


class TestAccounting:
    @pytest.mark.parametrize("scenario", [
        _view_resolved_a_cow_fault, _base_frame_mapped_explicitly,
        _views_without_their_zygote, _copied_view_alone,
        _base_page_granted_pl1_elsewhere, _zygote_after_its_last_view,
    ], ids=lambda scenario: scenario.__name__.strip("_"))
    def test_every_subset_matches_the_per_frame_count(self, store, pool,
                                                      model, scenario):
        tables = scenario(store, pool, model)
        for k in range(1, len(tables) + 1):
            for subset in itertools.combinations(tables, k):
                usage = accounting(subset)
                assert usage == reference_accounting(subset)
                assert {type(v) for v in vars(usage).values()} == {int}

    def test_zygote_plus_one_trustlet(self, store, model):
        # Scaled version of the 147 MB + 60 KB example: shared counted
        # once, per-trustlet exclusive pages on top.
        pool = make_pool(store, frames=8192, prevalidated=True)
        zygote = build_zygote_table(store, pool, model, pages=64)
        child = zygote.fork_cow(2)
        runs, _ = alloc_runs(pool, 15, model, owner_level=PL1)
        child.map_runs(runs, PagePerms.PROCESS_RW)
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
            runs, _ = alloc_runs(pool, 15, model, owner_level=PL1)
            child.map_runs(runs, PagePerms.PROCESS_RW)
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
            zygote.unmap_range(range(0, 1))
        with pytest.raises(NotSealed):
            zygote.resolve_cow(0, pool, model)
        assert zygote.n_entries() == 4

    def test_base_with_live_views_cannot_be_released(self, store, pool,
                                                     model):
        zygote = build_zygote_table(store, pool, model, pages=4)
        child = zygote.fork_cow(2)
        with pytest.raises(BaseInUse):
            zygote.release_all(pool)
        assert zygote.n_entries() == 4
        assert store.total_refs() == 8
        child.release_all(pool)
        free = pool.free_count
        assert n_frames_of(zygote.release_all(pool)) == 4
        assert pool.free_count == free + 4
        assert store.total_refs() == 0
        with pytest.raises(NotSealed):
            zygote.fork_cow(3)

    def test_sealed_frames_must_be_distinct(self, store, pool, model):
        runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
        table = PageTable(store, 1)
        table.map_runs(runs + runs, PagePerms.PROCESS_RO)
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
                runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
                t.map_runs(runs, PagePerms.PROCESS_RW)
            elif op == 2 and len(tables) > 1:
                t = rng.choice(tables[1:])
                shared = [v for v in t.mapped_vpns()
                          if store.ref(t.lookup(v).frame_id) > 1]
                if shared:
                    t.resolve_cow(rng.choice(shared), pool, model)
            elif op == 3 and len(tables) > 1:
                t = tables.pop(rng.randrange(1, len(tables)))
                t.release_all(pool)
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
            aliased = [v for v in view.mapped_vpns()
                       if view.lookup(v) == zygote.lookup(v)]
            if op == 1:
                runs, _ = alloc_runs(pool, 1, model, owner_level=PL1)
                view.map_runs(runs, PagePerms.PROCESS_RW)
            elif op == 2:
                shared = [v for v in view.mapped_vpns()
                          if store.ref(view.lookup(v).frame_id) > 1]
                if shared:
                    view.resolve_cow(rng.choice(shared), pool, model)
            elif op == 3 and aliased:
                vpn = rng.choice(aliased)
                view.set_perms(range(vpn, vpn + 1), PagePerms.PROCESS_RO)
            elif op == 4:
                mapped = list(view.mapped_vpns())
                if mapped:
                    vpn = rng.choice(mapped)
                    pool.release_runs(view.unmap_range(range(vpn, vpn + 1)))
            elif op == 5:
                views.remove(view)
                free = pool.free_count
                freed = view.release_all(pool)
                assert all(store.ref(f) == 0 for f in frames_of(freed))
                assert pool.free_count == free + n_frames_of(freed)
            check()
        for view in views:
            view.release_all(pool)
        zygote.release_all(pool)
        assert store.total_refs() == 0
        assert pool.free_count == 4096

    def test_cost_determinism(self, model):
        def run():
            store = FrameStore()
            pool = make_pool(store, frames=2048)
            zygote = build_zygote_table(store, pool, model, pages=64)
            child = zygote.fork_cow(2)
            charges = [alloc_runs(pool, 3, model)[1]]
            charges.extend(child.resolve_cow(v, pool, model)[1]
                           for v in range(8))
            charges.append(preallocate(MemoryPool(FrameStore()), 1 << 20, model))
            return charges

        assert run() == run()


# -- model-based test ---------------------------------------------------------

PERMS = [PagePerms.MONITOR_PRIVATE, PagePerms.PROCESS_RW, PagePerms.PROCESS_RO,
         PagePerms.PROCESS_WO, PagePerms.GUEST_RW]
LEVELS = [PL0, PL1, PL2]
POOL_FRAMES = 40
ZERO_PAGE = bytes(PAGE_SIZE)
picks = st.integers(0, 1 << 20)  # an index, taken modulo the choices


class _ModelTable:
    """The model of one page table: vpn -> (frame, perms, inherited)."""

    def __init__(self, real, base=None):
        self.real = real
        self.base = base
        self.sealed = False
        self.views = 0
        self.pages = {} if base is None else {
            vpn: (fid, perms, True) for vpn, (fid, perms, _) in base.pages.items()}


class MemoryMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of memory-layer operations on one pool.

    The model is plain Python: each table's pages, each handed-out frame's
    expected bytes, owner and validation, the free frames, and the bytes
    sources that frames still view.  Every refused operation must leave
    the tables, counts, pages and pool exactly as they were.
    """

    def __init__(self):
        super().__init__()
        self.cost = CostModel()
        self.store = FrameStore()
        self.pool = MemoryPool(self.store)
        self.pool.grow(POOL_FRAMES, validated=False)
        self.free = set(range(POOL_FRAMES))
        self.held: list[int] = []  # handed-out frames, mapped or not
        self.content: dict[int, bytes] = {}
        self.owner: dict[int, object] = {}
        self.validated: set[int] = set()
        self.viewing: dict[int, int] = {}  # frame -> index into sources
        self.blank: set[int] = set()  # held frames never written: zeros
        self.sources: list[tuple] = []  # (written object, its bytes)
        self.copied = 0
        self.tables = [_ModelTable(PageTable(self.store, 1))]
        self.next_owner = 2

    # -- helpers --

    def _pick(self, items, i):
        return items[i % len(items)]

    def _held_run(self, i, n):
        """n distinct handed-out frames, starting at a picked one."""
        start = i % len(self.held)
        return [self.held[(start + k) % len(self.held)]
                for k in range(min(n, len(self.held)))]

    def _counts(self):
        counts = Counter()
        for t in self.tables:
            counts.update(fid for fid, _, _ in t.pages.values())
        return counts

    def _accounting(self, tables):
        """accounting() of tables, from the model: a frame counts once,
        as shared if more than one entry of any table maps it, and as
        exclusive if one entry does and that entry grants PL1 access."""
        counts = self._counts()
        entries = [(fid, perms) for t in tables for fid, perms, _ in t.pages.values()]
        shared = sum(counts[f] > 1 for f in {fid for fid, _ in entries})
        exclusive = sum(counts[f] == 1 for f in {
            fid for fid, perms in entries if PL1 in perms.read | perms.write})
        return MemoryAccounting(shared * PAGE_SIZE, exclusive * PAGE_SIZE,
                                (shared + exclusive) * PAGE_SIZE)

    def _live_bases(self):
        return {fid for t in self.tables if t.sealed
                for fid, _, _ in t.pages.values()}

    def _state(self):
        tables = [(sorted((v, t.real.lookup(v).frame_id, t.real.lookup(v).perms)
                          for v in t.real.mapped_vpns()),
                   t.real.n_entries(), t.real.next_unused_vpn())
                  for t in self.tables]
        every = np.arange(POOL_FRAMES)
        return (tables, self.store.refs_of(every).tolist(),
                [self.store.read_bytes(f) for f in range(POOL_FRAMES)],
                self.pool.free_count, self.store.total_refs(),
                self.store.copied_bytes_total)

    def _refused(self, exc, fn, *args, **kwargs):
        before = self._state()
        with pytest.raises(exc):
            fn(*args, **kwargs)
        assert self._state() == before

    def _viewed_by_frames(self, k):
        # getrefcount's own argument and self.sources hold two references;
        # each frame page viewing the object holds more.
        return sys.getrefcount(self.sources[k][0]) > 2

    def _vpn(self, table, chosen, unmapped):
        """A picked mapped vpn of table, or an unmapped one."""
        mapped = sorted(table.pages)
        if unmapped or not mapped:
            return table.real.next_unused_vpn()
        return self._pick(mapped, chosen)

    def _mutation_refusal(self, t, caller):
        if caller is not PL0:
            return PermissionDenied
        if t.sealed:
            return NotSealed
        return None

    def _write_model(self, fids, raw, spans):
        """Model a write of raw from the start of fids' pages, made of the
        chunks at spans: (start, end, index into sources if bytes)."""
        full = len(raw) // PAGE_SIZE
        for k in range(full):
            lo, hi = k * PAGE_SIZE, (k + 1) * PAGE_SIZE
            self.content[fids[k]] = raw[lo:hi]
            source_index = next((index for start, end, index in spans
                                 if start <= lo and hi <= end), None)
            if source_index is None:
                self.viewing.pop(fids[k], None)
            else:
                self.viewing[fids[k]] = source_index
        if len(raw) > full * PAGE_SIZE:
            fid, tail = fids[full], raw[full * PAGE_SIZE :]
            self.content[fid] = tail + self.content[fid][len(tail):]
            # A blank page views the one bytes chunk that holds the tail.
            source_index = next((index for start, end, index in spans or ()
                                 if start <= full * PAGE_SIZE
                                 and len(raw) <= end), None)
            if fid in self.blank and source_index is not None:
                self.viewing[fid] = source_index
            else:
                self.viewing.pop(fid, None)
        self.blank.difference_update(fids[: pages_for(len(raw))])

    @initialize(pages=st.integers(1, 4), perms=st.sampled_from(PERMS),
                seed=st.integers(0, 255), own=st.integers(1, 3))
    def sealed_zygote(self, pages, perms, seed, own):
        # Start as the monitor does, from a populated, sealed table that
        # views can be forked from, a view of it that maps its own frames
        # (a trustlet's exclusive pages), and an empty table.
        self.alloc(pages, None)
        self.write_runs(0, pages, pages * PAGE_SIZE - 100, [bytes], [], seed)
        self.map_runs(0, 0, pages, perms, PL0)
        self.seal(0, PL0)
        assert self.tables[0].sealed
        self.new_table()
        self.alloc(own, PL1)
        self.map_into_a_fresh_view(0, pages, own, PagePerms.PROCESS_RW)

    # -- frames --

    @rule(n=st.integers(1, 6), owner=st.sampled_from([None, PL0, PL1, PL2]))
    def alloc(self, n, owner):
        if n > len(self.free):
            self._refused(OutOfMemory, alloc_runs, self.pool, n, self.cost,
                          owner_level=owner)
            return
        runs, charge = alloc_runs(self.pool, n, self.cost, owner_level=owner)
        fids = frames_of(runs)
        assert len(set(fids)) == n and set(fids) <= self.free
        assert charge == self.cost.validation_us(
            len(set(fids) - self.validated))
        self.free -= set(fids)
        self.validated |= set(fids)
        self.held += fids
        self.blank |= set(fids)
        for fid in fids:
            self.content[fid] = ZERO_PAGE
            self.owner[fid] = owner

    @precondition(lambda self: self.held)
    @rule(i=picks, n=st.integers(1, 3), size=st.integers(0, 3 * PAGE_SIZE + 1),
          kinds=st.lists(st.sampled_from([bytes, bytearray, memoryview]),
                         min_size=1, max_size=3),
          cuts=st.lists(st.integers(0, 3 * PAGE_SIZE + 1), max_size=3),
          seed=st.integers(0, 255))
    def write_runs(self, i, n, size, kinds, cuts, seed):
        # The data goes in as chunks split at the cuts, of kinds in turn.
        fids = self._held_run(i, n)
        raw = (bytes(range(seed, 256)) + bytes(range(seed))) * (size // 256 + 1)
        raw = raw[:size]
        bounds = [0, *sorted(min(c, size) for c in cuts), size]
        chunks, spans = [], []
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            kind = kinds[j % len(kinds)]
            # A distinct object, so that only frames and self.sources
            # refer to it.
            part = raw[lo:hi]
            source = bytes(bytearray(part)) if kind is bytes else bytearray(part)
            chunks.append(source if kind is not memoryview
                          else memoryview(source))
            if size <= len(fids) * PAGE_SIZE:
                self.sources.append((source, part))
                spans.append((lo, hi, len(self.sources) - 1
                              if kind is bytes else None))
        if size > len(fids) * PAGE_SIZE:
            self._refused(ValueError, self.store.write_runs, runs_of(fids),
                          *chunks)
            return
        self.store.write_runs(runs_of(fids), *chunks)
        self._write_model(fids, raw, spans)

    @precondition(lambda self: self.held)
    @rule(i=picks, offset=st.integers(0, PAGE_SIZE - 1),
          data=st.binary(min_size=1, max_size=64))
    def write_bytes(self, i, offset, data):
        fid = self._pick(self.held, i)
        data = data[: PAGE_SIZE - offset]
        self.store.write_bytes(fid, offset, data)
        old = self.content[fid]
        self.content[fid] = old[:offset] + data + old[offset + len(data):]
        self.viewing.pop(fid, None)
        self.blank.discard(fid)

    @precondition(lambda self: self.held)
    @rule(i=picks, j=picks)
    def copy_runs(self, i, j):
        src, dst = self._pick(self.held, i), self._pick(self.held, j)
        self.store.copy_runs([(src, src + 1)], [(dst, dst + 1)])
        self.copied += PAGE_SIZE
        self.content[dst] = self.content[src]
        if src in self.viewing:
            self.viewing[dst] = self.viewing[src]
        else:
            self.viewing.pop(dst, None)
        if src in self.blank:
            self.blank.add(dst)
        else:
            self.blank.discard(dst)

    @precondition(lambda self: self.held)
    @rule(i=picks, n=st.integers(1, 8),
          order=st.sampled_from(["held", "sorted", "reversed"]),
          short=st.integers(0, 2 * PAGE_SIZE))
    def read_frames(self, i, n, order, short):
        # Handed-out frames, over one run or several and holding zero,
        # viewed, copied or partly rewritten pages, read as any prefix of
        # their pages joined one by one.
        fids = self._held_run(i, n)
        if order == "sorted":
            fids.sort()
        elif order == "reversed":
            fids.reverse()
        nbytes = max(0, len(fids) * PAGE_SIZE - short)
        want = b"".join(self.content[f] for f in fids)[:nbytes]
        assert self.store.read_runs(runs_of(fids), nbytes) == want

    @precondition(lambda self: self.held)
    @rule(i=picks, n=st.integers(1, 3),
          extra=st.sampled_from([None, "twice", "free"]))
    def release(self, i, n, extra):
        fids = self._held_run(i, n)
        if extra == "twice":
            fids.append(fids[0])
        elif extra == "free" and self.free:
            fids.append(min(self.free))
        counts = self._counts()
        if (len(set(fids)) < len(fids) or not set(fids) <= set(self.held)
                or any(counts[f] for f in fids)):
            self._refused(AssertionError, release_frames, self.pool, fids)
            return
        release_frames(self.pool, fids)
        self._freed(fids)

    def _freed(self, fids):
        for fid in fids:
            self.held.remove(fid)
            self.free.add(fid)
            self.content.pop(fid)
            self.viewing.pop(fid, None)
            self.blank.discard(fid)

    # -- tables --

    @precondition(lambda self: self.held)
    @rule(t=picks, i=picks, n=st.integers(1, 3),
          perms=st.sampled_from(PERMS), caller=st.sampled_from(LEVELS))
    def map_runs(self, t, i, n, perms, caller):
        table = self._pick(self.tables, t)
        fids = self._held_run(i, n)
        refusal = self._mutation_refusal(table, caller)
        if refusal is None and PL2 in perms.read | perms.write and any(
                self.owner[f] in (PL0, PL1) for f in fids):
            refusal = PermissionDenied
        if refusal is not None:
            self._refused(refusal, table.real.map_runs, runs_of(fids), perms,
                          caller=caller)
            return
        first = table.real.next_unused_vpn()
        vpns = table.real.map_runs(runs_of(fids), perms, caller=caller)
        assert vpns == range(first, first + len(fids))
        table.pages.update((v, (f, perms, False)) for v, f in zip(vpns, fids))

    @rule(t=picks, chosen=picks, unmapped=st.booleans(), n=st.integers(0, 3),
          caller=st.sampled_from([PL0, PL0, PL1]))
    def unmap_range(self, t, chosen, unmapped, n, caller):
        table = self._pick(self.tables, t)
        vpns = self._run(table, chosen, unmapped, n)
        if not vpns:  # an empty run is no change, whoever asks
            assert table.real.unmap_range(vpns, caller=caller) == []
            return
        refusal = self._mutation_refusal(table, caller)
        if refusal is None and not set(vpns) <= set(table.pages):
            refusal = KeyError
        if refusal is not None:
            self._refused(refusal, table.real.unmap_range, vpns, caller=caller)
            return
        fids = [table.pages.pop(v)[0] for v in vpns]
        counts = self._counts()
        assert frames_of(table.real.unmap_range(vpns)) == sorted(
            {f for f in fids if not counts[f]})

    @rule(t=picks, chosen=picks, unmapped=st.booleans(), n=st.integers(0, 3),
          perms=st.sampled_from(PERMS),
          caller=st.sampled_from([PL0, PL0, PL1]))
    def set_perms(self, t, chosen, unmapped, n, perms, caller):
        table = self._pick(self.tables, t)
        vpns = self._run(table, chosen, unmapped, n)
        refusal = self._mutation_refusal(table, caller)
        if refusal is None and not set(vpns) <= set(table.pages):
            refusal = KeyError
        if refusal is not None:
            self._refused(refusal, table.real.set_perms, vpns, perms,
                          caller=caller)
            return
        table.real.set_perms(vpns, perms, caller=caller)
        for vpn in vpns:
            table.pages[vpn] = (table.pages[vpn][0], perms, False)

    @rule(t=picks, caller=st.sampled_from([PL0, PL0, PL2]))
    def seal(self, t, caller):
        table = self._pick(self.tables, t)
        if caller is not PL0:
            refusal = PermissionDenied
        elif table.sealed:
            table.real.seal()
            return
        elif table.base is not None:
            refusal = NotSealed
        else:
            fids = [fid for fid, _, _ in table.pages.values()]
            refusal = (DoubleMap if len(set(fids)) < len(fids)
                       or set(fids) & self._live_bases() else None)
        if refusal is not None:
            self._refused(refusal, table.real.seal, caller=caller)
            return
        table.real.seal(caller=caller)
        table.sealed = True
        table.pages = {v: (f, PagePerms(p.read, p.write - {PL1}), False)
                       for v, (f, p, _) in table.pages.items()}

    @precondition(lambda self: len(self.tables) < 6)
    @rule()
    def new_table(self):
        self.tables.append(_ModelTable(PageTable(self.store, self.next_owner)))
        self.next_owner += 1

    @precondition(lambda self: len(self.tables) < 6)
    @rule(t=picks)
    def fork_cow(self, t):
        table = self._pick(self.tables, t)
        if not table.sealed:
            self._refused(NotSealed, table.real.fork_cow, self.next_owner)
            return
        before = self.store.copied_bytes_total
        view = table.real.fork_cow(self.next_owner)
        assert self.store.copied_bytes_total == before
        self.next_owner += 1
        table.views += 1
        self.tables.append(_ModelTable(view, base=table))

    @precondition(lambda self: self.held and len(self.tables) < 6
                  and any(t.sealed for t in self.tables))
    @rule(t=picks, i=picks, n=st.integers(1, 3), perms=st.sampled_from(PERMS))
    def map_into_a_fresh_view(self, t, i, n, perms):
        # A view with own pages right above its base's vpns, so that the
        # range rules draw ranges that cross from the base into them.  It
        # goes first among the tables, where the rules' small picks land.
        sealed = [k for k, table in enumerate(self.tables) if table.sealed]
        self.fork_cow(self._pick(sealed, t))
        self.tables.insert(0, self.tables.pop())
        self.map_runs(0, i, n, perms, PL0)

    @rule(t=picks, chosen=picks, unmapped=st.booleans())
    def resolve_cow(self, t, chosen, unmapped):
        table = self._pick(self.tables, t)
        vpn = self._vpn(table, chosen, unmapped)
        counts = self._counts()
        if table.sealed:
            refusal = NotSealed
        elif vpn not in table.pages:
            refusal = KeyError
        elif counts[table.pages[vpn][0]] <= 1:
            refusal = ValueError
        elif not self.free:
            refusal = OutOfMemory
        else:
            refusal = None
        if refusal is not None:
            self._refused(refusal, table.real.resolve_cow, vpn, self.pool,
                          self.cost)
            return
        new, charge = table.real.resolve_cow(vpn, self.pool, self.cost)
        assert new in self.free
        assert charge == self.cost.copy_us(1) + self.cost.validation_us(
            new not in self.validated)
        old = table.pages[vpn][0]
        self.free.discard(new)
        self.validated.add(new)
        self.held.append(new)
        self.owner[new] = PL1
        self.content[new] = self.content[old]
        if old in self.viewing:
            self.viewing[new] = self.viewing[old]
        if old in self.blank:
            self.blank.add(new)
        self.copied += PAGE_SIZE
        table.pages[vpn] = (new, PagePerms.PROCESS_RW, False)

    @rule(t=picks)
    def release_all(self, t):
        table = self._pick(self.tables, t)
        if table.views:
            self._refused(BaseInUse, table.real.release_all, self.pool)
            return
        self.tables.remove(table)
        if table.base is not None:
            table.base.views -= 1
        counts = self._counts()
        local = {f for f, _, inherited in table.pages.values() if not inherited}
        freed = sorted(f for f in local if not counts[f])
        assert frames_of(table.real.release_all(self.pool)) == freed
        self._freed(freed)
        if not self.tables:
            self.tables.append(_ModelTable(PageTable(self.store,
                                                     self.next_owner)))
            self.next_owner += 1

    # -- access --

    def _fault(self, table, vpn, level, kind):
        """The fault one page access should give, or None."""
        if vpn not in table.pages:
            return PageFault(FaultKind.NOT_MAPPED, vpn, level)
        fid, perms, inherited = table.pages[vpn]
        if not perms.can(level, kind):
            if kind is AccessKind.WRITE and inherited and level is PL1:
                return PageFault(FaultKind.COW_FAULT, vpn, level)
            return PageFault(FaultKind.PERMISSION_VIOLATION, vpn, level)
        if kind is AccessKind.WRITE and self._counts()[fid] > 1:
            return PageFault(FaultKind.COW_FAULT, vpn, level)
        return None

    @rule(t=picks, chosen=picks, unmapped=st.booleans(),
          level=st.sampled_from(LEVELS),
          data=st.binary(min_size=1, max_size=PAGE_SIZE // 8))
    def access_write(self, t, chosen, unmapped, level, data):
        table = self._pick(self.tables, t)
        vpn = self._vpn(table, chosen, unmapped)
        fault = self._fault(table, vpn, level, AccessKind.WRITE)
        if fault is not None:
            before = self._state()
            assert table.real.access(level, vpn, AccessKind.WRITE, data) == fault
            assert self._state() == before
            return
        assert table.real.access(level, vpn, AccessKind.WRITE, data) is None
        self._write_model([table.pages[vpn][0]], data, None)

    def _run(self, table, chosen, unmapped, n):
        """n consecutive vpns of table around a picked vpn, mapped or not,
        which is the range's middle one (or the upper of its two middle
        ones): a range that may hold unmapped or negative vpns, or cross
        from a view's base into its own lists."""
        start = self._vpn(table, chosen, unmapped) - n // 2
        return range(start, start + n)

    def _run_fault(self, table, vpns, level, kind):
        return next(filter(None, (self._fault(table, v, level, kind)
                                  for v in vpns)), None)

    @rule(t=picks, chosen=picks, unmapped=st.booleans(), n=st.integers(0, 3),
          level=st.sampled_from(LEVELS), short=st.integers(0, PAGE_SIZE))
    def read_run(self, t, chosen, unmapped, n, level, short):
        table = self._pick(self.tables, t)
        vpns = self._run(table, chosen, unmapped, n)
        nbytes = max(0, len(vpns) * PAGE_SIZE - short)
        fault = self._run_fault(table, vpns, level, AccessKind.READ)
        got = table.real.read_run(level, vpns, nbytes)
        if fault is not None:
            assert got == fault
            return
        assert got == b"".join(self.content[table.pages[v][0]]
                               for v in vpns)[:nbytes]

    @rule(t=picks, chosen=picks, unmapped=st.booleans(), n=st.integers(1, 3),
          level=st.sampled_from(LEVELS), short=st.integers(0, PAGE_SIZE - 1),
          seed=st.integers(0, 255))
    def write_run(self, t, chosen, unmapped, n, level, short, seed):
        table = self._pick(self.tables, t)
        vpns = self._run(table, chosen, unmapped, n)
        size = len(vpns) * PAGE_SIZE - short
        raw = ((bytes(range(seed, 256)) + bytes(range(seed)))
               * (size // 256 + 1))[:size]
        fault = self._run_fault(table, vpns, level, AccessKind.WRITE)
        source = bytes(bytearray(raw))
        if fault is not None:
            before = self._state()
            assert table.real.write_run(level, vpns, source) == fault
            assert self._state() == before
            return
        self.sources.append((source, raw))
        assert table.real.write_run(level, vpns, source) is None
        self._write_model([table.pages[v][0] for v in vpns], raw,
                          [(0, size, len(self.sources) - 1)])

    @rule(chosen=st.sets(picks, max_size=6))
    def accounting_of_some_tables(self, chosen):
        tables = list({id(t): t for t in (self._pick(self.tables, c)
                                          for c in sorted(chosen))}.values())
        assert accounting([t.real for t in tables]) == self._accounting(tables)

    # -- invariants --

    @invariant()
    def accounting_matches_the_model(self):
        assert accounting([t.real for t in self.tables]) == \
            self._accounting(self.tables)

    @invariant()
    def tables_match_the_model(self):
        for t in self.tables:
            assert sorted(t.real.mapped_vpns()) == sorted(t.pages)
            assert t.real.n_entries() == len(t.pages)
            assert t.real.lookup(t.real.next_unused_vpn()) is None
            for vpn, (fid, perms, _) in t.pages.items():
                entry = t.real.lookup(vpn)
                assert (entry.frame_id, entry.perms) == (fid, perms)
                for level in LEVELS:
                    got = t.real.access(level, vpn, AccessKind.READ)
                    assert got == (self._fault(t, vpn, level, AccessKind.READ)
                                   or self.content[fid])
                    # An empty write checks the page and changes nothing.
                    got = t.real.write_run(level, range(vpn, vpn + 1), b"")
                    assert got == self._fault(t, vpn, level, AccessKind.WRITE)

    @invariant()
    def counts_and_pool_match_the_model(self):
        counts = self._counts()
        every = np.arange(POOL_FRAMES)
        assert self.store.refs_of(every).tolist() == [counts[f] for f in every]
        assert [self.store.ref(f) for f in every] == self.store.refs_of(every).tolist()
        assert self.store.total_refs() == sum(
            t.real.n_entries() for t in self.tables) == sum(counts.values())
        assert self.pool.free_count == len(self.free)
        assert set(counts) <= set(self.held)
        assert len(self.held) == len(set(self.held))
        assert len(self.free) + len(self.held) == POOL_FRAMES
        assert self.store.copied_bytes_total == self.copied
        for fid in self.held:
            assert self.store.read_bytes(fid) == self.content[fid]

    @invariant()
    def sources_are_untouched_and_freed(self):
        viewed = set(self.viewing.values())
        for k in range(len(self.sources)):
            assert bytes(self.sources[k][0]) == self.sources[k][1]
            if len(self.sources[k][1]) > 1:  # shorter bytes are shared
                assert self._viewed_by_frames(k) == (k in viewed)


TestMemoryModel = MemoryMachine.TestCase
TestMemoryModel.settings = settings(max_examples=40, stateful_step_count=40)
