"""Trusted-monitor tests: lifecycle, policy, scheduling, invocation."""

import collections
import gc
import hashlib
import itertools
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (
    EXTERNAL_CONTENT,
    MIB,
    counting_sha512,
    echo_fn,
    hash_fn,
    make_rig,
    reader_fn,
    release_frames,
    shout_fn,
    small_image,
    take_frames,
)
from walletemu import attestation as att
from walletemu.cli import build_sized_image
from walletemu.crypto import Rng, symmetric_encrypt
from walletemu.errors import (
    ConfigInvalid,
    DecryptFailed,
    FunctionError,
    InvocationAborted,
    NoSession,
    AuthFailed,
    OutOfMemory,
    PolicyViolation,
    QuotaExceeded,
    StaleNonce,
    TrustletBusy,
    UnknownHandle,
)
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage, manifest_entry
from walletemu.memory import (
    FREE,
    PAGE_SIZE,
    PL1,
    PL2,
    AccessKind,
    FaultKind,
    PageFault,
    accounting,
    alloc_runs,
    frames_of,
    pages_for,
    preallocate,
    runs_of,
)
from walletemu.monitor import (
    Monitor,
    MonitorConfig,
    ProcKind,
    ProcState,
)
from walletemu.objects import MONITOR_PID, ObjectType, fallback_transfer
from walletemu.provider import FunctionProvider, UserAgent

SHA512_EMPTY = bytes.fromhex(
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")


class TestBoot:
    def test_default_boot_has_no_validation_charge(self):
        monitor = Monitor(MonitorConfig(seed=1))
        assert monitor.boot_us == 0
        # The pool validates its frames as they are first handed out.
        assert alloc_runs(monitor.pool, 1, monitor.model)[1] == 24

    def test_prealloc_boot_charge_matches_preallocate_oracle(self):
        from walletemu.memory import FrameStore, MemoryPool
        from walletemu.memory import CostModel
        prealloc = 64 * MIB
        oracle = preallocate(MemoryPool(FrameStore()), prealloc, CostModel())
        monitor = Monitor(MonitorConfig(prealloc_bytes=prealloc, seed=1))
        assert monitor.boot_us == oracle == (prealloc // 4096) * 24

    def test_sixteen_gib_prealloc_boot_charge(self):
        monitor = Monitor(MonitorConfig(prealloc_bytes=16 * 1024**3, seed=1))
        assert monitor.boot_us == 4_194_304 * 24 == 100_663_296

    @pytest.mark.parametrize("field,value", [
        ("quota_objects", -1), ("quota_bytes", -1)])
    def test_bad_object_sizes_refused_at_boot(self, field, value):
        with pytest.raises(ConfigInvalid, match=field.split("_")[0]):
            Monitor(MonitorConfig(**{field: value}))

    def test_zero_quotas_boot(self):
        monitor = Monitor(MonitorConfig(quota_objects=0, quota_bytes=0))
        assert monitor.objects.quota_objects == monitor.objects.quota_bytes == 0

    def test_zero_pool_runs_out_of_memory(self):
        monitor = Monitor(MonitorConfig(pool_frames=0, prealloc_bytes=0))
        provider = FunctionProvider(Rng(1), [small_image().digest()],
                                    [echo_fn().digest()])
        provider.provision(monitor)
        with pytest.raises(OutOfMemory):
            monitor.create_zygote(small_image())


class TestHandshakeAndPolicy:
    def test_load_policy_before_handshake_is_no_session(self):
        monitor = Monitor(MonitorConfig(seed=2))
        with pytest.raises(NoSession):
            monitor.load_policy(b"blob", b"\x00" * 32)

    def test_honest_flow_installs_policy(self):
        monitor = Monitor(MonitorConfig(seed=3))
        provider = FunctionProvider(Rng(4), [small_image().digest()],
                                    [echo_fn().digest()])
        provider.provision(monitor)
        assert monitor.policy is not None
        assert monitor.policy.allowed_zygotes == \
            frozenset([small_image().digest()])

    def test_nonce_reuse_is_stale(self):
        monitor = Monitor(MonitorConfig(seed=5))
        nonce = Rng(6).bytes(16)
        monitor.handshake_provider(nonce)
        with pytest.raises(StaleNonce):
            monitor.handshake_provider(nonce)

    def test_adversarial_blob_fails_authentication(self):
        monitor = Monitor(MonitorConfig(seed=7))
        rng = Rng(8)
        monitor.handshake_provider(rng.bytes(16))
        from walletemu.crypto import DhKey
        attacker_dh = DhKey.generate(rng)
        garbage = symmetric_encrypt(rng.bytes(32), b"fake policy", rng)
        with pytest.raises(AuthFailed):
            monitor.load_policy(garbage, attacker_dh.public_bytes())

    def test_create_zygote_without_policy_rejected(self):
        monitor = Monitor(MonitorConfig(seed=9))
        with pytest.raises(PolicyViolation):
            monitor.create_zygote(small_image())


class TestZygoteLifecycle:
    def test_create_charges_measurement_at_hash_rate(self, rig):
        # The fixture zygote was created once; a fresh image of known size
        # pins the measurement charge against the hash-rate oracle.
        image = small_image()
        digest = image.digest()
        rig.provider.policy.allowed_zygotes  # policy already allows it
        creation = rig.monitor.create_zygote(image)
        expected = rig.monitor.model.hash_us(len(image.canonical_bytes))
        assert creation.measure_us == expected

    def test_create_takes_the_digest_the_image_keeps(self, rig, monkeypatch):
        # A zygote whose image was already measured on the host (as a
        # provider does for its policy) is not hashed a second time; the
        # charge and the counters still read as one full hash.
        image = small_image()
        size = len(image.canonical_bytes)
        lengths = counting_sha512(monkeypatch)
        digest = image.digest()
        hashed_before = rig.monitor.cache.bytes_hashed
        creation = rig.monitor.create_zygote(image)
        assert lengths.count(size) == 1
        assert creation.measure_us == rig.monitor.model.hash_us(size)
        assert rig.monitor.cache.bytes_hashed - hashed_before == size
        assert rig.monitor._proc(creation.handle).measurement == digest
        assert digest == hashlib.new("sha512", image.canonical_bytes).digest()

    def test_create_and_invoke_make_no_copy_of_the_image(self):
        # Creating a zygote, forking it and serving a request with a report
        # refer to the image's parts and take its kept digest: together
        # they allocate under an eighth of its 32 MiB blob, where one joined
        # copy of the image would take all of it.
        blob = bytes(range(256)) * (32 * MIB // 256)
        rig = make_rig(image=ZygoteImage("rt", embedded_fs=[("/blob", blob)]),
                       functions=[echo_fn()], prealloc=40 * MIB)
        rig.monitor.delete_zygote(rig.zygote.handle)
        image = ZygoteImage("rt", embedded_fs=[("/blob", blob)])  # a new uid
        fn = rig.functions[0]
        request = rig.user.make_request(fn.digest(), b"x")
        tracemalloc.start()
        try:
            zygote = rig.monitor.create_zygote(image)
            trustlet = rig.monitor.create_trustlet(zygote.handle, fn)
            result = rig.monitor.invoke_trustlet(trustlet.handle,
                                                 request.ciphertext)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert zygote.measure_us == rig.monitor.model.hash_us(image.size_bytes())
        assert result.report.chain_entries[0].zygote_digest == image.digest()
        assert peak < len(blob) // 8

    def test_zygote_pages_cost_no_host_object_each(self):
        # A 32 MiB zygote's 8 192 pages refer to the image's parts from two
        # frame columns that the pool reserved at boot: creating it leaves
        # under 1 MiB, its page-table lists and sealed-base state.
        image = build_sized_image("rt", 32 * MIB)
        rig = make_rig(image=image, functions=[echo_fn()], prealloc=40 * MIB)
        monitor, store = rig.monitor, rig.monitor.store
        monitor.delete_zygote(rig.zygote.handle)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            zygote = monitor.create_zygote(image)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < MIB
        fids = monitor._proc(zygote.handle).page_table.local_frame_ids()
        assert len(fids) == 32 * MIB // PAGE_SIZE
        monitor.delete_zygote(zygote.handle)
        assert all(store._src[fid] is None for fid in fids)
        assert store.read_runs(runs_of(fids), 32 * MIB) == bytes(32 * MIB)

    def test_zygote_frames_hold_the_canonical_bytes(self):
        # Files whose boundaries fall mid-page: a page wholly inside a file
        # refers to it, a page straddling parts is new bytes, and read back
        # the frames are the canonical bytes.
        files = [(f"/f{k}", bytes([64 + k]) * (k * PAGE_SIZE + 999 * k))
                 for k in range(1, 5)]
        image = ZygoteImage("rt", embedded_fs=files,
                            manifest=[manifest_entry("/ext", b"e")])
        rig = make_rig(image=image, functions=[echo_fn()])
        store = rig.monitor.store
        fids = rig.monitor._proc(rig.zygote.handle).page_table \
            .local_frame_ids().tolist()
        data = image.canonical_bytes
        assert len(fids) == pages_for(len(data)) and len(data) % PAGE_SIZE
        assert store.read_runs(runs_of(fids), len(data)) == data
        ends = list(itertools.accumulate(map(len, image.canonical_parts)))
        straddling = [p for p in range(len(fids))
                      if any(p * PAGE_SIZE < end < (p + 1) * PAGE_SIZE
                             for end in ends[:-1])]
        assert len(straddling) > 2
        parts = {id(part) for part in image.canonical_parts}
        for p in (straddling[0], straddling[-1]):
            assert id(store._src[fids[p]]) not in parts
            page = data[p * PAGE_SIZE : (p + 1) * PAGE_SIZE]
            assert store.read_bytes(fids[p]) == page.ljust(PAGE_SIZE, b"\0")
        viewed = [p for p in range(len(fids))
                  if id(store._src[fids[p]]) in parts]
        assert viewed == [p for p in range(len(fids)) if p not in straddling]

    def test_flipped_byte_is_policy_violation(self, rig):
        image = small_image()
        raw = bytearray(image.canonical_bytes)
        raw[-1] ^= 0x01
        tampered = ZygoteImage.from_bytes(bytes(raw))
        with pytest.raises(PolicyViolation):
            rig.monitor.create_zygote(tampered)

    def test_second_create_of_same_image_hits_cache(self, rig):
        hits_before = rig.monitor.cache.hits
        hashed_before = rig.monitor.cache.bytes_hashed
        creation = rig.monitor.create_zygote(rig.image)
        assert creation.measure_us == 0
        assert rig.monitor.cache.hits == hits_before + 1
        assert rig.monitor.cache.bytes_hashed == hashed_before

    def test_init_cost_charged_once_per_zygote(self):
        image = ZygoteImage("rt", init_cost_ms=500, embedded_fs=[("/f", b"x")])
        rig = make_rig(image=image, functions=[echo_fn()])
        assert rig.zygote.init_us == 500_000
        creation = rig.monitor.create_trustlet(rig.zygote.handle,
                                               rig.functions[0])
        assert creation.creation_us < 500_000  # no init replay for trustlets

    def test_delete_cascades_to_trustlets(self, rig):
        m = rig.monitor
        t1 = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        t2 = m.create_trustlet(rig.zygote.handle, rig.functions[1])
        assert m.delete_zygote(rig.zygote.handle) == 3
        for handle in (rig.zygote.handle, t1.handle, t2.handle):
            with pytest.raises(UnknownHandle):
                m.delete_trustlet(handle)

    def test_delete_without_trustlets(self, rig):
        assert rig.monitor.delete_zygote(rig.zygote.handle) == 1

    def test_double_delete_is_unknown_handle(self, rig):
        rig.monitor.delete_zygote(rig.zygote.handle)
        with pytest.raises(UnknownHandle):
            rig.monitor.delete_zygote(rig.zygote.handle)

    def test_frames_released_when_refcount_zero(self, rig):
        free_before = rig.monitor.pool.free_count
        m = rig.monitor
        zc = m.create_zygote(rig.image)
        m.create_trustlet(zc.handle, rig.functions[0])
        m.delete_zygote(zc.handle)
        assert m.pool.free_count == free_before


class TestTrustletCreation:
    def test_fork_out_of_memory_leaves_zygote_deletable(self):
        image = small_image()
        rig = make_rig(image=image, functions=[echo_fn()],
                       prealloc=len(image.canonical_bytes))
        m = rig.monitor
        assert m.pool.free_count == 0
        with pytest.raises(OutOfMemory):
            m.create_trustlet(rig.zygote.handle, rig.functions[0])
        m.delete_zygote(rig.zygote.handle)
        assert m.store.total_refs() == 0
        assert m.pool.free_count == m.store.n_frames()

    def test_small_function_on_warm_pool_under_point_two_ms(self, rig):
        fn = rig.functions[0]
        assert len(fn.canonical_bytes) < 4096
        creation = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        assert creation.creation_us < 200

    def test_cow_fork_copies_nothing(self, rig):
        copied_before = rig.monitor.store.copied_bytes_total
        rig.monitor.create_trustlet(rig.zygote.handle, rig.functions[0])
        assert rig.monitor.store.copied_bytes_total == copied_before

    def test_disallowed_function_digest_rejected(self, rig):
        outsider = FunctionSpec("evil", [PipelineOp.identity()])
        with pytest.raises(PolicyViolation):
            rig.monitor.create_trustlet(rig.zygote.handle, outsider)

    def test_cow_disabled_pays_full_copy(self):
        warm = make_rig(cow=True)
        cold = make_rig(cow=False)
        fast = warm.monitor.create_trustlet(warm.zygote.handle,
                                            warm.functions[0])
        slow = cold.monitor.create_trustlet(cold.zygote.handle,
                                            cold.functions[0])
        pages = warm.monitor._procs[
            warm.monitor._handles[warm.zygote.handle]].page_table.n_entries()
        assert slow.creation_us - fast.creation_us >= 2 * pages  # 2 us/page

    def test_full_copy_over_a_fragmented_pool_moves_by_run(self, monkeypatch):
        # Objects made and every other one ended leave the free list in
        # two-frame fragments, so the zygote copy spans many runs.
        content = bytes(range(256)) * 160  # 40 KiB, no page all zeros
        image = ZygoteImage("rt", embedded_fs=[("/big", content)])
        rig = make_rig(cow=False, prealloc=0, pool_frames=200, image=image,
                       functions=[echo_fn()])
        m = rig.monitor
        made = [m.objects.make(b"o" * (PAGE_SIZE + 1))[0]
                for _ in range(m.pool.free_count // 2)]
        for obj_id in made[::2]:
            m.objects.end(obj_id)
        free_before = sorted(m.pool._ranges)
        copies, given = [], []
        copy_runs, give_back = m.store.copy_runs, m.pool._give_back

        def recording_copy(from_runs, to_runs):
            copies.append((from_runs, to_runs))
            copy_runs(from_runs, to_runs)

        def recording_give_back(runs):
            given.extend(runs)
            give_back(runs)

        monkeypatch.setattr(m.store, "copy_runs", recording_copy)
        monkeypatch.setattr(m.pool, "_give_back", recording_give_back)
        t = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        zygote = m._proc(rig.zygote.handle).page_table
        proc = m._proc(t.handle)
        [(from_runs, copy)] = copies
        n = zygote.n_entries()
        assert from_runs == runs_of(zygote.local_frame_ids())
        assert len(copy) == (n + 1) // 2 > 5
        assert all(run in free_before for run in copy[:-1])
        assert [proc.page_table.lookup(v).frame_id
                for v in range(n)] == frames_of(copy)
        data = image.canonical_bytes
        assert proc.page_table.read_run(PL1, range(n), len(data)) == data
        m.delete_trustlet(t.handle)
        assert sorted(given) == sorted(copy + proc.exclusive)
        assert sorted(frames_of(m.pool._ranges)) == frames_of(free_before)

    def test_state_is_ready_after_creation(self, rig):
        creation = rig.monitor.create_trustlet(rig.zygote.handle,
                                               rig.functions[0])
        proc = rig.monitor._proc(creation.handle)
        assert proc.state is ProcState.READY
        assert proc.kind is ProcKind.TRUSTLET
        assert proc.base_zygote == rig.monitor._handles[rig.zygote.handle]


def python_calls(call, *args) -> collections.Counter:
    """Python-level calls (profiler 'call' events) that call(*args) makes,
    by file name; the previous profiler is restored afterwards."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[os.path.basename(frame.f_code.co_filename)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return calls


class TestCallBudget:
    def test_warm_same_user_echo_invocation(self):
        # The memory layer is reached through one call that makes each
        # data object and one that ends it.  Before that, this invocation
        # made 206 calls, 118 of them in memory.py and objects.py.  The
        # trustlet's descriptor is looked up once per submission, and a
        # cached image measurement reads neither its size nor its digest:
        # 145 calls before that.
        rig = make_rig()
        m, fn = rig.monitor, rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        m.invoke_trustlet(t.handle, rig.user.make_request(
            fn.digest(), b"hello").ciphertext)
        request = rig.user.make_request(fn.digest(), b"hello")
        calls = python_calls(m.invoke_trustlet, t.handle, request.ciphertext)
        assert sum(calls.values()) <= 140
        assert calls["memory.py"] + calls["objects.py"] <= 80


class TestInvocation:
    def test_identity_round_trip_with_verified_report(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"abc")
        result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        assert rig.user.decrypt_response(request, result.output_ciphertext) == b"abc"
        assert att.verify_report(result.report, rig.expectations(request))

    def test_sha512_pipeline_of_empty_input(self, rig):
        fn = rig.functions[2]  # hash
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"")
        result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        out = rig.user.decrypt_response(request, result.output_ciphertext)
        assert out == SHA512_EMPTY

    def test_wrong_function_key_never_runs_trustlet(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        stranger = UserAgent(Rng(99), FunctionProvider(
            Rng(98), [rig.image.digest()], [fn.digest()]).public_key())
        request = stranger.make_request(fn.digest(), b"abc")
        with pytest.raises(DecryptFailed):
            rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        assert rig.monitor.completion_log == []

    def test_same_input_same_plaintext_across_nonces(self, rig):
        fn = rig.functions[1]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        outputs = set()
        nonces = set()
        for _ in range(3):
            request = rig.user.make_request(fn.digest(), b"same input")
            nonces.add(request.nonce)
            result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
            outputs.add(rig.user.decrypt_response(request,
                                                  result.output_ciphertext))
            assert result.report.nonce == request.nonce
        assert len(nonces) == 3
        assert outputs == {b"SAME INPUT!"}

    def test_recreation_on_user_change(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        alice = rig.user
        bob = UserAgent(Rng(77), rig.provider.public_key())
        r1 = rig.monitor.invoke_trustlet(
            t.handle, alice.make_request(fn.digest(), b"a").ciphertext)
        r2 = rig.monitor.invoke_trustlet(
            t.handle, bob.make_request(fn.digest(), b"b").ciphertext)
        r3 = rig.monitor.invoke_trustlet(
            t.handle, bob.make_request(fn.digest(), b"c").ciphertext)
        assert r1.descriptor_id != r2.descriptor_id
        assert r2.recreated and not r3.recreated
        assert r2.descriptor_id == r3.descriptor_id

    def test_recreations_keep_only_live_descriptors(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        users = [rig.user, UserAgent(Rng(77), rig.provider.public_key())]
        for i in range(101):
            result = m.invoke_trustlet(t.handle, users[i % 2].make_request(
                fn.digest(), b"x").ciphertext)
            assert result.recreated == (i > 0)
        assert len(m.descriptors()) == len(m.live_tables()) == 2
        assert {p.state for p in m.descriptors()} == {ProcState.READY}

    def test_recreations_leave_no_object_store_entries_of_dead_pids(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        users = [rig.user, UserAgent(Rng(77), rig.provider.public_key())]
        for i in range(101):
            m.invoke_trustlet(t.handle, users[i % 2].make_request(
                fn.digest(), b"x").ciphertext)
        live = {p.pid for p in m.descriptors()} | {MONITOR_PID}
        assert set(m.objects._attached) <= live

    def test_request_sealed_for_another_function_is_refused(self, rig):
        m = rig.monitor
        echo, shout = rig.functions[0], rig.functions[1]
        t = m.create_trustlet(rig.zygote.handle, shout)
        misrouted = rig.user.make_request(echo.digest(), b"misrouted")
        objects_before = m.objects.dump()
        with pytest.raises(PolicyViolation):
            m.invoke_trustlet(t.handle, misrouted.ciphertext)
        assert m.objects.dump() == objects_before  # no input object made
        assert m.completion_log == []
        routed = rig.user.make_request(shout.digest(), b"routed")
        result = m.invoke_trustlet(t.handle, routed.ciphertext)
        assert rig.user.decrypt_response(routed, result.output_ciphertext) \
            == b"ROUTED!"

    def test_function_error_propagates(self, rig):
        fn = rig.functions[3]  # reader
        rig.monitor.guest.files.clear()
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"")
        with pytest.raises(FunctionError):
            rig.monitor.invoke_trustlet(t.handle, request.ciphertext)

    def test_tampered_external_file_fails_the_invocation(self, rig):
        fn = rig.functions[3]  # reader: external path via manifest
        rig.monitor.guest.tamper_file("/ext/blob", lambda c: b"X" + c[1:])
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"")
        with pytest.raises(FunctionError, match="digest mismatch"):
            rig.monitor.invoke_trustlet(t.handle, request.ciphertext)

    def test_honest_external_file_read_through_scheduler(self, rig):
        fn = rig.functions[3]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"")
        result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        out = rig.user.decrypt_response(request, result.output_ciphertext)
        assert out == EXTERNAL_CONTENT

    def test_warm_external_reads_release_their_file_pages(self, rig):
        m = rig.monitor
        fn = rig.functions[3]
        t = m.create_trustlet(rig.zygote.handle, fn)

        def read():
            request = rig.user.make_request(fn.digest(), b"")
            m.invoke_trustlet(t.handle, request.ciphertext)

        read()
        table = m._proc(t.handle).page_table
        free, entries = m.pool.free_count, table.n_entries()
        for _ in range(10):
            read()
        assert (m.pool.free_count, table.n_entries()) == (free, entries)

    def test_output_over_quota_fails_and_leaves_the_trustlet_ready(self):
        rig = make_rig(quota_bytes=4096)
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        big = rig.user.make_request(fn.digest(), b"x" * 5000)
        with pytest.raises(QuotaExceeded):
            m.invoke_trustlet(t.handle, big.ciphertext)
        assert m._proc(t.handle).state is ProcState.READY
        request = rig.user.make_request(fn.digest(), b"small")
        result = m.invoke_trustlet(t.handle, request.ciphertext)
        assert rig.user.decrypt_response(
            request, result.output_ciphertext) == b"small"

    def test_object_quota_leaves_out_the_output_being_superseded(self):
        # The newest output counted against the quota while its successor
        # was created, so a one-object quota refused every second run.
        rig = make_rig(quota_objects=1, quota_bytes=4096)
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        for payload in (b"one", b"two", b"three"):
            request = rig.user.make_request(fn.digest(), payload)
            result = m.invoke_trustlet(t.handle, request.ciphertext)
            assert rig.user.decrypt_response(
                request, result.output_ciphertext) == payload
        newest = m._proc(t.handle).output_obj
        assert list(m.objects.objects) == [newest]
        # A refused create leaves the output it would supersede in place.
        big = rig.user.make_request(fn.digest(), b"x" * 5000)
        with pytest.raises(QuotaExceeded):
            m.invoke_trustlet(t.handle, big.ciphertext)
        assert m._proc(t.handle).output_obj == newest
        assert m.objects.read_monitor(newest) == b"three"

    def test_staging_out_of_memory_after_a_recreation(self):
        rig = make_rig(prealloc=0, pool_frames=20000)
        m = rig.monitor
        fn = rig.functions[3]  # reader
        t = m.create_trustlet(rig.zygote.handle, fn)
        del m.guest.files["/ext/blob"]  # the failed run leaves no output
        with pytest.raises(FunctionError):
            m.invoke_trustlet(t.handle, rig.user.make_request(
                fn.digest(), b"").ciphertext)
        m.guest.put_file("/ext/blob", EXTERNAL_CONTENT)
        other = UserAgent(Rng(99), rig.provider.public_key())
        pid = m._proc(t.handle).pid
        # The recreation takes no frame, so staging the input is what
        # finds the pool empty.
        held = take_frames(m.pool, m.pool.free_count)
        with pytest.raises(OutOfMemory):
            m.invoke_trustlet(t.handle, other.make_request(
                fn.digest(), b"").ciphertext)
        assert m._proc(t.handle).pid != pid and not m._active
        assert m.store.total_refs() == sum(
            table.n_entries() for table in m.live_tables())
        release_frames(m.pool, held)
        request = other.make_request(fn.digest(), b"")
        result = m.invoke_trustlet(t.handle, request.ciphertext)
        assert not result.recreated  # already the new user's
        assert other.decrypt_response(
            request, result.output_ciphertext) == EXTERNAL_CONTENT

    def test_long_warm_trustlet_stays_within_object_quota(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        free_start = rig.monitor.pool.free_count
        for i in range(3 * rig.monitor.objects.quota_objects):
            request = rig.user.make_request(fn.digest(), b"steady state")
            rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        # Consumed inputs and superseded outputs are retired; only the
        # newest output object lingers, and the pool does not drain.
        assert len(rig.monitor.objects.objects) <= 2
        assert free_start - rig.monitor.pool.free_count <= 2

    def test_aborted_invocation_releases_its_input_object(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        m.submit_invocation(
            t.handle, rig.user.make_request(fn.digest(), b"doomed").ciphertext)
        m.delete_zygote(rig.zygote.handle)
        m.run_pending()
        assert not m.objects.objects  # nothing survives the cascade

    def test_warm_invocation_hashes_only_input_and_output(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        first = rig.user.make_request(fn.digest(), b"warm-up input")
        rig.monitor.invoke_trustlet(t.handle, first.ciphertext)
        request = rig.user.make_request(fn.digest(), b"warm input 123")
        result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        assert result.bytes_hashed == len(b"warm input 123") * 2  # echo


class TestRecreationInPlace:
    """Per-user recreation keeps the trustlet's page table and exclusive
    frames, and leaves them as a fresh fork would: the function image
    followed by zeros, and no object of the previous user."""

    @staticmethod
    def scratch(rig, handle):
        """A trustlet's exclusive vpns, just past the zygote's, the frames
        mapped there and the bytes they should read: image, then zeros."""
        m = rig.monitor
        fn = m._proc(handle).fn
        start = m._proc(rig.zygote.handle).page_table.next_unused_vpn()
        pages = max(pages_for(m.config.trustlet_exclusive_bytes),
                    pages_for(len(fn.canonical_bytes)))
        vpns = range(start, start + pages)
        table = m._proc(handle).page_table
        image = fn.canonical_bytes
        return (vpns, [table.lookup(v).frame_id for v in vpns],
                image + bytes(pages * PAGE_SIZE - len(image)))

    @staticmethod
    def invoke(rig, handle, user, payload=b"x"):
        fn = rig.monitor._proc(handle).fn
        return rig.monitor.invoke_trustlet(
            handle, user.make_request(fn.digest(), payload).ciphertext)

    @pytest.mark.parametrize("cow", [True, False])
    def test_same_table_and_frames_with_the_scratch_reset(self, cow):
        rig = make_rig(cow=cow)
        m = rig.monitor
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, rig.functions[1])
        first = self.invoke(rig, t.handle, rig.user)
        table = m._proc(t.handle).page_table
        vpns, frames, fresh = self.scratch(rig, t.handle)
        below = [table.lookup(v) for v in range(vpns.start)]
        assert table.read_run(PL1, vpns, len(fresh)) == fresh
        # The function leaves data in its scratch pages for the next user.
        assert table.access(PL1, vpns[-1], AccessKind.WRITE,
                            b"left by the last user") is None
        free, next_vpn = m.pool.free_count, table.next_unused_vpn()
        second = self.invoke(rig, t.handle, bob)
        assert second.recreated
        assert second.descriptor_id != first.descriptor_id
        proc = m._proc(t.handle)
        assert proc.page_table is table and table.owner == proc.pid
        assert self.scratch(rig, t.handle)[1] == frames
        assert table.read_run(PL1, vpns, len(fresh)) == fresh
        # The zygote's pages, or under full copy the trustlet's copy of
        # them, are mapped as before.
        assert [table.lookup(v) for v in range(vpns.start)] == below
        assert table.base is (m._proc(rig.zygote.handle).page_table
                              if cow else None)
        assert m.pool.free_count == free
        assert table.next_unused_vpn() == next_vpn
        assert m.store.total_refs() == sum(
            t.n_entries() for t in m.live_tables())

    def test_alternating_users_leave_the_pool_as_it_was(self, rig):
        m = rig.monitor
        users = [rig.user, UserAgent(Rng(77), rig.provider.public_key())]
        t = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        self.invoke(rig, t.handle, users[0])
        table = m._proc(t.handle).page_table
        free, next_vpn = m.pool.free_count, table.next_unused_vpn()
        for i in range(1, 101):
            assert self.invoke(rig, t.handle, users[i % 2]).recreated
            assert m.pool.free_count == free
            assert m._proc(t.handle).page_table is table
            assert table.next_unused_vpn() == next_vpn

    def test_a_resolved_cow_fault_is_reset_to_a_clean_view(self, rig):
        m = rig.monitor
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        self.invoke(rig, t.handle, rig.user)
        zygote = m._proc(rig.zygote.handle).page_table
        table = m._proc(t.handle).page_table
        vpns, frames, fresh = self.scratch(rig, t.handle)
        copied, _charge = table.resolve_cow(0, m.pool, m.model)
        assert table.diverged and table.lookup(0).frame_id == copied
        free = m.pool.free_count
        assert self.invoke(rig, t.handle, bob).recreated
        view = m._proc(t.handle).page_table
        assert view is not table and view.base is zygote
        assert not view.diverged
        assert view.lookup(0) == zygote.lookup(0) != table.lookup(0)
        assert self.scratch(rig, t.handle)[1] == frames
        assert view.read_run(PL1, vpns, len(fresh)) == fresh
        assert m.store.owners_of([copied])[0] == FREE
        assert m.pool.free_count == free + 1
        assert m.store.total_refs() == sum(
            t.n_entries() for t in m.live_tables())

    def test_kept_frames_are_not_validated_again(self):
        self.check_recreation_charge(cow=True)

    def test_kept_frames_are_not_validated_again_under_full_copy(self):
        self.check_recreation_charge(cow=False)

    def check_recreation_charge(self, cow):
        # On an on-demand pool, a recreation charges the descriptor clone,
        # under full copy the copy of the zygote's pages, the set-up of
        # the exclusive pages and the load of the image, and no
        # validation: its frames were validated when the trustlet was
        # forked.  No result reports it yet.
        rig = make_rig(cow=cow, prealloc=0, pool_frames=65536)
        m = rig.monitor
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        self.invoke(rig, t.handle, rig.user)
        unreported = m.unreported.total_us
        assert self.invoke(rig, t.handle, bob).recreated
        vpns, _, _ = self.scratch(rig, t.handle)
        fn = rig.functions[0]
        zygote_pages = m._proc(rig.zygote.handle).page_table.n_entries()
        assert m.unreported.total_us - unreported == (
            m.config.descriptor_clone_us + m.model.copy_us(len(vpns))
            + m.model.transfer_us(len(fn.canonical_bytes))
            + (0 if cow else m.model.copy_us(zygote_pages)))

    def test_recreation_takes_no_frame(self, rig):
        m = rig.monitor
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, rig.functions[0])
        self.invoke(rig, t.handle, rig.user)
        pid = m._proc(t.handle).pid
        held = take_frames(m.pool, m.pool.free_count)
        # The recreation succeeds; staging bob's input finds the pool empty.
        with pytest.raises(OutOfMemory):
            self.invoke(rig, t.handle, bob)
        assert m._proc(t.handle).pid != pid
        release_frames(m.pool, held)
        result = self.invoke(rig, t.handle, bob, b"again")
        assert not result.recreated


class TestTraps:
    """A suspended external-file read is the one request a running
    trustlet makes of the monitor."""

    def test_file_read_delivers_external_bytes(self, rig):
        m = rig.monitor
        fn = rig.functions[3]  # reader
        t = m.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"")
        ticket = m.submit_invocation(t.handle, request.ciphertext)
        assert m.schedule() == ticket.pid  # suspends on the external read
        assert ticket.file_objs == [] and not ticket.finished
        table = m._proc(t.handle).page_table
        exclusive = accounting([table]).exclusive_bytes
        m._deliver_one_io()
        [obj_id] = ticket.file_objs
        obj = m.objects.get(obj_id)
        assert (obj.otype, obj.writer, obj.reader) == (
            ObjectType.INPUT, MONITOR_PID, ticket.pid)
        pages = [table.access(PL1, vpn, AccessKind.READ)
                 for vpn in obj.reader_vpns]
        assert b"".join(pages)[:len(EXTERNAL_CONTENT)] == EXTERNAL_CONTENT
        # The grant is read-only, and the pages are the reader's alone.
        fault = table.access(PL1, obj.reader_vpns[0], AccessKind.WRITE, b"x")
        assert fault.kind is FaultKind.PERMISSION_VIOLATION
        assert accounting([table]).exclusive_bytes == exclusive + \
            pages_for(len(EXTERNAL_CONTENT)) * PAGE_SIZE
        m.run_pending()
        out = rig.user.decrypt_response(request,
                                        ticket.result.output_ciphertext)
        assert out == EXTERNAL_CONTENT
        assert obj_id not in m.objects.objects

    def test_file_out_of_memory_settles_and_the_reader_runs_again(self):
        rig = make_rig(prealloc=0, pool_frames=20000)
        m = rig.monitor
        fn = rig.functions[3]  # reader
        t = m.create_trustlet(rig.zygote.handle, fn)
        held = take_frames(m.pool, m.pool.free_count - 1)  # room for input
        ticket = m.submit_invocation(
            t.handle, rig.user.make_request(fn.digest(), b"").ciphertext)
        with pytest.raises(OutOfMemory):
            m._drive(ticket)
        assert not m._active and not m._pending_io
        assert not {ticket.input_obj, *ticket.file_objs} & set(
            m.objects.objects)
        assert m.store.total_refs() == sum(
            table.n_entries() for table in m.live_tables())
        release_frames(m.pool, held)
        request = rig.user.make_request(fn.digest(), b"")
        result = m.invoke_trustlet(t.handle, request.ciphertext)
        assert rig.user.decrypt_response(
            request, result.output_ciphertext) == EXTERNAL_CONTENT


FILE_A = b"first external file, three pages long\n" * 300
FILE_B = b"second external file, two pages\n" * 160


def two_reads_rig():
    """A rig whose function reads two external files, FILE_A then FILE_B,
    next to echo as the quick function."""
    image = ZygoteImage("two-files-rt", 5, [("/data/x", b"42")],
                        manifest=[manifest_entry("/ext/a", FILE_A),
                                  manifest_entry("/ext/b", FILE_B)])
    reader = FunctionSpec("two-reads", [PipelineOp.read_file("/ext/a"),
                                        PipelineOp.append(b"!"),
                                        PipelineOp.read_file("/ext/b"),
                                        PipelineOp.uppercase()], 0.0)
    rig = make_rig(image=image, functions=[echo_fn(), reader])
    rig.monitor.guest.put_file("/ext/a", FILE_A)
    rig.monitor.guest.put_file("/ext/b", FILE_B)
    return rig


class TestTwoExternalReads:
    """A pipeline that suspends twice, next to a quick ticket that
    completes while it waits."""

    def submit_both(self, rig):
        m = rig.monitor
        quick, reader = rig.functions
        ta = m.create_trustlet(rig.zygote.handle, reader)
        tb = m.create_trustlet(rig.zygote.handle, quick)
        request = rig.user.make_request(reader.digest(), b"")
        tka = m.submit_invocation(ta.handle, request.ciphertext)
        tkb = m.submit_invocation(
            tb.handle, rig.user.make_request(quick.digest(), b"x").ciphertext)
        return ta, request, tka, tkb

    def deliver_both(self, m, tka, tkb):
        """Suspend on /ext/a, let the quick ticket finish, deliver /ext/a,
        suspend on /ext/b and deliver it; returns each file object's
        reader vpns and frame ids."""
        assert m.schedule() == tka.pid  # suspends on /ext/a
        assert m.schedule() == tkb.pid  # the quick ticket runs meanwhile
        assert tkb.result is not None and not tka.finished
        m._deliver_one_io()
        assert m.schedule() == tka.pid  # suspends on /ext/b
        assert not tka.finished
        assert len(tka.file_objs) == 1
        m._deliver_one_io()
        objs = [m.objects.get(obj_id) for obj_id in tka.file_objs]
        assert [len(obj.frames) for obj in objs] == [
            pages_for(len(FILE_A)), pages_for(len(FILE_B))]
        assert m.guest.file_reads == ["/ext/a", "/ext/b"]
        return [(list(obj.reader_vpns), list(obj.frames)) for obj in objs]

    def assert_files_released(self, m, tka, files):
        assert not set(tka.file_objs) & set(m.objects.objects)
        table = m._proc(tka.handle).page_table
        for vpns, fids in files:
            for vpn in vpns:
                assert isinstance(table.access(PL1, vpn, AccessKind.READ),
                                  PageFault)
            assert (m.store.owners_of(np.array(fids)) == FREE).all()

    def test_each_resume_gets_its_own_file(self):
        rig = two_reads_rig()
        m = rig.monitor
        ta, request, tka, tkb = self.submit_both(rig)
        submitted_input_us = tka.charges.input_us
        files = self.deliver_both(m, tka, tkb)
        # Both files stay mapped, each in its own object, until settle.
        table = m._proc(ta.handle).page_table
        for content, (vpns, fids) in zip((FILE_A, FILE_B), files):
            pages = [table.access(PL1, vpn, AccessKind.READ) for vpn in vpns]
            assert b"".join(pages)[:len(content)] == content
            assert not (m.store.owners_of(np.array(fids)) == FREE).any()

        assert m.schedule() == tka.pid  # completes
        assert m.completion_log == [tkb.pid, tka.pid]
        out = rig.user.decrypt_response(request,
                                        tka.result.output_ciphertext)
        assert out == FILE_B.upper()
        transfers = [m.model.transfer_us(len(f)) for f in (FILE_A, FILE_B)]
        assert all(transfers)  # each file's copy is charged a nonzero time
        assert tka.result.charges.input_us == submitted_input_us + \
            sum(transfers)
        self.assert_files_released(m, tka, files)

    def test_tampered_second_file_fails_after_the_first_was_delivered(self):
        rig = two_reads_rig()
        m = rig.monitor
        m.guest.tamper_file("/ext/b", lambda c: b"X" + c[1:])
        ta, _request, tka, tkb = self.submit_both(rig)
        files = self.deliver_both(m, tka, tkb)
        assert m.schedule() == tka.pid  # the digest check fails the run
        assert isinstance(tka.error, FunctionError)
        assert "digest mismatch for external file /ext/b" in str(tka.error)
        assert m._proc(ta.handle).state is ProcState.READY
        assert m.completion_log == [tkb.pid]
        self.assert_files_released(m, tka, files)


class TestScheduling:
    def test_fifo_completion_order_without_blocking(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t1 = m.create_trustlet(rig.zygote.handle, fn)
        t2 = m.create_trustlet(rig.zygote.handle, fn)
        tk1 = m.submit_invocation(
            t1.handle, rig.user.make_request(fn.digest(), b"1").ciphertext)
        tk2 = m.submit_invocation(
            t2.handle, rig.user.make_request(fn.digest(), b"2").ciphertext)
        m.run_pending()
        assert m.completion_log == [tk1.pid, tk2.pid]

    def test_blocked_trustlet_yields_to_ready_one(self, rig):
        m = rig.monitor
        blocker = rig.functions[3]  # external file read suspends
        quick = rig.functions[0]
        ta = m.create_trustlet(rig.zygote.handle, blocker)
        tb = m.create_trustlet(rig.zygote.handle, quick)
        tka = m.submit_invocation(
            ta.handle, rig.user.make_request(blocker.digest(), b"").ciphertext)
        tkb = m.submit_invocation(
            tb.handle, rig.user.make_request(quick.digest(), b"x").ciphertext)
        m.run_pending()
        # A blocked first and resumed later: B completes before A.
        assert m.completion_log == [tkb.pid, tka.pid]
        assert tka.result is not None

    def test_empty_queue_is_idle(self, rig):
        assert rig.monitor.schedule() is None

    def test_busy_trustlet_rejects_second_submission(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        m.submit_invocation(
            t.handle, rig.user.make_request(fn.digest(), b"1").ciphertext)
        with pytest.raises(TrustletBusy):
            m.submit_invocation(
                t.handle, rig.user.make_request(fn.digest(), b"2").ciphertext)
        m.run_pending()

    def test_at_most_one_running_descriptor(self, rig):
        m = rig.monitor
        fn = rig.functions[1]
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for _ in range(3)]
        for h in handles:
            m.submit_invocation(
                h, rig.user.make_request(fn.digest(), b"z").ciphertext)
        while True:
            running = [p for p in m.descriptors()
                       if p.state is ProcState.RUNNING]
            assert len(running) <= 1
            if m.schedule() is None:
                break

    def test_delete_zygote_aborts_queued_invocation(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        ticket = m.submit_invocation(
            t.handle, rig.user.make_request(fn.digest(), b"1").ciphertext)
        m.delete_zygote(rig.zygote.handle)
        m.run_pending()
        assert isinstance(ticket.error, InvocationAborted)


class TestGuestIsolation:
    def test_no_pl2_grant_on_process_frames_after_full_scenario(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"secret sauce")
        m.invoke_trustlet(t.handle, request.ciphertext)
        for proc in m.descriptors():
            table = proc.page_table
            for vpn in table.mapped_vpns():
                entry = table.lookup(vpn)
                assert PL2 not in entry.perms.read
                assert PL2 not in entry.perms.write
                result = table.access(PL2, vpn, AccessKind.READ)
                assert isinstance(result, PageFault)

    def test_policy_completeness_over_descriptors(self, rig):
        m = rig.monitor
        for fn in rig.functions[:2]:
            m.create_trustlet(rig.zygote.handle, fn)
        policy = m.policy
        for proc in m.descriptors():
            if proc.state is ProcState.TERMINATED:
                continue
            if proc.kind is ProcKind.ZYGOTE:
                assert proc.measurement in policy.allowed_zygotes
            else:
                assert proc.measurement in policy.allowed_functions

    def test_policy_completeness_under_random_op_sequences(self, rig):
        import random
        from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage

        m = rig.monitor
        rng = random.Random(31337)
        zygotes = [rig.zygote.handle]
        trustlets = []
        for step in range(200):
            op = rng.randrange(5)
            try:
                if op == 0:
                    zygotes.append(m.create_zygote(rig.image).handle)
                elif op == 1:
                    # Outside-policy image: must never reach ready.
                    rogue = ZygoteImage(f"rogue-{step}", 0, [("/r", b"!")])
                    m.create_zygote(rogue)
                elif op == 2 and zygotes:
                    fn = rng.choice(rig.functions[:3])
                    trustlets.append(
                        m.create_trustlet(rng.choice(zygotes), fn).handle)
                elif op == 3:
                    rogue_fn = FunctionSpec(f"rogue-{step}",
                                            [PipelineOp.identity()])
                    m.create_trustlet(rng.choice(zygotes), rogue_fn)
                elif op == 4 and len(zygotes) > 1:
                    victim = zygotes.pop(rng.randrange(1, len(zygotes)))
                    m.delete_zygote(victim)
            except (PolicyViolation, UnknownHandle):
                pass
            for proc in m.descriptors():
                if proc.state is ProcState.TERMINATED:
                    continue
                allowed = m.policy.allowed_zygotes \
                    if proc.kind is ProcKind.ZYGOTE \
                    else m.policy.allowed_functions
                assert proc.measurement in allowed


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        def run():
            rig = make_rig(seed=123)
            fn = rig.functions[0]
            t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
            request = rig.user.make_request(fn.digest(), b"fixed input")
            result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
            return (result.report.to_bytes(), result.output_ciphertext)

        assert run() == run()


def _pin(h, monitor, result) -> None:
    """Feed one invocation's simulated outputs into h."""
    c = result.charges
    h.update(struct.pack(">6q", c.decrypt_us, c.input_us, c.exec_us,
                         c.output_us, c.report_us, c.response_us))
    h.update(result.report.to_bytes() if result.report is not None else b"-")
    h.update(result.output_ciphertext or b"-")
    h.update(struct.pack(">q", monitor.clock_us))


class TestPinnedOutputs:
    """Charges, reports, ciphertexts and the clock of a fixed script,
    pinned by SHA-256 so that a refactor keeps them bit for bit."""

    def rig_functions(self, h, rig, users, rounds=1):
        """Every rig function for every user in turn; a second user
        recreates each trustlet."""
        m = rig.monitor
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in rig.functions]
        for user in users:
            for _ in range(rounds):
                for fn, handle in zip(rig.functions, handles):
                    request = user.make_request(fn.digest(), b"pinned input")
                    _pin(h, m, m.invoke_trustlet(handle, request.ciphertext))
        return handles

    def digest(self, **rig_config) -> str:
        h = hashlib.sha256()
        rig = make_rig(**rig_config)
        users = [rig.user, UserAgent(Rng(77), rig.provider.public_key())]
        self.rig_functions(h, rig, users, rounds=2)
        return h.hexdigest()

    def test_rig_functions_for_two_users(self):
        assert self.digest() == (
            "8642fc329f3fadc9231aae439048dddc2bc0cc59575b26c9863c91b2397cafe6")

    def test_without_prealloc(self):
        # Each of the four recreations charges no validation: it keeps
        # its trustlet's frames, validated when the trustlet was forked.
        assert self.digest(prealloc=0, pool_frames=65536) == (
            "4b95a05207b78c8948bd8f6149c7245c7fb36d48c7958b84656bbdb86f73283d")

    def test_without_cow(self):
        assert self.digest(cow=False) == (
            "cbcd21f291eb0f27be6c49a1c87163a88e7073686c621e4a77f7f306c22ddf30")

    def test_chain_and_fallback_hop(self):
        h = hashlib.sha256()
        functions = [FunctionSpec(f"stage-{i}", [PipelineOp.append(b"+")], 0.5)
                     for i in range(3)]
        rig = make_rig(image=ZygoteImage("chain-rt", 0, [("/noop", b"-")]),
                       functions=functions,
                       chains=(tuple(fn.digest() for fn in functions),))
        m = rig.monitor
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        for payload in (b"x" * 10, b"y" * 9000):
            for producer, consumer in zip(handles, handles[1:]):
                m.link_chain(producer, consumer)
            request = rig.user.make_request(functions[0].digest(), payload)
            result = m.invoke_trustlet(handles[0], request.ciphertext)
            _pin(h, m, result)
            while result.handoff is not None:
                result = m.invoke_chained(result.handoff)
                _pin(h, m, result)
        request = rig.user.make_request(functions[0].digest(), b"fallback")
        first = m.invoke_trustlet(handles[0], request.ciphertext)
        _pin(h, m, first)
        _, delivered, transfer_us = fallback_transfer(
            m.objects, first.output_obj_id, m.objects, Rng(5).bytes(32),
            m.guest, m.rng, colocated=True)
        h.update(struct.pack(">q", transfer_us))
        _pin(h, m, m.invoke_with_input(handles[1], delivered,
                                       request.response_key, request.nonce))
        assert h.hexdigest() == (
            "56735c7361c1e3a7d04b0b9e18b6c783b805ed51256a1ae4ef4bdb5516bc09b0")


class TestPinnedRefusals:
    """The clock and the next pid and handle after each kind of refused
    call, pinned so that a refactor of the charges keeps them: a refusal
    charges what the monitor did before it refused, and numbers nothing
    more than it numbered before."""

    @staticmethod
    def after(m) -> tuple[int, int, int]:
        return m.clock_us, m._next_pid, m._next_handle

    @pytest.mark.parametrize("stage", ["copy", "exclusive"])
    def test_full_copy_refused_at_each_allocation(self, stage):
        # A fork on an on-demand pool one frame short of the zygote copy,
        # or of the exclusive pages after it: the latter has charged the
        # clone, the copy's allocation and the copy.
        rig = make_rig(cow=False, prealloc=0, pool_frames=4096)
        m = rig.monitor
        fn = rig.functions[0]
        need = m._proc(rig.zygote.handle).page_table.n_entries()
        if stage == "exclusive":
            need += max(pages_for(m.config.trustlet_exclusive_bytes),
                        pages_for(len(fn.canonical_bytes)))
        take_frames(m.pool, m.pool.free_count - need + 1)
        copied = m.store.copied_bytes_total
        with pytest.raises(OutOfMemory):
            m.create_trustlet(rig.zygote.handle, fn)
        assert (m.store.copied_bytes_total > copied) == (stage == "exclusive")
        assert self.after(m) == PINNED_REFUSALS[f"full copy, {stage}"]

    @pytest.mark.parametrize("cow", [True, False])
    def test_staging_refused_right_after_a_recreation(self, cow):
        rig = make_rig(cow=cow, prealloc=0, pool_frames=4096)
        m = rig.monitor
        fn = rig.functions[0]
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, fn)
        m.invoke_trustlet(t.handle, rig.user.make_request(
            fn.digest(), b"x").ciphertext)
        take_frames(m.pool, m.pool.free_count)
        with pytest.raises(OutOfMemory):
            m.invoke_trustlet(t.handle, bob.make_request(
                fn.digest(), b"x").ciphertext)
        assert self.after(m) == PINNED_REFUSALS[f"staging, cow={cow}"]

    def test_busy_after_decrypt(self, rig):
        m = rig.monitor
        fn = rig.functions[0]
        bob = UserAgent(Rng(77), rig.provider.public_key())
        t = m.create_trustlet(rig.zygote.handle, fn)
        m.submit_invocation(t.handle, rig.user.make_request(
            fn.digest(), b"x").ciphertext)
        with pytest.raises(TrustletBusy):
            m.invoke_trustlet(t.handle, bob.make_request(
                fn.digest(), b"x").ciphertext)
        assert self.after(m) == PINNED_REFUSALS["busy"]
        m.run_pending()

    def test_tampered_external_file(self, rig):
        m = rig.monitor
        fn = rig.functions[3]  # reader
        m.guest.tamper_file("/ext/blob", lambda c: b"X" + c[1:])
        t = m.create_trustlet(rig.zygote.handle, fn)
        with pytest.raises(FunctionError):
            m.invoke_trustlet(t.handle, rig.user.make_request(
                fn.digest(), b"").ciphertext)
        assert self.after(m) == PINNED_REFUSALS["tampered"]


# (clock_us, next pid, next handle) after each refusal.
PINNED_REFUSALS = {
    "full copy, copy": (5081, 3, 2),
    "full copy, exclusive": (5107, 3, 2),
    "staging, cow=True": (7605, 4, 3),
    "staging, cow=False": (7633, 4, 3),
    "busy": (398307, 3, 3),
    "tampered": (398308, 3, 3),
}
