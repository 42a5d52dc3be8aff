"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import functools
import gc
import hashlib
import json
import random
import sys
import time

import pytest

from conftest import MIB, echo_fn, make_rig, take_frames
from walletemu import attestation as att
from walletemu.cli import build_sized_image, main as cli_main
from walletemu.crypto import FunctionKey, Rng, seal_open
from walletemu.errors import StaleNonce, VerifFailed
from walletemu.guest import GuestBroker
from walletemu.images import FunctionSpec, OpKind, PipelineOp, ZygoteImage
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
    alloc_runs,
    runs_of,
)
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.objects import MONITOR_PID, ObjectStore, ObjectType
from walletemu.provider import FunctionProvider, UserAgent
from walletemu.sim import SimConfig, default_profiles, oracle_simulate, simulate
from walletemu.sim.profiles import BootDist, VariantProfile
from walletemu.traceio import GeneratorSpec, TraceEvent, generate_trace


def criterion(n, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:>2}: FAIL - {description}",
                      file=sys.stderr)
                raise
            print(f"ACCEPTANCE {n:>2}: PASS - {description}", file=sys.stderr)
            return result
        return wrapper
    return deco


@criterion(1, "page-validation cost: 60 MiB unvalidated alloc charges "
              "exactly 15,360 pages x 24 us = 368,640 us")
def test_criterion_1_cost_model_page_validation():
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(15360, validated=False)
    _, charge = alloc_runs(pool, 15360, CostModel())
    assert charge == 368_640
    # Cross-check against the quoted per-MB rate: 24 us x 256 pages/MiB.
    assert charge == 60 * int(24 * 256)


@criterion(2, "trustlet creation: <0.2 ms on a warm pool; CoW vs full-copy "
              "on a 147 MiB zygote reproduces the 66 ms -> 0.11 ms contrast "
              "within a 2x envelope")
def test_criterion_2_trustlet_creation_bounds():
    image = build_sized_image("accept-rt", 147 * MIB)
    fn = echo_fn()
    assert len(fn.canonical_bytes) < 4096

    cow = make_rig(prealloc=256 * MIB, cow=True, image=image, functions=[fn])
    fast = cow.monitor.create_trustlet(cow.zygote.handle, fn)
    assert fast.creation_us < 200                 # < 0.2 ms
    assert 55 <= fast.creation_us <= 220          # 2x envelope around 0.11 ms
    del cow
    gc.collect()

    full = make_rig(prealloc=512 * MIB, cow=False, image=image, functions=[fn])
    slow = full.monitor.create_trustlet(full.zygote.handle, fn)
    assert slow.creation_us >= 60_000             # >= 60 ms
    assert 33_000 <= slow.creation_us <= 132_000  # 2x envelope around 66 ms
    del full
    gc.collect()


@criterion(3, "differential attestation: warm hashing covers only "
              "function/input/output across zygote sizes 1-691 MiB; "
              "warm charge < 0.5 ms; cold 60 MiB charge ~1.1 s")
def test_criterion_3_differential_attestation_saving():
    payload = bytes(range(256)) * 16          # 4 KiB input
    fn = echo_fn()                            # output == input
    fn_size = len(fn.canonical_bytes)

    for size_mib in (1, 60, 147, 691):
        image = build_sized_image(f"sz{size_mib}", size_mib * MIB)
        rig = make_rig(prealloc=(size_mib + 64) * MIB, image=image,
                       functions=[fn])
        monitor = rig.monitor
        trustlet = monitor.create_trustlet(rig.zygote.handle, fn)
        warmup = rig.user.make_request(fn.digest(), payload)
        monitor.invoke_trustlet(trustlet.handle, warmup.ciphertext)

        request = rig.user.make_request(fn.digest(), payload)
        result = monitor.invoke_trustlet(trustlet.handle, request.ciphertext)
        # Function and zygote digests are cached: only mutables are hashed.
        assert result.bytes_hashed == 2 * len(payload)
        assert result.charges.report_us < 500  # < 0.5 ms for 4 KiB payloads

        # With the function measurement evicted, the warm path re-hashes
        # exactly the function plus input and output.
        del monitor.cache.entries[(att.SubjectKind.FUNCTION, fn.uid)]
        request = rig.user.make_request(fn.digest(), payload)
        result = monitor.invoke_trustlet(trustlet.handle, request.ciphertext)
        assert result.bytes_hashed == fn_size + 2 * len(payload)

        if size_mib == 60:
            cold_charge = rig.zygote.measure_us
            assert abs(cold_charge - 1_100_000) <= 110_000  # 1.1 s +- 10%
        del rig, monitor
        gc.collect()


@criterion(4, "protocol adversarial suite: report algebra x1000, replay and "
              "MITM rejection, four tamper detections, 100 secrecy scans, "
              "and the demonstrated non-PFS decryption")
def test_criterion_4_protocol_adversarial_suite():
    # (a) gen/verif/getD algebra over 1000 random (machine, d, u) triples.
    rng = Rng(4001)
    for _ in range(1000):
        machine = att.MachineKey.generate(rng)
        d, u = rng.bytes(64), rng.bytes(64)
        report = att.asp_gen(machine, d, u)
        assert att.asp_verif(report, machine.machine_id, d,
                             machine.public_bytes())
        assert att.asp_get_user_data(report) == u

    # (b) nonce replay rejected.
    monitor = Monitor(MonitorConfig(seed=4002))
    nonce = Rng(4003).bytes(16)
    monitor.handshake_provider(nonce)
    with pytest.raises(StaleNonce):
        monitor.handshake_provider(nonce)

    # (c) DH-public substitution rejected.
    monitor = Monitor(MonitorConfig(seed=4004))
    provider = FunctionProvider(Rng(4005), [b"\x01" * 64], [b"\x02" * 64])
    hs_nonce = provider.begin_handshake()
    report, _dh = monitor.handshake_provider(hs_nonce)
    with pytest.raises(VerifFailed):
        provider.complete_handshake(report, Rng(4006).bytes(32),
                                    monitor.machine_key.public_bytes(),
                                    monitor.monitor_digest)

    # (d) tampered input / zygote / function / output each flip the verdict.
    rig = make_rig(seed=4007)
    fn = rig.functions[0]
    trustlet = rig.monitor.create_trustlet(rig.zygote.handle, fn)
    request = rig.user.make_request(fn.digest(), b"genuine input")
    result = rig.monitor.invoke_trustlet(trustlet.handle, request.ciphertext)
    good = rig.expectations(request)
    assert att.verify_report(result.report, good)
    from dataclasses import replace
    tampered = [
        replace(good, input_digest=att.sha512(b"swapped input")),
        replace(good, allowed_zygote_digests=frozenset([att.sha512(b"z")])),
        replace(good, allowed_function_digests=frozenset([att.sha512(b"f")])),
    ]
    for bad in tampered:
        assert not att.verify_report(result.report, bad)
    entry = result.report.chain_entries[0]
    forged = att.AttestationReport(
        result.report.platform, result.report.nonce,
        (att.ChainEntry(entry.zygote_digest, entry.function_digest,
                        entry.input_digest, att.sha512(b"forged output")),),
        result.report.signature)
    assert not att.verify_report(forged, good)

    # (e) sentinel secrecy over the guest tap, 100 randomized runs.
    srng = random.Random(4008)
    for trial in range(100):
        srig = make_rig(seed=5000 + trial)
        sfn = srig.functions[0]
        t = srig.monitor.create_trustlet(srig.zygote.handle, sfn)
        sentinel = srng.randbytes(24)
        req = srig.user.make_request(sfn.digest(), sentinel)
        res = srig.monitor.invoke_trustlet(t.handle, req.ciphertext)
        out = srig.user.decrypt_response(req, res.output_ciphertext)
        guest = srig.monitor.guest
        key = srig.monitor.policy.function_key.private_bytes()
        assert not guest.tap_contains(sentinel)
        assert not guest.tap_contains(out)
        assert not guest.tap_contains(key[:32])
        assert not guest.tap_contains(key[32:])

    # (f) compromising the function key DOES decrypt recorded requests
    # (the deliberately demonstrated absence of perfect forward secrecy).
    rig = make_rig(seed=4009)
    fn = rig.functions[0]
    t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
    secret = b"past request, recorded by the guest"
    req = rig.user.make_request(fn.digest(), secret)
    rig.monitor.invoke_trustlet(t.handle, req.ciphertext)
    assert rig.monitor.guest.tap_contains(req.ciphertext)
    leaked = FunctionKey.from_bytes(
        rig.provider.compromise()["function_private_key"])
    assert secret in seal_open(leaked.box, req.ciphertext)


@criterion(5, "zero-copy chaining: 0 fallback copies/crypto on the object "
              "path, exactly 2(k-1) each on fallback, latency ratio >= 10x "
              "for k in {2,4,8,16,32}")
def test_criterion_5_zero_copy_chaining(tmp_path):
    for k in (2, 4, 8, 16, 32):
        out = tmp_path / f"chain-{k}.json"
        assert cli_main(["chain", "--k", str(k), "--payload-size", "4096",
                         "--seed", "50", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["chain"]["fallback_copies"] == 0
        assert doc["chain"]["crypto_ops"] == 0
        assert doc["chain"]["payload_bytes_copied"] == k * 4096
        assert doc["fallback"]["fallback_copies"] == 2 * (k - 1)
        assert doc["fallback"]["crypto_ops"] == 2 * (k - 1)
        assert doc["fallback"]["latency_us"] >= 10 * doc["chain"]["latency_us"]
        assert doc["output_matches"]


@criterion(6, "density at n=500: Wallet exactly 176.3 MiB from live "
              "accounting vs CVM 168,000 MiB, ratio in [900, 1000], "
              "CVM capped at 509 instances/node")
def test_criterion_6_density(tmp_path):
    out = tmp_path / "density.json"
    assert cli_main(["density", "--n-functions", "500", "--zygote-mib", "147",
                     "--seed", "60", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    acc = doc["accounting"]
    assert acc["shared_bytes"] == 147 * MIB
    assert acc["exclusive_bytes"] == 500 * 60 * 1024
    assert acc["total_resident_bytes"] == 184_860_672  # 176.296875 MiB
    wallet = next(r for r in doc["table"] if r["variant"] == "Wallet")
    cvm = next(r for r in doc["table"] if r["variant"] == "CVM")
    assert wallet["total_bytes"] == 184_860_672
    assert cvm["total_mib"] == 168_000.0
    assert 900 <= cvm["ratio_vs_wallet"] <= 1000
    assert cvm["per_node_instance_cap"] == 509
    assert cvm["nodes_needed"] == 1  # 500 fits under the 509-key cap


@criterion(7, "scale-out ordering and magnitude on a 30-minute synthetic "
              "trace with the 100x32/cache-32 setup, within 60 s runtime")
def test_criterion_7_simulator_ordering_and_magnitude():
    started = time.monotonic()
    spec = GeneratorSpec(n_functions=4000, n_apps=200, duration_minutes=30,
                         arrival_rate_per_s=600, popularity_zipf_s=1.1,
                         seed=7)
    trace = generate_trace(spec)
    assert len(trace) >= 100_000
    profiles = {name: profile for name, profile in default_profiles().items()
                if name in ("Wallet", "VM", "CVM")}
    config = SimConfig(nodes=100, slots=32, cache_size=32,
                       profiles=profiles, seed=7)
    results = simulate(trace, config)
    rows = {name: stats.to_row() for name, stats in results.items()}

    for q in ("p50_delay_ms", "p99_delay_ms"):
        assert rows["Wallet"][q] < rows["VM"][q] < rows["CVM"][q]
    assert rows["Wallet"]["p50_delay_ms"] <= 50.0
    assert rows["Wallet"]["p99_slowdown"] <= 20.0
    assert rows["CVM"]["p99_slowdown"] >= 1000.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


@criterion(8, "event-driven engine equals the 1 ms time-stepping oracle on "
              "50 random traces of <= 200 invocations (1 ms tolerance)")
def test_criterion_8_oracle_equivalence():
    rng = random.Random(8001)
    for trial in range(50):
        n = rng.randint(1, 200)
        trace = sorted(
            (TraceEvent(i, rng.randrange(4), rng.randrange(10),
                        float(rng.randint(0, 2500)),
                        float(rng.randint(1, 400)))
             for i in range(n)),
            key=lambda e: (e.arrival_ms, e.invocation_id))
        profiles = {
            "Wallet": VariantProfile(
                "Wallet", BootDist(float(rng.randint(10, 1200))),
                BootDist(float(rng.randint(0, 5))),
                BootDist(float(rng.randint(1, 40))), 1, None),
            "CVM": VariantProfile(
                "CVM", BootDist(float(rng.randint(10, 2000))),
                BootDist(float(rng.randint(0, 10))),
                per_function_memory=1,
                per_node_instance_cap=rng.choice([None, 6])),
        }
        config = SimConfig(nodes=rng.randint(1, 4), slots=rng.randint(1, 3),
                           cache_size=rng.randint(1, 4), profiles=profiles,
                           seed=0)
        engine = simulate(trace, config)
        oracle = oracle_simulate(trace, config)
        for name in profiles:
            for a, b in zip(engine[name].outcomes, oracle[name].outcomes):
                assert a.invocation_id == b.invocation_id
                assert abs(a.delay_ms - b.delay_ms) <= 1.0


@criterion(9, "authenticity: every verified report's output digest is "
              "reproduced by an independent re-execution, 100 random pairs")
def test_criterion_9_authenticity_reexecution():
    rng = random.Random(9001)
    arg_ops = [OpKind.APPEND, OpKind.PREPEND, OpKind.CONST]
    pure_ops = [OpKind.IDENTITY, OpKind.SHA512, OpKind.UPPERCASE,
                OpKind.LOWERCASE]

    def random_function(i):
        steps = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.4:
                steps.append(PipelineOp(rng.choice(arg_ops),
                                        rng.randbytes(rng.randint(0, 12))))
            else:
                steps.append(PipelineOp(rng.choice(pure_ops)))
        return FunctionSpec(f"rand-{i}", steps, 0.0)

    def independent_reexecute(fn, data):
        # Deliberately separate from the runtime's interpreter.
        for op in fn.steps:
            if op.op is OpKind.IDENTITY:
                continue
            if op.op is OpKind.SHA512:
                data = hashlib.sha512(data).digest()
            elif op.op is OpKind.UPPERCASE:
                data = data.upper()
            elif op.op is OpKind.LOWERCASE:
                data = data.lower()
            elif op.op is OpKind.APPEND:
                data = data + op.arg
            elif op.op is OpKind.PREPEND:
                data = op.arg + data
            elif op.op is OpKind.CONST:
                data = op.arg
            else:
                raise AssertionError(f"unexpected op {op.op}")
        return data

    functions = [random_function(i) for i in range(100)]
    rig = make_rig(seed=9002, functions=functions)
    for fn in functions:
        trustlet = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        input_bytes = rng.randbytes(rng.randint(0, 64))
        request = rig.user.make_request(fn.digest(), input_bytes)
        result = rig.monitor.invoke_trustlet(trustlet.handle,
                                             request.ciphertext)
        assert att.verify_report(result.report, rig.expectations(request))
        expected = independent_reexecute(fn, input_bytes)
        assert result.report.chain_entries[-1].output_digest == \
            hashlib.sha512(expected).digest()


@criterion(10, "memory property suites: CoW isolation, ref-count "
               "conservation, permission monotonicity, and guest opacity, "
               "10^4 randomized iterations each")
def test_criterion_10_memory_property_suites():
    model = CostModel()

    # CoW isolation: 10^4 random trustlet writes never alter zygote frames.
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(65536, validated=True)
    rng = random.Random(10_001)
    zygote = PageTable(store, 1)
    fids = take_frames(pool, 64, PL1)
    zygote.map_runs(runs_of(fids), PagePerms.PROCESS_RW)
    for fid in fids:
        store.write_bytes(fid, 0, rng.randbytes(PAGE_SIZE))
    zygote.seal()
    snapshot = [store.read_bytes(zygote.lookup(v).frame_id)
                for v in sorted(zygote.mapped_vpns())]
    children = [zygote.fork_cow(owner) for owner in range(2, 6)]
    for _ in range(10_000):
        child = rng.choice(children)
        vpn = rng.randrange(64)
        data = rng.randbytes(16)
        outcome = child.access(PL1, vpn, AccessKind.WRITE, data)
        if isinstance(outcome, PageFault):
            assert outcome.kind is FaultKind.COW_FAULT
            child.resolve_cow(vpn, pool, model)
            assert child.access(PL1, vpn, AccessKind.WRITE, data) is None
    after = [store.read_bytes(zygote.lookup(v).frame_id)
             for v in sorted(zygote.mapped_vpns())]
    assert snapshot == after

    # Ref-count conservation after every one of 10^4 random operations.
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(131072, validated=True)
    rng = random.Random(10_002)
    zygote = PageTable(store, 1)
    zygote.map_runs(alloc_runs(pool, 16, model, owner_level=PL1)[0],
                    PagePerms.PROCESS_RW)
    zygote.seal()
    tables = [zygote]
    for step in range(10_000):
        op = rng.randrange(4)
        if op == 0 and len(tables) < 40:
            tables.append(zygote.fork_cow(100 + step))
        elif op == 1 and len(tables) > 1:
            table = rng.choice(tables[1:])
            table.map_runs(alloc_runs(pool, 1, model, owner_level=PL1)[0],
                           PagePerms.PROCESS_RW)
        elif op == 2 and len(tables) > 1:
            table = rng.choice(tables[1:])
            shared = [v for v in table.mapped_vpns()
                      if store.ref(table.lookup(v).frame_id) > 1]
            if shared:
                table.resolve_cow(rng.choice(shared), pool, model)
        elif op == 3 and len(tables) > 2:
            table = tables.pop(rng.randrange(1, len(tables)))
            table.release_all(pool)
        assert store.total_refs() == sum(t.n_entries() for t in tables)

    # Permission monotonicity: 10^4 random PL1/PL2-issued operations can
    # never grant the guest access to a PL0/PL1-owned frame.
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(65536, validated=True)
    rng = random.Random(10_003)
    process_fids = take_frames(pool, 32, PL1)
    monitor_fids = take_frames(pool, 8, PL0)
    guest_fids = take_frames(pool, 8, PL2)
    process_table = PageTable(store, 1)
    guest_table = PageTable(store, 99)
    process_table.map_runs(runs_of(process_fids), PagePerms.PROCESS_RW)
    guest_table.map_runs(runs_of(guest_fids), PagePerms.GUEST_RW)
    protected = set(process_fids) | set(monitor_fids)
    denials = 0
    for _ in range(10_000):
        table = rng.choice([process_table, guest_table])
        level = rng.choice([PL1, PL2])
        action = rng.randrange(3)
        try:
            if action == 0:
                fid = rng.choice(list(protected))
                table.map_runs([(fid, fid + 1)], PagePerms.GUEST_RW,
                               caller=level)
            elif action == 1:
                vpn = rng.randrange(8)
                table.set_perms(range(vpn, vpn + 1), PagePerms.GUEST_RW,
                                caller=level)
            else:
                table.access(level, rng.randrange(40), AccessKind.READ)
        except Exception:
            denials += 1
        for check_table in (process_table, guest_table):
            for vpn in check_table.mapped_vpns():
                entry = check_table.lookup(vpn)
                if entry.frame_id in protected:
                    assert PL2 not in entry.perms.read
                    assert PL2 not in entry.perms.write
    assert denials > 0  # the fuzz really exercised forbidden operations

    # Guest opacity: object frames are never guest-visible and sentinel
    # payloads never appear in the tap, across 10^4 random object ops.
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(65536, validated=True)
    objects = ObjectStore(pool, model, quota_objects=10_000,
                          quota_bytes=1 << 30)
    guest = GuestBroker()
    rng = random.Random(10_004)
    writer_tables = {pid: PageTable(store, pid) for pid in range(1, 5)}
    reader_tables = {pid: PageTable(store, pid) for pid in range(5, 9)}
    live = []
    sentinels = []
    from walletemu.objects import fallback_transfer
    for _ in range(10_000):
        action = rng.randrange(4)
        if action == 0:
            pid = rng.randint(1, 4)
            sentinel = rng.randbytes(24)
            sentinels.append(sentinel)
            length = rng.randint(1, 3 * PAGE_SIZE)
            obj_id, _, _ = objects.make(
                (sentinel * (length // 24 + 1))[:length],
                writer=writer_tables[pid])
            live.append(obj_id)
        elif action == 1 and live:
            obj_id = rng.choice(live)
            live.remove(obj_id)
            objects.end(obj_id)
        elif action == 2 and live:
            obj_id = rng.choice(live)
            obj = objects.get(obj_id)
            if obj.reader is None and obj.writer in writer_tables:
                pid = rng.randint(5, 8)
                objects.attach_reader(reader_tables[pid], obj_id)
        elif action == 3 and live:
            obj_id = rng.choice(live)
            obj = objects.get(obj_id)
            if obj.writer is not None and obj.length <= 2 * PAGE_SIZE:
                fallback_transfer(objects, obj_id, objects,
                                  Rng(1).bytes(32), guest, Rng(2),
                                  colocated=True)
        obj = objects.get(rng.choice(live)) if live else None
        if obj is not None:
            for table, vpns in ((writer_tables.get(obj.writer),
                                 obj.writer_vpns),
                                (reader_tables.get(obj.reader),
                                 obj.reader_vpns)):
                if table is None:
                    continue
                for vpn in vpns:
                    entry = table.lookup(vpn)
                    if entry is not None:
                        assert PL2 not in entry.perms.read
                        assert PL2 not in entry.perms.write
    # One join of the tap: a match across two blobs could only add a failure.
    tap = b"".join(guest.tap)
    for sentinel in sentinels:
        assert sentinel not in tap
