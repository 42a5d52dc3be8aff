"""Function-chaining tests: zero-copy handoff, policy, cycles, fallback."""

import pytest

from conftest import make_rig, release_frames, take_frames
from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.errors import (
    AlreadyAttached,
    NotCoLocated,
    OutOfMemory,
    PolicyViolation,
    QuotaExceeded,
    TrustletBusy,
)
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.memory import PAGE_SIZE, pages_for
from walletemu.monitor import ProcState
from walletemu.objects import fallback_transfer
from walletemu.provider import UserAgent


def relay_rig(k: int, seed: int = 0, **config):
    """A provisioned rig whose policy chains k relay functions; no trustlets."""
    functions = [FunctionSpec(f"stage-{i}", [PipelineOp.append(b"+")], 0.0)
                 for i in range(k)]
    chain = tuple(fn.digest() for fn in functions)
    image = ZygoteImage("chain-rt", 0, [("/noop", b"-")])
    rig = make_rig(seed=seed, image=image, functions=functions,
                   chains=(chain,), **config)
    return rig, functions


def relay_chain_rig(k: int, seed: int = 0, **config):
    rig, functions = relay_rig(k, seed, **config)
    handles = [rig.monitor.create_trustlet(rig.zygote.handle, fn).handle
               for fn in functions]
    return rig, functions, handles


def other_user(rig, seed: int = 77) -> UserAgent:
    return UserAgent(Rng(seed), rig.provider.public_key())


def run_chain(m, functions, handles, user, payload):
    """Link every stage, invoke the head as user, follow the handoffs."""
    for producer, consumer in zip(handles, handles[1:]):
        m.link_chain(producer, consumer)
    request = user.make_request(functions[0].digest(), payload)
    results = [m.invoke_trustlet(handles[0], request.ciphertext)]
    while results[-1].handoff is not None:
        results.append(m.invoke_chained(results[-1].handoff))
    return request, results


def assert_refs_conserved(m):
    live = [p for p in m.descriptors() if p.state is not ProcState.TERMINATED]
    assert m.store.total_refs() == sum(p.page_table.n_entries() for p in live)


class TestLinkChain:
    def test_two_stage_chain_is_zero_copy(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        request = rig.user.make_request(functions[0].digest(), b"data")
        base = m.objects.counter.snapshot()
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        assert result.handoff == handles[1]
        final = m.invoke_chained(result.handoff)
        counters = m.objects.counter.snapshot()
        # Producers' own writes only: |p0 out| + |p1 out|.
        assert counters["payload_bytes_copied"] - base["payload_bytes_copied"] \
            == len(b"data+") + len(b"data++")
        assert counters["crypto_ops"] == base["crypto_ops"]
        assert counters["fallback_copies"] == base["fallback_copies"]
        out = rig.user.decrypt_response(request, final.output_ciphertext)
        assert out == b"data++"

    def test_chain_not_in_policy_rejected(self):
        rig, functions, handles = relay_chain_rig(2)
        # Reverse direction is not an adjacent pair in the policy chain.
        with pytest.raises(PolicyViolation):
            rig.monitor.link_chain(handles[1], handles[0])

    def test_chain_report_covers_all_links(self):
        rig, functions, handles = relay_chain_rig(3)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        m.link_chain(handles[1], handles[2])
        request = rig.user.make_request(functions[0].digest(), b"x")
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        while result.handoff is not None:
            result = m.invoke_chained(result.handoff)
        assert len(result.report.chain_entries) == 3
        expectations = rig.expectations(request)
        assert att.verify_report(result.report, expectations)

    def test_cycle_rejected_at_link_time(self):
        functions = [FunctionSpec(f"s{i}", [PipelineOp.identity()], 0.0)
                     for i in range(3)]
        digests = [fn.digest() for fn in functions]
        # Policy permits the cycle's edges; the monitor still refuses it.
        chains = ((digests[0], digests[1], digests[2], digests[0]),)
        image = ZygoteImage("cyc-rt", 0, [("/noop", b"-")])
        rig = make_rig(image=image, functions=functions, chains=chains)
        handles = [rig.monitor.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        rig.monitor.link_chain(handles[0], handles[1])
        rig.monitor.link_chain(handles[1], handles[2])
        with pytest.raises(PolicyViolation, match="circular"):
            rig.monitor.link_chain(handles[2], handles[0])

    def test_producer_single_pending_link(self):
        functions = [FunctionSpec(f"s{i}", [PipelineOp.identity()], 0.0)
                     for i in range(3)]
        d = [fn.digest() for fn in functions]
        image = ZygoteImage("fanout-rt", 0, [("/noop", b"-")])
        rig = make_rig(image=image, functions=functions,
                       chains=((d[0], d[1]), (d[0], d[2])))
        handles = [rig.monitor.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        rig.monitor.link_chain(handles[0], handles[1])
        with pytest.raises(AlreadyAttached):
            rig.monitor.link_chain(handles[0], handles[2])

    def test_non_trustlet_ends_not_co_located(self):
        rig, functions, handles = relay_chain_rig(2)
        with pytest.raises(NotCoLocated):
            rig.monitor.link_chain(rig.zygote.handle, handles[0])

    def test_linking_allocates_nothing(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        free, objects = m.pool.free_count, dict(m.objects.objects)
        entries = m._proc(handles[0]).page_table.n_entries()
        assert m.link_chain(handles[0], handles[1]) is None
        assert m.pool.free_count == free
        assert m.objects.objects == objects
        assert m._proc(handles[0]).page_table.n_entries() == entries

    @pytest.mark.parametrize("size", [64, 100_000])
    def test_chain_object_is_sized_by_the_output(self, size):
        from walletemu.objects import ObjectType
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        request = rig.user.make_request(functions[0].digest(), b"s" * size)
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        obj = m.objects.get(result.output_obj_id)
        assert obj.otype is ObjectType.CHAIN
        assert len(obj.frames) == pages_for(size + 1)  # the relay appends "+"

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_counters_scale_linearly_in_k(self, k):
        from walletemu.objects import ObjectType
        rig, functions, handles = relay_chain_rig(k)
        m = rig.monitor
        for producer, consumer in zip(handles, handles[1:]):
            m.link_chain(producer, consumer)
        # Linking allocates nothing: each hop creates its chain object.
        assert not any(o.otype is ObjectType.CHAIN
                       for o in m.objects.objects.values())
        payload = b"p" * 64
        request = rig.user.make_request(functions[0].digest(), payload)
        base = m.objects.counter.snapshot()
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        while result.handoff is not None:
            result = m.invoke_chained(result.handoff)
        counters = m.objects.counter.snapshot()
        expected = sum(len(payload) + i + 1 for i in range(k))
        assert counters["payload_bytes_copied"] - base["payload_bytes_copied"] \
            == expected
        assert counters["crypto_ops"] - base["crypto_ops"] == 0
        assert counters["fallback_copies"] - base["fallback_copies"] == 0


class TestChainSecrecy:
    def test_chain_plaintext_never_reaches_the_guest(self):
        import random
        rng = random.Random(424242)
        rig, functions, handles = relay_chain_rig(3, seed=99)
        m = rig.monitor
        for producer, consumer in zip(handles, handles[1:]):
            m.link_chain(producer, consumer)
        sentinel = rng.randbytes(32)
        request = rig.user.make_request(functions[0].digest(), sentinel)
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        while result.handoff is not None:
            result = m.invoke_chained(result.handoff)
        final = rig.user.decrypt_response(request, result.output_ciphertext)
        # Neither the sentinel nor any intermediate hop value leaks.
        hop = sentinel
        for _ in range(3):
            assert not m.guest.tap_contains(hop)
            hop = hop + b"+"
        assert final == sentinel + b"+++"


class TestChainLifecycle:
    def test_repeated_chain_runs_do_not_exhaust_quotas(self):
        # A byte quota of a few small objects: a per-run drift shows early.
        rig, functions, handles = relay_chain_rig(
            2, quota_bytes=4 * PAGE_SIZE)
        m = rig.monitor
        for round_no in range(3 * m.objects.quota_objects):
            m.link_chain(handles[0], handles[1])
            request = rig.user.make_request(functions[0].digest(),
                                            b"round %d" % round_no)
            result = m.invoke_trustlet(handles[0], request.ciphertext)
            result = m.invoke_chained(result.handoff)
            assert result.report is not None
        # Consumed chain objects are retired when their reader exits.
        assert len(m.objects.objects) <= 2

    def test_chain_object_growth_is_charged(self):
        # An unvalidated pool: every fresh frame costs a validation charge.
        rig, functions, handles = relay_chain_rig(
            2, prealloc=0, pool_frames=4096)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        payload = b"g" * (2 * PAGE_SIZE)
        request = rig.user.make_request(functions[0].digest(), payload)
        clock_before = m.clock_us
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        # The 3-page output's chain object is made of 3 fresh frames.
        assert result.charges.output_us == (
            m.model.validation_us(3) + m.model.transfer_us(len(payload) + 1))
        assert m.clock_us - clock_before == result.charges.total_us
        final = m.invoke_chained(result.handoff)
        assert rig.user.decrypt_response(request, final.output_ciphertext) \
            == payload + b"++"

    def test_refused_mid_chain_hop_keeps_its_input(self):
        rig, functions = relay_rig(3)
        m = rig.monitor
        free_after_zygote = m.pool.free_count
        a, b, c = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        first = rig.user.make_request(functions[0].digest(), b"first")
        m.link_chain(a, b)
        m.link_chain(b, c)
        m.invoke_trustlet(a, first.ciphertext)
        assert m.invoke_chained(b).handoff == c  # c holds an unrun input
        second = rig.user.make_request(functions[0].digest(), b"second")
        m.link_chain(a, b)
        m.link_chain(b, c)
        m.invoke_trustlet(a, second.ciphertext)
        with pytest.raises(TrustletBusy):
            m.invoke_chained(b)
        final = m.invoke_chained(c)
        assert rig.user.decrypt_response(first, final.output_ciphertext) \
            == b"first+++"
        # The refused hop kept its handed-off input: a retry hands off.
        assert m.invoke_chained(b).handoff == c
        final = m.invoke_chained(c)
        assert len(final.report.chain_entries) == 3
        assert att.verify_report(final.report, rig.expectations(second))
        assert rig.user.decrypt_response(second, final.output_ciphertext) \
            == b"second+++"
        assert_refs_conserved(m)
        for handle in (a, b, c):
            m.delete_trustlet(handle)
        assert not m.objects.objects
        assert m.pool.free_count == free_after_zygote

    @pytest.mark.parametrize("end", ["recreate", "delete"])
    def test_producer_gone_while_linked_leaks_no_frame(self, end):
        rig, functions = relay_rig(2)
        m = rig.monitor
        free_after_zygote = m.pool.free_count
        producer, consumer = [m.create_trustlet(rig.zygote.handle, fn).handle
                              for fn in functions]
        first = rig.user.make_request(functions[0].digest(), b"first")
        m.invoke_trustlet(producer, first.ciphertext)
        m.link_chain(producer, consumer)
        if end == "recreate":
            # Another user's request recreates the producer, link pending.
            user = other_user(rig)
            request = user.make_request(functions[0].digest(), b"other")
            result = m.invoke_trustlet(producer, request.ciphertext)
            assert result.recreated and result.handoff == consumer
            final = m.invoke_chained(consumer)
            assert user.decrypt_response(request, final.output_ciphertext) \
                == b"other++"
        else:
            m.delete_trustlet(producer)
            assert not m._chain_edges
        assert_refs_conserved(m)
        for handle in (producer, consumer)[end == "delete":]:
            m.delete_trustlet(handle)
        assert_refs_conserved(m)
        assert not m.objects.objects
        assert m.pool.free_count == free_after_zygote

    def test_failed_chain_growth_keeps_the_link_and_the_consumer(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        producer, consumer = handles
        # The consumer last served another user, so a handoff recreates it.
        warm = other_user(rig).make_request(functions[0].digest(), b"warm")
        m.invoke_with_input(consumer, b"warm+", warm.response_key, warm.nonce)
        consumer_pid = m._handles[consumer]
        m.link_chain(producer, consumer)
        payload = b"g" * (2 * PAGE_SIZE)
        # Frames for the input object, none for the 3-page chain object.
        drained = take_frames(m.pool,
                              m.pool.free_count - pages_for(len(payload)))
        request = rig.user.make_request(functions[0].digest(), payload)
        with pytest.raises(OutOfMemory):
            m.invoke_trustlet(producer, request.ciphertext)
        assert m._proc(producer).state is ProcState.READY
        assert producer in m._chain_edges  # the link is still pending
        assert m._handles[consumer] == consumer_pid  # not recreated
        release_frames(m.pool, drained)
        request = rig.user.make_request(functions[0].digest(), payload)
        result = m.invoke_trustlet(producer, request.ciphertext)
        final = m.invoke_chained(result.handoff)
        assert final.recreated
        assert rig.user.decrypt_response(request, final.output_ciphertext) \
            == payload + b"++"
        assert_refs_conserved(m)

    def test_chain_growth_past_the_byte_quota_is_refused(self):
        rig, functions, handles = relay_chain_rig(
            2, quota_bytes=4 * PAGE_SIZE)
        m = rig.monitor
        producer, consumer = handles
        # The consumer last served another user, so a handoff recreates it.
        warm = other_user(rig).make_request(functions[0].digest(), b"warm")
        m.invoke_with_input(consumer, b"warm+", warm.response_key, warm.nonce)
        consumer_pid = m._handles[consumer]
        m.link_chain(producer, consumer)
        # A 9-page output's chain object would exceed the 4-page quota.
        request = rig.user.make_request(functions[0].digest(),
                                        b"g" * (8 * PAGE_SIZE))
        with pytest.raises(QuotaExceeded):
            m.invoke_trustlet(producer, request.ciphertext)
        assert m._proc(producer).state is ProcState.READY
        assert producer in m._chain_edges  # the link is still pending
        assert m._handles[consumer] == consumer_pid  # not recreated
        assert consumer not in m._chain_inbox
        producer_pid = m._handles[producer]
        charged = sum(obj.length for obj in m.objects.objects.values()
                      if obj.writer == producer_pid)
        assert charged == 0  # a pending link holds no object
        request = rig.user.make_request(functions[0].digest(), b"fits")
        result = m.invoke_trustlet(producer, request.ciphertext)
        final = m.invoke_chained(result.handoff)
        assert final.recreated
        assert rig.user.decrypt_response(request, final.output_ciphertext) \
            == b"fits++"
        assert_refs_conserved(m)


class TestFallbackPath:
    def test_fallback_hop_costs_two_copies_two_crypto(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        request = rig.user.make_request(functions[0].digest(), b"payload")
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        assert result.handoff is None  # no link: normal completion
        base = m.objects.counter.snapshot()
        _, delivered, _ = fallback_transfer(
            m.objects, result.output_obj_id, m.objects, Rng(5).bytes(32),
            m.guest, m.rng, colocated=True)
        counters = m.objects.counter.snapshot()
        assert counters["crypto_ops"] - base["crypto_ops"] == 2
        assert counters["fallback_copies"] - base["fallback_copies"] == 2
        assert delivered == b"payload+"
        final = m.invoke_with_input(handles[1], delivered,
                                    request.response_key, request.nonce)
        out = rig.user.decrypt_response(request, final.output_ciphertext)
        assert out == b"payload++"

    def test_fallback_hops_of_two_users_recreate_the_trustlet(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        other = other_user(rig)
        results = []
        for user in (rig.user, other):
            request = user.make_request(functions[0].digest(), b"data")
            results.append(m.invoke_with_input(
                handles[1], b"data+", request.response_key, request.nonce))
        assert [r.recreated for r in results] == [False, True]
        assert results[1].descriptor_id != results[0].descriptor_id
        assert other.decrypt_response(request, results[1].output_ciphertext) \
            == b"data++"

    def test_fallback_hop_refused_while_another_users_input_is_pending(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        request = rig.user.make_request(functions[0].digest(), b"data")
        pending = m.invoke_trustlet(handles[0], request.ciphertext)
        intruder = other_user(rig).make_request(functions[0].digest(), b"x")
        with pytest.raises(TrustletBusy):
            m.invoke_with_input(handles[1], b"x+", intruder.response_key,
                                intruder.nonce)
        final = m.invoke_chained(pending.handoff)
        assert not final.recreated
        assert rig.user.decrypt_response(request, final.output_ciphertext) \
            == b"data++"


class TestChainAcrossUsers:
    """Per-user recreation keeps pending chain links on the new descriptor."""

    def test_recreated_producer_still_hands_off(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        warm = rig.user.make_request(functions[0].digest(), b"warm")
        m.invoke_trustlet(handles[0], warm.ciphertext)
        m.link_chain(handles[0], handles[1])
        other = other_user(rig)
        request = other.make_request(functions[0].digest(), b"data")
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        assert result.recreated
        assert result.handoff == handles[1]
        final = m.invoke_chained(result.handoff)
        assert len(final.report.chain_entries) == 2
        assert att.verify_report(final.report,
                                 rig.expectations(request, other))
        assert other.decrypt_response(request, final.output_ciphertext) \
            == b"data++"

    @pytest.mark.parametrize("k", [2, 3])
    def test_cross_user_chain_runs_free_every_frame_once(self, k):
        rig, functions = relay_rig(k)
        m = rig.monitor
        free_after_zygote = m.pool.free_count
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        other = other_user(rig)
        for user in (rig.user, other, rig.user, other):
            run_chain(m, functions, handles, user, b"payload")
            assert_refs_conserved(m)
        for handle in handles:
            m.delete_trustlet(handle)
        assert_refs_conserved(m)
        assert not m.objects.objects
        assert m.pool.free_count == free_after_zygote

    def test_consumer_recreated_while_link_pending_receives_handoff(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        other = other_user(rig)
        m.link_chain(handles[0], handles[1])
        for user in (rig.user, other):  # the second call recreates stage-1
            plain = user.make_request(functions[1].digest(), b"plain")
            consumer_result = m.invoke_trustlet(handles[1], plain.ciphertext)
        assert consumer_result.recreated
        request = other.make_request(functions[0].digest(), b"data")
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        assert result.handoff == handles[1]
        final = m.invoke_chained(result.handoff)
        assert not final.recreated  # stage-1 already serves this user
        assert other.decrypt_response(request, final.output_ciphertext) \
            == b"data++"
        assert att.verify_report(final.report,
                                 rig.expectations(request, other))

    def test_consumer_hop_recreated_for_a_new_user(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        plain = rig.user.make_request(functions[1].digest(), b"plain")
        old_pid = m.invoke_trustlet(handles[1], plain.ciphertext).descriptor_id
        other = other_user(rig)
        request, results = run_chain(m, functions, handles, other, b"data")
        assert [r.recreated for r in results] == [False, True]
        assert results[1].descriptor_id != old_pid
        assert other.decrypt_response(request, results[1].output_ciphertext) \
            == b"data++"

    def test_pending_chained_input_refuses_another_user(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        m.link_chain(handles[0], handles[1])
        request = rig.user.make_request(functions[0].digest(), b"data")
        result = m.invoke_trustlet(handles[0], request.ciphertext)
        intruder = other_user(rig).make_request(functions[1].digest(), b"x")
        with pytest.raises(TrustletBusy):
            m.invoke_trustlet(handles[1], intruder.ciphertext)
        final = m.invoke_chained(result.handoff)
        assert rig.user.decrypt_response(request, final.output_ciphertext) \
            == b"data++"

    def test_handoff_to_consumer_holding_another_users_input_is_refused(self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        other = other_user(rig)
        m.link_chain(handles[0], handles[1])
        first = rig.user.make_request(functions[0].digest(), b"first")
        pending = m.invoke_trustlet(handles[0], first.ciphertext)
        m.link_chain(handles[0], handles[1])
        second = other.make_request(functions[0].digest(), b"second")
        with pytest.raises(TrustletBusy):
            m.invoke_trustlet(handles[0], second.ciphertext)
        final = m.invoke_chained(pending.handoff)
        assert rig.user.decrypt_response(first, final.output_ciphertext) \
            == b"first++"
        # The refused link stayed pending; a retry now hands off.
        retry = other.make_request(functions[0].digest(), b"second")
        result = m.invoke_trustlet(handles[0], retry.ciphertext)
        final = m.invoke_chained(result.handoff)
        assert final.recreated
        assert other.decrypt_response(retry, final.output_ciphertext) \
            == b"second++"
        assert_refs_conserved(m)

    def test_second_handoff_to_consumer_holding_one_is_refused(self):
        # One user, two handoffs before the consumer runs: the second must
        # not overwrite the first.
        rig, functions = relay_rig(2)
        m = rig.monitor
        free_after_zygote = m.pool.free_count
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        m.link_chain(handles[0], handles[1])
        first = rig.user.make_request(functions[0].digest(), b"first")
        pending = m.invoke_trustlet(handles[0], first.ciphertext)
        m.link_chain(handles[0], handles[1])
        second = rig.user.make_request(functions[0].digest(), b"second")
        with pytest.raises(TrustletBusy):
            m.invoke_trustlet(handles[0], second.ciphertext)
        final = m.invoke_chained(pending.handoff)
        assert rig.user.decrypt_response(first, final.output_ciphertext) \
            == b"first++"
        # The refused link stayed pending; a retry now hands off.
        retry = rig.user.make_request(functions[0].digest(), b"second")
        result = m.invoke_trustlet(handles[0], retry.ciphertext)
        final = m.invoke_chained(result.handoff)
        assert not final.recreated
        assert rig.user.decrypt_response(retry, final.output_ciphertext) \
            == b"second++"
        assert_refs_conserved(m)
        for handle in handles:
            m.delete_trustlet(handle)
        assert not m.objects.objects
        assert m.pool.free_count == free_after_zygote

    def test_handoff_to_consumer_mid_invocation_for_another_user_is_refused(
            self):
        rig, functions, handles = relay_chain_rig(2)
        m = rig.monitor
        other = other_user(rig)
        m.link_chain(handles[0], handles[1])
        chained = other.make_request(functions[0].digest(), b"data")
        plain = rig.user.make_request(functions[1].digest(), b"plain")
        producer_ticket = m.submit_invocation(handles[0], chained.ciphertext)
        consumer_ticket = m.submit_invocation(handles[1], plain.ciphertext)
        m.run_pending()  # the producer finishes while stage-1 is queued
        assert isinstance(producer_ticket.error, TrustletBusy)
        assert rig.user.decrypt_response(
            plain, consumer_ticket.result.output_ciphertext) == b"plain+"
        retry = other.make_request(functions[0].digest(), b"data")
        result = m.invoke_trustlet(handles[0], retry.ciphertext)
        assert result.handoff == handles[1]
        final = m.invoke_chained(result.handoff)
        assert final.recreated
        assert other.decrypt_response(retry, final.output_ciphertext) \
            == b"data++"

    @pytest.mark.parametrize("first", [0, 1], ids=["producer", "consumer"])
    def test_deleting_linked_trustlets_frees_every_frame_once(self, first):
        rig, functions = relay_rig(2)
        m = rig.monitor
        free_after_zygote = m.pool.free_count
        handles = [m.create_trustlet(rig.zygote.handle, fn).handle
                   for fn in functions]
        m.link_chain(handles[0], handles[1])
        m.delete_trustlet(handles[first])  # the pending link dies with it
        m.delete_trustlet(handles[1 - first])
        assert not m.objects.objects
        assert_refs_conserved(m)
        assert m.pool.free_count == free_after_zygote
