"""Model-based test: arbitrary interleavings of monitor commands.

A Hypothesis state machine drives one monitor through trustlet churn,
invocations as random users on every input source (sealed requests,
another trustlet's output shipped over the copy-and-encrypt fallback,
chained inputs), chain links, external-file reads the guest serves
honestly, tampered or not at all, and zygote deletion.  A
small model predicts each command's outcome: its output, whether it
recreates the trustlet, hands off to a chain consumer or is refused, and
for a completed chain the report's stages.  The monitor's global
invariants are checked after every step: among them, no payload reaches
the guest, no PL1-writable frame is shared, and every live object has an
owner.  At the end every frame must be back in the pool.  Simulated time
is conserved: after every step the clock has moved since boot by the
charges of the results the machine received, plus what the monitor keeps
as reported by no result yet, plus what each refused call charged.

A second machine runs the same rules on a small on-demand pool with low
object quotas, and also holds and frees pool frames, so that memory runs
out while a trustlet is created, a request is staged, an external file is
delivered or an output or chain object is created, and a producer
exceeds its object quota.  Each refusal must leave nothing running and
conserve refs and the object table; a trustlet refused memory runs again
once the held frames are back.

A third machine runs the first one's rules with copy-on-write off, so that
every fork copies the zygote and every recreation keeps that copy.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import (
    EXTERNAL_CONTENT,
    MIB,
    make_rig,
    reference_accounting,
    release_frames,
    take_frames,
)
from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.errors import (
    AlreadyAttached,
    FunctionError,
    InvocationAborted,
    NoInput,
    OutOfMemory,
    PolicyViolation,
    QuotaExceeded,
    TrustletBusy,
)
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage, manifest_entry
from walletemu.memory import (
    FREE,
    PAGE_SIZE,
    PL1,
    PL2,
    AccessKind,
    PageFault,
    accounting,
    pages_for,
)
from walletemu.monitor import ProcState
from walletemu.objects import MONITOR_PID, fallback_transfer
from walletemu.provider import UserAgent

STAGES = 3  # stage-0 -> stage-1 -> stage-2 is the policy's one chain
READER = STAGES  # function index of the external-file reader
MAX_TRUSTLETS = 8

users = st.integers(0, 2)
payloads = st.binary(max_size=32)
# The stages at which TightMonitorMachine.invoke_short_of_memory runs short.
SHORT_AT = ("staging", "recreation", "file", "output", "chain")


class MonitorMachine(RuleBasedStateMachine):
    RIG = {"prealloc": 16 * MIB}  # a pool that never runs out
    TIGHT = False  # whether refusals for memory or quota are expected

    def __init__(self):
        super().__init__()
        self.functions = [FunctionSpec(f"stage-{i}",
                                       [PipelineOp.append(b"-%d" % i)], 0.0)
                          for i in range(STAGES)]
        self.functions.append(FunctionSpec(
            "reader", [PipelineOp.read_file("/ext/blob")], 0.0))
        chain = tuple(fn.digest() for fn in self.functions[:STAGES])
        image = ZygoteImage(
            "model-rt", 0, [("/noop", b"-")],
            manifest=[manifest_entry("/ext/blob", EXTERNAL_CONTENT)])
        self.rig = make_rig(seed=7, image=image, functions=self.functions,
                            chains=(chain,), **self.RIG)
        self.m = self.rig.monitor
        # The clock at boot: the pool's validation and the monitor's own
        # measurement; the rig then made one zygote.
        self.boot_clock = self.m.boot_us + att.MeasurementCache().measure(
            att.SubjectKind.MONITOR, "monitor",
            self.m.config.canonical_bytes(), self.m.model)[1]
        self.ledgers = {id(self.rig.zygote): self.rig.zygote}
        self.refused_us = 0
        self.in_call = False
        for name in ("create_zygote", "create_trustlet", "submit_invocation",
                     "invoke_trustlet", "invoke_chained", "invoke_with_input"):
            setattr(self.m, name, self._conserving(getattr(self.m, name)))
        self.users = [self.rig.user] + [
            UserAgent(Rng(100 + i), self.rig.provider.public_key())
            for i in range(2)]
        # Every frame the pool holds before the first zygote comes back.
        self.m.delete_zygote(self.rig.zygote.handle)
        self.free_at_boot = self.m.pool.free_count
        self.zygote = self.m.create_zygote(image).handle
        self.image = image
        # The model: live trustlets (handle -> function index), the user
        # each last served, pending links, and handed-off inputs not yet
        # run (consumer -> user, request, data, the chain's payload and
        # the function indexes of its hops so far, recreated).
        self.trustlets: dict[int, int] = {}
        self.last_user: dict[int, int] = {}
        self.links: dict[int, int] = {}
        self.pending: dict[int, tuple] = {}
        # Every payload starts with a fresh sentinel; the guest's
        # observations past tap_seen are not yet scanned for them.
        self.sentinel_rng = Rng(1000)
        self.sentinels: list[bytes] = []
        self.tap_seen = 0
        self.transport_key = Rng(2000).bytes(32)
        self.held: list[int] = []  # pool frames taken away from the monitor
        # The user each object was made for: the one whose invocation
        # was being run when the monitor created it.
        self.made_for: dict[int, int] = {}
        self.serving = None
        make = self.m.objects.make

        def make_for_the_user_served(*args, **kwargs):
            made = make(*args, **kwargs)
            self.made_for[made[0]] = self.serving
            return made

        self.m.objects.make = make_for_the_user_served
        for f in range(len(self.functions)):
            self.create_trustlet(f)

    # -- helpers ------------------------------------------------------------

    def _conserving(self, call):
        """call, keeping the charges of the result it returns (a creation,
        or an invocation's ``InvokeCharges`` by way of its result or
        ticket), or, if it is refused, adding to refused_us how far it
        moved the clock less what it added to ``unreported``.  A call made
        inside another (``invoke_trustlet`` submits) counts as the outer
        one's."""
        def conserving(*args):
            if self.in_call:
                return call(*args)
            m = self.m
            clock, unreported = m.clock_us, m.unreported.total_us
            self.in_call = True
            try:
                made = call(*args)
            except Exception:
                self.refused_us += (m.clock_us - clock) - (
                    m.unreported.total_us - unreported)
                raise
            finally:
                self.in_call = False
            ledger = getattr(made, "charges", made)
            self.ledgers[id(ledger)] = ledger
            return made

        return conserving

    def _pick(self, data, which=None) -> int:
        handles = sorted(h for h, f in self.trustlets.items()
                         if which is None or f == which)
        return data.draw(st.sampled_from(handles))

    def _output(self, handle: int, data: bytes) -> bytes:
        f = self.trustlets[handle]
        return EXTERNAL_CONTENT if f == READER else data + b"-%d" % f

    def _forget(self, handle: int) -> None:
        self.trustlets.pop(handle)
        self.last_user.pop(handle, None)
        self.links.pop(handle, None)
        self.links = {p: c for p, c in self.links.items() if c != handle}
        self.pending.pop(handle, None)

    def _adjacent_pairs(self) -> list[tuple[int, int]]:
        return sorted((p, c) for p, pf in self.trustlets.items()
                      for c, cf in self.trustlets.items() if cf == pf + 1 < STAGES)

    def _link(self, producer: int, consumer: int) -> None:
        pf, cf = self.trustlets[producer], self.trustlets[consumer]
        if cf != pf + 1 or cf >= STAGES:
            with pytest.raises(PolicyViolation):
                self.m.link_chain(producer, consumer)
        elif producer in self.links:
            with pytest.raises(AlreadyAttached):
                self.m.link_chain(producer, consumer)
        else:
            self.m.link_chain(producer, consumer)
            self.links[producer] = consumer

    def _refused_at_claim(self, handle: int, u: int) -> bool:
        pending = self.pending.get(handle)
        return pending is not None and pending[0] != u

    def _hop(self, handle, u, call, data, payload, stages, request,
             recreated):
        """Run call() (trustlet handle as user u) and check the model.

        Every chain started either hands off to its consumer or raises.
        Returns the result, or None when the handoff is refused.
        """
        stages = stages + (self.trustlets[handle],)
        consumer = self.links.get(handle)
        if consumer is not None and consumer in self.pending:
            with pytest.raises(TrustletBusy):  # the link stays pending
                call()
            return None
        result = call()
        assert result.recreated == recreated
        out = self._output(handle, data)
        if consumer is not None:
            assert result.handoff == consumer
            assert result.output_ciphertext is None
            del self.links[handle]
            last = self.last_user.get(consumer)
            self.last_user[consumer] = u
            self.pending[consumer] = (u, request, out, payload, stages,
                                      last is not None and last != u)
            return result
        assert result.handoff is None
        user = self.users[u]
        assert user.decrypt_response(request, result.output_ciphertext) == out
        # Chain order: one entry per hop, in hop order, the first one over
        # the user's payload.
        entries = result.report.chain_entries
        assert [e.function_digest for e in entries] == [
            self.functions[f].digest() for f in stages]
        assert entries[0].input_digest == hashlib.sha512(payload).digest()
        assert att.verify_report(result.report,
                                 self.rig.expectations(request, user))
        return result

    def _run(self, handle, u, call, payload, request, error=None):
        """Run call() as the first hop of user u's invocation of handle on
        payload; expect error instead of a result if given."""
        if self._refused_at_claim(handle, u):
            with pytest.raises(TrustletBusy):
                call()
            return None
        last = self.last_user.get(handle)
        self.last_user[handle] = u
        self.serving = u
        try:
            if error is not None:
                with pytest.raises(error):
                    call()
                return None
            return self._hop(handle, u, call, payload, payload, (), request,
                             last is not None and last != u)
        except (OutOfMemory, QuotaExceeded) as exc:
            if not self._retry_after(exc):
                return None
            return self._run(handle, u, call, payload, request, error)

    def _invoke(self, handle, u, payload, error=None):
        """Invoke as user u on payload behind a fresh sentinel, with a
        sealed request."""
        self.sentinels.append(self.sentinel_rng.bytes(16))
        payload = self.sentinels[-1] + payload
        fn = self.functions[self.trustlets[handle]]
        request = self.users[u].make_request(fn.digest(), payload)
        return self._run(handle, u, lambda: self.m.invoke_trustlet(
            handle, request.ciphertext), payload, request, error)

    def _fallback(self, source, handle, u, payload) -> None:
        """Invoke source as user u on payload; when it completes, ship its
        output object over the copy-and-encrypt fallback, whose envelope
        the guest sees, and invoke handle on the delivered copy."""
        result = self._invoke(source, u, payload)
        if result is None or result.handoff is not None:
            return
        sent = self._output(source, self.sentinels[-1] + payload)
        _envelope, delivered, _charge = fallback_transfer(
            self.m.objects, result.output_obj_id, self.m.objects,
            self.transport_key, self.m.guest, self.m.rng, colocated=True)
        assert delivered == sent
        fn = self.functions[self.trustlets[handle]]
        request = self.users[u].make_request(fn.digest(), delivered)
        self._run(handle, u, lambda: self.m.invoke_with_input(
            handle, delivered, request.response_key, request.nonce),
            delivered, request)

    def _run_chained(self, handle) -> None:
        """A refused hop keeps its handed-off input for a retry."""
        u, request, chained, payload, stages, recreated = self.pending[handle]
        self.serving = u
        try:
            result = self._hop(handle, u,
                               lambda: self.m.invoke_chained(handle), chained,
                               payload, stages, request, recreated)
        except (OutOfMemory, QuotaExceeded) as exc:
            if self._retry_after(exc):
                self._run_chained(handle)
            return
        if result is not None:
            del self.pending[handle]

    def _retry_after(self, exc) -> bool:
        """Check a refusal for memory or quota, which leaves the trustlet
        ready and its links and handed-off inputs as they were; after
        OutOfMemory, give the held frames back and say to run it again."""
        assert self.TIGHT
        assert self.held or not isinstance(exc, OutOfMemory)
        self.nothing_running_between_commands()
        self.refs_conserved()
        self.every_live_object_has_an_owner()
        self.handed_out_frames_are_mapped_or_an_objects()
        if isinstance(exc, QuotaExceeded):
            return False
        self.free_frames()
        return True

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.trustlets) < MAX_TRUSTLETS)
    @rule(f=st.integers(0, READER))
    def create_trustlet(self, f):
        try:
            handle = self.m.create_trustlet(self.zygote,
                                            self.functions[f]).handle
        except OutOfMemory:
            assert self.held
            return
        self.trustlets[handle] = f

    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), u=users,
          mid_invocation=st.sampled_from([None, "queued", "suspended",
                                          "delivered"]))
    def delete_trustlet(self, data, u, mid_invocation):
        """Delete a trustlet, optionally mid-invocation: queued, or for a
        reader, suspended on its external read or with the file delivered
        but the run not yet resumed."""
        at_read = mid_invocation in ("suspended", "delivered") \
            and READER in self.trustlets.values()
        handle = self._pick(data, READER if at_read else None)
        ticket = None
        if mid_invocation:  # the doomed run is to get as far as its read
            self.free_frames()
        if mid_invocation and not self._refused_at_claim(handle, u):
            self.serving = u
            fn = self.functions[self.trustlets[handle]]
            ticket = self.m.submit_invocation(handle, self.users[u].make_request(
                fn.digest(), b"doomed").ciphertext)
            if at_read:
                assert self.m.schedule() == ticket.pid
                assert not ticket.finished
            if at_read and mid_invocation == "delivered":
                self.m._deliver_one_io()
                assert ticket.file_objs
        self.m.delete_trustlet(handle)
        self._forget(handle)
        if ticket is not None:
            self.m.run_pending()
            assert isinstance(ticket.error, InvocationAborted)

    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), u=users, payload=payloads)
    def invoke(self, data, u, payload):
        self._invoke(self._pick(data), u, payload)

    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), u=users, payload=payloads)
    def fallback_hop(self, data, u, payload):
        self._fallback(self._pick(data), self._pick(data), u, payload)

    @precondition(lambda self: READER in self.trustlets.values())
    @rule(data=st.data(), u=users,
          content=st.sampled_from(["honest", "tampered", "absent"]))
    def read_external_file(self, data, u, content):
        """The guest serves the reader's file as is, tampered or not at all."""
        handle = self._pick(data, READER)
        guest = self.m.guest
        if content == "tampered":
            guest.put_file("/ext/blob", b"X" + EXTERNAL_CONTENT[1:])
        elif content == "absent":
            del guest.files["/ext/blob"]
        self._invoke(handle, u, b"",
                     error=None if content == "honest" else FunctionError)
        guest.put_file("/ext/blob", EXTERNAL_CONTENT)
        if content != "honest":
            # The failed run leaves the trustlet ready for its user.
            assert self.m._proc(handle).state is ProcState.READY
            self._invoke(handle, u, b"")

    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), adjacent=st.booleans())
    def link_chain(self, data, adjacent):
        if adjacent and self._adjacent_pairs():
            producer, consumer = data.draw(st.sampled_from(self._adjacent_pairs()))
        else:
            producer, consumer = self._pick(data), self._pick(data)
        self._link(producer, consumer)

    @precondition(lambda self: self._adjacent_pairs())
    @rule(data=st.data(), u=users, payload=payloads, fallback=st.booleans(),
          follow=st.booleans())
    def start_chain(self, data, u, payload, fallback, follow):
        producer, consumer = data.draw(st.sampled_from(self._adjacent_pairs()))
        self._link(producer, consumer)
        tail = consumer
        while nexts := [c for p, c in self._adjacent_pairs() if p == tail]:
            tail, previous = data.draw(st.sampled_from(nexts)), tail
            self._link(previous, tail)
        if fallback:  # the chain's input is another trustlet's output
            self._fallback(self._pick(data), producer, u, payload)
        else:
            self._invoke(producer, u, payload)
        while follow and consumer in self.pending:
            consumer, stage = self.links.get(consumer), consumer
            self._run_chained(stage)

    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), pending=st.booleans())
    def invoke_chained(self, data, pending):
        handle = data.draw(st.sampled_from(
            sorted(self.pending if pending and self.pending else self.trustlets)))
        if handle in self.pending:
            self._run_chained(handle)
        else:
            with pytest.raises(NoInput):
                self.m.invoke_chained(handle)

    def _scratch(self, handle) -> range:
        """The vpns of a trustlet's exclusive pages, just past the
        zygote's."""
        start = self.m._proc(self.zygote).page_table.next_unused_vpn()
        image = self.functions[self.trustlets[handle]].canonical_bytes
        return range(start, start + max(
            pages_for(self.m.config.trustlet_exclusive_bytes),
            pages_for(len(image))))

    @precondition(lambda self: any(h not in self.pending
                                   for h in self.last_user))
    @rule(data=st.data(), payload=payloads, page=st.integers(0, 64))
    def dirty_scratch_then_switch_user(self, data, payload, page):
        """The trustlet's function leaves data in its scratch pages, and
        fails to leave any in the zygote's pages (or its copy of them); the
        next user's invocation recreates it, and must find them reset."""
        handle = data.draw(st.sampled_from(sorted(
            h for h in self.last_user if h not in self.pending)))
        scratch = self._scratch(handle)
        table = self.m._proc(handle).page_table
        assert table.access(PL1, scratch[page % len(scratch)],
                            AccessKind.WRITE, b"left by the last user") is None
        assert isinstance(table.access(PL1, page % scratch.start,
                                       AccessKind.WRITE, b"left"), PageFault)
        self._invoke(handle, (self.last_user[handle] + 1) % 3, payload)

    @rule()
    def recreate_zygote(self):
        self.free_frames()
        self.m.delete_zygote(self.zygote)
        for handle in list(self.trustlets):
            self._forget(handle)
        self.zygote = self.m.create_zygote(self.image).handle

    # -- invariants -------------------------------------------------------------

    @invariant()
    def trustlets_hold_only_their_users_state(self):
        """Per-user isolation: a trustlet maps no object made for another
        user's invocation than the one it last served, and no other page
        past its exclusive ones; those read as its function image followed
        by zeros."""
        objects = self.m.objects.objects.values()
        for handle, f in self.trustlets.items():
            proc = self.m._proc(handle)
            table = proc.page_table
            scratch = self._scratch(handle)
            image = self.functions[f].canonical_bytes
            size = len(scratch) * PAGE_SIZE
            assert table.read_run(PL1, scratch, size) == (
                image + bytes(size - len(image)))
            attached = [obj for obj in objects
                        if proc.pid in obj.attachments()]
            assert {self.made_for[obj.obj_id] for obj in attached} <= {
                self.last_user.get(handle)}
            mapped = {table.lookup(vpn).frame_id
                      for vpn in table.mapped_vpns() if vpn >= scratch.stop}
            assert mapped <= {fid for obj in attached for fid in obj.frames}

    @invariant()
    def every_charge_is_accounted_for(self):
        m = self.m
        assert m.clock_us - self.boot_clock == sum(
            ledger.total_us for ledger in self.ledgers.values()) \
            + m.unreported.total_us + self.refused_us

    @invariant()
    def descriptors_match_the_model(self):
        assert len(self.m.descriptors()) == len(self.trustlets) + 1

    @invariant()
    def refs_conserved(self):
        assert self.m.store.total_refs() == sum(
            t.page_table.n_entries() for t in self.m.descriptors())

    def free_frames(self):
        release_frames(self.m.pool, self.held)
        self.held = []

    @invariant()
    def nothing_running_between_commands(self):
        assert all(p.state is not ProcState.RUNNING
                   for p in self.m.descriptors())
        assert not self.m._active and not self.m._pending_io

    @invariant()
    def guest_cannot_read_process_pages(self):
        for proc in self.m.descriptors():
            for vpn in proc.page_table.mapped_vpns():
                assert isinstance(
                    proc.page_table.access(PL2, vpn, AccessKind.READ),
                    PageFault)

    @invariant()
    def accounting_matches_the_mappings(self):
        tables = self.m.live_tables()
        assert accounting(tables) == reference_accounting(tables)

    @invariant()
    def object_store_keys_live_pids_only(self):
        live = {p.pid for p in self.m.descriptors()} | {MONITOR_PID}
        assert set(self.m.objects._attached) <= live

    @invariant()
    def every_live_object_has_an_owner(self):
        # Being attached to a live process is not enough: a superseded
        # output stays attached to its writer.  A pending link owns none,
        # and no invocation is in flight between commands.
        m = self.m
        owned = {inbox[0] for inbox in m._chain_inbox.values()}
        owned |= {p.output_obj for p in m.descriptors()}
        assert set(m.objects.objects) <= owned

    @invariant()
    def no_payload_reaches_the_guest(self):
        tap = self.m.guest.tap
        for blob in tap[self.tap_seen:]:
            seen = blob if isinstance(blob, bytes) else b"".join(blob)
            assert not any(sentinel in seen for sentinel in self.sentinels)
        self.tap_seen = len(tap)

    @invariant()
    def pl1_writable_frames_are_not_shared(self):
        # Unless both tables' processes are attached to the object the
        # frame is of.
        mappers, writable = {}, []
        for proc in self.m.descriptors():
            table = proc.page_table
            for vpn in table.mapped_vpns():
                entry = table.lookup(vpn)
                mappers.setdefault(entry.frame_id, set()).add(proc.pid)
                if PL1 in entry.perms.write:
                    writable.append((entry.frame_id, proc.pid))
        objects = self.m.objects.objects.values()
        for fid, pid in writable:
            for other in mappers[fid] - {pid}:
                assert any(fid in obj.frames
                           and {pid, other} <= obj.attachments()
                           for obj in objects)

    @invariant()
    def live_writers_stay_within_their_quotas(self):
        store = self.m.objects
        counts, charged = {}, {}
        for obj in store.objects.values():
            if obj.writer not in (None, MONITOR_PID):
                counts[obj.writer] = counts.get(obj.writer, 0) + 1
                charged[obj.writer] = charged.get(obj.writer, 0) \
                    + obj.length
        assert all(n <= store.quota_objects for n in counts.values())
        assert all(n <= store.quota_bytes for n in charged.values())

    @invariant()
    def handed_out_frames_are_mapped_or_an_objects(self):
        # A handed-out frame is mapped by a live table or is a live
        # object's, and no live object's frame is free.
        store = self.m.store
        held = np.zeros(store.n_frames(), dtype=bool)
        for table in self.m.live_tables():
            held[[table.lookup(vpn).frame_id
                  for vpn in table.mapped_vpns()]] = True
        object_frames = np.array(
            [fid for obj in self.m.objects.objects.values()
             for fid in obj.frames], dtype=np.int64)
        assert not (store.owners_of(object_frames) == FREE).any()
        held[object_frames] = True
        held[self.held] = True
        owners = store.owners_of(np.arange(store.n_frames()))
        assert not ((owners != FREE) & ~held).any()

    def teardown(self):
        self.free_frames()
        self.m.delete_zygote(self.zygote)
        assert not self.m.objects.objects
        assert self.m.store.total_refs() == 0
        assert self.m.pool.free_count == self.free_at_boot


TestMonitorModel = MonitorMachine.TestCase
TestMonitorModel.settings = settings(max_examples=50, stateful_step_count=30)


class TightMonitorMachine(MonitorMachine):
    """The machine on a pool of 256 on-demand frames, where a trustlet
    may write two live objects: its newest output and one more."""

    RIG = {"prealloc": 0, "pool_frames": 256, "quota_objects": 2,
           "quota_bytes": 1024}
    TIGHT = True

    @rule(leave=st.integers(0, 16))
    def hold_frames(self, leave):
        """Take all but leave free frames away from the monitor."""
        if self.m.pool.free_count > leave:
            fids = take_frames(self.m.pool, self.m.pool.free_count - leave)
            self.held += fids

    @rule()
    def release_frames(self):
        self.free_frames()

    # Staging a request, delivering a file and creating an output take one
    # frame each; recreating a trustlet frees as many frames as it takes.
    @precondition(lambda self: self.trustlets)
    @rule(data=st.data(), payload=payloads)
    def invoke_short_of_memory(self, data, payload):
        """For each stage short_at in turn, hold all frames but those an
        invocation needs before it, then run the invocation as its
        trustlet's last user, or as another user to have the trustlet
        recreated first, or as a chain's producer."""
        for short_at in SHORT_AT:
            if short_at == "file" and READER in self.trustlets.values():
                handle = self._pick(data, READER)
            elif short_at == "chain" and self._adjacent_pairs():
                handle, consumer = data.draw(
                    st.sampled_from(self._adjacent_pairs()))
                self._link(handle, consumer)
            else:
                handle = self._pick(data)
            u = self.last_user.get(handle, 0)
            if short_at == "recreation":
                u = (u + 1) % 3
            self.hold_frames(0 if short_at in ("staging", "recreation") else 1)
            self._invoke(handle, u, payload)

    @precondition(lambda self: self._adjacent_pairs())
    @rule(data=st.data(), u=users, payload=payloads)
    def fan_out_a_producer(self, data, u, payload):
        """Hand a producer's output to each consumer it may link to, a
        second consumer created if there is room, then run it once more:
        with two chain objects still waiting at consumers, that run needs
        a third object, over the quota."""
        producer, consumer = data.draw(st.sampled_from(self._adjacent_pairs()))
        if (sum(p == producer for p, _ in self._adjacent_pairs()) < 2
                and len(self.trustlets) < MAX_TRUSTLETS):
            self.create_trustlet(self.trustlets[consumer])
        for p, consumer in self._adjacent_pairs():
            if p == producer:
                self._link(producer, consumer)
                self._invoke(producer, u, payload)
        self._invoke(producer, u, payload)


def test_tight_machine_reaches_the_quota_refusal():
    """The quota refusal reached on purpose, not by the machine's draws: a
    producer hands its output to two consumers, whose chain objects wait
    unrun, so its next run needs a third live object and is refused with
    QuotaExceeded, leaving every invariant and the teardown intact."""
    machine = TightMonitorMachine()
    refused = []
    check_quota = machine.m.objects._check_quota

    def counting(*args, **kwargs):
        try:
            check_quota(*args, **kwargs)
        except QuotaExceeded:
            refused.append(args[0])
            raise

    machine.m.objects._check_quota = counting
    by_function = {f: h for h, f in machine.trustlets.items()}
    producer, first = by_function[0], by_function[1]
    machine.create_trustlet(1)
    second = max(machine.trustlets)
    for consumer, payload in ((first, b"a"), (second, b"b")):
        machine._link(producer, consumer)
        assert machine._invoke(producer, 0, payload).handoff == consumer
    assert refused == []
    assert machine._invoke(producer, 0, b"c") is None
    assert refused == [machine.m._proc(producer).pid]
    assert set(machine.pending) == {first, second}
    machine.live_writers_stay_within_their_quotas()
    machine.handed_out_frames_are_mapped_or_an_objects()
    for consumer in (first, second):
        machine._run_chained(consumer)
    assert machine._invoke(producer, 0, b"d").handoff is None
    machine.teardown()


TestTightMonitorModel = TightMonitorMachine.TestCase
TestTightMonitorModel.settings = settings(max_examples=25,
                                          stateful_step_count=30)


class FullCopyMonitorMachine(MonitorMachine):
    """The first machine with copy-on-write off: each fork copies the
    zygote, read-only to PL1, and each recreation keeps the copy."""

    RIG = {**MonitorMachine.RIG, "cow": False}


TestFullCopyMonitorModel = FullCopyMonitorMachine.TestCase
TestFullCopyMonitorModel.settings = settings(max_examples=30,
                                             stateful_step_count=30)
