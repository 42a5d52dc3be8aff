"""The trusted monitor: process lifecycle, system calls, policy enforcement
and run-to-completion scheduling.

All state mutation flows through this object's methods (the serialized
command queue of the design); execution is deterministic given identical
call order.  Simulated time is an integer microsecond accumulator,
``clock_us``, charged through the cost model.  After boot only
``Monitor._charge(ledger, phase, us)`` moves it, by us, which it also adds
to one phase of the ledger that reports it:

- ``ZygoteCreation``: measurement, allocation, population, runtime init;
- ``TrustletCreation``: measurement, descriptor clone, page load (zygote
  copy under ``cow_enabled=False``, allocation, set-up, image load);
- a ticket's ``InvokeCharges``: decryption, input staging and file writes,
  execution, output, report, response;
- ``Monitor.unreported``, reported by no result yet: per-user recreation's
  clone and page load, and delivered file objects' allocation.

A failed invocation's charges stay in a ticket no result carries.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Generator, Optional

from . import attestation as att
from . import wire
from .crypto import (
    DhKey,
    FunctionKey,
    Rng,
    seal,
    symmetric_decrypt,
    symmetric_encrypt,
)
from .errors import (
    AlreadyAttached,
    ConfigInvalid,
    DecryptFailed,
    FunctionError,
    InvocationAborted,
    NoInput,
    NoSession,
    NotCoLocated,
    OutOfMemory,
    ParseError,
    PolicyViolation,
    QuotaExceeded,
    StaleNonce,
    TrustletBusy,
    UnknownHandle,
)
from .guest import GuestBroker
from .images import FunctionSpec, ZygoteImage
from .memory import (
    CostModel,
    FrameStore,
    MemoryPool,
    PagePerms,
    PageTable,
    PrivilegeLevel,
    Run,
    alloc_runs,
    n_frames_of,
    pages_for,
    preallocate,
    runs_of,
)
from .objects import ObjectStore, ObjectType
from .pipeline import NestedFs, run_pipeline

RESPONSE_KEY_LEN = 32


def _user_of(response_key: bytes) -> bytes:
    """The user identity recreation keys off: a digest of the response key."""
    return hashlib.sha512(response_key).digest()[:16]


class ProcKind(str, Enum):
    ZYGOTE = "zygote"
    TRUSTLET = "trustlet"


class ProcState(str, Enum):
    CREATED = "created"
    INITIALIZED = "initialized"
    READY = "ready"
    RUNNING = "running"
    TERMINATED = "terminated"


# created -> initialized -> ready -> running -> (ready | terminated);
# ready -> terminated is additionally needed for cascade deletion.  A
# trustlet's descriptor starts ready: it has no runtime init of its own.
_TRANSITIONS = {
    ProcState.CREATED: {ProcState.INITIALIZED},
    ProcState.INITIALIZED: {ProcState.READY},
    ProcState.READY: {ProcState.RUNNING, ProcState.TERMINATED},
    ProcState.RUNNING: {ProcState.READY, ProcState.TERMINATED},
    ProcState.TERMINATED: set(),
}


@dataclass
class ProcessDescriptor:
    """Per-process execution state held in monitor-private memory."""

    pid: int
    kind: ProcKind
    page_table: PageTable
    state: ProcState = ProcState.CREATED
    base_zygote: Optional[int] = None
    output_obj: Optional[int] = None  # the newest output; the next ends it
    measurement: Optional[bytes] = None
    image: Optional[ZygoteImage] = None
    fn: Optional[FunctionSpec] = None
    fs: Optional[NestedFs] = None
    last_user: Optional[bytes] = None
    # A trustlet's exclusive frames: its function image, then zeros.
    exclusive: list[Run] = field(default_factory=list)

    def transition(self, new_state: ProcState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise ConfigInvalid(
                f"illegal state transition {self.state.value} -> "
                f"{new_state.value} for process {self.pid}")
        self.state = new_state


@dataclass
class ProviderPolicy:
    """Function-provider policy installed over the secure session."""

    allowed_zygotes: frozenset
    allowed_functions: frozenset
    function_key: FunctionKey
    chains: tuple = ()

    def __post_init__(self) -> None:
        if not self.allowed_zygotes:
            raise PolicyViolation("policy must allow at least one zygote")
        allowed = set(self.allowed_functions)
        for chain in self.chains:
            for digest in chain:
                if digest not in allowed:
                    raise PolicyViolation(
                        "chain references a function outside the policy")

    def chain_adjacent(self, producer_digest: bytes,
                       consumer_digest: bytes) -> bool:
        for chain in self.chains:
            for a, b in zip(chain, chain[1:]):
                if a == producer_digest and b == consumer_digest:
                    return True
        return False

    def to_bytes(self) -> bytes:
        parts = [self.function_key.private_bytes()]
        for digests in (sorted(self.allowed_zygotes),
                        sorted(self.allowed_functions)):
            parts += (wire.u32(len(digests)), *digests)
        parts.append(wire.u32(len(self.chains)))
        for chain in self.chains:
            parts += (wire.u32(len(chain)), *chain)
        return b"".join(parts)

    @staticmethod
    def from_bytes(data: bytes) -> "ProviderPolicy":
        r = wire.Reader(data)
        key = FunctionKey.from_bytes(r.take(64))

        def digests() -> list[bytes]:
            return [r.take(att.DIGEST_LEN)
                    for _ in range(r.count(att.DIGEST_LEN))]

        zygotes, functions = frozenset(digests()), frozenset(digests())
        chains = tuple(tuple(digests()) for _ in range(r.count(4)))
        r.finish("policy")
        return ProviderPolicy(zygotes, functions, key, chains)


@dataclass
class InvocationRequest:
    """Plaintext of a user request; on the wire it is a sealed box."""

    function_digest: bytes
    input_bytes: bytes
    response_key: bytes
    nonce: bytes

    def to_bytes(self) -> bytes:
        return b"".join((self.function_digest, self.nonce, self.response_key,
                         *wire.lp(self.input_bytes)))

    @staticmethod
    def from_bytes(data: bytes) -> "InvocationRequest":
        """Parse a decrypted request; a malformed one is DecryptFailed."""
        r = wire.Reader(data)
        try:  # keywords in wire order: digest, nonce, key, payload
            request = InvocationRequest(
                function_digest=r.take(att.DIGEST_LEN),
                nonce=r.take(att.NONCE_LEN),
                response_key=r.take(RESPONSE_KEY_LEN), input_bytes=r.lp())
            r.finish("request")
        except ParseError as exc:
            raise DecryptFailed(f"malformed request plaintext: {exc}") from exc
        return request

    @staticmethod
    def encrypt(function_public, function_digest: bytes, input_bytes: bytes,
                response_key: bytes, nonce: bytes, rng: Rng) -> bytes:
        req = InvocationRequest(function_digest, input_bytes, response_key, nonce)
        return seal(function_public.box_public, req.to_bytes(), rng)


@dataclass
class MonitorConfig:
    """Boot-time configuration; its canonical JSON is what gets measured."""

    pool_frames: int = 262144  # 1 GiB of on-demand-validated frames
    prealloc_bytes: int = 0
    cost_model: CostModel = field(default_factory=CostModel)
    cow_enabled: bool = True
    descriptor_clone_us: int = 50
    trustlet_exclusive_bytes: int = 60 * 1024
    quota_objects: int = 64
    quota_bytes: int = 256 * 1048576
    seed: int = 0

    def canonical_bytes(self) -> bytes:
        doc = {
            "pool_frames": self.pool_frames,
            "prealloc_bytes": self.prealloc_bytes,
            "cost_model": asdict(self.cost_model),
            "cow_enabled": self.cow_enabled,
            "descriptor_clone_us": self.descriptor_clone_us,
            "trustlet_exclusive_bytes": self.trustlet_exclusive_bytes,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def validate(self) -> None:
        if self.pool_frames < 0 or self.prealloc_bytes < 0:
            raise ConfigInvalid("pool sizes must be non-negative")
        if self.descriptor_clone_us < 0:
            raise ConfigInvalid("descriptor_clone_us must be non-negative")
        if self.trustlet_exclusive_bytes < 0:
            raise ConfigInvalid("trustlet_exclusive_bytes must be non-negative")
        if self.quota_objects < 0 or self.quota_bytes < 0:
            raise ConfigInvalid("object quotas must be non-negative")


class _Ledger:
    """What ``Monitor._charge`` charges: one ``*_us`` field per phase."""

    @property
    def total_us(self) -> int:
        return sum(us for name, us in vars(self).items()
                   if name.endswith("_us"))


@dataclass
class ZygoteCreation(_Ledger):
    handle: int = 0
    measure_us: int = 0
    alloc_us: int = 0
    populate_us: int = 0
    init_us: int = 0


@dataclass
class TrustletCreation(_Ledger):
    handle: int = 0
    clone_us: int = 0
    page_load_us: int = 0
    measure_us: int = 0  # function measurement; cached separately from creation

    @property
    def creation_us(self) -> int:
        """Descriptor clone + function-page load (measurement excluded)."""
        return self.clone_us + self.page_load_us


@dataclass
class InvokeCharges(_Ledger):
    decrypt_us: int = 0
    input_us: int = 0
    exec_us: int = 0
    output_us: int = 0
    report_us: int = 0
    response_us: int = 0

    @property
    def setup_us(self) -> int:
        """Invocation overhead excluding function execution time."""
        return self.total_us - self.exec_us


@dataclass
class Unreported(_Ledger):
    """Charges no result reports yet: per-user recreation's, in a fork's
    phases, and delivered file objects' allocation."""

    clone_us: int = 0
    page_load_us: int = 0
    file_alloc_us: int = 0


@dataclass
class InvokeResult:
    handle: int
    descriptor_id: int
    output_ciphertext: Optional[bytes]
    report: Optional[att.AttestationReport]
    charges: InvokeCharges
    recreated: bool = False
    handoff: Optional[int] = None  # consumer handle when chained
    output_obj_id: Optional[int] = None
    bytes_hashed: int = 0


class _Ticket:
    """One submitted invocation moving through the scheduler."""

    def __init__(self, seq: int, handle: int, pid: int, input_obj: int,
                 response_key: bytes, nonce: bytes, chain_prefix: list,
                 charges: InvokeCharges, recreated: bool, chained: bool):
        self.seq = seq
        self.handle = handle
        self.pid = pid
        self.input_obj = input_obj  # staged input or handed-off chain object
        self.response_key = response_key
        self.nonce = nonce
        self.chain_prefix = chain_prefix
        self.charges = charges
        self.recreated = recreated
        self.chained = chained  # runs on a handed-off chained input
        # The pipeline from its first dispatch (``run_pipeline``), and what
        # its next resume sends it: a delivered file's bytes, else None.
        self.run: Optional[Generator] = None
        self.resume: Optional[bytes] = None
        self.input_bytes: bytes = b""
        self.file_objs: list[int] = []  # input objects of the files read
        self.result: Optional[InvokeResult] = None
        self.error: Optional[Exception] = None

    @property
    def finished(self) -> bool:
        return self.result is not None or self.error is not None


class Monitor:
    """Trusted-monitor instance; see class docstring at module top."""

    def __init__(self, config: MonitorConfig,
                 guest: Optional[GuestBroker] = None,
                 machine_key: Optional[att.MachineKey] = None):
        config.validate()
        self.config = config
        self.model = config.cost_model
        self.rng = Rng(config.seed)
        self.guest = guest if guest is not None else GuestBroker()
        self.store = FrameStore()
        self.pool = MemoryPool(self.store)
        self.boot_us = 0

        if config.prealloc_bytes > 0:
            # A preallocated pool is the whole pool, validated at boot, so
            # that no allocation pays validation.
            self.boot_us += preallocate(self.pool, config.prealloc_bytes,
                                        self.model)
        elif config.pool_frames > 0:
            self.pool.grow(config.pool_frames, validated=False)

        self.objects = ObjectStore(self.pool, self.model,
                                   quota_objects=config.quota_objects,
                                   quota_bytes=config.quota_bytes)
        self.cache = att.MeasurementCache()
        self.machine_key = machine_key if machine_key is not None \
            else att.MachineKey.generate(self.rng)

        monitor_bytes = config.canonical_bytes()
        self.monitor_digest, measure_us = self.cache.measure(
            att.SubjectKind.MONITOR, "monitor", monitor_bytes, self.model)
        self.clock_us = self.boot_us + measure_us
        self.unreported = Unreported()
        self.boot_report = att.asp_gen(self.machine_key, self.monitor_digest,
                                       att.sha512(monitor_bytes))

        self.policy: Optional[ProviderPolicy] = None
        self._session_dh: Optional[DhKey] = None
        self._seen_nonces: set = set()

        self._procs: dict[int, ProcessDescriptor] = {}
        self._handles: dict[int, int] = {}  # external handle -> live pid
        self._next_pid = 1
        self._next_handle = 1

        self._ready: list[tuple[int, _Ticket]] = []  # heap by submission seq
        self._pending_io: list[tuple[_Ticket, str]] = []
        self._active: dict[int, _Ticket] = {}  # pid -> in-flight ticket
        self._next_seq = 0
        # Chain state is keyed by trustlet handle, which survives recreation.
        # producer handle -> consumer handle
        self._chain_edges: dict[int, int] = {}
        # consumer handle -> (input obj id, chain measurements, response_key,
        #                     nonce, consumer recreated at handoff)
        self._chain_inbox: dict[int, tuple] = {}
        self.completion_log: list[int] = []

    # -- small helpers ---------------------------------------------------------

    def _charge(self, ledger, phase: str, us: int) -> None:
        """us to the clock and to ledger's phase: see the module docstring."""
        setattr(ledger, phase, getattr(ledger, phase) + us)
        self.clock_us += us

    def _proc(self, handle: int) -> ProcessDescriptor:
        pid = self._handles.get(handle)
        if pid is None:
            raise UnknownHandle(f"no live process for handle {handle}")
        return self._procs[pid]

    def _require_policy(self) -> ProviderPolicy:
        if self.policy is None:
            raise PolicyViolation("no provider policy loaded")
        return self.policy

    def descriptors(self) -> list[ProcessDescriptor]:
        """Descriptors of the live processes; terminated ones are dropped."""
        return list(self._procs.values())

    def live_tables(self) -> list[PageTable]:
        return [p.page_table for p in self._procs.values()]

    # -- attestation handshake ---------------------------------------------------

    def attest_monitor(self) -> att.PlatformReport:
        """Boot-time platform report over the monitor measurement."""
        return self.boot_report

    def handshake_provider(self, provider_nonce: bytes) -> tuple[att.PlatformReport, bytes]:
        """Provider handshake step: nonce-bound report plus our DH public.

        The report's user data is SHA-512(DH public || nonce), binding the
        key exchange to the attested monitor.
        """
        if len(provider_nonce) != att.NONCE_LEN:
            raise ConfigInvalid("provider nonce must be 16 bytes")
        if provider_nonce in self._seen_nonces:
            raise StaleNonce("provider nonce was already used")
        self._seen_nonces.add(provider_nonce)
        self._session_dh = DhKey.generate(self.rng)
        dh_public = self._session_dh.public_bytes()
        user_data = att.sha512(dh_public + provider_nonce)
        report = att.asp_gen(self.machine_key, self.monitor_digest, user_data)
        self.guest.observe(report.to_bytes())
        self.guest.observe(dh_public)
        return report, dh_public

    def load_policy(self, blob: bytes, provider_dh_public: bytes) -> None:
        """Install the provider policy delivered over the session channel.

        The decrypted function private key lives only in monitor (PL0)
        state; no trustlet service returns it and no page maps it.
        """
        if self._session_dh is None:
            raise NoSession("no attestation handshake in progress")
        self.guest.observe(blob)
        session_key = self._session_dh.session_key(provider_dh_public)
        plaintext = symmetric_decrypt(session_key, blob)
        self.policy = ProviderPolicy.from_bytes(plaintext)
        self._session_dh = None

    # -- zygote lifecycle ----------------------------------------------------------

    def create_zygote(self, image: ZygoteImage) -> ZygoteCreation:
        policy = self._require_policy()
        self.guest.observe(*image.canonical_parts)
        digest, measure_us = self.cache.measure_image(
            att.SubjectKind.ZYGOTE, image, self.model)
        creation = ZygoteCreation()
        self._charge(creation, "measure_us", measure_us)
        if digest not in policy.allowed_zygotes:
            raise PolicyViolation("zygote digest is not in the provider policy")

        pid = self._next_pid
        self._next_pid += 1
        table = PageTable(self.store, pid)
        proc = ProcessDescriptor(pid, ProcKind.ZYGOTE, table,
                                 measurement=digest, image=image)
        size = image.size_bytes()
        runs, alloc_us = alloc_runs(self.pool, pages_for(size), self.model,
                                    owner_level=PrivilegeLevel.PL1_PROCESS)
        self._charge(creation, "alloc_us", alloc_us)
        table.map_runs(runs, PagePerms.PROCESS_RW)
        self.store.write_runs(runs, *image.canonical_parts)
        self._charge(creation, "populate_us", self.model.transfer_us(size))

        proc.transition(ProcState.INITIALIZED)
        self._charge(creation, "init_us", self._runtime_init(proc))
        table.seal()
        proc.transition(ProcState.READY)

        proc.fs = NestedFs(dict(image.embedded_fs), dict(image.manifest))
        self._procs[pid] = proc
        creation.handle = self._next_handle
        self._next_handle += 1
        self._handles[creation.handle] = pid
        return creation

    def _runtime_init(self, proc: ProcessDescriptor) -> int:
        """Simulated runtime preloading; once per zygote, never per trustlet."""
        if proc.state is not ProcState.INITIALIZED:
            raise ConfigInvalid("runtime init requires the initialized state")
        assert proc.image is not None
        return int(proc.image.init_cost_ms * 1000)

    def delete_zygote(self, handle: int) -> int:
        """Terminate the zygote and every trustlet derived from it."""
        proc = self._proc(handle)
        if proc.kind is not ProcKind.ZYGOTE:
            raise UnknownHandle(f"handle {handle} is not a zygote")
        terminated = 0
        for other_handle, pid in list(self._handles.items()):
            child = self._procs.get(pid)
            if child is not None and child.base_zygote == proc.pid:
                self._terminate(other_handle, child)
                terminated += 1
        self._terminate(handle, proc)
        return terminated + 1

    def _terminate(self, handle: int, proc: ProcessDescriptor) -> None:
        """Delete a process: forget its pending links, end a handed-off
        input it has not run, then tear it down."""
        for producer in [p for p, c in self._chain_edges.items()
                         if handle in (p, c)]:
            del self._chain_edges[producer]
        inbox = self._chain_inbox.pop(handle, None)
        if inbox is not None:
            self.objects.end(inbox[0])
        self._teardown(handle, proc)

    def _teardown(self, handle: int, proc: ProcessDescriptor) -> None:
        """Abort the process's invocation through ``_settle`` (the scheduler
        skips the ticket wherever it is queued), leave its objects, release
        its page table, which frees theirs with its own, and forget it."""
        ticket = self._active.get(proc.pid)
        if ticket is not None:
            self._settle(ticket, proc, error=InvocationAborted(
                f"process {proc.pid} terminated mid-invocation"))
        self.objects.leave(proc.pid)
        proc.page_table.release_all(self.pool)
        proc.transition(ProcState.TERMINATED)
        self._procs.pop(proc.pid, None)
        self._handles.pop(handle, None)

    # -- trustlet lifecycle ----------------------------------------------------------

    def create_trustlet(self, zhandle: int, fn: FunctionSpec) -> TrustletCreation:
        policy = self._require_policy()
        zygote = self._proc(zhandle)
        if zygote.kind is not ProcKind.ZYGOTE:
            raise UnknownHandle(f"handle {zhandle} is not a zygote")
        if zygote.state is not ProcState.READY or not zygote.page_table.sealed:
            raise PolicyViolation("zygote must be sealed and ready")
        digest, measure_us = self.cache.measure_image(
            att.SubjectKind.FUNCTION, fn, self.model)
        creation = TrustletCreation()
        self._charge(creation, "measure_us", measure_us)
        if digest not in policy.allowed_functions:
            raise PolicyViolation("function digest is not in the provider policy")

        # A handle is numbered only for a load that succeeded, as for a
        # zygote; a refused one has used its pid.
        proc = self._load(creation, zygote, fn, digest, None)
        creation.handle = self._next_handle
        self._next_handle += 1
        self._handles[creation.handle] = proc.pid
        return creation

    def _load(self, ledger, zygote: ProcessDescriptor, fn: FunctionSpec,
              fn_digest: bytes, kept: Optional[ProcessDescriptor]
              ) -> ProcessDescriptor:
        """A trustlet's one load path: a fork of zygote, or, given kept,
        kept's recreation over its own page table and exclusive frames,
        which allocates nothing, so it cannot run out of memory and pays
        no validation.  Charges ledger's clone_us the descriptor clone and
        its page_load_us the rest: the zygote copy under
        ``cow_enabled=False``, a fork's allocations, and the set-up and
        load of the function image, which the exclusive frames hold
        followed by zeros.  A refused allocation leaves the pid used and
        what was charged before it."""
        pid = self._next_pid
        self._next_pid += 1
        self._charge(ledger, "clone_us", self.config.descriptor_clone_us)
        base, fn_bytes = zygote.page_table, fn.canonical_bytes
        if kept is not None:
            # The zygote, any copy of it and the exclusive region stay
            # mapped; truncate frees the objects kept's user left.  A view
            # that changed a vpn of its base (a resolved CoW fault) gives
            # way to a fresh one over the same exclusive frames.
            table, runs = kept.page_table, kept.exclusive
            excl_pages = n_frames_of(runs)
            if table.diverged:
                table = base.fork_cow(pid)
                table.map_runs(runs, PagePerms.PROCESS_RW)
                kept.page_table.release_all(self.pool)
            else:
                table.owner = pid
                table.truncate(base.next_unused_vpn() + excl_pages, self.pool)
            self.store.clear_runs(runs)
        elif self.config.cow_enabled:
            table = base.fork_cow(pid)
        else:
            # Full-copy fallback: duplicate every zygote page eagerly.
            table = PageTable(self.store, pid)
            copy, alloc_us = alloc_runs(
                self.pool, base.n_entries(), self.model,
                owner_level=PrivilegeLevel.PL1_PROCESS)
            self._charge(ledger, "page_load_us", alloc_us)
            # create_zygote maps a zygote at vpns 0..n-1, so mapping the
            # copy on the fresh table puts every page at its own vpn.
            self.store.copy_runs(runs_of(base.local_frame_ids()), copy)
            table.map_runs(copy, PagePerms.PROCESS_RO)
        if not self.config.cow_enabled:
            self._charge(ledger, "page_load_us",
                         self.model.copy_us(base.n_entries()))
        if kept is None:
            # The function image plus scratch space: the function never
            # dirties zygote pages for code.
            excl_pages = max(pages_for(self.config.trustlet_exclusive_bytes),
                             pages_for(len(fn_bytes)))
            try:
                runs, alloc_us = alloc_runs(
                    self.pool, excl_pages, self.model,
                    owner_level=PrivilegeLevel.PL1_PROCESS)
            except OutOfMemory:
                # Give back the fork, or the zygote could never be deleted.
                table.release_all(self.pool)
                raise
            self._charge(ledger, "page_load_us", alloc_us)
            table.map_runs(runs, PagePerms.PROCESS_RW)
        self.store.write_runs(runs, fn_bytes)
        self._charge(ledger, "page_load_us", self.model.copy_us(excl_pages)
                     + self.model.transfer_us(len(fn_bytes)))

        proc = ProcessDescriptor(pid, ProcKind.TRUSTLET, table,
                                 base_zygote=zygote.pid,
                                 measurement=fn_digest, fn=fn,
                                 fs=zygote.fs, image=zygote.image,
                                 exclusive=runs, state=ProcState.READY)
        self._procs[pid] = proc
        return proc

    def delete_trustlet(self, handle: int) -> None:
        proc = self._proc(handle)
        if proc.kind is not ProcKind.TRUSTLET:
            raise UnknownHandle(f"handle {handle} is not a trustlet")
        self._terminate(handle, proc)

    # -- invocation ----------------------------------------------------------------

    def invoke_trustlet(self, handle: int, ciphertext: bytes) -> InvokeResult:
        """Decrypt, run to completion, and return the encrypted result.

        Drives the scheduler until this invocation (and anything it depends
        on) completes.  For chained producers the result is a handoff to the
        consumer instead of a user-facing ciphertext.
        """
        return self._drive(self.submit_invocation(handle, ciphertext))

    def invoke_chained(self, handle: int) -> InvokeResult:
        """Invoke a trustlet whose input was handed off from a producer."""
        return self._drive(self._submit(handle, None))

    def invoke_with_input(self, handle: int, input_bytes: bytes,
                          response_key: bytes, nonce: bytes) -> InvokeResult:
        """Run a trustlet on already-delivered plaintext input.

        Used for fallback transfers, where the payload was decrypted and
        staged by the receiving monitor; bypasses request decryption.
        """
        return self._drive(self._submit(
            handle, (input_bytes, response_key, nonce)))

    def submit_invocation(self, handle: int, ciphertext: bytes) -> _Ticket:
        """Decrypt a request and queue its invocation."""
        return self._submit(handle, ciphertext)

    def _drive(self, ticket: _Ticket) -> InvokeResult:
        """Run the scheduler until every submitted invocation settles, then
        return the ticket's result or raise its error."""
        self.run_pending()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    def _submit(self, handle: int, source) -> _Ticket:
        """Queue one invocation; the single path of every entry point.

        source is a sealed request (bytes), plaintext staged by this
        monitor as an (input bytes, response key, nonce) triple, or None for
        the input a chain producer handed off (its prefix comes with it).
        A sealed request for another function than the trustlet's is
        refused with PolicyViolation before any input object exists.  Every
        source then goes through the per-user rule (``_claim``).
        """
        proc = self._proc(handle)
        if proc.kind is not ProcKind.TRUSTLET:
            raise UnknownHandle(f"handle {handle} is not a trustlet")
        if proc.pid in self._active:  # settled tickets leave it
            raise TrustletBusy(f"trustlet {handle} is mid-invocation")
        policy = self._require_policy()
        charges = InvokeCharges()
        recreated, prefix = False, ()
        if source is None:
            inbox = self._chain_inbox.get(handle)
            if inbox is None:
                raise NoInput(f"no chained input pending for trustlet {handle}")
            obj_id, prefix, response_key, nonce, recreated = inbox
        else:
            if not isinstance(source, tuple):
                self.guest.observe(source)
                request = InvocationRequest.from_bytes(
                    policy.function_key.box.decrypt(source))
                self._charge(charges, "decrypt_us",
                             self.model.crypto_us(len(source)))
                if request.function_digest != proc.measurement:
                    raise PolicyViolation(
                        f"request is sealed for another function than "
                        f"trustlet {handle}'s")
                source = (request.input_bytes, request.response_key,
                          request.nonce)
            input_bytes, response_key, nonce = source
        proc, claimed = self._claim(handle, proc, response_key)
        if source is not None:
            obj_id, alloc_us, write_us = self.objects.make(
                input_bytes, ObjectType.INPUT, reader=proc.page_table)
            self._charge(charges, "input_us", alloc_us + write_us)

        ticket = _Ticket(self._next_seq, handle, proc.pid, obj_id,
                         response_key, nonce, list(prefix), charges,
                         recreated or claimed, chained=source is None)
        self._next_seq += 1
        self._active[proc.pid] = ticket
        heapq.heappush(self._ready, (ticket.seq, ticket))
        return ticket

    def _claim(self, handle: int, proc: ProcessDescriptor,
               response_key: bytes) -> tuple[ProcessDescriptor, bool]:
        """The per-user rule, for every input source and at chain handoff,
        on proc, the live descriptor of handle.

        A trustlet last used by another user is recreated before it takes
        this user's input.  While it is mid-invocation or holds a chained
        input handed off for its previous user it stays theirs, and the new
        user is refused with TrustletBusy; the same user may still invoke
        it.  Returns the trustlet's descriptor and whether it was recreated.
        """
        user = _user_of(response_key)
        recreated = self._must_recreate(handle, proc, user)
        if recreated:
            proc = self._recreate(handle, proc)
        proc.last_user = user
        return proc, recreated

    def _must_recreate(self, handle: int, proc: ProcessDescriptor,
                       user: bytes) -> bool:
        """Whether ``_claim`` recreates the trustlet for user; raises
        TrustletBusy where it would refuse, and changes nothing."""
        if proc.last_user is None or proc.last_user == user:
            return False
        if proc.pid in self._active or handle in self._chain_inbox:
            raise TrustletBusy(
                f"trustlet {handle} is still serving another user")
        return True

    def _recreate(self, handle: int, proc: ProcessDescriptor) -> ProcessDescriptor:
        """Per-user recreation in place: the previous user's objects are
        left, and the fork's load path runs over the trustlet's own table and
        frames, charging ``unreported``, for a fresh descriptor and pid under
        the same handle.  Pending links stay: chain state is keyed by handle,
        and ``_claim`` never recreates a trustlet holding a handed-off input.
        """
        assert proc.fn is not None and proc.measurement is not None
        assert handle not in self._chain_inbox
        self.objects.leave(proc.pid)
        fresh = self._load(self.unreported, self._procs[proc.base_zygote],
                           proc.fn, proc.measurement, proc)
        proc.transition(ProcState.TERMINATED)
        del self._procs[proc.pid]
        self._handles[handle] = fresh.pid
        return fresh

    # -- scheduler ------------------------------------------------------------------

    def schedule(self) -> Optional[int]:
        """Dispatch the oldest ready invocation; run until exit or an
        external-file suspension.  Returns the descriptor pid, or None when
        idle."""
        while self._ready:
            seq, ticket = heapq.heappop(self._ready)
            if ticket.finished:  # also when its process was terminated
                continue
            proc = self._procs[ticket.pid]
            self._run_ticket(ticket, proc)
            return proc.pid
        return None

    def run_pending(self) -> None:
        """Drive the scheduler until every submitted invocation settles."""
        while True:
            if self.schedule() is not None:
                continue
            if self._pending_io:
                self._deliver_one_io()
                continue
            break

    def _run_ticket(self, ticket: _Ticket, proc: ProcessDescriptor) -> None:
        """Resume the ticket's pipeline once: it suspends on an external
        file, completes, or fails."""
        if ticket.run is None:
            # Runtime prologue: getInputObject and page reads through the
            # grant the input was made, or handed off, with.
            ticket.input_bytes = self.objects.read_through(
                proc.page_table, ticket.input_obj)
            ticket.run = run_pipeline(proc.fn, proc.fs, ticket.input_bytes)
        proc.transition(ProcState.RUNNING)
        sent, ticket.resume = ticket.resume, None
        try:
            path = ticket.run.send(sent)
        except StopIteration as stop:
            output, exec_us = stop.value
            self._complete(ticket, proc, output, exec_us)
        except FunctionError as exc:
            self._settle(ticket, proc, error=exc)
        else:
            proc.transition(ProcState.READY)
            self._pending_io.append((ticket, path))

    def _settle(self, ticket: _Ticket, proc: ProcessDescriptor,
                result: Optional[InvokeResult] = None,
                error: Optional[Exception] = None) -> None:
        """The one end of every invocation, whether it succeeds, fails, is
        refused its output object or a file's memory, or is aborted: ends
        its file objects, then its input, unless a failed hop keeps the
        input handed off to it for a retry."""
        if proc.state is ProcState.RUNNING:
            proc.transition(ProcState.READY)
        ticket.result, ticket.error = result, error
        self._active.pop(proc.pid, None)
        for obj_id in ticket.file_objs:
            self.objects.end(obj_id)
        if ticket.chained and error is not None:
            return
        if ticket.chained:
            del self._chain_inbox[ticket.handle]
        self.objects.end(ticket.input_obj)
        if result is not None:
            self.completion_log.append(proc.pid)

    def _deliver_one_io(self) -> None:
        """Complete one suspended external file read, FIFO: copy the file
        into an input object made with the reader's grant, before the
        LibOS sees it, or end the invocation if memory runs out for it."""
        ticket, path = self._pending_io.pop(0)
        if ticket.finished:  # aborted while suspended
            return
        proc = self._procs[ticket.pid]
        raw = self.guest.read_file(path)
        if raw is not None:
            try:
                obj_id, alloc_us, write_us = self.objects.make(
                    raw, ObjectType.INPUT, reader=proc.page_table)
            except OutOfMemory as exc:
                self._settle(ticket, proc, error=exc)
                return
            self._charge(self.unreported, "file_alloc_us", alloc_us)
            ticket.file_objs.append(obj_id)
            self._charge(ticket.charges, "input_us", write_us)
        ticket.resume = raw
        heapq.heappush(self._ready, (ticket.seq, ticket))

    def _complete(self, ticket: _Ticket, proc: ProcessDescriptor,
                  output: bytes, exec_us: int) -> None:
        """Charge the run's execution, make the output object, then hand
        it off along a pending link as a chain object or answer
        the user with the report and the encrypted response."""
        charges = ticket.charges
        self._charge(charges, "exec_us", exec_us)

        consumer_handle = self._chain_edges.get(ticket.handle)
        otype, supersedes = ObjectType.OUTPUT, proc.output_obj
        try:
            if consumer_handle is not None:
                # One input slot: a second handoff would lose the first.
                if consumer_handle in self._chain_inbox:
                    raise TrustletBusy(
                        f"chain consumer {consumer_handle} holds a handed-off "
                        f"input it has not run")
                consumer = self._proc(consumer_handle)
                self._must_recreate(consumer_handle, consumer,
                                    _user_of(ticket.response_key))
                otype, supersedes = ObjectType.CHAIN, None
            # A user-facing output is ended only after its successor
            # exists, so a refused make leaves it in place.
            obj_id, alloc_us, write_us = self.objects.make(
                output, otype, writer=proc.page_table, supersedes=supersedes)
        except (TrustletBusy, QuotaExceeded, OutOfMemory) as exc:
            # A pending link stays pending; its consumer is left as it was.
            self._settle(ticket, proc, error=exc)
            return
        self._charge(charges, "output_us", alloc_us + write_us)

        if consumer_handle is not None:
            del self._chain_edges[ticket.handle]
            consumer, consumer_recreated = self._claim(
                consumer_handle, consumer, ticket.response_key)
            self.objects.attach_reader(consumer.page_table, obj_id)
            measurements = ticket.chain_prefix + [self._measurements_for(
                proc, ticket.input_bytes, output)]
            self._chain_inbox[consumer_handle] = (
                obj_id, measurements, ticket.response_key, ticket.nonce,
                consumer_recreated)
            result = InvokeResult(ticket.handle, proc.pid, None, None,
                                  charges, recreated=ticket.recreated,
                                  handoff=consumer_handle,
                                  output_obj_id=obj_id)
        else:
            # Only a user-facing output supersedes the previous one.
            self.objects.end(proc.output_obj)
            proc.output_obj = obj_id
            # Retrieve the result from the output object, not the run state.
            retrieved = self.objects.read_monitor(obj_id)

            before_hashed = self.cache.bytes_hashed
            measurements = ticket.chain_prefix + [self._measurements_for(
                proc, ticket.input_bytes, retrieved)]
            report, report_us = att.build_report(
                self.cache, ticket.nonce, measurements,
                self.boot_report, self._require_policy().function_key.signer,
                self.model)
            self._charge(charges, "report_us", report_us)

            ciphertext = symmetric_encrypt(ticket.response_key,
                                           retrieved, self.rng)
            self._charge(charges, "response_us",
                         self.model.crypto_us(len(retrieved)))
            self.guest.observe(ciphertext)
            self.guest.observe(report.to_bytes())
            result = InvokeResult(ticket.handle, proc.pid, ciphertext, report,
                                  charges, recreated=ticket.recreated,
                                  output_obj_id=obj_id,
                                  bytes_hashed=self.cache.bytes_hashed - before_hashed)
        self._settle(ticket, proc, result=result)

    def _measurements_for(self, proc: ProcessDescriptor, input_bytes: bytes,
                          output: bytes) -> att.InvocationMeasurements:
        return att.InvocationMeasurements(
            zygote=self._procs[proc.base_zygote].image, function=proc.fn,
            input_bytes=input_bytes, output_bytes=output)

    # -- chaining ---------------------------------------------------------------------

    def link_chain(self, producer_handle: int, consumer_handle: int) -> None:
        """Record that producer's next output becomes consumer's input, as
        a chain object ``_complete`` makes; allocates nothing."""
        producer = self._proc(producer_handle)
        consumer = self._proc(consumer_handle)
        for proc in (producer, consumer):
            if proc.kind is not ProcKind.TRUSTLET:
                raise NotCoLocated("chain ends must be co-located trustlets")
        policy = self._require_policy()
        if not policy.chain_adjacent(producer.measurement, consumer.measurement):
            raise PolicyViolation("function pair is not adjacent in any "
                                  "policy chain")
        if producer_handle in self._chain_edges:
            raise AlreadyAttached("producer already has a pending chain link")
        # Cycle detection over the pending chain graph.
        seen = {producer_handle}
        cursor = consumer_handle
        while cursor is not None:
            if cursor in seen:
                raise PolicyViolation("circular chain rejected")
            seen.add(cursor)
            cursor = self._chain_edges.get(cursor)
        self._chain_edges[producer_handle] = consumer_handle

    # Wire-API aliases matching the documented monitor system-call names.
    createZygote = create_zygote
    deleteZygote = delete_zygote
    createTrustlet = create_trustlet
    deleteTrustlet = delete_trustlet
    invokeTrustlet = invoke_trustlet
    attestMonitor = attest_monitor
    loadPolicy = load_policy
