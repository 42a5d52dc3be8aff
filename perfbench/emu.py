"""emu-serve and emu-churn: one closed-loop client on the emulator.

Both workloads run one provisioned monitor with one sealed zygote, as a
function provider would set it up, and send it one request at a time.  A
request is timed from ``make_request`` to the decrypted, verified
response.  Every response is then checked outside the timed span:

* the decrypted output equals this module's own re-execution of the
  pipeline or chain (``reference_output``, not ``walletemu.pipeline``);
* ``verify_report`` accepted the report, and the report's last output
  digest is the SHA-512 of the decrypted output.

A request that raises, or a chain that stops before its last hop, fails;
the client then replaces the trustlets it used, as an orchestrator would
(see ``Client.replace``).  After the timed phase the frame accounting is
checked once: total frame references equal the entries of all live page
tables, and deleting every trustlet returns the free-frame count to what
it was right after the zygote was created, no lower (a leak) and no
higher (a frame freed twice).

The guest's tap log keeps every byte string the guest sees, so it is
drained after each request; otherwise host memory would grow with the
number of requests a run manages to send.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import struct
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage, manifest_entry
from walletemu.memory import accounting, pages_for
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.objects import fallback_transfer
from walletemu.provider import FunctionProvider, UserAgent

from common import Phase, peak_rss_mib, planned_operations

MIB = 1 << 20
PAGE = 4096
EXT_PATH = "/ext/dataset"
EXT_BYTES = 32 * 1024
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Pipelines of the function catalogue; append and prepend get a seeded
# literal.  read_file reads the manifest-gated external file, so the
# trustlet suspends on guest I/O.
TEMPLATES = (
    ("identity",),
    ("uppercase",),
    ("lowercase", "append"),
    ("prepend",),
    ("sha512",),
    ("uppercase", "append", "lowercase"),
    ("read_file", "append"),
    ("prepend", "sha512"),
    ("append",),
    ("read_file", "uppercase"),
    ("prepend", "uppercase", "append"),
    ("lowercase",),
)
CHAIN_TEMPLATES = (("append",), ("uppercase", "prepend"), ("lowercase",))
LITERAL_OPS = ("append", "prepend")


@dataclass(frozen=True)
class Shape:
    """Traffic dimensions of one emulator workload."""

    zygote_bytes: int
    n_functions: int
    zipf_s: float
    users: int
    session_mean: float      # mean requests per user session (1: interleaved)
    payload_min: int
    payload_max: int         # payload sizes are log-uniform in [min, max]
    live_limit: Optional[int]  # None: every function keeps a forked trustlet
    # Prevalidated frames beyond the zygote.  The pool hands out fresh
    # frames before reused ones, so host memory grows until the pool has
    # been walked once; a pool near the working set is walked early in a
    # run, and peak RSS then does not depend on how many requests fit.
    pool_spare_bytes: int
    chain_ks: tuple = ()
    chain_share: float = 0.0  # chance that a request is a chain request
    accounting_every: int = 0
    warmup: int = 50         # untimed first requests (fill the live set)
    digest_requests: int = 300  # first requests in the output digest
    setups: int = 3          # set-ups per run; setup_s is their median
    nominal_per_s: float = 1.0  # timed requests per --seconds
    speed_every: int = 1     # requests per reference-kernel sample
    segment: int = 500       # requests scaled by the same samples


# Warm serving on a small zygote.  Each request is, independently, a chain
# request with chance ``chain_share``, k drawn uniformly from ``chain_ks``,
# chain requests alternating between monitor chain objects and the
# copy-and-encrypt fallback path.  The 1 % share is an assumption: no
# source gives a share of chained requests.
SERVE = Shape(zygote_bytes=1 * MIB, n_functions=24, zipf_s=1.1, users=16,
              session_mean=12.0, payload_min=64, payload_max=256 * 1024,
              live_limit=None, pool_spare_bytes=127 * MIB,
              chain_ks=(2, 4, 8), chain_share=0.01, warmup=50,
              digest_requests=1000, setups=51, nominal_per_s=500.0,
              speed_every=10, segment=500)

# Fork churn on the paper's 147 MiB zygote: more functions than live
# trustlets, interleaved users so warm hits mostly recreate per user.
CHURN = Shape(zygote_bytes=147 * MIB, n_functions=64, zipf_s=1.1, users=4,
              session_mean=1.0, payload_min=64, payload_max=4096,
              live_limit=16, pool_spare_bytes=8 * MIB, accounting_every=50,
              warmup=32, digest_requests=200, setups=3, nominal_per_s=55.0,
              speed_every=1, segment=50)


class ChainIncomplete(Exception):
    """A chain request came back before its last hop ran; ``consumer`` is
    the function whose incoming link was left dangling."""

    def __init__(self, message: str, consumer: str):
        super().__init__(message)
        self.consumer = consumer


@dataclass
class Function:
    name: str
    steps: tuple  # ((op, literal or None), ...)
    spec: FunctionSpec
    digest: bytes = b""


def _pipeline_op(op: str, arg: Optional[bytes]) -> PipelineOp:
    if op == "read_file":
        return PipelineOp.read_file(EXT_PATH)
    if op in LITERAL_OPS:
        return getattr(PipelineOp, op)(arg)
    return getattr(PipelineOp, op)()


def reference_output(functions, data: bytes, ext: bytes) -> bytes:
    """Re-execute a pipeline or chain of pipelines from its description."""
    for fn in functions:
        for op, arg in fn.steps:
            if op == "identity":
                pass
            elif op == "uppercase":
                data = data.upper()
            elif op == "lowercase":
                data = data.lower()
            elif op == "append":
                data = data + arg
            elif op == "prepend":
                data = arg + data
            elif op == "sha512":
                data = hashlib.sha512(data).digest()
            elif op == "read_file":
                data = ext
            else:
                raise ValueError(f"unknown op {op}")
    return data


def _make_function(rng, name: str, template: tuple) -> Function:
    steps = tuple((op, b"[" + rng.bytes(4).hex().encode() + b"]"
                   if op in LITERAL_OPS else None) for op in template)
    spec = FunctionSpec(name, [_pipeline_op(op, arg) for op, arg in steps],
                        exec_time_ms=0.5)
    return Function(name, steps, spec)


@dataclass
class Inputs:
    """Everything the client sends, made from the seed before set-up."""

    blob: bytes
    ext: bytes
    functions: list
    chains: dict  # k -> [Function]


def make_inputs(shape: Shape, rng) -> Inputs:
    functions = [_make_function(rng, f"fn-{i}", TEMPLATES[i % len(TEMPLATES)])
                 for i in range(shape.n_functions)]
    chains = {k: [_make_function(rng, f"chain{k}-{j}",
                                 CHAIN_TEMPLATES[j % len(CHAIN_TEMPLATES)])
                  for j in range(k)]
              for k in shape.chain_ks}
    ext = rng.bytes(EXT_BYTES)
    probe = _image(b"", ext)
    blob = rng.bytes(shape.zygote_bytes - len(probe.canonical_bytes))
    return Inputs(blob, ext, functions, chains)


def _image(blob: bytes, ext: bytes) -> ZygoteImage:
    return ZygoteImage("bench-rt", init_cost_ms=5,
                       embedded_fs=[("/srv/blob", blob)],
                       manifest=[manifest_entry(EXT_PATH, ext)])


class Rig:
    """A booted monitor, provisioned by the provider, with a sealed zygote
    and the users' agents; set-up time is this constructor's run time."""

    def __init__(self, seed: int, shape: Shape, inputs: Inputs, tracer):
        self.tracer = tracer
        image = _image(inputs.blob, inputs.ext)
        with tracer.span("images.digest"):
            zygote_digest = image.digest()
        chain_fns = [fn for k in sorted(inputs.chains) for fn in inputs.chains[k]]
        for fn in inputs.functions + chain_fns:
            with tracer.span("images.digest"):
                fn.digest = fn.spec.digest()
        self.monitor = Monitor(MonitorConfig(
            prealloc_bytes=shape.zygote_bytes + shape.pool_spare_bytes,
            pool_frames=0, seed=seed))
        self.monitor.guest.put_file(EXT_PATH, inputs.ext)
        policy_chains = [tuple(fn.digest for fn in inputs.chains[k])
                         for k in sorted(inputs.chains)]
        self.allowed_functions = [fn.digest for fn in inputs.functions + chain_fns]
        self.allowed_zygotes = [zygote_digest]
        provider = FunctionProvider(Rng(seed + 1), self.allowed_zygotes,
                                    self.allowed_functions, policy_chains)
        provider.provision(self.monitor)
        self.vendor_public = self.monitor.machine_key.public_bytes()
        self.users = [UserAgent(Rng(seed * 1000 + 10 + u), provider.public_key())
                      for u in range(shape.users)]
        with tracer.span("monitor.create_zygote"):
            self.zygote = self.monitor.create_zygote(image).handle
        self.zygote_pages = pages_for(image.size_bytes())
        self.free_after_zygote = self.monitor.pool.free_count
        # function name -> trustlet handle, least recently used first.
        self.live: OrderedDict = OrderedDict()
        self.set_aside: list = []  # handles replaced after a failed request
        if shape.live_limit is None:
            for fn in inputs.functions + chain_fns:
                self.fork(fn, "setup.create_trustlet")

    def fork(self, fn: Function, span: str = "monitor.create_trustlet") -> int:
        with self.tracer.span(span):
            handle = self.monitor.create_trustlet(self.zygote, fn.spec).handle
        self.live[fn.name] = handle
        return handle

    def delete(self, name: str) -> None:
        handle = self.live.pop(name)
        with self.tracer.span("monitor.delete_trustlet"):
            self.monitor.delete_trustlet(handle)

    def expectations(self, user: UserAgent, request, input_digest=None):
        exp = user.expectations(request, self.vendor_public,
                                self.monitor.monitor_digest,
                                self.allowed_zygotes, self.allowed_functions)
        if input_digest is not None:
            exp = dataclasses.replace(exp, input_digest=input_digest)
        return exp


@dataclass
class Request:
    user: int
    payload: bytes
    function: Optional[Function] = None
    chain_k: int = 0
    mode: str = ""  # "objects" (monitor chain objects) or "fallback"

    @property
    def kind(self) -> str:
        if self.function is not None:
            return f"single:{self.function.name}"
        return f"chain{self.chain_k}:{self.mode}"

    def functions(self, inputs: "Inputs") -> list:
        if self.function is not None:
            return [self.function]
        return inputs.chains[self.chain_k]


@dataclass
class Record:
    """What one request returned, for the checks and the output digest."""

    results: list = dataclasses.field(default_factory=list)
    transfer_us: list = dataclasses.field(default_factory=list)
    verified: list = dataclasses.field(default_factory=list)
    output: Optional[bytes] = None
    failure: Optional[str] = None


def request_stream(shape: Shape, inputs: Inputs, rng):
    """Endless request sequence: user sessions of geometric length, Zipf
    function popularity, log-uniform payload sizes, and chain requests
    drawn independently at ``chain_share``, k uniform over ``chain_ks``,
    modes alternating.

    Payload sizes walk a golden-ratio (Weyl) sequence from a seeded start,
    so every seed sends the same log-uniform size mix; otherwise the mean
    payload, and with it the host time per request, would vary by seed.
    """
    ranks = np.arange(1, shape.n_functions + 1, dtype=np.float64)
    popularity = ranks ** -shape.zipf_s
    popularity /= popularity.sum()
    lo, hi = math.log(shape.payload_min), math.log(shape.payload_max)
    offset = rng.random()
    sent = 0
    chains = 0

    def payload() -> bytes:
        size = int(math.exp(lo + (offset + sent * GOLDEN) % 1.0 * (hi - lo)))
        return rng.bytes(size)

    while True:
        user = int(rng.integers(shape.users))
        for _ in range(int(rng.geometric(1.0 / shape.session_mean))):
            if shape.chain_share and rng.random() < shape.chain_share:
                k = shape.chain_ks[int(rng.integers(len(shape.chain_ks)))]
                yield Request(user, payload(), chain_k=k,
                              mode="fallback" if chains % 2 else "objects")
                chains += 1
            else:
                fn = inputs.functions[int(rng.choice(shape.n_functions,
                                                     p=popularity))]
                yield Request(user, payload(), function=fn)
            sent += 1


class Client:
    """The single closed-loop client, acting also as the orchestrator that
    forks, deletes and links trustlets."""

    def __init__(self, rig: Rig, shape: Shape, inputs: Inputs, seed: int):
        self.rig = rig
        self.shape = shape
        self.inputs = inputs
        self.tracer = rig.tracer
        self.transport_rng = Rng(seed + 3)
        self.transport_key = Rng(seed + 4).bytes(32)
        self.sent = 0
        self.accounting = None
        self.first_errors: dict = {}

    def handle_for(self, fn: Function) -> int:
        """The function's live trustlet; under a live limit, fork it when
        missing and delete the least recently used one beyond the limit."""
        rig = self.rig
        handle = rig.live.get(fn.name)
        if handle is not None:
            rig.live.move_to_end(fn.name)
            return handle
        handle = rig.fork(fn)
        if len(rig.live) > self.shape.live_limit:
            rig.delete(next(iter(rig.live)))
        return handle

    def _invoke(self, rec: Record, user, fn: Function, payload):
        tr, monitor = self.tracer, self.rig.monitor
        with tr.span("provider.make_request"):
            request = user.make_request(fn.digest, payload)
        handle = self.handle_for(fn)
        with tr.span("monitor.invoke_trustlet"):
            result = monitor.invoke_trustlet(handle, request.ciphertext)
        rec.results.append(result)
        return request, result

    def _finish(self, rec: Record, user, request, result, input_digest=None):
        tr = self.tracer
        with tr.span("provider.decrypt_response"):
            rec.output = user.decrypt_response(request,
                                               result.output_ciphertext)
        exp = self.rig.expectations(user, request, input_digest)
        with tr.span("attestation.verify_report"):
            rec.verified.append(att.verify_report(result.report, exp))

    def single(self, rec: Record, req: Request) -> None:
        user = self.rig.users[req.user]
        request, result = self._invoke(rec, user, req.function, req.payload)
        self._finish(rec, user, request, result)

    def chain_objects(self, rec: Record, req: Request) -> None:
        tr, monitor = self.tracer, self.rig.monitor
        fns = self.inputs.chains[req.chain_k]
        handles = [self.rig.live[fn.name] for fn in fns]
        for producer, consumer in zip(handles, handles[1:]):
            with tr.span("monitor.link_chain"):
                monitor.link_chain(producer, consumer)
        user = self.rig.users[req.user]
        request, result = self._invoke(rec, user, fns[0], req.payload)
        while result.handoff is not None:
            with tr.span("monitor.invoke_chained"):
                result = monitor.invoke_chained(result.handoff)
            rec.results.append(result)
        if len(rec.results) != req.chain_k:
            raise ChainIncomplete(f"{len(rec.results)} of {req.chain_k} hops",
                                  fns[len(rec.results)].name)
        self._finish(rec, user, request, result)

    def chain_fallback(self, rec: Record, req: Request) -> None:
        tr, monitor = self.tracer, self.rig.monitor
        fns = self.inputs.chains[req.chain_k]
        user = self.rig.users[req.user]
        request, result = self._invoke(rec, user, fns[0], req.payload)
        exp = self.rig.expectations(user, request)
        with tr.span("attestation.verify_report"):
            rec.verified.append(att.verify_report(result.report, exp))
        for fn in fns[1:]:
            with tr.span("objects.fallback_transfer"):
                _env, delivered, charge = fallback_transfer(
                    monitor.objects, result.output_obj_id, monitor.objects,
                    self.transport_key, monitor.guest, self.transport_rng,
                    colocated=True)
            rec.transfer_us.append(charge)
            previous = result.report.chain_entries[-1].output_digest
            with tr.span("monitor.invoke_with_input"):
                result = monitor.invoke_with_input(
                    self.rig.live[fn.name], delivered, request.response_key,
                    request.nonce)
            rec.results.append(result)
            if fn is fns[-1]:
                self._finish(rec, user, request, result, previous)
            else:
                exp = self.rig.expectations(user, request, previous)
                with tr.span("attestation.verify_report"):
                    rec.verified.append(att.verify_report(result.report, exp))

    def replace(self, req: Request, dangling: Optional[str]) -> None:
        """What the orchestrator does after a failed request: replace every
        trustlet the request used, downstream first.

        The trustlet named ``dangling`` is set aside instead, and deleted
        after the timed phase.  It is the consumer of a chain link that
        per-user recreation dropped (a known defect): recreation already
        freed the link's frames with the producer's page table, and
        deleting the consumer frees them again, after which the pool hands
        one frame to two objects and later, unrelated requests fail.  The
        frame check after the timed phase reports the double free instead.
        """
        for fn in reversed(req.functions(self.inputs)):
            if fn.name not in self.rig.live:
                continue
            if fn.name == dangling:
                self.rig.set_aside.append(self.rig.live.pop(fn.name))
            else:
                self.rig.delete(fn.name)
            self.rig.fork(fn)

    def send(self, req: Request) -> tuple[Record, int]:
        """Run one request; returns its record and host time in ns."""
        rec = Record()
        with self.tracer.request():
            t0 = time.perf_counter_ns()
            try:
                if req.function is not None:
                    self.single(rec, req)
                elif req.mode == "objects":
                    self.chain_objects(rec, req)
                else:
                    self.chain_fallback(rec, req)
            # The request is the boundary that must keep running: any error
            # fails this request only, and is named in the run's output.
            except Exception as exc:  # noqa: BLE001
                rec.failure = ("chain_link_dropped"
                               if isinstance(exc, ChainIncomplete)
                               else type(exc).__name__)
                self.first_errors.setdefault(rec.failure, repr(exc))
                self.replace(req, getattr(exc, "consumer", None))
            self.sent += 1
            every = self.shape.accounting_every
            if every and self.sent % every == 0:
                with self.tracer.span("memory.accounting"):
                    self.accounting = accounting(self.rig.monitor.live_tables())
            elapsed = time.perf_counter_ns() - t0
        self.rig.monitor.guest.tap.clear()
        self.rig.monitor.guest.file_reads.clear()
        return rec, elapsed


def _digest_update(h, index: int, req: Request, rec: Record) -> None:
    """Simulated outputs only: charges, report entries, output digest,
    failure kind.  Process-global uids never enter."""
    h.update(f"{index}|{req.kind}|{len(req.payload)}|{rec.failure}".encode())
    for result in rec.results:
        c = result.charges
        h.update(struct.pack(">6q", c.decrypt_us, c.input_us, c.exec_us,
                             c.output_us, c.report_us, c.response_us))
        if result.report is not None:
            h.update(b"".join(e.to_bytes() for e in result.report.chain_entries))
    for charge in rec.transfer_us:
        h.update(struct.pack(">q", charge))
    if rec.output is not None:
        h.update(hashlib.sha256(rec.output).digest())


def _check(phase: Phase, req: Request, rec: Record, inputs: Inputs) -> bool:
    """Independent checks on one completed response."""
    expected = reference_output(req.functions(inputs), req.payload, inputs.ext)
    ok = phase.check(rec.output == expected, "emu.output_matches_reexecution")
    ok &= phase.check(all(rec.verified), "emu.verify_report")
    final = rec.results[-1].report
    ok &= phase.check(
        final.chain_entries[-1].output_digest == hashlib.sha512(rec.output).digest(),
        "emu.report_binds_output")
    if req.mode == "objects":
        ok &= phase.check(len(final.chain_entries) == req.chain_k,
                          "emu.report_covers_chain")
    return ok


def _check_density(phase: Phase, rig: Rig, usage) -> bool:
    """accounting(): the zygote is the shared part, counted once, and each
    live trustlet adds at least its exclusive region."""
    live = len(rig.live)
    exclusive_min = live * pages_for(rig.monitor.config.trustlet_exclusive_bytes) * PAGE
    return phase.check(
        usage.shared_bytes == (rig.zygote_pages * PAGE if live else 0)
        and usage.exclusive_bytes >= exclusive_min
        and usage.total_resident_bytes
        == usage.shared_bytes + usage.exclusive_bytes,
        "memory.accounting_density")


def _check_frames(phase: Phase, rig: Rig) -> None:
    monitor = rig.monitor
    store = monitor.store
    phase.run_check(store.total_refs()
                    == sum(t.n_entries() for t in monitor.live_tables()),
                    "memory.refs_equal_entries")
    for name in list(rig.live):
        rig.delete(name)
    for handle in rig.set_aside:
        monitor.delete_trustlet(handle)
    surplus = monitor.pool.free_count - rig.free_after_zygote
    phase.info["free_frames_surplus_after_deletes"] = surplus
    phase.run_check(surplus == 0 and store.total_refs()
                    == sum(t.n_entries() for t in monitor.live_tables()),
                    "memory.free_frames_restored")


def run(shape: Shape, seed: int, seconds: float, tracer) -> Phase:
    phase = Phase(segment=shape.segment)
    rng = np.random.default_rng(seed)
    inputs = make_inputs(shape, rng)
    rig = None
    for _ in range(shape.setups):
        rig = None
        gc.collect()
        rig = phase.setup(lambda: Rig(seed, shape, inputs, tracer))
    client = Client(rig, shape, inputs, seed)
    monitor = rig.monitor
    # Per-layer spans cover set-up and the timed phase, not the warm-up
    # requests or the teardown after it.
    tracer.record(False)
    stream = request_stream(shape, inputs, rng)
    digest = hashlib.sha256()
    failure_kinds: Counter = Counter()
    start = None
    recreations = 0
    planned = planned_operations(seconds, shape.nominal_per_s)
    index = 0
    while True:
        if index == shape.warmup:
            tracer.record(True)
            start = (monitor.objects.counter.snapshot(),
                     monitor.cache.hits, monitor.cache.misses,
                     monitor.cache.bytes_hashed, monitor.pool.free_count)
        req = next(stream)
        rec, elapsed = client.send(req)
        phase.attempted += 1
        if index < shape.digest_requests:
            _digest_update(digest, index, req, rec)
            if index + 1 == shape.digest_requests:
                phase.peak_rss_mib = peak_rss_mib()
        if rec.failure is None:
            ok = _check(phase, req, rec, inputs)
        else:
            failure_kinds[f"{req.kind.split(':')[0]}:{rec.failure}"] += 1
            phase.failures[rec.failure] += 1
            ok = False
        if client.accounting is not None:
            ok &= _check_density(phase, rig, client.accounting)
            client.accounting = None
        if not ok:
            phase.failed += 1
        if index >= shape.warmup:
            recreations += sum(r.recreated for r in rec.results)
            phase.timed(elapsed, ok, len(rec.results))
            if (index - shape.warmup) % shape.speed_every == 0:
                phase.sample_speed()
        index += 1
        if index >= shape.digest_requests and (
                index >= shape.warmup + planned
                or (index > shape.warmup and phase.over_time(seconds))):
            break
    tracer.record(False)
    counters, hits, misses, hashed, free_start = start
    after = monitor.objects.counter.snapshot()
    d_hits, d_misses = monitor.cache.hits - hits, monitor.cache.misses - misses
    phase.counters = {
        "objects.payload_bytes_copied": (
            after["payload_bytes_copied"] - counters["payload_bytes_copied"],
            "bytes"),
        "objects.crypto_ops": (after["crypto_ops"] - counters["crypto_ops"],
                               "count"),
        "objects.fallback_copies": (
            after["fallback_copies"] - counters["fallback_copies"], "count"),
        "monitor.recreations": (recreations, "count"),
        "attestation.cache_hits": (d_hits, "count"),
        "attestation.cache_misses": (d_misses, "count"),
        "attestation.cache_bytes_hashed": (
            monitor.cache.bytes_hashed - hashed, "bytes"),
        "attestation.cache_hit_ratio": (
            d_hits / max(1, d_hits + d_misses), "ratio"),
        "memory.free_frames_start": (free_start, "count"),
        "memory.free_frames_end": (monitor.pool.free_count, "count"),
    }
    phase.digest = digest.hexdigest()
    phase.info = {"requests": index, "planned_timed_requests": planned,
                  "failure_kinds": dict(failure_kinds),
                  "first_errors": client.first_errors,
                  "set_aside_trustlets": len(rig.set_aside),
                  "rss_mib_at_end": peak_rss_mib()}
    _check_frames(phase, rig)
    return phase
