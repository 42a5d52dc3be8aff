"""Measurement service and the differential-attestation report machinery.

Immutable components (monitor, zygote, function) are measured once and the
digests cached; per-invocation reports hash only the mutable input and
output bytes, so the hashing cost of a warm invocation is independent of
zygote size.  The simulated platform root of trust is a signing keypair
exposing the gen/verif/getD black-box:

    verif(gen(m, d, u), m, d) = true
    getD(gen(m, d, u)) = u

Every differential report embeds the monitor's constant boot-time platform
report, so a verifier would otherwise check the same platform signature on
every request.  That signature check is a pure function of (vendor key,
signed message, signature), so its verdict is remembered: a platform
report's signature is checked once per distinct (key, report) in a process.
The machine-id and measurement comparisons, and the nonce-bound report
signature, are checked on every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from . import wire
from .crypto import Rng, SigningKey, verify_signature
from .errors import NoPolicyKey
from .images import FunctionSpec, ZygoteImage
from .memory import CostModel

DIGEST_LEN = 64
NONCE_LEN = 16


def sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


class SubjectKind(str, Enum):
    MONITOR = "monitor"
    ZYGOTE = "zygote"
    FUNCTION = "function"


class MeasurementCache:
    """Digest cache keyed by (subject kind, content id).

    A hit returns the stored digest with zero hash charge and adds nothing
    to bytes_hashed.  Content ids identify a loaded context (image or
    function instance), mirroring digests being cached alongside the
    process state they describe.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[SubjectKind, str], bytes] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_hashed = 0
        # The content measure_transient last hashed, and its digest.
        self._last: object = None
        self._last_digest = b""

    def measure(self, kind: SubjectKind, content_id: str, content: bytes,
                model: CostModel) -> tuple[bytes, int]:
        """Return (digest, simulated hash charge in microseconds)."""
        return self._measure(kind, content_id, len(content),
                             lambda: sha512(content), model)

    def measure_image(self, kind: SubjectKind,
                      image: ZygoteImage | FunctionSpec,
                      model: CostModel) -> tuple[bytes, int]:
        """Measure a zygote image or function spec under its uid.

        A miss takes the digest the object keeps over its own canonical
        form, so the measurement binds exactly the bytes that are mapped
        and the host hashes them at most once.  The charge and the bytes
        counted are those of a full hash of size_bytes() all the same.  A
        hit reads neither.
        """
        cached = self.entries.get((kind, image.uid))
        if cached is not None:
            self.hits += 1
            return cached, 0
        return self._measure(kind, image.uid, image.size_bytes(),
                             image.digest, model)

    def _measure(self, kind: SubjectKind, content_id: str, size: int,
                 digest_of: Callable[[], bytes],
                 model: CostModel) -> tuple[bytes, int]:
        key = (kind, content_id)
        cached = self.entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached, 0
        self.misses += 1
        self.bytes_hashed += size
        digest = self.entries[key] = digest_of()
        return digest, model.hash_us(size)

    def measure_transient(self, content: bytes,
                          model: CostModel) -> tuple[bytes, int]:
        """Measure mutable content (input/output); never served from cache.

        The charge and the bytes counted are those of a full hash every
        time, but the host hashes one ``bytes`` object only once in a row:
        an object hands its reader the writer's own bytes, so a chain hop's
        input is the object its producer's output was, and an identity
        function's output is its input.
        """
        self.misses += 1
        self.bytes_hashed += len(content)
        if content is not self._last or type(content) is not bytes:
            self._last, self._last_digest = content, sha512(content)
        return self._last_digest, model.hash_us(len(content))


# -- simulated platform root of trust ------------------------------------------


class MachineKey:
    """Vendor-provisioned signing key standing in for the platform ASP."""

    def __init__(self, signer: SigningKey):
        self.signer = signer

    @staticmethod
    def generate(rng: Rng) -> "MachineKey":
        return MachineKey(SigningKey.generate(rng))

    @property
    def machine_id(self) -> bytes:
        return machine_id_of(self.signer.public_bytes())

    def public_bytes(self) -> bytes:
        return self.signer.public_bytes()

    def export_cert(self) -> str:
        """Vendor certificate: 32-byte public key, hex-encoded, one line."""
        return self.public_bytes().hex() + "\n"


def machine_id_of(public: bytes) -> bytes:
    """Fingerprint identifying a machine key."""
    return _machine_id(bytes(public))


# A verifier sees few vendor keys, and checks one on every report.
@functools.lru_cache(maxsize=64)
def _machine_id(public: bytes) -> bytes:
    return hashlib.sha256(public).digest()[:16]


def load_cert(text: str) -> bytes:
    """Parse an exported vendor certificate back into the public key."""
    raw = bytes.fromhex(text.strip())
    if len(raw) != 32:
        raise ValueError("vendor certificate must hold a 32-byte key")
    return raw


@dataclass(frozen=True)
class PlatformReport:
    """Signed launch measurement: gen(m, d, u).

    Every field is made immutable ``bytes`` on construction (a report
    may be built from any buffer), so the encoding, which every
    differential report embeds, is built once and kept.
    """

    machine_id: bytes
    monitor_measurement: bytes
    user_data: bytes
    signature: bytes

    def __post_init__(self) -> None:
        for name in ("machine_id", "monitor_measurement", "user_data",
                     "signature"):
            value = getattr(self, name)
            if type(value) is not bytes:
                object.__setattr__(self, name, bytes(value))

    def signed_message(self) -> bytes:
        return self.machine_id + self.monitor_measurement + self.user_data

    @functools.cached_property
    def _encoded(self) -> bytes:
        return b"".join((*wire.lp(self.machine_id),
                         *wire.lp(self.monitor_measurement),
                         *wire.lp(self.user_data), *wire.lp(self.signature)))

    def to_bytes(self) -> bytes:
        return self._encoded

    @staticmethod
    def from_bytes(data: bytes) -> "PlatformReport":
        r = wire.Reader(data)
        report = PlatformReport(r.lp(), r.lp(), r.lp(), r.lp())
        r.finish("platform report")
        return report


def asp_gen(machine_key: MachineKey, monitor_measurement: bytes,
            user_data: bytes) -> PlatformReport:
    """gen(m, d, u): deterministic signed platform report."""
    if len(user_data) != DIGEST_LEN:
        raise ValueError("user_data must be 64 bytes")
    report = PlatformReport(machine_key.machine_id, monitor_measurement,
                            user_data, b"")
    signature = machine_key.signer.sign(report.signed_message())
    return PlatformReport(report.machine_id, report.monitor_measurement,
                          report.user_data, signature)


# A verifier sees few distinct platform reports (one per monitor boot or
# handshake), so a small fixed bound covers them and caps the memory held.
@functools.lru_cache(maxsize=64)
def _platform_signature_ok(vendor_public: bytes, message: bytes,
                           signature: bytes) -> bool:
    """Memoized verdict of one platform-signature check; keyed on every
    input, so a hit returns exactly what a fresh check would."""
    return verify_signature(vendor_public, message, signature)


def asp_verif(report: PlatformReport, machine_id: bytes,
              expected_measurement: bytes, vendor_public: bytes) -> bool:
    """verif(report, m, d): signature + machine + measurement must all hold.

    The machine and measurement comparisons run on every call; the
    signature is checked once per distinct (key, report) in a process.
    """
    if report.machine_id != machine_id:
        return False
    if machine_id_of(vendor_public) != machine_id:
        return False
    if report.monitor_measurement != expected_measurement:
        return False
    # A report's fields are bytes (see ``PlatformReport``); bytes() keys
    # the memo on the value of a vendor key given as a bytearray.
    return _platform_signature_ok(bytes(vendor_public),
                                  report.signed_message(), report.signature)


def asp_get_user_data(report: PlatformReport) -> bytes:
    """getD(report): the embedded user data."""
    return report.user_data


# -- differential attestation reports ------------------------------------------


@dataclass(frozen=True)
class ChainEntry:
    """Measurements for one function execution in a (possibly 1-long) chain."""

    zygote_digest: bytes
    function_digest: bytes
    input_digest: bytes
    output_digest: bytes

    def to_bytes(self) -> bytes:
        return (self.zygote_digest + self.function_digest
                + self.input_digest + self.output_digest)


@dataclass(frozen=True)
class AttestationReport:
    """Nonce-bound, doubly-signed composition of all execution measurements.

    Its fields are immutable ``bytes`` (the parser hands out nothing
    else), so the signed message is joined once, as the report is made,
    and kept: ``build_report`` signs the message it keeps, and a report
    altered with ``dataclasses.replace`` joins its own.
    """

    platform: PlatformReport
    nonce: bytes
    chain_entries: tuple[ChainEntry, ...]
    signature: bytes
    _message: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = [*wire.lp(self.platform.to_bytes()), *wire.lp(self.nonce),
                 wire.u32(len(self.chain_entries))]
        for e in self.chain_entries:
            parts += (e.zygote_digest, e.function_digest, e.input_digest,
                      e.output_digest)
        object.__setattr__(self, "_message", b"".join(parts))

    def signed_message(self) -> bytes:
        return self._message

    def to_bytes(self) -> bytes:
        return b"".join((self._message, *wire.lp(self.signature)))

    @staticmethod
    def from_bytes(data: bytes) -> "AttestationReport":
        r = wire.Reader(data)
        platform = PlatformReport.from_bytes(r.lp())
        nonce = r.lp()
        entries = tuple(ChainEntry(r.take(DIGEST_LEN), r.take(DIGEST_LEN),
                                   r.take(DIGEST_LEN), r.take(DIGEST_LEN))
                        for _ in range(r.count(4 * DIGEST_LEN)))
        report = AttestationReport(platform, nonce, entries, r.lp())
        r.finish("attestation report")
        return report

    def to_json(self) -> str:
        """Debug rendering; the binary form is canonical."""
        return json.dumps({
            "platform": {
                "machine_id": self.platform.machine_id.hex(),
                "monitor_measurement": self.platform.monitor_measurement.hex(),
                "user_data": self.platform.user_data.hex(),
                "signature": self.platform.signature.hex(),
            },
            "nonce": self.nonce.hex(),
            "chain_entries": [
                {
                    "zygote": e.zygote_digest.hex(),
                    "function": e.function_digest.hex(),
                    "input": e.input_digest.hex(),
                    "output": e.output_digest.hex(),
                }
                for e in self.chain_entries
            ],
            "signature": self.signature.hex(),
        }, indent=2, sort_keys=True)


@dataclass
class InvocationMeasurements:
    """What one chain link of a report measures: the zygote image and the
    function spec, which the cache measures under their uids, and the
    input and output bytes, hashed fresh."""

    zygote: ZygoteImage
    function: FunctionSpec
    input_bytes: bytes
    output_bytes: bytes


def build_report(cache: MeasurementCache, nonce: bytes,
                 chain: Sequence[InvocationMeasurements],
                 platform: PlatformReport,
                 signer: Optional[SigningKey],
                 model: CostModel) -> tuple[AttestationReport, int]:
    """Compose and sign a report; charge reflects only bytes actually hashed.

    Zygote and function digests come from the cache when present; input and
    output are always hashed fresh.
    """
    if signer is None:
        raise NoPolicyKey("no function private key loaded")
    if not chain:
        raise ValueError("chain must be non-empty")
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 16 bytes")
    charge = 0
    entries = []
    for link in chain:
        zygote, c = cache.measure_image(SubjectKind.ZYGOTE, link.zygote, model)
        charge += c
        function, c = cache.measure_image(SubjectKind.FUNCTION, link.function,
                                          model)
        charge += c
        inp, c = cache.measure_transient(link.input_bytes, model)
        charge += c
        out, c = cache.measure_transient(link.output_bytes, model)
        charge += c
        entries.append(ChainEntry(zygote, function, inp, out))
    report = AttestationReport(platform, bytes(nonce), tuple(entries), b"")
    # The message leaves the signature out: the report keeps the one it
    # is signed over and takes its signature in place.
    object.__setattr__(report, "signature",
                       signer.sign(report.signed_message()))
    return report, charge


@dataclass
class VerifyExpectations:
    """Everything an out-of-process verifier holds before checking a report."""

    machine_id: bytes
    vendor_public: bytes
    monitor_digest: bytes
    allowed_zygote_digests: frozenset
    allowed_function_digests: frozenset
    nonce: bytes
    input_digest: bytes
    function_verify_public: bytes


def verify_report(report: AttestationReport,
                  expectations: VerifyExpectations) -> bool:
    """True iff the platform report, nonce, every chain digest, the submitted
    input digest, and the report signature all check out.

    Interior chain links must consume the previous link's output.  The
    embedded platform report goes through `asp_verif`, whose signature
    verdict is memoized; the report signature covers the nonce, so it is
    unique per request and is checked on every call.
    """
    if not asp_verif(report.platform, expectations.machine_id,
                     expectations.monitor_digest, expectations.vendor_public):
        return False
    if report.nonce != expectations.nonce:
        return False
    if not report.chain_entries:
        return False
    for i, entry in enumerate(report.chain_entries):
        if entry.zygote_digest not in expectations.allowed_zygote_digests:
            return False
        if entry.function_digest not in expectations.allowed_function_digests:
            return False
        if i == 0:
            if entry.input_digest != expectations.input_digest:
                return False
        elif entry.input_digest != report.chain_entries[i - 1].output_digest:
            return False
    return verify_signature(expectations.function_verify_public,
                            report.signed_message(), report.signature)
