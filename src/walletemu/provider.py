"""Function-provider and user agents.

These run "out of process" relative to the monitor: they only see what
crosses the wire (reports, ciphertexts), hold the expected measurements,
and decide whether to trust.  The provider owns the function key and the
policy; users encrypt requests to the function public key and verify the
attestation report that comes back with each result.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import attestation as att
from .crypto import (
    DhKey,
    FunctionKey,
    Rng,
    symmetric_decrypt,
    symmetric_encrypt,
)
from .errors import VerifFailed
from .monitor import InvocationRequest, Monitor, ProviderPolicy

# An input of at least this many bytes is hashed on the hasher thread while
# the request is sealed and served; a smaller one inline.  Below it the
# hand-off costs more than it hides: on emu-serve, 16 KiB made the median
# request slower than 64 KiB did, and 128 KiB measured about the same.
HASH_AHEAD_BYTES = 64 * 1024

_hasher: Optional[ThreadPoolExecutor] = None
_hasher_lock = threading.Lock()


def _hash_ahead(data: bytes) -> Future:
    """Start SHA-512 of data on the process's one hasher thread, started on
    first use.  hashlib releases the interpreter lock while it hashes, so
    the digest runs on another core while this thread goes on."""
    global _hasher
    with _hasher_lock:
        if _hasher is None:
            _hasher = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="walletemu-sha512")
        return _hasher.submit(att.sha512, data)


def _forget_hasher() -> None:
    """In a forked child the parent's hasher thread does not exist, yet its
    executor would count it as idle and start none: start afresh."""
    global _hasher, _hasher_lock
    _hasher, _hasher_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_hasher)


class FunctionProvider:
    """Holds the function key and provisions monitors over attested sessions."""

    def __init__(self, rng: Rng,
                 allowed_zygote_digests: Iterable[bytes],
                 allowed_function_digests: Iterable[bytes],
                 chains: Sequence[tuple] = ()):
        self.rng = rng
        self.function_key = FunctionKey.generate(rng)
        self.policy = ProviderPolicy(frozenset(allowed_zygote_digests),
                                     frozenset(allowed_function_digests),
                                     self.function_key, tuple(chains))
        self._pending_nonce: Optional[bytes] = None
        self._seen_report_hashes: set = set()

    def public_key(self):
        return self.function_key.public()

    def begin_handshake(self) -> bytes:
        """Fresh anti-replay nonce for the monitor."""
        self._pending_nonce = self.rng.bytes(att.NONCE_LEN)
        return self._pending_nonce

    def complete_handshake(self, report: att.PlatformReport,
                           monitor_dh_public: bytes,
                           vendor_public: bytes,
                           expected_monitor_digest: bytes) -> tuple[bytes, bytes]:
        """Verify the nonce-bound report, then wrap the policy for delivery.

        Returns (provider DH public, policy blob encrypted under the session
        key).  Aborts with VerifFailed on any report or binding mismatch.
        """
        if self._pending_nonce is None:
            raise VerifFailed("no handshake in progress")
        nonce = self._pending_nonce
        machine_id = att.machine_id_of(vendor_public)
        if not att.asp_verif(report, machine_id, expected_monitor_digest,
                             vendor_public):
            raise VerifFailed("platform report verification failed")
        expected_binding = att.sha512(monitor_dh_public + nonce)
        if att.asp_get_user_data(report) != expected_binding:
            raise VerifFailed("DH public / nonce binding mismatch")
        report_hash = hashlib.sha512(report.to_bytes()).digest()
        if report_hash in self._seen_report_hashes:
            raise VerifFailed("replayed platform report")
        self._seen_report_hashes.add(report_hash)
        self._pending_nonce = None
        dh = DhKey.generate(self.rng)
        session_key = dh.session_key(monitor_dh_public)
        blob = symmetric_encrypt(session_key, self.policy.to_bytes(), self.rng)
        return dh.public_bytes(), blob

    def provision(self, monitor: Monitor,
                  expected_monitor_digest: Optional[bytes] = None) -> None:
        """Full handshake + policy installation against a live monitor."""
        digest = expected_monitor_digest if expected_monitor_digest is not None \
            else monitor.monitor_digest
        nonce = self.begin_handshake()
        report, monitor_dh = monitor.handshake_provider(nonce)
        provider_dh, blob = self.complete_handshake(
            report, monitor_dh, monitor.machine_key.public_bytes(), digest)
        monitor.load_policy(blob, provider_dh)

    def compromise(self) -> dict:
        """Adversarial-harness hook: leak the secrets this agent holds."""
        return {"function_private_key": self.function_key.private_bytes()}


@dataclass
class PreparedRequest:
    """A sealed request and what its user keeps to check the answer.

    ``input_digest`` is the SHA-512 of the input bytes that were sealed.
    Only the report check needs it, so for an input of at least
    ``HASH_AHEAD_BYTES`` ``make_request`` hands it to the hasher thread and
    the digest overlaps the whole round trip: sealing, and the monitor's
    decryption, run, measurement and signature.  The first read waits for
    it, and re-raises if the hash failed.
    """

    ciphertext: bytes
    response_key: bytes
    nonce: bytes
    _input_digest: bytes | Future = field(repr=False)

    @property
    def input_digest(self) -> bytes:
        digest = self._input_digest
        if isinstance(digest, Future):
            digest = self._input_digest = digest.result()
        return digest


class UserAgent:
    """Request construction and response/report verification.

    The response key doubles as the user's identity to the monitor (per-user
    trustlet recreation keys off it), so one agent keeps one key.
    """

    def __init__(self, rng: Rng, function_public):
        self.rng = rng
        self.function_public = function_public
        self.response_key = rng.bytes(32)

    def make_request(self, function_digest: bytes,
                     input_bytes: bytes) -> PreparedRequest:
        # A snapshot, so a buffer changed later is not what gets hashed.
        data = bytes(input_bytes)
        digest = (_hash_ahead(data) if len(data) >= HASH_AHEAD_BYTES
                  else att.sha512(data))
        nonce = self.rng.bytes(att.NONCE_LEN)
        ciphertext = InvocationRequest.encrypt(
            self.function_public, function_digest, data,
            self.response_key, nonce, self.rng)
        return PreparedRequest(ciphertext, self.response_key, nonce, digest)

    def decrypt_response(self, request: PreparedRequest,
                         ciphertext: bytes) -> bytes:
        return symmetric_decrypt(request.response_key, ciphertext)

    def expectations(self, request: PreparedRequest, vendor_public: bytes,
                     monitor_digest: bytes,
                     allowed_zygotes: Iterable[bytes],
                     allowed_functions: Iterable[bytes]) -> att.VerifyExpectations:
        return att.VerifyExpectations(
            machine_id=att.machine_id_of(vendor_public),
            vendor_public=vendor_public,
            monitor_digest=monitor_digest,
            allowed_zygote_digests=frozenset(allowed_zygotes),
            allowed_function_digests=frozenset(allowed_functions),
            nonce=request.nonce,
            input_digest=request.input_digest,
            function_verify_public=self.function_public.verify_public)

    def compromise(self) -> dict:
        """Adversarial-harness hook: leak the secrets this agent holds."""
        return {"response_key": self.response_key}
