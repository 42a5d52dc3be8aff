"""Concrete cryptography for the emulator.

Primitive choices (any standard instantiation works; digests that tests
bind to are always SHA-512):

* signatures: Ed25519 (platform root and report signing)
* request encryption: sealed-box ECIES over X25519 + HKDF-SHA256 + AES-GCM
* session key exchange: ephemeral X25519, key = HKDF(shared secret)
* symmetric authenticated encryption: AES-256-GCM

All key material can be drawn from a caller-supplied seeded RNG so that
emulator runs are bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .errors import AuthFailed, DecryptFailed


class Rng:
    """Seedable byte source for key material and nonces."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = random.Random(seed)

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)


def _hkdf(shared: bytes, info: bytes, length: int = 32) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=None,
                info=info).derive(shared)


# -- signing ------------------------------------------------------------------

class SigningKey:
    """Ed25519 signing key; signatures are deterministic."""

    def __init__(self, private: ed25519.Ed25519PrivateKey):
        self._private = private
        self._public = private.public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw)

    @staticmethod
    def generate(rng: Rng) -> "SigningKey":
        return SigningKey(
            ed25519.Ed25519PrivateKey.from_private_bytes(rng.bytes(32)))

    @staticmethod
    def from_bytes(raw: bytes) -> "SigningKey":
        return SigningKey(ed25519.Ed25519PrivateKey.from_private_bytes(raw))

    def private_bytes(self) -> bytes:
        return self._private.private_bytes(
            Encoding.Raw, PrivateFormat.Raw, NoEncryption())

    def public_bytes(self) -> bytes:
        return self._public

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


# The public keys that a process sees again and again, a function's and a
# vendor's, are parsed once each.  Only public material is kept so: no
# cache is keyed by a secret.
@functools.lru_cache(maxsize=64)
def _ed25519_public(raw: bytes) -> ed25519.Ed25519PublicKey:
    return ed25519.Ed25519PublicKey.from_public_bytes(raw)


@functools.lru_cache(maxsize=64)
def _x25519_public(raw: bytes) -> x25519.X25519PublicKey:
    return x25519.X25519PublicKey.from_public_bytes(raw)


def verify_signature(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        _ed25519_public(bytes(public)).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# -- symmetric ----------------------------------------------------------------

def symmetric_encrypt(key: bytes, plaintext: bytes, rng: Rng,
                      aad: bytes = b"") -> bytes:
    nonce = rng.bytes(12)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def symmetric_decrypt(key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
    if len(blob) < 13:
        raise AuthFailed("ciphertext too short")
    try:
        return AESGCM(key).decrypt(blob[:12], blob[12:], aad)
    except InvalidTag as exc:
        raise AuthFailed("symmetric authentication failed") from exc


# -- sealed-box ECIES ---------------------------------------------------------

class BoxKey:
    """X25519 keypair for sealed-box request encryption; the public key
    is derived once, as ``seal_open`` needs it for every request."""

    def __init__(self, private: x25519.X25519PrivateKey):
        self._private = private
        self._public = private.public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw)

    @staticmethod
    def generate(rng: Rng) -> "BoxKey":
        return BoxKey(x25519.X25519PrivateKey.from_private_bytes(rng.bytes(32)))

    @staticmethod
    def from_bytes(raw: bytes) -> "BoxKey":
        return BoxKey(x25519.X25519PrivateKey.from_private_bytes(raw))

    def private_bytes(self) -> bytes:
        return self._private.private_bytes(
            Encoding.Raw, PrivateFormat.Raw, NoEncryption())

    def public_bytes(self) -> bytes:
        return self._public

    def decrypt(self, blob: bytes) -> bytes:
        return seal_open(self, blob)


def seal(recipient_public: bytes, plaintext: bytes, rng: Rng) -> bytes:
    """Encrypt to a public key: ephemeral X25519 || AES-GCM ciphertext.

    The AEAD nonce is derived from the two public keys; the ephemeral key is
    unique per message, so the derived nonce never repeats under one key.
    """
    eph = x25519.X25519PrivateKey.from_private_bytes(rng.bytes(32))
    eph_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    shared = eph.exchange(_x25519_public(bytes(recipient_public)))
    key = _hkdf(shared, b"walletemu-seal")
    nonce = hashlib.sha256(eph_pub + recipient_public).digest()[:12]
    return eph_pub + AESGCM(key).encrypt(nonce, plaintext, eph_pub)


def seal_open(recipient: BoxKey, blob: bytes) -> bytes:
    if len(blob) < 33:
        raise DecryptFailed("sealed box too short")
    eph_pub, ciphertext = blob[:32], blob[32:]
    try:
        shared = recipient._private.exchange(
            x25519.X25519PublicKey.from_public_bytes(eph_pub))
        key = _hkdf(shared, b"walletemu-seal")
        nonce = hashlib.sha256(
            eph_pub + recipient.public_bytes()).digest()[:12]
        return AESGCM(key).decrypt(nonce, ciphertext, eph_pub)
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailed("sealed box authentication failed") from exc


# -- Diffie-Hellman session ---------------------------------------------------

class DhKey:
    """Ephemeral X25519 half of a session key exchange."""

    def __init__(self, private: x25519.X25519PrivateKey):
        self._private = private

    @staticmethod
    def generate(rng: Rng) -> "DhKey":
        return DhKey(x25519.X25519PrivateKey.from_private_bytes(rng.bytes(32)))

    def public_bytes(self) -> bytes:
        return self._private.public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw)

    def session_key(self, peer_public: bytes) -> bytes:
        shared = self._private.exchange(
            x25519.X25519PublicKey.from_public_bytes(peer_public))
        return _hkdf(shared, b"walletemu-session")


# -- function keys ------------------------------------------------------------

class FunctionKey:
    """The function provider's asymmetric key.

    One logical key with two halves: an X25519 half that users encrypt
    requests to, and an Ed25519 half that signs attestation reports.
    """

    def __init__(self, box: BoxKey, signer: SigningKey):
        self.box = box
        self.signer = signer

    @staticmethod
    def generate(rng: Rng) -> "FunctionKey":
        return FunctionKey(BoxKey.generate(rng), SigningKey.generate(rng))

    @staticmethod
    def from_bytes(raw: bytes) -> "FunctionKey":
        if len(raw) != 64:
            raise ValueError("function key must be 64 bytes")
        return FunctionKey(BoxKey.from_bytes(raw[:32]),
                           SigningKey.from_bytes(raw[32:]))

    def private_bytes(self) -> bytes:
        return self.box.private_bytes() + self.signer.private_bytes()

    def public(self) -> "FunctionPublicKey":
        return FunctionPublicKey(self.box.public_bytes(),
                                 self.signer.public_bytes())


class FunctionPublicKey:
    """Public halves of a FunctionKey: encrypt-to and verify-with."""

    def __init__(self, box_public: bytes, verify_public: bytes):
        self.box_public = box_public
        self.verify_public = verify_public
