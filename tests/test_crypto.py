"""Concrete-crypto layer tests: sealing, sessions, signatures, determinism."""

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519

from walletemu import crypto
from walletemu.crypto import (
    BoxKey,
    DhKey,
    FunctionKey,
    Rng,
    SigningKey,
    seal,
    seal_open,
    symmetric_decrypt,
    symmetric_encrypt,
    verify_signature,
)
from walletemu.errors import AuthFailed, DecryptFailed


class TestSealedBox:
    def test_round_trip(self):
        rng = Rng(1)
        recipient = BoxKey.generate(rng)
        blob = seal(recipient.public_bytes(), b"secret payload", rng)
        assert seal_open(recipient, blob) == b"secret payload"
        assert b"secret payload" not in blob

    def test_wrong_key_fails(self):
        rng = Rng(2)
        a, b = BoxKey.generate(rng), BoxKey.generate(rng)
        blob = seal(a.public_bytes(), b"for a only", rng)
        with pytest.raises(DecryptFailed):
            seal_open(b, blob)

    def test_tamper_fails(self):
        rng = Rng(3)
        recipient = BoxKey.generate(rng)
        blob = bytearray(seal(recipient.public_bytes(), b"payload", rng))
        blob[-1] ^= 0x01
        with pytest.raises(DecryptFailed):
            seal_open(recipient, bytes(blob))


class TestSymmetric:
    def test_round_trip(self):
        rng = Rng(4)
        key = rng.bytes(32)
        blob = symmetric_encrypt(key, b"hello", rng)
        assert symmetric_decrypt(key, blob) == b"hello"

    def test_wrong_key_is_auth_failure(self):
        rng = Rng(5)
        blob = symmetric_encrypt(rng.bytes(32), b"hello", rng)
        with pytest.raises(AuthFailed):
            symmetric_decrypt(rng.bytes(32), blob)


class TestSignatures:
    def test_sign_verify(self):
        key = SigningKey.generate(Rng(6))
        sig = key.sign(b"message")
        assert verify_signature(key.public_bytes(), b"message", sig)

    def test_bit_flip_fails(self):
        key = SigningKey.generate(Rng(7))
        sig = bytearray(key.sign(b"message"))
        sig[0] ^= 0x80
        assert not verify_signature(key.public_bytes(), b"message", bytes(sig))

    def test_signatures_deterministic(self):
        key = SigningKey.generate(Rng(8))
        assert key.sign(b"m") == key.sign(b"m")


class TestDh:
    def test_both_sides_derive_same_key(self):
        rng = Rng(9)
        a, b = DhKey.generate(rng), DhKey.generate(rng)
        assert a.session_key(b.public_bytes()) == b.session_key(a.public_bytes())

    def test_distinct_pairs_distinct_keys(self):
        rng = Rng(10)
        a, b, c = (DhKey.generate(rng) for _ in range(3))
        assert a.session_key(b.public_bytes()) != a.session_key(c.public_bytes())


class TestDeterminism:
    def test_seeded_generation_reproducible(self):
        k1 = FunctionKey.generate(Rng(42))
        k2 = FunctionKey.generate(Rng(42))
        assert k1.private_bytes() == k2.private_bytes()
        blob1 = seal(k1.public().box_public, b"req", Rng(7))
        blob2 = seal(k2.public().box_public, b"req", Rng(7))
        assert blob1 == blob2


class TestPublicKeysParsedOnce:
    def test_seal_and_verify_parse_each_public_key_once(self, monkeypatch):
        crypto._x25519_public.cache_clear()
        crypto._ed25519_public.cache_clear()
        parsed = []
        for module, name in ((x25519, "X25519PublicKey"),
                             (ed25519, "Ed25519PublicKey")):
            cls = getattr(module, name)
            real = cls.from_public_bytes
            monkeypatch.setattr(cls, "from_public_bytes", staticmethod(
                lambda raw, real=real: parsed.append(bytes(raw)) or real(raw)))
        rng = Rng(40)
        box, signer = BoxKey.generate(rng), SigningKey.generate(rng)
        for _ in range(3):
            blob = seal(box.public_bytes(), b"request", rng)
            assert seal_open(box, blob) == b"request"
            assert verify_signature(bytearray(signer.public_bytes()), b"m",
                                    signer.sign(b"m"))
        # The recipient's and the signer's keys once each; the sealed
        # boxes' ephemeral keys, which differ, every time.
        assert parsed.count(box.public_bytes()) == 1
        assert parsed.count(signer.public_bytes()) == 1
        assert len(parsed) == 2 + 3

    def test_a_malformed_public_key_is_refused_every_time(self):
        for _ in range(2):
            assert not verify_signature(b"short", b"m", bytes(64))
            with pytest.raises(ValueError):
                seal(b"short", b"request", Rng(41))
