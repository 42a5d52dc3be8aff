"""Adversarial protocol tests: secrecy, replay, MITM, compromise semantics.

These mirror the protocol's verified properties as runtime checks: secrecy
of inputs/outputs/keys against the untrusted guest, authenticity of
attested results, replay rejection, and the deliberate demonstration that
compromising the long-term function key decrypts recorded requests (no
perfect forward secrecy is claimed).
"""

import random

import pytest

from conftest import counting_verifies, echo_fn, make_rig, small_image
from walletemu import attestation as att
from walletemu.crypto import FunctionKey, Rng, seal_open
from walletemu.errors import StaleNonce, VerifFailed
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.provider import FunctionProvider, UserAgent


class TestHandshakeAdversaries:
    def test_mitm_dh_substitution_rejected(self):
        monitor = Monitor(MonitorConfig(seed=1))
        provider = FunctionProvider(Rng(2), [small_image().digest()],
                                    [echo_fn().digest()])
        nonce = provider.begin_handshake()
        report, _monitor_dh = monitor.handshake_provider(nonce)
        attacker_dh = Rng(3).bytes(32)  # substituted key
        with pytest.raises(VerifFailed, match="binding"):
            provider.complete_handshake(report, attacker_dh,
                                        monitor.machine_key.public_bytes(),
                                        monitor.monitor_digest)

    def test_replayed_report_with_new_nonce_rejected(self):
        monitor = Monitor(MonitorConfig(seed=4))
        provider = FunctionProvider(Rng(5), [small_image().digest()],
                                    [echo_fn().digest()])
        nonce1 = provider.begin_handshake()
        report1, dh1 = monitor.handshake_provider(nonce1)
        provider.complete_handshake(report1, dh1,
                                    monitor.machine_key.public_bytes(),
                                    monitor.monitor_digest)
        # The adversary records (report1, dh1) and replays them later.
        provider.begin_handshake()
        with pytest.raises(VerifFailed):
            provider.complete_handshake(report1, dh1,
                                        monitor.machine_key.public_bytes(),
                                        monitor.monitor_digest)

    def test_replay_under_same_nonce_refused_with_memoized_signature(
            self, monkeypatch):
        class StuckNonceRng(Rng):
            """A provider nonce source that repeats: every nonce is zero."""

            def bytes(self, n):
                return bytes(n) if n == 16 else super().bytes(n)

        monitor = Monitor(MonitorConfig(seed=14))
        provider = FunctionProvider(StuckNonceRng(15), [small_image().digest()],
                                    [echo_fn().digest()])
        vendor = monitor.machine_key.public_bytes()
        nonce = provider.begin_handshake()
        report, dh = monitor.handshake_provider(nonce)
        provider.complete_handshake(report, dh, vendor, monitor.monitor_digest)
        # The adversary replays (report, dh) when the same nonce comes round;
        # the report's signature verdict is served from the memo.
        assert provider.begin_handshake() == nonce
        verifies = counting_verifies(monkeypatch)
        with pytest.raises(VerifFailed, match="replayed platform report"):
            provider.complete_handshake(report, dh, vendor,
                                        monitor.monitor_digest)
        assert verifies == []

    def test_monitor_rejects_stale_provider_nonce(self):
        monitor = Monitor(MonitorConfig(seed=6))
        nonce = Rng(7).bytes(16)
        monitor.handshake_provider(nonce)
        with pytest.raises(StaleNonce):
            monitor.handshake_provider(nonce)

    def test_wrong_monitor_digest_fails_verification(self):
        monitor = Monitor(MonitorConfig(seed=8))
        provider = FunctionProvider(Rng(9), [small_image().digest()],
                                    [echo_fn().digest()])
        nonce = provider.begin_handshake()
        report, dh = monitor.handshake_provider(nonce)
        with pytest.raises(VerifFailed):
            provider.complete_handshake(report, dh,
                                        monitor.machine_key.public_bytes(),
                                        att.sha512(b"some other monitor"))


class TestSecrecy:
    def test_sentinel_payloads_never_reach_the_guest_in_plaintext(self):
        rng = random.Random(99)
        for trial in range(10):
            rig = make_rig(seed=1000 + trial)
            fn = rig.functions[0]
            t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
            sentinel_in = bytes(rng.randbytes(24))
            request = rig.user.make_request(fn.digest(), sentinel_in)
            result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
            sentinel_out = rig.user.decrypt_response(
                request, result.output_ciphertext)
            guest = rig.monitor.guest
            assert not guest.tap_contains(sentinel_in)
            assert not guest.tap_contains(sentinel_out)
            key = rig.monitor.policy.function_key.private_bytes()
            assert not guest.tap_contains(key[:32])
            assert not guest.tap_contains(key[32:])
            assert not guest.tap_contains(request.response_key)

    def test_guest_observed_the_traffic_at_all(self):
        rig = make_rig(seed=55)
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"x")
        rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        # The scan above is only meaningful because the guest really does
        # see ciphertexts, reports, and the image bytes.
        assert rig.monitor.guest.tap_contains(request.ciphertext)
        assert rig.monitor.guest.tap_contains(rig.image.canonical_bytes)


class TestCompromise:
    def test_function_key_compromise_decrypts_recorded_requests(self):
        # Demonstrates the absent perfect-forward-secrecy property: the
        # long-term function key decrypts any recorded request ciphertext.
        rig = make_rig(seed=77)
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        secret_input = b"extremely confidential payload"
        request = rig.user.make_request(fn.digest(), secret_input)
        rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        recorded = [blob for blob in rig.monitor.guest.tap
                    if blob == request.ciphertext]
        assert recorded, "guest must have recorded the request"

        leaked = rig.provider.compromise()["function_private_key"]
        key = FunctionKey.from_bytes(leaked)
        plaintext = seal_open(key.box, recorded[0])
        assert secret_input in plaintext

    def test_without_compromise_guest_cannot_decrypt(self):
        rig = make_rig(seed=78)
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"sealed tight")
        rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        stranger_key = FunctionKey.generate(Rng(123456))
        from walletemu.errors import DecryptFailed
        with pytest.raises(DecryptFailed):
            seal_open(stranger_key.box, request.ciphertext)


class TestAuthenticity:
    def test_verified_report_matches_independent_reexecution(self):
        # Authenticity: a verified report's output digest must equal the
        # digest of an independent re-execution of (function, input).
        import hashlib
        rig = make_rig(seed=88)
        fn = rig.functions[1]  # shout: uppercase + "!"
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"check me")
        result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        assert att.verify_report(result.report, rig.expectations(request))
        independent_output = b"check me".upper() + b"!"
        assert result.report.chain_entries[-1].output_digest == \
            hashlib.sha512(independent_output).digest()
