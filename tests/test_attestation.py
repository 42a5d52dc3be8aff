"""Measurement cache, platform report algebra, and report verification."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_sha512, counting_verifies, make_rig
from walletemu import attestation as att
from walletemu.crypto import Rng, SigningKey, verify_signature
from walletemu.errors import NoPolicyKey
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.memory import CostModel

MIB = 1048576
SHA512_EMPTY = bytes.fromhex(
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")


@pytest.fixture
def model():
    return CostModel()


@pytest.fixture
def machine():
    return att.MachineKey.generate(Rng(11))


class TestMeasurementCache:
    def test_cold_60_mib_costs_about_1_1_s(self, model):
        cache = att.MeasurementCache()
        content = bytes(60 * MIB)
        _, charge = cache.measure(att.SubjectKind.ZYGOTE, "z1", content, model)
        assert charge == pytest.approx(1_100_917, rel=1e-3)
        assert abs(charge - 1_100_000) / 1_100_000 < 0.10
        assert cache.bytes_hashed == 60 * MIB

    def test_cache_hit_is_free(self, model):
        cache = att.MeasurementCache()
        content = b"zygote bytes"
        cache.measure(att.SubjectKind.ZYGOTE, "z1", content, model)
        hashed_before = cache.bytes_hashed
        digest, charge = cache.measure(att.SubjectKind.ZYGOTE, "z1", content,
                                       model)
        assert charge == 0
        assert cache.hits == 1
        assert cache.bytes_hashed == hashed_before
        assert digest == hashlib.sha512(content).digest()
        assert cache.entries == {(att.SubjectKind.ZYGOTE, "z1"): digest}

    def test_empty_content_matches_standard_vector(self, model):
        cache = att.MeasurementCache()
        digest, _ = cache.measure_transient(b"", model)
        assert digest == SHA512_EMPTY

    def test_transient_content_is_hashed_every_time(self, model):
        cache = att.MeasurementCache()
        for _ in range(2):
            digest, charge = cache.measure_transient(b"input", model)
            assert digest == hashlib.sha512(b"input").digest()
            assert charge == model.hash_us(5)
        assert (cache.hits, cache.misses, cache.bytes_hashed) == (0, 2, 10)
        assert cache.entries == {}

    def test_one_bytes_object_is_hashed_once_in_a_row(self, model,
                                                     monkeypatch):
        # Counted and charged every time; the host hashes one bytes object
        # once in a row, and a mutable buffer every time.
        lengths = counting_sha512(monkeypatch)
        cache = att.MeasurementCache()
        payload, other = b"p" * 1000, b"q" * 10
        buffer = bytearray(b"b" * 100)
        got = [cache.measure_transient(c, model)
               for c in (payload, payload, other, payload, buffer)]
        buffer[0] = 0
        got.append(cache.measure_transient(buffer, model))
        assert lengths == [1000, 10, 1000, 100, 100]
        assert [d for d, _ in got] == [
            hashlib.sha512(bytes(c)).digest()
            for c in (payload, payload, other, payload, b"b" * 100, buffer)]
        assert [c for _, c in got] == [model.hash_us(n) for n in
                                       (1000, 1000, 10, 1000, 100, 100)]
        assert (cache.misses, cache.bytes_hashed) == (6, 3210)


class TestPlatformReportAlgebra:
    def test_gen_then_verif_holds(self, machine):
        d = Rng(1).bytes(64)
        u = Rng(2).bytes(64)
        report = att.asp_gen(machine, d, u)
        assert att.asp_verif(report, machine.machine_id, d,
                             machine.public_bytes())

    def test_get_user_data_round_trips(self, machine):
        d, u = Rng(3).bytes(64), Rng(4).bytes(64)
        assert att.asp_get_user_data(att.asp_gen(machine, d, u)) == u

    def test_verif_fails_on_different_measurement(self, machine):
        report = att.asp_gen(machine, Rng(5).bytes(64), Rng(6).bytes(64))
        assert not att.asp_verif(report, machine.machine_id,
                                 Rng(7).bytes(64), machine.public_bytes())

    def test_bit_flipped_signature_fails(self, machine):
        d = Rng(8).bytes(64)
        r = att.asp_gen(machine, d, Rng(9).bytes(64))
        bad = att.PlatformReport(r.machine_id, r.monitor_measurement,
                                 r.user_data,
                                 bytes([r.signature[0] ^ 1]) + r.signature[1:])
        assert not att.asp_verif(bad, machine.machine_id, d,
                                 machine.public_bytes())

    def test_plain_vm_cannot_produce_valid_report(self, machine):
        # A profile without the machine key can only forge the signature.
        d = Rng(10).bytes(64)
        forged = att.PlatformReport(machine.machine_id, d, bytes(64),
                                    Rng(11).bytes(64))
        assert not att.asp_verif(forged, machine.machine_id, d,
                                 machine.public_bytes())

    def test_altered_report_is_refused_after_the_original_was_encoded(
            self, machine):
        # The encoding is kept per report, over fields that are bytes: a
        # report altered with dataclasses.replace, or one built from a
        # buffer that is changed afterwards, is checked by its own content.
        d, u = Rng(13).bytes(64), Rng(14).bytes(64)
        key, mid = machine.public_bytes(), machine.machine_id
        good = att.asp_gen(machine, d, u)
        assert att.asp_verif(good, mid, d, key)
        encoded = good.to_bytes()
        forged = dataclasses.replace(good, user_data=bytes(64))
        assert forged.to_bytes() != encoded
        assert not att.asp_verif(forged, mid, d, key)
        buf = bytearray(u)
        parsed = att.PlatformReport.from_bytes(bytearray(encoded))
        built = att.PlatformReport(bytearray(mid), bytearray(d), buf,
                                   bytearray(good.signature))
        for report in (parsed, built):
            assert all(type(getattr(report, f.name)) is bytes
                       for f in dataclasses.fields(report))
            assert report == good and report.to_bytes() == encoded
            assert att.asp_verif(report, mid, d, key)
        buf[0] ^= 1  # the report keeps the bytes it was built from
        assert built.user_data == u and built.to_bytes() == encoded
        mutated = att.PlatformReport(mid, d, buf, good.signature)
        assert not att.asp_verif(mutated, mid, d, key)
        assert mutated.to_bytes() != encoded

    def test_algebra_over_random_triples(self):
        rng = Rng(12)
        for _ in range(50):
            machine = att.MachineKey.generate(rng)
            d, u = rng.bytes(64), rng.bytes(64)
            report = att.asp_gen(machine, d, u)
            assert att.asp_verif(report, machine.machine_id, d,
                                 machine.public_bytes())
            assert att.asp_get_user_data(report) == u

    def test_cert_round_trip(self, machine):
        cert = machine.export_cert()
        assert att.load_cert(cert) == machine.public_bytes()
        assert cert.strip() == machine.public_bytes().hex()


def build_chain_link(blob=b"Z" * 100, inp=b"in", out=b"out"):
    """A link over a fresh zygote image holding blob and a fresh function."""
    return att.InvocationMeasurements(
        ZygoteImage("rt", embedded_fs=[("/blob", blob)]),
        FunctionSpec("f", [PipelineOp.append(b"F" * 40)]), inp, out)


class TestBuildReport:
    def setup_method(self):
        self.model = CostModel()
        self.machine = att.MachineKey.generate(Rng(20))
        self.signer = SigningKey.generate(Rng(21))
        self.platform = att.asp_gen(self.machine, att.sha512(b"monitor"),
                                    att.sha512(b"cfg"))
        self.nonce = Rng(22).bytes(16)

    def test_warm_path_hashes_only_mutables(self):
        cache = att.MeasurementCache()
        link = build_chain_link()
        att.build_report(cache, self.nonce, [link], self.platform,
                         self.signer, self.model)
        hashed_before = cache.bytes_hashed
        report, _ = att.build_report(cache, self.nonce, [link], self.platform,
                                     self.signer, self.model)
        assert cache.bytes_hashed - hashed_before == len(link.input_bytes) + \
            len(link.output_bytes)
        assert len(report.chain_entries) == 1

    def test_cold_path_dominated_by_zygote_hash(self):
        cache = att.MeasurementCache()
        link = build_chain_link(blob=bytes(60 * MIB))
        _, charge = att.build_report(cache, self.nonce, [link], self.platform,
                                     self.signer, self.model)
        assert charge == pytest.approx(self.model.hash_us(60 * MIB), rel=0.01)

    def test_three_link_chain_single_signature(self):
        cache = att.MeasurementCache()
        links = [build_chain_link(inp=b"a", out=b"b"),
                 build_chain_link(inp=b"b", out=b"c"),
                 build_chain_link(inp=b"c", out=b"d")]
        report, _ = att.build_report(cache, self.nonce, links, self.platform,
                                     self.signer, self.model)
        assert len(report.chain_entries) == 3
        assert report.signature  # one signature over the whole composition

    def test_missing_signer_is_no_policy_key(self):
        with pytest.raises(NoPolicyKey):
            att.build_report(att.MeasurementCache(), self.nonce,
                             [build_chain_link()], self.platform, None,
                             self.model)

    def test_serialization_round_trip(self):
        cache = att.MeasurementCache()
        report, _ = att.build_report(cache, self.nonce, [build_chain_link()],
                                     self.platform, self.signer, self.model)
        parsed = att.AttestationReport.from_bytes(report.to_bytes())
        assert parsed == report
        assert "chain_entries" in report.to_json()

    def test_determinism(self):
        def build():
            cache = att.MeasurementCache()
            report, _ = att.build_report(cache, self.nonce,
                                         [build_chain_link()], self.platform,
                                         self.signer, self.model)
            return report.to_bytes()

        assert build() == build()


class TestVerifyReport:
    def setup_method(self):
        self.model = CostModel()
        self.machine = att.MachineKey.generate(Rng(30))
        self.signer = SigningKey.generate(Rng(31))
        self.monitor_digest = att.sha512(b"monitor-config")
        self.platform = att.asp_gen(self.machine, self.monitor_digest,
                                    att.sha512(b"boot"))
        self.nonce = Rng(32).bytes(16)
        self.link = build_chain_link()
        cache = att.MeasurementCache()
        self.report, _ = att.build_report(cache, self.nonce, [self.link],
                                          self.platform, self.signer,
                                          self.model)

    def expectations(self, **overrides):
        fields = dict(
            machine_id=self.machine.machine_id,
            vendor_public=self.machine.public_bytes(),
            monitor_digest=self.monitor_digest,
            allowed_zygote_digests=frozenset([self.link.zygote.digest()]),
            allowed_function_digests=frozenset([self.link.function.digest()]),
            nonce=self.nonce,
            input_digest=att.sha512(self.link.input_bytes),
            function_verify_public=self.signer.public_bytes(),
        )
        fields.update(overrides)
        return att.VerifyExpectations(**fields)

    def test_genuine_report_verifies(self):
        assert att.verify_report(self.report, self.expectations())

    def test_swapped_input_detected(self):
        bad = self.expectations(input_digest=att.sha512(b"other input"))
        assert not att.verify_report(self.report, bad)

    def test_unexpected_function_digest_detected(self):
        bad = self.expectations(
            allowed_function_digests=frozenset([att.sha512(b"niceware")]))
        assert not att.verify_report(self.report, bad)

    def test_unexpected_zygote_digest_detected(self):
        bad = self.expectations(
            allowed_zygote_digests=frozenset([att.sha512(b"other zygote")]))
        assert not att.verify_report(self.report, bad)

    def test_nonce_mismatch_detected(self):
        bad = self.expectations(nonce=Rng(33).bytes(16))
        assert not att.verify_report(self.report, bad)

    def test_tampered_output_digest_detected(self):
        entry = self.report.chain_entries[0]
        forged_entry = att.ChainEntry(entry.zygote_digest,
                                      entry.function_digest,
                                      entry.input_digest,
                                      att.sha512(b"forged output"))
        forged = att.AttestationReport(self.report.platform, self.report.nonce,
                                       (forged_entry,), self.report.signature)
        assert not att.verify_report(forged, self.expectations())

    def test_chain_linkage_enforced(self):
        cache = att.MeasurementCache()
        links = [build_chain_link(inp=b"a", out=b"b"),
                 build_chain_link(inp=b"NOT-b", out=b"c")]
        report, _ = att.build_report(cache, self.nonce, links, self.platform,
                                     self.signer, self.model)
        exp = self.expectations(input_digest=att.sha512(b"a"))
        assert not att.verify_report(report, exp)


def fresh_machine() -> att.MachineKey:
    """A machine key drawn from OS entropy: no other test holds it, so the
    platform-signature memo starts with no entry for its reports."""
    return att.MachineKey.generate(Rng())


def flip_signature_bit(report: att.PlatformReport) -> att.PlatformReport:
    return dataclasses.replace(
        report, signature=bytes([report.signature[0] ^ 1]) + report.signature[1:])


class TestReportEncodedOnce:
    """A report joins its signed message once: ``build_report`` signs the
    message it keeps, and the encoding and every check reuse it."""

    setup_method = TestVerifyReport.setup_method
    expectations = TestVerifyReport.expectations

    def test_build_encode_and_verify_join_the_message_once(self,
                                                           monkeypatch):
        # Each join length-prefixes the embedded platform report.
        prefixed = []
        u32 = att.wire.u32
        monkeypatch.setattr(att.wire, "u32",
                            lambda n: prefixed.append(n) or u32(n))
        report, _ = att.build_report(att.MeasurementCache(), self.nonce,
                                     [self.link], self.platform, self.signer,
                                     self.model)
        report.to_bytes()
        assert att.verify_report(report, self.expectations())
        assert prefixed.count(len(self.platform.to_bytes())) == 1

    def test_report_altered_after_encoding_is_refused(self):
        encoded = self.report.to_bytes()
        assert att.verify_report(self.report, self.expectations())
        entry = self.report.chain_entries[0]
        for forged in (
                dataclasses.replace(self.report, nonce=Rng(34).bytes(16)),
                dataclasses.replace(self.report, chain_entries=(
                    dataclasses.replace(entry, output_digest=att.sha512(
                        b"forged output")),))):
            assert forged.to_bytes() != encoded
            exp = self.expectations(nonce=forged.nonce)
            assert not att.verify_report(forged, exp)

    def test_parse_of_the_encoding_encodes_the_same(self):
        encoded = self.report.to_bytes()
        parsed = att.AttestationReport.from_bytes(encoded)
        assert parsed.to_bytes() == encoded
        assert parsed.signed_message() == self.report.signed_message()
        assert att.verify_report(parsed, self.expectations())


class TestPlatformVerdictMemo:
    def test_r_reports_from_one_monitor_cost_r_plus_one_verifies(
            self, monkeypatch):
        rig = make_rig(seed=140, machine_key=fresh_machine())
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        verify_calls = counting_verifies(monkeypatch)  # after provisioning
        requests = 5
        for i in range(requests):
            request = rig.user.make_request(fn.digest(), b"req %d" % i)
            result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
            assert att.verify_report(result.report, rig.expectations(request))
        # One check of the constant boot report, one per report signature.
        assert len(verify_calls) == requests + 1
        assert verify_calls.count(rig.monitor.boot_report.signature) == 1

    def test_report_parsed_from_a_mutable_buffer_verifies(self):
        machine = fresh_machine()
        d = att.sha512(b"monitor")
        report = att.asp_gen(machine, d, att.sha512(b"boot"))
        parsed = att.PlatformReport.from_bytes(bytearray(report.to_bytes()))
        assert att.asp_verif(parsed, machine.machine_id, d,
                             bytearray(machine.public_bytes()))
        assert not att.asp_verif(flip_signature_bit(parsed), machine.machine_id,
                                 d, machine.public_bytes())

    def _reports(self, machine):
        """A genuine report and one whose platform signature has a flipped
        bit but whose own signature is valid (the test holds the signer)."""
        signer = SigningKey.generate(Rng(141))
        monitor_digest = att.sha512(b"monitor-config")
        platform = att.asp_gen(machine, monitor_digest, att.sha512(b"boot"))
        nonce = Rng(142).bytes(16)
        link = build_chain_link()

        def report(p):
            built, _ = att.build_report(att.MeasurementCache(), nonce, [link],
                                        p, signer, CostModel())
            return built

        exp = att.VerifyExpectations(
            machine_id=machine.machine_id,
            vendor_public=machine.public_bytes(),
            monitor_digest=monitor_digest,
            allowed_zygote_digests=frozenset([link.zygote.digest()]),
            allowed_function_digests=frozenset([link.function.digest()]),
            nonce=nonce,
            input_digest=att.sha512(link.input_bytes),
            function_verify_public=signer.public_bytes())
        return report(platform), report(flip_signature_bit(platform)), exp

    def test_flipped_platform_signature_refused_before_and_after_memo(self):
        genuine, forged, exp = self._reports(fresh_machine())
        assert not att.verify_report(forged, exp)
        # The memoized refusal does not poison the genuine check, and the
        # memoized genuine verdict does not pass the forgery.
        assert att.verify_report(genuine, exp)
        assert not att.verify_report(forged, exp)
        assert att.verify_report(genuine, exp)


# More distinct genuine platform reports than the memo holds, over two
# vendor keys, so a sequence through all of them forces evictions.
MEMO_VENDORS = [att.MachineKey.generate(Rng(150 + i)) for i in range(2)]
MEMO_INTRUDER = att.MachineKey.generate(Rng(152))
MEMO_MEASUREMENT = att.sha512(b"memo monitor")
MEMO_POOL = [att.asp_gen(MEMO_VENDORS[i % 2], MEMO_MEASUREMENT,
                         att.sha512(b"boot %d" % i)) for i in range(80)]


def tamper(report: att.PlatformReport, how: str) -> att.PlatformReport:
    if how == "signature":
        return flip_signature_bit(report)
    if how == "user_data":
        return dataclasses.replace(report, user_data=att.sha512(report.user_data))
    if how == "measurement":
        return dataclasses.replace(report, monitor_measurement=att.sha512(b"x"))
    if how == "vendor":  # same claims, signed by another vendor's key
        return dataclasses.replace(
            report, signature=MEMO_INTRUDER.signer.sign(report.signed_message()))
    return report


@settings(max_examples=30)
@given(first_pass=st.permutations(range(len(MEMO_POOL))),
       steps=st.lists(st.tuples(
           st.integers(0, len(MEMO_POOL) - 1),
           st.sampled_from(["genuine", "signature", "user_data",
                            "measurement", "vendor"])), max_size=60))
def test_memo_changes_no_platform_verdict(first_pass, steps):
    memo = att._platform_signature_ok
    assert memo.cache_info().maxsize < len(MEMO_POOL)
    for index, how in [(i, "genuine") for i in first_pass] + steps:
        report = tamper(MEMO_POOL[index], how)
        vendor = MEMO_VENDORS[index % 2]
        verdict = att.asp_verif(report, vendor.machine_id, MEMO_MEASUREMENT,
                                vendor.public_bytes())
        assert verdict == verify_signature(vendor.public_bytes(),
                                           report.signed_message(),
                                           report.signature)
        assert verdict == (how == "genuine")
        info = memo.cache_info()
        assert info.currsize <= info.maxsize
