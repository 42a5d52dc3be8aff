"""The wire codec: the bounded reader, and one property per byte format.

Each format round-trips its values, and any byte string either parses or
is refused with the format's one error type.  Hostile counts are refused
before any loop over them runs.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_rig
from walletemu import attestation as att
from walletemu import wire
from walletemu.crypto import FunctionKey, Rng
from walletemu.errors import DecryptFailed, ParseError, PolicyViolation
from walletemu.images import FunctionSpec, OpKind, PipelineOp, ZygoteImage
from walletemu.monitor import InvocationRequest, ProviderPolicy


digest = st.binary(min_size=64, max_size=64)


def mangled(encodings):
    """A valid encoding, then truncated, extended or with one byte changed."""

    @st.composite
    def build(draw):
        data = draw(encodings)
        edit = draw(st.sampled_from(["cut", "grow", "flip", "none"]))
        if edit == "cut":
            return data[:draw(st.integers(0, len(data)))]
        if edit == "grow":
            return data + draw(st.binary(min_size=1, max_size=8))
        if edit == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) \
                + data[i + 1:]
        return data

    return st.one_of(st.binary(max_size=300), build())


# -- the reader ------------------------------------------------------------------


class TestReader:
    def test_fields_and_finish(self):
        data = b"".join((wire.u32(7), wire.u64(2 ** 40), *wire.lp(b"abc"),
                         *wire.lp("é".encode()), b"xy"))
        r = wire.Reader(data)
        assert (r.u32(), r.u64(), r.lp(), r.text(), r.take(2)) == \
            (7, 2 ** 40, b"abc", "é", b"xy")
        r.finish("test")

    def test_truncated_field(self):
        r = wire.Reader(wire.u32(5) + b"abc")
        with pytest.raises(ParseError, match="truncated"):
            r.lp()

    def test_trailing_bytes(self):
        r = wire.Reader(b"abc")
        r.take(2)
        with pytest.raises(ParseError, match="trailing bytes after test"):
            r.finish("test")

    def test_text_must_be_utf8(self):
        with pytest.raises(ParseError, match="utf-8"):
            wire.Reader(b"".join(wire.lp(b"\xff"))).text()

    def test_count_is_bounded_by_the_bytes_left(self):
        assert wire.Reader(wire.u32(2) + bytes(8)).count(4) == 2
        with pytest.raises(ParseError, match="count 3"):
            wire.Reader(wire.u32(3) + bytes(8)).count(4)

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)


# -- one property per format --------------------------------------------------------

paths = st.text(max_size=8)
zygotes = st.builds(
    lambda rid, cost, emb, man: ZygoteImage(
        rid, cost, sorted(emb.items()), sorted(man.items())),
    st.text(max_size=12), st.integers(0, 2 ** 64 - 1),
    st.dictionaries(paths.map(lambda p: "/e/" + p), st.binary(max_size=80),
                    max_size=3),
    st.dictionaries(paths.map(lambda p: "/m/" + p), digest, max_size=3))


def _zygote_fields(image):
    return (image.runtime_id, image.init_cost_ms, image.embedded_fs,
            image.manifest, image.canonical_bytes)


class TestZygoteImage:
    @given(zygotes)
    def test_round_trip(self, image):
        parsed = ZygoteImage.from_bytes(image.canonical_bytes)
        assert _zygote_fields(parsed) == _zygote_fields(image)

    @given(mangled(zygotes.map(lambda z: z.canonical_bytes)))
    def test_any_bytes_parse_or_raise_parse_error(self, data):
        try:
            image = ZygoteImage.from_bytes(data)
        except ParseError:
            return
        assert image.canonical_bytes == data

    def test_duplicate_paths_are_a_parse_error(self):
        image = ZygoteImage("rt", 0, [("/a", b"1"), ("/b", b"2")])
        data = image.canonical_bytes.replace(b"/b", b"/a")
        with pytest.raises(ParseError, match="duplicate"):
            ZygoteImage.from_bytes(data)


no_arg_ops = st.sampled_from([OpKind.IDENTITY, OpKind.SHA512,
                              OpKind.UPPERCASE, OpKind.LOWERCASE]).map(PipelineOp)
pipeline_ops = st.one_of(
    no_arg_ops,
    st.builds(PipelineOp, st.sampled_from([OpKind.APPEND, OpKind.PREPEND,
                                           OpKind.CONST]), st.binary(max_size=16)),
    st.builds(PipelineOp.read_file, paths),
    st.builds(PipelineOp.sleep, st.floats(0, 1e6)))
specs = st.builds(FunctionSpec, st.text(max_size=12),
                  st.lists(pipeline_ops, max_size=5), st.floats(0, 1e9))


class TestFunctionSpec:
    @given(specs)
    def test_round_trip(self, fn):
        parsed = FunctionSpec.from_canonical(fn.canonical_bytes)
        assert (parsed.name, parsed.steps, parsed.canonical_bytes) == \
            (fn.name, fn.steps, fn.canonical_bytes)

    @given(mangled(specs.map(lambda f: f.canonical_bytes)))
    def test_any_bytes_parse_or_raise_parse_error(self, data):
        try:
            FunctionSpec.from_canonical(data)
        except ParseError:
            pass

    def test_argument_on_an_op_that_takes_none_is_refused(self):
        data = FunctionSpec("f", [PipelineOp.identity()]).canonical_bytes
        with pytest.raises(ParseError, match="takes no argument"):
            FunctionSpec.from_canonical(data[:-4] + b"".join(wire.lp(b"x")))

    def test_unknown_op_tag(self):
        data = FunctionSpec("f", [PipelineOp.identity()]).canonical_bytes
        with pytest.raises(ParseError, match="unknown op tag"):
            FunctionSpec.from_canonical(data[:-5] + b"\x7f" + data[-4:])


platforms = st.builds(att.PlatformReport, st.binary(max_size=20),
                      st.binary(max_size=70), st.binary(max_size=70),
                      st.binary(max_size=70))
entries = st.builds(att.ChainEntry, digest, digest, digest, digest)
reports = st.builds(att.AttestationReport, platforms, st.binary(max_size=20),
                    st.lists(entries, max_size=3).map(tuple),
                    st.binary(max_size=70))


class TestPlatformReport:
    @given(platforms)
    def test_round_trip(self, report):
        assert att.PlatformReport.from_bytes(report.to_bytes()) == report

    @given(mangled(platforms.map(lambda p: p.to_bytes())))
    def test_any_bytes_parse_or_raise_parse_error(self, data):
        try:
            report = att.PlatformReport.from_bytes(data)
        except ParseError:
            return
        assert report.to_bytes() == data


class TestAttestationReport:
    @given(reports)
    def test_round_trip(self, report):
        assert att.AttestationReport.from_bytes(report.to_bytes()) == report

    @given(mangled(reports.map(lambda r: r.to_bytes())))
    def test_any_bytes_parse_or_raise_parse_error(self, data):
        try:
            report = att.AttestationReport.from_bytes(data)
        except ParseError:
            return
        assert report.to_bytes() == data


@st.composite
def policies(draw):
    functions = draw(st.lists(digest, max_size=3))
    chains = draw(st.lists(st.lists(st.sampled_from(functions), max_size=3)
                           .map(tuple), max_size=2)) if functions else []
    return ProviderPolicy(
        frozenset(draw(st.lists(digest, min_size=1, max_size=3))),
        frozenset(functions),
        FunctionKey.generate(Rng(draw(st.integers(0, 3)))), tuple(chains))


def _policy_fields(policy):
    return (policy.allowed_zygotes, policy.allowed_functions, policy.chains,
            policy.function_key.private_bytes())


def _policy_blob(n_zygotes: int) -> bytes:
    return FunctionKey.generate(Rng(0)).private_bytes() + wire.u32(n_zygotes)


class TestProviderPolicy:
    @given(policies())
    def test_round_trip(self, policy):
        parsed = ProviderPolicy.from_bytes(policy.to_bytes())
        assert _policy_fields(parsed) == _policy_fields(policy)

    @given(mangled(policies().map(lambda p: p.to_bytes())))
    def test_any_bytes_parse_or_raise_parse_error(self, data):
        # A well-formed blob can still state a policy that allows no zygote
        # or chains an unlisted function: the policy's own PolicyViolation.
        try:
            ProviderPolicy.from_bytes(data)
        except (ParseError, PolicyViolation):
            pass

    def test_million_digest_count_is_a_parse_error(self):
        with pytest.raises(ParseError, match="count 1000000"):
            ProviderPolicy.from_bytes(_policy_blob(1_000_000) + bytes(64))

    @pytest.mark.parametrize("count", [50_000_000, 2 ** 32 - 1])
    def test_hostile_count_is_refused_before_any_loop(self, count):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            ProviderPolicy.from_bytes(_policy_blob(count))
        assert time.perf_counter() - start < 1.0

    def test_trailing_bytes(self):
        policy = ProviderPolicy(frozenset([b"z" * 64]), frozenset(),
                                FunctionKey.generate(Rng(1)))
        with pytest.raises(ParseError, match="trailing"):
            ProviderPolicy.from_bytes(policy.to_bytes() + b"\x00")


requests = st.builds(InvocationRequest, digest, st.binary(max_size=300),
                     st.binary(min_size=32, max_size=32),
                     st.binary(min_size=16, max_size=16))


class TestInvocationRequest:
    @given(requests)
    def test_round_trip(self, request):
        assert InvocationRequest.from_bytes(request.to_bytes()) == request

    @given(mangled(requests.map(lambda r: r.to_bytes())))
    def test_any_bytes_parse_or_raise_decrypt_failed(self, data):
        try:
            request = InvocationRequest.from_bytes(data)
        except DecryptFailed:
            return
        assert request.to_bytes() == data

    def test_trailing_bytes_are_refused(self):
        request = InvocationRequest(b"d" * 64, b"payload", b"k" * 32,
                                    b"n" * 16)
        with pytest.raises(DecryptFailed, match="trailing"):
            InvocationRequest.from_bytes(request.to_bytes() + b"junk")


# -- every parser over any buffer ----------------------------------------------


def _buffers(data: bytes):
    """data as a bytearray and as a memoryview of a writable buffer."""
    return bytearray(data), memoryview(bytearray(data))


class TestParsersTakeAnyBuffer:
    """Each parser hands out ``bytes`` fields whatever buffer it is given,
    so that a parsed value hashes, compares and verifies as the one it
    encodes."""

    def test_every_parser_over_a_bytearray_and_a_memoryview(self):
        rig = make_rig()
        m, fn = rig.monitor, rig.functions[0]
        t = m.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"any buffer")
        report = m.invoke_trustlet(t.handle, request.ciphertext).report
        exp = rig.expectations(request)
        policy = ProviderPolicy(frozenset([rig.image.digest()]),
                                frozenset([fn.digest()]),
                                FunctionKey.generate(Rng(3)),
                                ((fn.digest(), fn.digest()),))
        key = FunctionKey.generate(Rng(4))
        plain = InvocationRequest(fn.digest(), b"payload", b"k" * 32,
                                  b"n" * 16)
        for buf in _buffers(report.platform.to_bytes()):
            platform = att.PlatformReport.from_bytes(buf)
            assert platform == report.platform and hash(platform)
        for buf in _buffers(report.to_bytes()):
            parsed = att.AttestationReport.from_bytes(buf)
            assert hash(parsed) and parsed.to_bytes() == report.to_bytes()
            assert att.verify_report(parsed, exp)
        for buf in _buffers(policy.to_bytes()):
            got = ProviderPolicy.from_bytes(buf)
            assert got.to_bytes() == policy.to_bytes()
            assert got.chain_adjacent(fn.digest(), fn.digest())
        for buf in _buffers(plain.to_bytes()):
            assert InvocationRequest.from_bytes(buf) == plain
        for buf in _buffers(rig.image.canonical_bytes):
            image = ZygoteImage.from_bytes(buf)
            assert image.digest() == rig.image.digest()
            assert dict(image.manifest) == dict(rig.image.manifest)
        for buf in _buffers(fn.canonical_bytes):
            assert FunctionSpec.from_canonical(buf).digest() == fn.digest()
        for buf in _buffers(key.private_bytes()):
            assert FunctionKey.from_bytes(buf).private_bytes() == \
                key.private_bytes()
