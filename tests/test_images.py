"""Canonical serialization tests for zygote images and function specs."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_sha512
from walletemu.images import (
    FunctionSpec,
    OpKind,
    PipelineOp,
    ZygoteImage,
    manifest_entry,
)


def hand_packed_zygote(runtime_id: str, init_cost_ms: int,
                       embedded, manifest) -> bytes:
    """Independent re-construction of the zygote byte layout."""
    out = b"WZYG" + struct.pack(">I", 1)
    rid = runtime_id.encode()
    out += struct.pack(">I", len(rid)) + rid
    out += struct.pack(">Q", init_cost_ms)
    out += struct.pack(">I", len(embedded))
    for path, content in embedded:
        p = path.encode()
        out += struct.pack(">I", len(p)) + p
        out += struct.pack(">I", len(content)) + content
    out += struct.pack(">I", len(manifest))
    for path, digest in manifest:
        p = path.encode()
        out += struct.pack(">I", len(p)) + p + digest
    return out


def _zygote_and_parsed():
    image = ZygoteImage("py-rt", 3, [("/data/x", b"42" * 3000)],
                        [manifest_entry("/ext/a", b"AAAA")])
    return image, ZygoteImage.from_bytes(image.canonical_bytes)


def _spec_and_parsed():
    fn = FunctionSpec("mix", [PipelineOp.append(b"!" * 100),
                              PipelineOp.sha512()], 1.5)
    return fn, FunctionSpec.from_canonical(fn.canonical_bytes)


@pytest.mark.parametrize("make", [_zygote_and_parsed, _spec_and_parsed],
                         ids=["zygote", "function"])
def test_digest_is_hashed_once_per_object(make, monkeypatch):
    # Each object hashes its canonical bytes on the first digest() and
    # returns the kept value after that, also when parsed from its bytes.
    original, parsed = make()
    lengths = counting_sha512(monkeypatch)
    for obj in (original, parsed):
        expected = hashlib.new("sha512", obj.canonical_bytes).digest()
        assert [obj.digest() for _ in range(3)] == [expected] * 3
    assert lengths == [len(original.canonical_bytes)] * 2


class TestZygoteImage:
    def test_canonical_layout_matches_hand_packed(self):
        manifest = [manifest_entry("/ext/a", b"AAAA")]
        image = ZygoteImage("py", 7, [("/data/x", b"42")], manifest)
        expected = hand_packed_zygote("py", 7, [("/data/x", b"42")], manifest)
        assert image.canonical_bytes == expected

    def test_digest_is_sha512_of_canonical(self):
        image = ZygoteImage("py", 0, [("/f", b"abc")])
        assert image.digest() == hashlib.sha512(image.canonical_bytes).digest()

    def test_round_trip(self):
        manifest = [manifest_entry("/ext/a", b"AAAA")]
        image = ZygoteImage("py-rt", 123, [("/data/x", b"42"),
                                           ("/lib/so", b"\x7fELF")], manifest)
        parsed = ZygoteImage.from_bytes(image.canonical_bytes)
        assert parsed.canonical_bytes == image.canonical_bytes
        assert parsed.runtime_id == "py-rt"
        assert parsed.init_cost_ms == 123
        assert parsed.manifest == manifest

    def test_manifest_must_not_shadow_embedded(self):
        with pytest.raises(ValueError, match="shadow"):
            ZygoteImage("py", 0, [("/f", b"x")], [manifest_entry("/f", b"y")])

    def test_manifest_digest_must_be_64_bytes(self):
        with pytest.raises(ValueError, match="64 bytes"):
            ZygoteImage("py", 0, [], [("/f", b"\x00" * 32)])

    def test_bad_magic_rejected(self):
        image = ZygoteImage("py", 0, [("/f", b"x")])
        data = b"XXXX" + image.canonical_bytes[4:]
        with pytest.raises(ValueError, match="magic"):
            ZygoteImage.from_bytes(data)

    def test_trailing_bytes_rejected(self):
        image = ZygoteImage("py", 0, [("/f", b"x")])
        with pytest.raises(ValueError, match="trailing"):
            ZygoteImage.from_bytes(image.canonical_bytes + b"\x00")

    def test_distinct_uid_per_object(self):
        a = ZygoteImage("py", 0, [("/f", b"x")])
        b = ZygoteImage("py", 0, [("/f", b"x")])
        assert a.uid != b.uid
        assert a.digest() == b.digest()


class TestFunctionSpec:
    def test_canonical_layout_matches_hand_packed(self):
        fn = FunctionSpec("up", [PipelineOp.uppercase(),
                                 PipelineOp.append(b"!")], exec_time_ms=2.5)
        expected = (struct.pack(">I", 2) + b"up"
                    + struct.pack(">Q", 2500)      # exec time in microseconds
                    + struct.pack(">I", 2)
                    + bytes([0x02]) + struct.pack(">I", 0)
                    + bytes([0x04]) + struct.pack(">I", 1) + b"!")
        assert fn.canonical_bytes == expected

    def test_round_trip_through_canonical(self):
        fn = FunctionSpec("mix", [PipelineOp.prepend(b">"),
                                  PipelineOp.sha512(),
                                  PipelineOp.read_file("/ext/a"),
                                  PipelineOp.sleep(10.3)], 1.0)
        parsed = FunctionSpec.from_canonical(fn.canonical_bytes)
        assert parsed.canonical_bytes == fn.canonical_bytes
        assert parsed.steps == fn.steps

    def test_round_trip_through_json(self):
        fn = FunctionSpec("mix", [PipelineOp.const(b"\x00\xff"),
                                  PipelineOp.lowercase()], 0.25)
        parsed = FunctionSpec.from_json(fn.to_json())
        assert parsed.canonical_bytes == fn.canonical_bytes

    @pytest.mark.parametrize("exec_us", [2 ** 53 + 1, 2 ** 64 - 1])
    def test_exec_time_beyond_a_float_round_trips(self, exec_us):
        # A float of milliseconds cannot hold these microseconds exactly.
        data = (struct.pack(">I", 3) + b"big" + struct.pack(">Q", exec_us)
                + struct.pack(">I", 0))
        parsed = FunctionSpec.from_canonical(data)
        assert parsed.exec_time_us == exec_us
        assert parsed.canonical_bytes == data
        assert parsed.digest() == hashlib.sha512(data).digest()

    def test_digest_depends_on_exec_time(self):
        a = FunctionSpec("f", [PipelineOp.identity()], 1.0)
        b = FunctionSpec("f", [PipelineOp.identity()], 2.0)
        assert a.digest() != b.digest()

    def test_args_are_validated(self):
        with pytest.raises(ValueError):
            PipelineOp(OpKind.APPEND)        # missing argument
        with pytest.raises(ValueError):
            PipelineOp(OpKind.IDENTITY, b"") # unexpected argument
        with pytest.raises(ValueError):
            PipelineOp.sleep(-1)

    @settings(max_examples=50)
    @given(name=st.text(max_size=20),
           exec_ms=st.floats(min_value=0, max_value=1e6),
           literals=st.lists(st.binary(max_size=64), max_size=8))
    def test_canonical_uniqueness_round_trip(self, name, exec_ms, literals):
        steps = [PipelineOp.append(lit) for lit in literals]
        fn = FunctionSpec(name, steps, exec_ms)
        parsed = FunctionSpec.from_canonical(fn.canonical_bytes)
        assert parsed.canonical_bytes == fn.canonical_bytes
        assert parsed.name == name
