"""Zygote images and function specs, with their canonical byte layouts.

The canonical serializations defined here are what SHA-512 measurements
are computed over, so they are fixed byte-for-byte:

Zygote image (binary, also the on-disk format):
    magic  "WZYG"
    version            u32 BE (currently 1)
    runtime_id         u32 BE length + UTF-8 bytes
    init_cost_ms       u64 BE
    embedded count     u32 BE, then per entry:
        path           u32 BE length + UTF-8 bytes
        content        u32 BE length + raw bytes
    manifest count     u32 BE, then per entry:
        path           u32 BE length + UTF-8 bytes
        digest         64 raw bytes (SHA-512 of the external file)

Function spec (binary canonical form):
    name               u32 BE length + UTF-8 bytes
    exec_time_us       u64 BE (exec_time_ms rounded to microseconds)
    op count           u32 BE, then per op:
        tag            1 byte
        arg            u32 BE length + raw bytes (empty when no arg)

The function-spec *file* format is JSON:
    {"name": str, "exec_time_ms": number,
     "steps": [{"op": str, "arg": optional base64}]}
"""

from __future__ import annotations

import base64
import hashlib
import io
import itertools
import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

ZYGOTE_MAGIC = b"WZYG"
ZYGOTE_VERSION = 1

_uid_counter = itertools.count(1)


def _pack_bytes(out: io.BytesIO, data: bytes) -> None:
    out.write(struct.pack(">I", len(data)))
    out.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self._buf = memoryview(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            raise ValueError("truncated input")
        out = bytes(self._buf[self._pos : self._pos + n])
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def lp_bytes(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self._pos == len(self._buf)


class OpKind(str, Enum):
    """Pipeline operations; each is a total bytes -> bytes function."""

    IDENTITY = "identity"
    SHA512 = "sha512"
    UPPERCASE = "uppercase"
    LOWERCASE = "lowercase"
    APPEND = "append"
    PREPEND = "prepend"
    CONST = "const"
    READ_FILE = "read_file"
    SLEEP = "sleep"


_OP_TAGS = {
    OpKind.IDENTITY: 0x00,
    OpKind.SHA512: 0x01,
    OpKind.UPPERCASE: 0x02,
    OpKind.LOWERCASE: 0x03,
    OpKind.APPEND: 0x04,
    OpKind.PREPEND: 0x05,
    OpKind.CONST: 0x06,
    OpKind.READ_FILE: 0x07,
    OpKind.SLEEP: 0x08,
}
_TAG_OPS = {tag: op for op, tag in _OP_TAGS.items()}
_ARG_OPS = {OpKind.APPEND, OpKind.PREPEND, OpKind.CONST,
            OpKind.READ_FILE, OpKind.SLEEP}


@dataclass(frozen=True)
class PipelineOp:
    op: OpKind
    arg: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.op in _ARG_OPS and self.arg is None:
            raise ValueError(f"{self.op.value} requires an argument")
        if self.op not in _ARG_OPS and self.arg is not None:
            raise ValueError(f"{self.op.value} takes no argument")
        if self.op is OpKind.SLEEP:
            self.sleep_ms  # validate eagerly

    @property
    def path(self) -> str:
        assert self.op is OpKind.READ_FILE and self.arg is not None
        return self.arg.decode("utf-8")

    @property
    def sleep_ms(self) -> float:
        assert self.op is OpKind.SLEEP and self.arg is not None
        value = float(self.arg.decode("ascii"))
        if value < 0:
            raise ValueError("sleep duration must be non-negative")
        return value

    @staticmethod
    def identity() -> "PipelineOp":
        return PipelineOp(OpKind.IDENTITY)

    @staticmethod
    def sha512() -> "PipelineOp":
        return PipelineOp(OpKind.SHA512)

    @staticmethod
    def uppercase() -> "PipelineOp":
        return PipelineOp(OpKind.UPPERCASE)

    @staticmethod
    def lowercase() -> "PipelineOp":
        return PipelineOp(OpKind.LOWERCASE)

    @staticmethod
    def append(literal: bytes) -> "PipelineOp":
        return PipelineOp(OpKind.APPEND, bytes(literal))

    @staticmethod
    def prepend(literal: bytes) -> "PipelineOp":
        return PipelineOp(OpKind.PREPEND, bytes(literal))

    @staticmethod
    def const(literal: bytes) -> "PipelineOp":
        return PipelineOp(OpKind.CONST, bytes(literal))

    @staticmethod
    def read_file(path: str) -> "PipelineOp":
        return PipelineOp(OpKind.READ_FILE, path.encode("utf-8"))

    @staticmethod
    def sleep(ms: float) -> "PipelineOp":
        return PipelineOp(OpKind.SLEEP, repr(float(ms)).encode("ascii"))


class FunctionSpec:
    """A named, deterministic pipeline with a simulated execution time.

    canonical_bytes is uniquely determined by (name, steps, exec_time_ms)
    and is the content SHA-512 measurements bind to.  It and its digest()
    are built once per spec and then kept.
    """

    def __init__(self, name: str, steps: Sequence[PipelineOp],
                 exec_time_ms: float = 0.0):
        self.name = name
        self.steps = tuple(steps)
        self.exec_time_ms = float(exec_time_ms)
        if self.exec_time_ms < 0:
            raise ValueError("exec_time_ms must be non-negative")
        self.uid = f"fn:{next(_uid_counter)}"
        self._canonical: Optional[bytes] = None
        self._digest: Optional[bytes] = None

    @property
    def canonical_bytes(self) -> bytes:
        if self._canonical is None:
            out = io.BytesIO()
            _pack_bytes(out, self.name.encode("utf-8"))
            out.write(struct.pack(">Q", int(round(self.exec_time_ms * 1000))))
            out.write(struct.pack(">I", len(self.steps)))
            for step in self.steps:
                out.write(bytes([_OP_TAGS[step.op]]))
                _pack_bytes(out, step.arg or b"")
            self._canonical = out.getvalue()
        return self._canonical

    def digest(self) -> bytes:
        """SHA-512 of canonical_bytes, computed once per object."""
        if self._digest is None:
            self._digest = hashlib.sha512(self.canonical_bytes).digest()
        return self._digest

    @staticmethod
    def from_canonical(data: bytes) -> "FunctionSpec":
        r = _Reader(data)
        name = r.lp_bytes().decode("utf-8")
        exec_time_ms = r.u64() / 1000.0
        steps = []
        for _ in range(r.u32()):
            tag = r.take(1)[0]
            if tag not in _TAG_OPS:
                raise ValueError(f"unknown op tag {tag:#x}")
            arg = r.lp_bytes()
            op = _TAG_OPS[tag]
            steps.append(PipelineOp(op, arg if op in _ARG_OPS else None))
        if not r.done():
            raise ValueError("trailing bytes after function spec")
        return FunctionSpec(name, steps, exec_time_ms)

    # -- JSON file format --

    def to_json(self) -> str:
        steps = []
        for step in self.steps:
            entry: dict = {"op": step.op.value}
            if step.arg is not None:
                entry["arg"] = base64.b64encode(step.arg).decode("ascii")
            steps.append(entry)
        return json.dumps(
            {"name": self.name, "exec_time_ms": self.exec_time_ms,
             "steps": steps},
            indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FunctionSpec":
        doc = json.loads(text)
        steps = []
        for entry in doc["steps"]:
            op = OpKind(entry["op"])
            arg = None
            if "arg" in entry and entry["arg"] is not None:
                arg = base64.b64decode(entry["arg"])
            steps.append(PipelineOp(op, arg))
        return FunctionSpec(doc["name"], steps,
                            float(doc.get("exec_time_ms", 0.0)))

    def __repr__(self) -> str:
        return (f"FunctionSpec(name={self.name!r}, steps={len(self.steps)}, "
                f"exec_time_ms={self.exec_time_ms})")


class ZygoteImage:
    """A sealed-template image: runtime id, embedded files, and a manifest
    of external-file digests.  Manifest paths must not shadow embedded ones.

    canonical_bytes and its digest() are built once per image and then
    kept, so measuring and mapping an image read the same immutable bytes.
    """

    def __init__(self, runtime_id: str, init_cost_ms: int = 0,
                 embedded_fs: Sequence[tuple[str, bytes]] = (),
                 manifest: Sequence[tuple[str, bytes]] = ()):
        self.runtime_id = runtime_id
        self.init_cost_ms = int(init_cost_ms)
        if self.init_cost_ms < 0:
            raise ValueError("init_cost_ms must be non-negative")
        self.embedded_fs = [(p, bytes(c)) for p, c in embedded_fs]
        self.manifest = [(p, bytes(d)) for p, d in manifest]
        for path, digest in self.manifest:
            if len(digest) != 64:
                raise ValueError(f"manifest digest for {path} must be 64 bytes")
        embedded_paths = {p for p, _ in self.embedded_fs}
        if len(embedded_paths) != len(self.embedded_fs):
            raise ValueError("duplicate embedded paths")
        overlap = embedded_paths & {p for p, _ in self.manifest}
        if overlap:
            raise ValueError(f"manifest paths shadow embedded files: {overlap}")
        self.uid = f"zy:{next(_uid_counter)}"
        self._canonical: Optional[bytes] = None
        self._digest: Optional[bytes] = None

    @property
    def canonical_bytes(self) -> bytes:
        if self._canonical is None:
            out = io.BytesIO()
            out.write(ZYGOTE_MAGIC)
            out.write(struct.pack(">I", ZYGOTE_VERSION))
            _pack_bytes(out, self.runtime_id.encode("utf-8"))
            out.write(struct.pack(">Q", self.init_cost_ms))
            out.write(struct.pack(">I", len(self.embedded_fs)))
            for path, content in self.embedded_fs:
                _pack_bytes(out, path.encode("utf-8"))
                _pack_bytes(out, content)
            out.write(struct.pack(">I", len(self.manifest)))
            for path, digest in self.manifest:
                _pack_bytes(out, path.encode("utf-8"))
                out.write(digest)
            self._canonical = out.getvalue()
        return self._canonical

    def digest(self) -> bytes:
        """SHA-512 of canonical_bytes, computed once per object."""
        if self._digest is None:
            self._digest = hashlib.sha512(self.canonical_bytes).digest()
        return self._digest

    def size_bytes(self) -> int:
        return len(self.canonical_bytes)

    @staticmethod
    def from_bytes(data: bytes) -> "ZygoteImage":
        r = _Reader(data)
        if r.take(4) != ZYGOTE_MAGIC:
            raise ValueError("bad zygote magic")
        version = r.u32()
        if version != ZYGOTE_VERSION:
            raise ValueError(f"unsupported zygote version {version}")
        runtime_id = r.lp_bytes().decode("utf-8")
        init_cost_ms = r.u64()
        embedded = []
        for _ in range(r.u32()):
            path = r.lp_bytes().decode("utf-8")
            content = r.lp_bytes()
            embedded.append((path, content))
        manifest = []
        for _ in range(r.u32()):
            path = r.lp_bytes().decode("utf-8")
            digest = r.take(64)
            manifest.append((path, digest))
        if not r.done():
            raise ValueError("trailing bytes after zygote image")
        return ZygoteImage(runtime_id, init_cost_ms, embedded, manifest)

    def __repr__(self) -> str:
        return (f"ZygoteImage(runtime_id={self.runtime_id!r}, "
                f"files={len(self.embedded_fs)}, "
                f"size={self.size_bytes()} bytes)")


def manifest_entry(path: str, content: bytes) -> tuple[str, bytes]:
    """Convenience: manifest row binding path to SHA-512(content)."""
    return path, hashlib.sha512(content).digest()
