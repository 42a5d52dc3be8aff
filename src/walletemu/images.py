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
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import wire
from .errors import ParseError

ZYGOTE_MAGIC = b"WZYG"
ZYGOTE_VERSION = 1

_uid_counter = itertools.count(1)


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

    canonical_bytes is uniquely determined by (name, steps, exec_time_us)
    and is the content SHA-512 measurements bind to.  It and its digest()
    are built once per spec and then kept.  exec_time_us is exec_time_ms
    rounded to microseconds, or, for a spec parsed from canonical bytes,
    their exact u64 (which a float of milliseconds may not hold).
    """

    def __init__(self, name: str, steps: Sequence[PipelineOp],
                 exec_time_ms: float = 0.0, *,
                 exec_time_us: Optional[int] = None):
        self.name = name
        self.steps = tuple(steps)
        if exec_time_us is None:
            exec_time_ms = float(exec_time_ms)
            if not 0 <= exec_time_ms * 1000 < 2 ** 64:  # also refuses NaN
                raise ValueError("exec_time_ms must be non-negative and its "
                                 "microseconds must fit in a u64")
            exec_time_us = int(round(exec_time_ms * 1000))
        else:
            exec_time_ms = exec_time_us / 1000
        self.exec_time_ms, self.exec_time_us = exec_time_ms, exec_time_us
        self.uid = f"fn:{next(_uid_counter)}"
        self._canonical: Optional[bytes] = None
        self._digest: Optional[bytes] = None

    @property
    def canonical_bytes(self) -> bytes:
        if self._canonical is None:
            parts = [*wire.lp(self.name.encode("utf-8")),
                     wire.u64(self.exec_time_us),
                     wire.u32(len(self.steps))]
            for step in self.steps:
                parts += (bytes([_OP_TAGS[step.op]]), *wire.lp(step.arg or b""))
            self._canonical = b"".join(parts)
        return self._canonical

    def digest(self) -> bytes:
        """SHA-512 of canonical_bytes, computed once per object."""
        if self._digest is None:
            self._digest = hashlib.sha512(self.canonical_bytes).digest()
        return self._digest

    def size_bytes(self) -> int:
        return len(self.canonical_bytes)

    @staticmethod
    def from_canonical(data: bytes) -> "FunctionSpec":
        """Parse canonical bytes; anything malformed is a ParseError, also
        an argument on an op that takes none."""
        r = wire.Reader(data)
        name = r.text()
        exec_time_us = r.u64()
        steps = []
        for _ in range(r.count(5)):
            tag = r.take(1)[0]
            op = _TAG_OPS.get(tag)
            if op is None:
                raise ParseError(f"unknown op tag {tag:#x}")
            arg = r.lp()
            steps.append(wire.checked(PipelineOp, op,
                                      arg if op in _ARG_OPS or arg else None))
        r.finish("function spec")
        return FunctionSpec(name, steps, exec_time_us=exec_time_us)

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
    def from_json(text: str | bytes) -> "FunctionSpec":
        """Parse a spec file; a malformed or mistyped one is a ParseError."""
        try:
            doc = json.loads(text)
            steps = [PipelineOp(OpKind(entry["op"]),
                                None if entry.get("arg") is None
                                else base64.b64decode(entry["arg"]))
                     for entry in doc["steps"]]
            if not isinstance(doc["name"], str):
                raise ParseError("name must be a string")
            return FunctionSpec(doc["name"], steps,
                                float(doc.get("exec_time_ms", 0.0)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"bad function spec: {exc}") from exc

    def __repr__(self) -> str:
        return (f"FunctionSpec(name={self.name!r}, steps={len(self.steps)}, "
                f"exec_time_ms={self.exec_time_ms})")


class ZygoteImage:
    """A sealed-template image: runtime id, embedded files, and a manifest
    of external-file digests.  Manifest paths must not shadow embedded ones.

    The image keeps its canonical form as ``canonical_parts``: the header
    fields, each file's length prefix and its content by reference, and
    the manifest, which end to end are the canonical bytes.  digest()
    streams those parts through one SHA-512 and is kept; size_bytes() sums
    their lengths.  Measuring and mapping an image read the same immutable
    parts, and neither joins them: canonical_bytes, for files and tests,
    is joined on each access and not kept.
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
        parts = [ZYGOTE_MAGIC, wire.u32(ZYGOTE_VERSION),
                 *wire.lp(self.runtime_id.encode("utf-8")),
                 wire.u64(self.init_cost_ms),
                 wire.u32(len(self.embedded_fs))]
        for path, content in self.embedded_fs:
            parts += (*wire.lp(path.encode("utf-8")), *wire.lp(content))
        parts.append(wire.u32(len(self.manifest)))
        for path, digest in self.manifest:
            parts += (*wire.lp(path.encode("utf-8")), digest)
        self.canonical_parts: tuple[bytes, ...] = tuple(parts)
        self._size = sum(map(len, parts))
        self._digest: Optional[bytes] = None

    @property
    def canonical_bytes(self) -> bytes:
        """The canonical parts joined: a new copy on every access."""
        return b"".join(self.canonical_parts)

    def digest(self) -> bytes:
        """SHA-512 of the canonical bytes, streamed from the parts once per
        object."""
        if self._digest is None:
            h = hashlib.sha512()
            for part in self.canonical_parts:
                h.update(part)
            self._digest = h.digest()
        return self._digest

    def size_bytes(self) -> int:
        return self._size

    @staticmethod
    def from_bytes(data: bytes) -> "ZygoteImage":
        """Parse the on-disk image; anything malformed is a ParseError."""
        r = wire.Reader(data)
        if r.take(4) != ZYGOTE_MAGIC:
            raise ParseError("bad zygote magic")
        version = r.u32()
        if version != ZYGOTE_VERSION:
            raise ParseError(f"unsupported zygote version {version}")
        runtime_id = r.text()
        init_cost_ms = r.u64()
        embedded = [(r.text(), r.lp()) for _ in range(r.count(8))]
        manifest = [(r.text(), r.take(64)) for _ in range(r.count(4 + 64))]
        r.finish("zygote image")
        return wire.checked(ZygoteImage, runtime_id, init_cost_ms, embedded,
                            manifest)

    def __repr__(self) -> str:
        return (f"ZygoteImage(runtime_id={self.runtime_id!r}, "
                f"files={len(self.embedded_fs)}, "
                f"size={self.size_bytes()} bytes)")


def manifest_entry(path: str, content: bytes) -> tuple[str, bytes]:
    """Convenience: manifest row binding path to SHA-512(content)."""
    return path, hashlib.sha512(content).digest()
