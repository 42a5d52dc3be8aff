"""Trusted-process runtime: nested-namespace filesystem and the pipeline
interpreter that stands in for a language runtime.

Execution is deterministic: a pipeline's output is a pure function of
(function spec, input bytes, filesystem snapshot).  A run is a generator
that yields at each external-file read, so the monitor's scheduler can
suspend the trustlet there and dispatch other work before it resumes.
"""

from __future__ import annotations

import hashlib
from typing import Generator, Optional

from .errors import FunctionError, IntegrityError, NotFound
from .images import FunctionSpec, OpKind


class NestedFs:
    """Embedded-first filesystem view with manifest-gated external access.

    Lookup order: the embedded filesystem wins; otherwise the path must
    appear in the manifest and the fetched bytes must match its digest.
    The monitor fetches them while the run is suspended on the path.
    A zygote's trustlets share its view, so the last bytes verified for
    each path are kept, and a fetch equal to them is not hashed again.
    """

    def __init__(self, embedded: dict[str, bytes], manifest: dict[str, bytes]):
        self.embedded = dict(embedded)
        self.manifest = dict(manifest)
        self._verified: dict[str, bytes] = {}  # path -> last bytes checked

    def verify_external(self, path: str, raw: bytes) -> bytes:
        """Digest-check fetched bytes, which may be guest-tainted
        (``guest.TaintedBytes``); unwrap them only on success.  Bytes equal
        to the path's last verified bytes have its digest already."""
        expected = self.manifest.get(path)
        if expected is None:
            raise NotFound(f"{path} is not in the manifest")
        verified = self._verified.get(path)
        if verified is not None and raw == verified:
            return verified
        if hashlib.sha512(raw).digest() != expected:
            raise IntegrityError(f"digest mismatch for external file {path}")
        verified = self._verified[path] = bytes(raw)
        return verified


def run_pipeline(fn: FunctionSpec, fs: NestedFs, input_bytes: bytes
                 ) -> Generator[str, Optional[bytes], tuple[bytes, int]]:
    """One pipeline execution, op by op.

    A read_file op that misses the embedded filesystem yields its path and
    is resumed by ``send`` with the file's raw bytes, or with None when the
    file is absent; the bytes are digest-checked before any op sees them.
    Returns (output bytes, simulated execution charge in microseconds) and
    raises FunctionError when a read fails.
    """
    data = bytes(input_bytes)
    sleep_us = 0
    for op in fn.steps:
        if op.op is OpKind.IDENTITY:
            pass
        elif op.op is OpKind.SHA512:
            data = hashlib.sha512(data).digest()
        elif op.op is OpKind.UPPERCASE:
            data = data.upper()
        elif op.op is OpKind.LOWERCASE:
            data = data.lower()
        elif op.op is OpKind.APPEND:
            data = data + op.arg
        elif op.op is OpKind.PREPEND:
            data = op.arg + data
        elif op.op is OpKind.CONST:
            data = op.arg
        elif op.op is OpKind.SLEEP:
            sleep_us += int(round(op.sleep_ms * 1000))
        elif op.op is OpKind.READ_FILE:
            path = op.path
            embedded = fs.embedded.get(path)
            if embedded is not None:
                data = embedded
                continue
            if fs.manifest.get(path) is None:
                raise FunctionError(
                    f"{path} not found in embedded fs or manifest")
            raw = yield path
            if raw is None:
                raise FunctionError(f"external file {path} absent")
            try:
                data = fs.verify_external(path, raw)
            except IntegrityError as exc:
                raise FunctionError(str(exc)) from exc
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown op {op.op}")
    return data, fn.exec_time_us + sleep_us


def exec_pipeline(fn: FunctionSpec, input_bytes: bytes,
                  fs: NestedFs) -> tuple[bytes, int]:
    """Run a pipeline to completion without a monitor.

    Returns (output bytes, simulated execution charge in microseconds).
    Raises FunctionError when a read fails; an external file, which only
    the monitor fetches, fails as absent.
    """
    run = run_pipeline(fn, fs, input_bytes)
    try:
        while True:
            run.send(None)
    except StopIteration as stop:
        return stop.value
