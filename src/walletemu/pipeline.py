"""Trusted-process runtime: nested-namespace filesystem and the pipeline
interpreter that stands in for a language runtime.

Execution is deterministic: a pipeline's output is a pure function of
(function spec, input bytes, filesystem snapshot).  Interpretation is
step-at-a-time so the monitor's scheduler can suspend a trustlet at an
external-file read and dispatch other work before it resumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from .errors import FunctionError, IntegrityError, NotFound
from .images import FunctionSpec, OpKind


class NestedFs:
    """Embedded-first filesystem view with manifest-gated external access.

    Lookup order: the embedded filesystem wins; otherwise the path must
    appear in the manifest and the fetched bytes must match its digest.
    The monitor fetches them while the run is suspended (``NeedFile``).
    """

    def __init__(self, embedded: dict[str, bytes], manifest: dict[str, bytes]):
        self.embedded = dict(embedded)
        self.manifest = dict(manifest)

    def lookup_embedded(self, path: str) -> Optional[bytes]:
        return self.embedded.get(path)

    def manifest_digest(self, path: str) -> Optional[bytes]:
        return self.manifest.get(path)

    def verify_external(self, path: str, raw: bytes) -> bytes:
        """Digest-check fetched bytes, which may be guest-tainted
        (``guest.TaintedBytes``); unwrap them only on success."""
        expected = self.manifest.get(path)
        if expected is None:
            raise NotFound(f"{path} is not in the manifest")
        if hashlib.sha512(raw).digest() != expected:
            raise IntegrityError(f"digest mismatch for external file {path}")
        return bytes(raw)


# -- step outcomes -----------------------------------------------------------

@dataclass(frozen=True)
class NeedFile:
    """The run is suspended until external file bytes are delivered."""

    path: str


@dataclass(frozen=True)
class Done:
    output: bytes


@dataclass(frozen=True)
class Failed:
    error: Exception


StepOutcome = Union[NeedFile, Done, Failed, None]  # None: keep stepping


class PipelineRun:
    """One in-flight pipeline execution.

    step() executes one pipeline op.  read_file ops that miss the embedded
    filesystem suspend the run with NeedFile; the monitor delivers the raw
    bytes via deliver_file(), where they are digest-checked before any op
    sees them.  step_index counts the ops executed so far.
    """

    def __init__(self, fn: FunctionSpec, fs: NestedFs, input_bytes: bytes):
        self.fn = fn
        self.fs = fs
        self.data = bytes(input_bytes)
        self.step_index = 0
        self.extra_sleep_us = 0
        self._pending_path: Optional[str] = None
        self._finished: Optional[StepOutcome] = None

    @property
    def finished(self) -> bool:
        return self._finished is not None

    def result(self) -> StepOutcome:
        assert self._finished is not None
        return self._finished

    def charge_us(self) -> int:
        """Total simulated execution charge for this run."""
        return self.fn.exec_time_us + self.extra_sleep_us

    def deliver_file(self, path: str, raw: bytes) -> None:
        """Resume a NeedFile suspension with broker-provided bytes."""
        assert self._pending_path == path, "unexpected file delivery"
        try:
            self.data = self.fs.verify_external(path, raw)
        except (IntegrityError, NotFound) as exc:
            self._finished = Failed(FunctionError(str(exc)))
            return
        self._pending_path = None
        self.step_index += 1

    def fail_file(self, path: str, error: Exception) -> None:
        assert self._pending_path == path
        self._finished = Failed(FunctionError(str(error)))

    def step(self) -> StepOutcome:
        """Execute the next op; returns a suspension/terminal outcome or None."""
        if self._finished is not None:
            return self._finished
        if self._pending_path is not None:
            return NeedFile(self._pending_path)
        if self.step_index >= len(self.fn.steps):
            self._finished = Done(self.data)
            return self._finished

        op = self.fn.steps[self.step_index]
        try:
            if op.op is OpKind.IDENTITY:
                pass
            elif op.op is OpKind.SHA512:
                self.data = hashlib.sha512(self.data).digest()
            elif op.op is OpKind.UPPERCASE:
                self.data = self.data.upper()
            elif op.op is OpKind.LOWERCASE:
                self.data = self.data.lower()
            elif op.op is OpKind.APPEND:
                self.data = self.data + op.arg
            elif op.op is OpKind.PREPEND:
                self.data = op.arg + self.data
            elif op.op is OpKind.CONST:
                self.data = op.arg
            elif op.op is OpKind.SLEEP:
                self.extra_sleep_us += int(round(op.sleep_ms * 1000))
            elif op.op is OpKind.READ_FILE:
                path = op.path
                embedded = self.fs.lookup_embedded(path)
                if embedded is not None:
                    self.data = embedded
                elif self.fs.manifest_digest(path) is None:
                    raise NotFound(f"{path} not found in embedded fs or manifest")
                else:
                    self._pending_path = path
                    return NeedFile(path)
            else:  # pragma: no cover - enum is closed
                raise ValueError(f"unknown op {op.op}")
        except (NotFound, IntegrityError) as exc:
            self._finished = Failed(FunctionError(str(exc)))
            return self._finished
        self.step_index += 1
        return None


def exec_pipeline(fn: FunctionSpec, input_bytes: bytes,
                  fs: NestedFs) -> tuple[bytes, int]:
    """Run a pipeline to completion without a monitor.

    Returns (output bytes, simulated execution charge in microseconds).
    Raises FunctionError when a read fails; external files, which only the
    monitor fetches, fail as not found.
    """
    run = PipelineRun(fn, fs, input_bytes)
    while True:
        outcome = run.step()
        if outcome is None:
            continue
        if isinstance(outcome, NeedFile):
            run.fail_file(outcome.path, NotFound(
                f"external file {outcome.path} needs the monitor"))
            continue
        if isinstance(outcome, Done):
            return outcome.output, run.charge_us()
        assert isinstance(outcome, Failed)
        raise outcome.error
