"""Emulated untrusted guest context.

The guest brokers everything that crosses the trust boundary: external
file reads, the handshake transcript, request/response ciphertexts, and
fallback transfer envelopes.  Every byte string it observes is appended to
a tap log so secrecy tests can scan for plaintext leakage; a zygote image
is one observation made of its canonical parts, kept by reference.  Being
the adversary-controlled component, it also exposes tamper hooks for tests.
"""

from __future__ import annotations

from typing import Optional


class TaintedBytes(bytes):
    """Bytes fetched from the untrusted guest, not yet integrity-checked.

    Pipeline ops must never see this type; the nested filesystem converts
    it to plain bytes only after the manifest digest check passes.
    """


class GuestBroker:
    """PL2 broker: external files, registry transport, and the tap log."""

    def __init__(self) -> None:
        self.files: dict[str, bytes] = {}
        # One entry per observation: its bytes, or the tuple of its parts.
        self.tap: list[bytes | tuple[bytes, ...]] = []
        self.file_reads: list[str] = []
        # Test hook: path -> function(bytes) -> bytes applied on read.
        self._tamper: dict[str, object] = {}

    # -- observation ----------------------------------------------------------

    def observe(self, *parts: bytes) -> None:
        """Record one observation: a byte string, or the immutable parts
        that end to end make it up, which are kept as they are."""
        if len(parts) > 1:
            self.tap.append(parts)
        elif parts and parts[0]:
            self.tap.append(bytes(parts[0]))

    def tap_contains(self, needle: bytes) -> bool:
        """Whether needle occurs in an observation, also across the parts
        of one; the parts are scanned, not joined."""
        return any(needle in blob if isinstance(blob, bytes)
                   else _spans(blob, needle) for blob in self.tap)

    # -- external filesystem ----------------------------------------------------

    def put_file(self, path: str, content: bytes) -> None:
        self.files[path] = bytes(content)

    def tamper_file(self, path: str, mutate) -> None:
        """Adversarial hook: mutate the content served for path."""
        self._tamper[path] = mutate

    def read_file(self, path: str) -> Optional[TaintedBytes]:
        self.file_reads.append(path)
        content = self.files.get(path)
        if content is None:
            return None
        mutate = self._tamper.get(path)
        if mutate is not None:
            content = mutate(content)
        self.observe(content)
        return TaintedBytes(content)


def _spans(parts: tuple[bytes, ...], needle: bytes) -> bool:
    """Whether needle occurs in the parts joined end to end.

    A match either lies inside one part, or starts in the len(needle) - 1
    bytes before a part and ends in that part's first len(needle) - 1.
    """
    keep, tail = len(needle) - 1, b""  # the last keep bytes seen so far
    for part in parts:
        if needle in part or needle in tail + part[:keep]:
            return True
        if keep:
            tail = (tail + part[-keep:])[-keep:]
    return False
