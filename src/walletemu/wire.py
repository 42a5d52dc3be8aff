"""The primitives of every canonical byte format, and the one parser.

Images, function specs, reports, policies and requests are built from
big-endian ``u32``/``u64`` integers and ``u32``-length-prefixed fields.
Writers return parts for one ``b"".join``, so a large body is copied once.
``Reader`` checks each length and count against the bytes left before it
slices or loops; everything it refuses is a ``ParseError``.
"""

from __future__ import annotations

import struct

from .errors import ParseError

_U32, _U64 = struct.Struct(">I"), struct.Struct(">Q")
u32, u64 = _U32.pack, _U64.pack


def lp(data: bytes) -> tuple[bytes, bytes]:
    """A u32-length-prefixed field as two parts; the body is not copied."""
    return u32(len(data)), data


def checked(make, *args):
    """make(*args) for a parsed value, a ValueError it raises a ParseError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


class Reader:
    """A cursor over one ``bytes`` input, which each field is sliced from,
    so that every field is immutable ``bytes``.  Any other buffer (a
    ``bytearray``, a ``memoryview``) is copied into one on entry, once;
    a ``bytes`` input is never copied."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data if type(data) is bytes else bytes(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        pos, end = self._pos, self._pos + n
        if end > len(self._data):
            raise ParseError(f"truncated input: {n} bytes wanted at offset "
                             f"{pos}, {len(self._data) - pos} left")
        self._pos = end
        return self._data[pos:end]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def lp(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        """A length-prefixed UTF-8 field."""
        return checked(self.lp().decode)

    def count(self, min_item_size: int) -> int:
        """A u32 item count, refused before any loop unless that many items
        of min_item_size bytes or more fit in what is left."""
        n, left = self.u32(), len(self._data) - self._pos
        if n * min_item_size > left:
            raise ParseError(f"count {n} of items of {min_item_size}+ bytes "
                             f"overruns the {left} bytes left")
        return n

    def finish(self, what: str) -> None:
        """Refuse any bytes after the last field of ``what``."""
        if self._pos != len(self._data):
            raise ParseError(f"trailing bytes after {what}")
