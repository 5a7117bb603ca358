"""The length-prefixed byte codec every format in this package shares.

Every byte format the Vrf reads from an untrusted source -- the report
wire format, the RSHD/DICT/DACK/PLCY/HEAL frames, SPD1 dictionaries,
FWP1 policy documents, BNDS1 certificates and evidence bodies -- is
built from the same pieces: a magic and a version byte, little-endian
fixed-width integers, and length-prefixed fields (``lp x`` =
``u32 len(x) || x``; BNDS1 uses ``u16``). This module is the only
reader and writer of that idiom.

:class:`Reader` is strict: a read past the end, a bad header, an
invalid UTF-8 string or a trailing byte raises the *caller's* error
class, so each boundary keeps its own typed error. A length prefix is
checked against the bytes actually present before anything is sliced,
so no prefix can force an allocation larger than the input.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Type

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def lp(data: bytes) -> bytes:
    """``u32 len(data) || data``."""
    return _U32.pack(len(data)) + data


def lp16(data: bytes) -> bytes:
    """``u16 len(data) || data``."""
    if len(data) > 0xFFFF:
        raise ValueError("field too long for u16 length prefix")
    return _U16.pack(len(data)) + data


class Reader:
    """A bounded little-endian cursor over one encoded value.

    ``error`` is the exception class every failure raises, and
    ``what`` names the value in the truncation message
    (``truncated {what}``).
    """

    __slots__ = ("data", "pos", "error", "what")

    def __init__(self, data: bytes, error: Type[Exception],
                 what: str) -> None:
        self.data = data
        self.pos = 0
        self.error = error
        self.what = what

    def take(self, count: int) -> bytes:
        pos = self.pos
        end = pos + count
        if end > len(self.data):
            raise self.error(f"truncated {self.what}")
        self.pos = end
        return self.data[pos:end]

    def unpack(self, fmt: str) -> Tuple[int, ...]:
        """Fixed-width fields, e.g. ``unpack("<BI")``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        value: int = _U16.unpack(self.take(2))[0]
        return value

    def u32(self) -> int:
        value: int = _U32.unpack(self.take(4))[0]
        return value

    def u64(self) -> int:
        value: int = _U64.unpack(self.take(8))[0]
        return value

    def lp(self) -> bytes:
        """A ``u32``-length-prefixed field (one call: the hot path)."""
        data = self.data
        start = self.pos + 4
        if start <= len(data):
            end = start + _U32.unpack_from(data, start - 4)[0]
            if end <= len(data):
                self.pos = end
                return data[start:end]
        raise self.error(f"truncated {self.what}")

    def lp16(self) -> bytes:
        """A ``u16``-length-prefixed field."""
        return self.take(self.u16())

    def utf8(self, raw: bytes, what: str) -> str:
        """``raw`` as UTF-8; invalid bytes raise ``{what}: {reason}``."""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what}: {exc}") from None

    def lp_str(self, what: str) -> str:
        """A ``u32``-length-prefixed UTF-8 string."""
        return self.utf8(self.lp(), what)

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def header(self, magic: bytes, label: str,
               version: Optional[int] = None) -> None:
        """Check the magic (and version byte, if the format has one)
        a format opens with: ``bad {label} magic`` /
        ``unsupported {label} version {v}``."""
        name = f"{label} " if label else ""
        if self.take(len(magic)) != magic:
            raise self.error(f"bad {name}magic")
        if version is not None:
            found = self.u8()
            if found != version:
                raise self.error(f"unsupported {name}version {found}")

    def end(self, message: str) -> None:
        """Refuse trailing bytes."""
        if self.pos != len(self.data):
            raise self.error(message)
