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
:class:`Layout` reads a whole record of a fixed field layout in one
call, under the same rules, for the logs read back record by record.
"""

from __future__ import annotations

import struct
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
                    Type)

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


#: :class:`Layout` field codes; any other string is a fixed-width
#: :mod:`struct` code (``"I"``, ``"32s"``, ...)
TEXT = "text"  # lp UTF-8 string, shared through the call's text memo
STR = "str"    # lp UTF-8 string decoded afresh (values that never repeat)
BLOB = "blob"  # lp bytes


class Absent(NamedTuple):
    """A field this version of a format does not carry; it reads as
    ``value``, so every version of a record yields the same fields."""

    value: Any


class Repeat(NamedTuple):
    """``u16 count`` then ``count`` groups of ``fields``; reads as a
    tuple of tuples."""

    fields: Tuple[Any, ...]


class _Short(Exception):
    """A read ran past the end of the data."""


#: ``read(data, pos, memo) -> (fields, end)``: a compiled layout
_ReadFn = Callable[[bytes, int, Dict[bytes, str]], Tuple[List[Any], int]]


def _compile(fields: Tuple[Any, ...]) -> _ReadFn:
    """Generate the straight-line reader of ``fields``.

    Every length prefix and fixed-width run is bounds-checked before
    it is read or sliced (``_Short`` past the end of ``data``);
    adjacent fixed-width codes fuse into one :class:`struct.Struct`.
    The source holds only names and sizes from ``fields``, never data.
    """
    env: Dict[str, Any] = {"_Short": _Short, "u32": _U32.unpack_from,
                           "u16": _U16.unpack_from}
    lines = ["def read(data, pos, memo):", "    end = len(data)"]
    names: List[str] = []
    fixed = ""
    for spec in fields + (None,):
        if isinstance(spec, str) and spec not in (TEXT, STR, BLOB):
            fixed += spec
            continue
        if fixed:
            packed = struct.Struct("<" + fixed)
            unpack = f"fixed{len(names)}"
            env[unpack] = packed.unpack_from
            width = len(packed.unpack(bytes(packed.size)))
            run = [f"v{len(names) + i}" for i in range(width)]
            names += run
            lines += [f"    if pos + {packed.size} > end: raise _Short",
                      f"    {', '.join(run)}, = {unpack}(data, pos)",
                      f"    pos += {packed.size}"]
            fixed = ""
        if spec is None:
            break
        name = f"v{len(names)}"
        names.append(name)
        if isinstance(spec, Absent):
            env[f"absent_{name}"] = spec.value
            lines.append(f"    {name} = absent_{name}")
        elif isinstance(spec, Repeat):
            env[f"group_{name}"] = _compile(tuple(spec.fields))
            lines += ["    if pos + 2 > end: raise _Short",
                      "    count = u16(data, pos)[0]",
                      "    pos += 2",
                      f"    {name} = []",
                      "    for _ in range(count):",
                      f"        group, pos = group_{name}(data, pos, memo)",
                      f"        {name}.append(tuple(group))",
                      f"    {name} = tuple({name})"]
        else:
            lines += ["    start = pos + 4",
                      "    if start > end: raise _Short",
                      "    pos = start + u32(data, pos)[0]",
                      "    if pos > end: raise _Short"]
            if spec == TEXT:
                lines += ["    raw = data[start:pos]",
                          f"    {name} = memo.get(raw)",
                          f"    if {name} is None: "
                          f"{name} = memo[raw] = raw.decode()"]
            else:
                lines.append(f"    {name} = data[start:pos]"
                             + (".decode()" if spec == STR else ""))
    lines.append(f"    return [{', '.join(names)}], pos")
    exec("\n".join(lines), env)
    read: _ReadFn = env["read"]
    return read


class Layout:
    """A record's field layout, compiled once and read in one call.

    ``fields`` holds the field codes in wire order: :data:`TEXT`,
    :data:`STR`, :data:`BLOB`, fixed-width :mod:`struct` codes,
    :class:`Repeat` groups and :class:`Absent` fields. A read yields
    one value per field (a fixed code such as ``"III"`` yields three).
    Failures raise ``error`` with :class:`Reader`'s messages:
    ``truncated {what}``, ``{non_utf8}: {reason}``, and ``trailing``
    for bytes left over. Strings decode in wire order, so a record
    with a bad string before a cut fails on the string, as with a
    :class:`Reader`.
    """

    __slots__ = ("_read", "error", "what", "trailing", "non_utf8")

    def __init__(self, fields: Tuple[Any, ...], error: Type[Exception],
                 what: str, trailing: str, non_utf8: str) -> None:
        self._read = _compile(tuple(fields))
        self.error = error
        self.what = what
        self.trailing = trailing
        self.non_utf8 = non_utf8

    def scan(self, data: bytes, pos: int = 0,
             memo: Optional[Dict[bytes, str]] = None
             ) -> Tuple[List[Any], int]:
        """The fields at ``data[pos:]`` and the offset where they end
        (the record's natural length; later bytes are not read).
        ``memo`` maps raw bytes to decoded :data:`TEXT` fields; share
        one across the records of one log."""
        try:
            return self._read(data, pos, {} if memo is None else memo)
        except _Short:
            raise self.error(f"truncated {self.what}") from None
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.non_utf8}: {exc}") from None

    def read(self, data: bytes, pos: int = 0,
             memo: Optional[Dict[bytes, str]] = None) -> List[Any]:
        """The fields at ``data[pos:]``, which must end exactly at the
        end of ``data``."""
        out, end = self.scan(data, pos, memo)
        if end != len(data):
            raise self.error(self.trailing)
        return out
