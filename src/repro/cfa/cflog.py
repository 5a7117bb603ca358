"""The control flow log (CFLog) and its record table.

Every record crosses the wire as the same 9 bytes,
:data:`PACKED_RECORD`: a tag byte naming the record class
(:data:`RECORD_TYPES`), then two 32-bit words. What a record costs in
the log the device transmits depends on the mechanism that logged it
(:func:`tag_sizes`):

* :class:`BranchRecord` (tag 1) — an MTB packet: two 32-bit words
  (source and destination of a non-sequential transfer), 8 bytes;
* :class:`AddressRecord` (tag 2) — a TRACES-style instrumentation
  entry: a single 32-bit destination word, 4 bytes (site identity is
  implicit in replay order, so it costs nothing on the wire);
* :class:`LoopRecord` (tag 3) — a logged loop condition. Through the
  MTB-less TRACES path this is one word (4 bytes); RAP-Track's engine
  stores it alongside 8-byte MTB packets (site word + value word);
* :class:`SpecRecord` (tag 4) — a SpecCFA speculation token: path id
  and repeat count bit-packed into one word, 4 bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple, Union

#: one packed record (``Record.pack``): u8 tag, u32 key, u32 value
PACKED_RECORD = struct.Struct("<BII")


@dataclass(frozen=True)
class BranchRecord:
    """An MTB packet: (recording-instruction address, destination)."""

    tag: ClassVar[int] = 1
    key: int  # packet source = address of the recording instruction
    dst: int

    def pack(self) -> bytes:
        return PACKED_RECORD.pack(self.tag, self.key, self.dst)


@dataclass(frozen=True)
class AddressRecord:
    """A TRACES instrumentation entry: destination only on the wire."""

    tag: ClassVar[int] = 2
    key: int  # logging site (svc) address — implicit in replay order
    dst: int

    def pack(self) -> bytes:
        return PACKED_RECORD.pack(self.tag, self.key, self.dst)


@dataclass(frozen=True)
class LoopRecord:
    """A logged loop condition (the counter value at loop entry)."""

    tag: ClassVar[int] = 3
    key: int  # logging site (svc) address
    value: int

    def pack(self) -> bytes:
        return PACKED_RECORD.pack(self.tag, self.key,
                                  self.value & 0xFFFFFFFF)


@dataclass(frozen=True)
class SpecRecord:
    """One token: ``count`` consecutive repetitions of sub-path ``path_id``
    (see :mod:`repro.cfa.speccfa`)."""

    tag: ClassVar[int] = 4
    path_id: int
    count: int

    def pack(self) -> bytes:
        return PACKED_RECORD.pack(self.tag, self.path_id, self.count)


Record = Union[BranchRecord, AddressRecord, LoopRecord]

#: record tag (the first byte of ``Record.pack``) -> record class
RECORD_TYPES: Dict[int, type] = {
    BranchRecord.tag: BranchRecord,
    AddressRecord.tag: AddressRecord,
    LoopRecord.tag: LoopRecord,
    SpecRecord.tag: SpecRecord,
}

_TAG_SIZES = {BranchRecord.tag: 8, AddressRecord.tag: 4,
              LoopRecord.tag: 8, SpecRecord.tag: 4}
_TRACES_TAG_SIZES = {**_TAG_SIZES, LoopRecord.tag: 4}


def tag_sizes(method: str) -> Dict[int, int]:
    """Record tag -> the wire bytes ``method`` logs it in: TRACES
    writes a loop condition as one word (see the module docstring)."""
    return _TRACES_TAG_SIZES if method == "traces" else _TAG_SIZES


def span_claim(span: bytes, method: str = "rap-track") -> Tuple[int, int]:
    """``(records, log bytes)`` of a run of packed records ``method``
    logged, each token counted as itself: C-level counts over the tag
    bytes."""
    tags = span[::PACKED_RECORD.size]
    return len(tags), sum(size * tags.count(tag)
                          for tag, size in tag_sizes(method).items())


class CFLog:
    """An ordered control flow log.

    A log decoded off the wire keeps the bytes it arrived as
    (``packed``): :meth:`pack` returns them instead of re-packing
    every record for as long as :attr:`records` still holds exactly
    the values decoded from them.
    """

    def __init__(self, records: Iterable[Record] = (),
                 packed: Optional[bytes] = None):
        self.records: List[Record] = list(records)
        self._wire = (None if packed is None
                      else (self.records.copy(), packed))

    def append(self, record: Record) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def pack(self) -> bytes:
        """Deterministic serialization (MAC input)."""
        wire = self._wire
        if wire is not None and wire[0] == self.records:
            return wire[1]
        return b"".join(r.pack() for r in self.records)

    def __str__(self) -> str:
        return f"CFLog({len(self.records)} records)"
