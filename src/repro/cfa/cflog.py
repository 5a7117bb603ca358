"""The control flow log (CFLog) and its entry formats.

Entry sizes follow the mechanisms that produce them:

* :class:`BranchRecord` — an MTB packet: two 32-bit words (source and
  destination of a non-sequential transfer), 8 bytes;
* :class:`AddressRecord` — a TRACES-style instrumentation entry: a
  single 32-bit destination word, 4 bytes (site identity is implicit in
  replay order, so it costs nothing on the wire);
* :class:`LoopRecord` — a logged loop condition. Through the MTB-less
  TRACES path this is one word (4 bytes); RAP-Track's engine stores it
  alongside 8-byte MTB packets (site word + value word).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union


@dataclass(frozen=True)
class BranchRecord:
    """An MTB packet: (recording-instruction address, destination)."""

    key: int  # packet source = address of the recording instruction
    dst: int
    size_bytes: int = 8

    def pack(self) -> bytes:
        return struct.pack("<BII", 1, self.key, self.dst)


@dataclass(frozen=True)
class AddressRecord:
    """A TRACES instrumentation entry: destination only on the wire."""

    key: int  # logging site (svc) address — implicit in replay order
    dst: int
    size_bytes: int = 4

    def pack(self) -> bytes:
        return struct.pack("<BII", 2, self.key, self.dst)


@dataclass(frozen=True)
class LoopRecord:
    """A logged loop condition (the counter value at loop entry)."""

    key: int  # logging site (svc) address
    value: int
    size_bytes: int = 8

    def pack(self) -> bytes:
        return struct.pack("<BII", 3, self.key, self.value & 0xFFFFFFFF)


Record = Union[BranchRecord, AddressRecord, LoopRecord]

#: one packed record (``Record.pack``): u8 tag, u32 key, u32 value
PACKED_RECORD = struct.Struct("<BII")
#: record tag -> its wire bytes (tag 4: a speculation token, one word)
_TAG_SIZES = {1: 8, 2: 4, 3: 8, 4: 4}
_TRACES_TAG_SIZES = {**_TAG_SIZES, 3: 4}


def tag_sizes(method: str) -> Dict[int, int]:
    """Record tag -> the wire bytes ``method`` logs it in: TRACES
    writes a loop condition as one word (see the module docstring)."""
    return _TRACES_TAG_SIZES if method == "traces" else _TAG_SIZES


class CFLog:
    """An ordered control flow log with wire-size accounting.

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

    @property
    def size_bytes(self) -> int:
        """Total wire size of the log."""
        return sum(r.size_bytes for r in self.records)

    def pack(self) -> bytes:
        """Deterministic serialization (MAC input)."""
        wire = self._wire
        if wire is not None and wire[0] == self.records:
            return wire[1]
        return b"".join(r.pack() for r in self.records)

    def __str__(self) -> str:
        return f"CFLog({len(self.records)} records, {self.size_bytes} B)"
