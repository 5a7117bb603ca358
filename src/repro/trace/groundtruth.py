"""Ground-truth execution tracer (test oracle, not part of the device).

Records the complete control flow of a run straight from the CPU retire
stream. The verifier's lossless reconstruction is validated against this
in the test suite.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.machine.cpu import RetireEvent


class GroundTruthTracer:
    """Subscribes to CPU retires and keeps the full path."""

    #: block-observation protocol (repro.machine.jit.runtime), counted
    #: loops included
    JIT_RETIRE_HOOK = "on_retire"

    def __init__(self, record_all: bool = False):
        self.record_all = record_all
        self.transfers: List[Tuple[int, int]] = []  # non-sequential (src, dst)
        self.pcs: List[int] = []  # every executed pc (if record_all)

    def on_retire(self, event: RetireEvent) -> None:
        if self.record_all:
            self.pcs.append(event.src)
        if event.non_sequential:
            self.transfers.append((event.src, event.dst))

    def jit_block_retire(self, pcs) -> None:
        """Hoisted retire hook: all of ``pcs`` retired sequentially."""
        if self.record_all:
            self.pcs.extend(pcs)

    def jit_loop_cap(self, count: int) -> int:
        """Bulk loop retires are always taken whole."""
        return count

    def jit_loop_retire(self, pcs, event: RetireEvent, count: int) -> None:
        """Hoisted retire hook: ``count`` iterations of the sequential
        ``pcs`` followed by the terminator's ``event``."""
        if self.record_all:
            self.pcs.extend((tuple(pcs) + (event.src,)) * count)
        if event.non_sequential:
            self.transfers.extend([(event.src, event.dst)] * count)

    def executed_addresses(self) -> List[int]:
        if not self.record_all:
            raise ValueError("tracer was not configured with record_all")
        return list(self.pcs)
