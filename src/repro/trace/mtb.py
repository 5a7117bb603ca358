"""Micro Trace Buffer (MTB) model.

Follows the MTB-M33 TRM behaviours RAP-Track relies on:

* while enabled, every *non-sequential* retire writes an 8-byte packet
  ``(source, destination)`` into a circular buffer in dedicated SRAM;
* ``MTB_MASTER.TSTARTEN``-style direct enable, or start/stop driven by
  DWT comparator events (:class:`repro.trace.dwt.DWT`);
* an ``MTB_FLOW`` watermark that raises a debug exception (modelled as a
  callback into the Secure World) when the write position reaches it;
* non-instant activation: after a start event the MTB needs
  ``activation_latency`` retirements before it records — the reason the
  paper pads MTBAR trampolines with NOPs (section V-C).

Configuration is Secure-World-only by construction: the register file is
not memory-mapped into the Non-Secure address space, and the trace SRAM
itself lives in a Secure region, so Non-Secure stores to it fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.machine.cpu import RetireEvent
from repro.machine.memmap import MTB_SRAM_BASE, MTB_SRAM_SIZE
from repro.machine.memory import Memory

#: One trace packet is two 32-bit words (source, destination).
_PACKET = struct.Struct("<II")
PACKET_BYTES = _PACKET.size


@dataclass(frozen=True)
class MTBPacket:
    """One recorded control transfer."""

    src: int
    dst: int


class MTB:
    """The trace buffer peripheral."""

    #: block-observation protocol (repro.machine.jit.runtime): the CPU
    #: retire hook this unit registers, hoistable via jit_block_retire
    #: and, for a counted loop, jit_loop_cap + jit_loop_retire
    JIT_RETIRE_HOOK = "on_retire"

    def __init__(self, memory: Memory, *, base: int = MTB_SRAM_BASE,
                 buffer_size: int = 4096, activation_latency: int = 1):
        if buffer_size % PACKET_BYTES:
            raise ValueError("buffer size must be a packet multiple")
        if base + buffer_size > MTB_SRAM_BASE + MTB_SRAM_SIZE:
            raise ValueError("buffer exceeds MTB SRAM")
        self.memory = memory
        self.base = base
        self.buffer_size = buffer_size
        self.activation_latency = activation_latency
        # MTB_MASTER.EN
        self.enabled = False
        # MTB_POSITION (byte offset of next write)
        self.position = 0
        # MTB_FLOW watermark (byte offset) and its debug-exception hook
        self.watermark: Optional[int] = None
        self.watermark_handler: Optional[Callable[["MTB"], None]] = None
        self.wrapped = False
        self.total_packets = 0  # lifetime count (not reset by wrap)
        self._warmup = 0

    # -- control (Secure World register interface) -------------------------

    def configure(self, *, buffer_size: Optional[int] = None,
                  watermark: Optional[int] = None,
                  watermark_handler=None) -> None:
        if buffer_size is not None:
            if buffer_size % PACKET_BYTES:
                raise ValueError("buffer size must be a packet multiple")
            self.buffer_size = buffer_size
        self.watermark = watermark
        if watermark_handler is not None:
            self.watermark_handler = watermark_handler
        self.reset_position()

    def reset_position(self) -> None:
        """Reset the write pointer (done after each partial report)."""
        self.position = 0
        self.wrapped = False

    def start(self) -> None:
        """TSTART event (from DWT) or direct TSTARTEN write."""
        if not self.enabled:
            self.enabled = True
            self._warmup = self.activation_latency

    def stop(self) -> None:
        """TSTOP event (from DWT) or master disable."""
        self.enabled = False

    # -- datapath ------------------------------------------------------------

    def on_retire(self, event: RetireEvent) -> None:
        """Bus snoop: called for every retired instruction."""
        if not self.enabled:
            return
        if self._warmup > 0:
            self._warmup -= 1
            return
        if event.sequential:
            return
        self._record(event.src, event.dst)

    def jit_block_retire(self, pcs) -> None:
        """Hoisted retire hook for a straight-line block of ``pcs``.

        Every retire in the block is sequential, so nothing is recorded;
        the only architectural effect of N sequential retires is that an
        enabled MTB burns down its activation warmup — exactly what the
        per-instruction path does N times.
        """
        if self.enabled and self._warmup > 0:
            self._warmup = max(0, self._warmup - len(pcs))

    def jit_loop_cap(self, count: int) -> int:
        """How many of ``count`` taken loop iterations
        :meth:`jit_loop_retire` may take at once (0: none, run the next
        iteration through :meth:`on_retire`).

        A disabled MTB takes them all.  An enabled one takes none while
        its activation warmup runs down, and otherwise stops short of
        the packet that wraps the buffer and of the packet that reaches
        the watermark: that one is recorded per iteration, so the
        ``MTB_FLOW`` handler runs at exactly the instruction boundary,
        with exactly the CPU state and hook lists, it would under
        interpretation.
        """
        if not self.enabled:
            return count
        if self._warmup > 0:
            return 0
        start = self.position
        if start + PACKET_BYTES > self.buffer_size:
            start = 0  # the chunk's first packet wraps
        room = (self.buffer_size - start) // PACKET_BYTES
        if self.watermark is not None and self.watermark_handler is not None:
            room = min(room, (self.watermark - start - 1) // PACKET_BYTES)
        return max(0, min(count, room))

    def jit_loop_retire(self, pcs, event: RetireEvent, count: int) -> None:
        """Hoisted retire hook for ``count`` iterations of a loop: the
        sequential ``pcs``, then the terminator's ``event``.

        Called only with a count :meth:`jit_loop_cap` granted, so no
        warmup is left, no packet wraps but the first and the watermark
        is not reached: the ``count`` packets go into the trace SRAM in
        one store update.
        """
        if not self.enabled or event.sequential:
            return
        offset = self.position
        if offset + PACKET_BYTES > self.buffer_size:
            offset = 0
            self.wrapped = True
        self.memory.poke_pairs(self.base + offset, event.src, event.dst,
                               count)
        self.position = offset + count * PACKET_BYTES
        self.total_packets += count

    def _record(self, src: int, dst: int) -> None:
        offset = self.position
        if offset + PACKET_BYTES > self.buffer_size:
            offset = 0
            self.wrapped = True
        self.memory.poke_pair(self.base + offset, src, dst)
        self.position = offset + PACKET_BYTES
        self.total_packets += 1
        if self.watermark is not None and self.position >= self.watermark:
            handler = self.watermark_handler
            if handler is not None:
                handler(self)

    # -- Secure World readout ------------------------------------------------

    def drain_bytes(self) -> bytes:
        """Read and clear the current buffer contents (Secure World only)
        as raw trace SRAM: one little-endian ``(source, destination)``
        word pair per packet, oldest first.

        Reads go through the memory system to stay faithful to the real
        flow (the engine copies the trace SRAM into its report).
        """
        data = self.memory.peek_bytes(self.base, self.position)
        self.reset_position()
        return data

    def drain(self) -> List[MTBPacket]:
        """:meth:`drain_bytes`, one :class:`MTBPacket` per packet."""
        return [MTBPacket(src, dst)
                for src, dst in _PACKET.iter_unpack(self.drain_bytes())]

    @property
    def bytes_used(self) -> int:
        return self.position
