"""Byte-addressable physical memory with MPU-checked access."""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, Optional

from repro.machine.faults import MemFault
from repro.machine.memmap import MemoryMap, World
from repro.machine.mmio import MMIOBus


class Memory:
    """Sparse physical memory front-end.

    Every CPU data access is routed through :meth:`read` / :meth:`write`,
    which consult the :class:`MemoryMap` (and thus the simulated MPU
    locks) before touching backing store or the MMIO bus.

    Hot-path note: both entry points keep a single-entry region cache
    (``[lo, hi)`` bounds of the last plain Non-Secure region the access
    resolved to) so steady-state loads/stores skip the MPU region walk.
    Only regions whose grant can never change underneath us are cached:
    Non-Secure (readable by either world), non-MMIO, and — for writes —
    non-executable and unlocked, revalidated against the memory map's
    lock epoch.  Everything else (MMIO, Secure regions, executable
    code) takes the checked slow path every time.
    """

    def __init__(self, memmap: Optional[MemoryMap] = None,
                 mmio: Optional[MMIOBus] = None):
        self.memmap = memmap or MemoryMap()
        self.mmio = mmio or MMIOBus()
        self._bytes: Dict[int, int] = {}
        #: observers fired (with the address) after a checked write to an
        #: executable region — the JIT uses this to invalidate blocks
        self._code_write_hooks: List[Callable[[int], None]] = []
        self._r_lo = 1  # empty read-region caches (two-entry, MRU first:
        self._r_hi = 0  # loops alternating data and rodata thrash one slot)
        self._r2_lo = 1
        self._r2_hi = 0
        self._w_lo = 1  # empty write-region cache
        self._w_hi = 0
        self._w_epoch = -1

    def add_code_write_hook(self, hook: Callable[[int], None]) -> None:
        """Register an observer for checked writes into executable code."""
        self._code_write_hooks.append(hook)

    # -- raw (unchecked) access for loaders and secure services ----------

    def load_blob(self, base: int, data) -> None:
        """Loader back-door: install bytes without MPU checks."""
        if isinstance(data, dict):
            self._bytes.update(data)
        else:
            for i, byte in enumerate(data):
                self._bytes[base + i] = byte

    def peek(self, address: int, size: int = 4) -> int:
        """Debug/secure-world read without access checks (not MMIO)."""
        value = 0
        for i in range(size):
            value |= self._bytes.get(address + i, 0) << (8 * i)
        return value

    def poke(self, address: int, value: int, size: int = 4) -> None:
        """Debug/secure-world write without access checks (not MMIO)."""
        for i in range(size):
            self._bytes[address + i] = (value >> (8 * i)) & 0xFF

    def peek_bytes(self, address: int, length: int) -> bytes:
        """``length`` raw bytes from ``address`` in one pass (unwritten
        bytes read 0): the secure-world readout of a trace buffer."""
        return bytes(map(self._bytes.get, range(address, address + length),
                         repeat(0, length)))

    def poke_pair(self, address: int, first: int, second: int) -> None:
        """Two little-endian words at ``address`` in one call: a trace
        unit's 8-byte packet."""
        b = self._bytes
        b[address] = first & 0xFF
        b[address + 1] = (first >> 8) & 0xFF
        b[address + 2] = (first >> 16) & 0xFF
        b[address + 3] = (first >> 24) & 0xFF
        b[address + 4] = second & 0xFF
        b[address + 5] = (second >> 8) & 0xFF
        b[address + 6] = (second >> 16) & 0xFF
        b[address + 7] = (second >> 24) & 0xFF

    def poke_pairs(self, address: int, first: int, second: int,
                   count: int) -> None:
        """``count`` back-to-back copies of :meth:`poke_pair`'s packet
        from ``address`` on, in one store update."""
        packet = (first & 0xFFFFFFFF | (second & 0xFFFFFFFF) << 32
                  ).to_bytes(8, "little")
        self._bytes.update(zip(range(address, address + 8 * count),
                               packet * count))

    # -- checked access ----------------------------------------------------

    def read(self, address: int, size: int, world: World) -> int:
        if not self._r_lo <= address < self._r_hi:
            if self._r2_lo <= address < self._r2_hi:  # promote to MRU
                self._r_lo, self._r2_lo = self._r2_lo, self._r_lo
                self._r_hi, self._r2_hi = self._r2_hi, self._r_hi
            else:
                return self._read_slow(address, size, world)
        if size == 4:
            if address & 3:
                raise MemFault("unaligned word read", address)
            b = self._bytes
            return (b.get(address, 0)
                    | b.get(address + 1, 0) << 8
                    | b.get(address + 2, 0) << 16
                    | b.get(address + 3, 0) << 24)
        return self.peek(address, size)

    def _read_slow(self, address: int, size: int, world: World) -> int:
        region = self.memmap.check_access(address, world=world, is_write=False)
        if size == 4 and address % 4 != 0:
            raise MemFault("unaligned word read", address)
        if region.mmio:
            return self.mmio.read(address, size)
        if region.world is World.NONSECURE:
            self._r2_lo = self._r_lo
            self._r2_hi = self._r_hi
            self._r_lo = region.base
            self._r_hi = region.base + region.size
        return self.peek(address, size)

    def write(self, address: int, value: int, size: int, world: World) -> None:
        if (self._w_lo <= address < self._w_hi
                and self._w_epoch == self.memmap.lock_epoch):
            if size == 4:
                if address & 3:
                    raise MemFault("unaligned word write", address)
                b = self._bytes
                b[address] = value & 0xFF
                b[address + 1] = (value >> 8) & 0xFF
                b[address + 2] = (value >> 16) & 0xFF
                b[address + 3] = (value >> 24) & 0xFF
                return
            self.poke(address, value, size)
            return
        region = self.memmap.check_access(address, world=world, is_write=True)
        if size == 4 and address % 4 != 0:
            raise MemFault("unaligned word write", address)
        if region.mmio:
            self.mmio.write(address, value, size)
            return
        self.poke(address, value, size)
        if region.executable:
            for hook in self._code_write_hooks:
                hook(address)
        elif region.world is World.NONSECURE:
            self._w_lo = region.base
            self._w_hi = region.base + region.size
            self._w_epoch = self.memmap.lock_epoch
