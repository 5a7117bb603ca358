"""Memory-mapped peripheral bus.

Workload peripherals (ultrasonic echo timer, Geiger tube, ADC, UART,
stepper driver — see ``repro.workloads.peripherals``) register here and
are accessed by the application through plain loads/stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.machine.faults import MemFault


class MMIODevice:
    """Base class for a peripheral occupying a register window."""

    #: window size in bytes; subclasses override
    WINDOW = 0x100

    def read(self, offset: int, size: int) -> int:
        """Read ``size`` bytes at ``offset`` inside the window."""
        raise MemFault("read from unimplemented MMIO register", offset)

    def write(self, offset: int, value: int, size: int) -> None:
        """Write ``size`` bytes at ``offset`` inside the window."""
        raise MemFault("write to unimplemented MMIO register", offset)

    def tick(self, cycles: int) -> None:
        """Advance device-internal time (called per retired instruction)."""

    def reset(self) -> None:
        """Return the device to its power-on state."""


class MMIOBus:
    """Dispatches accesses in the peripheral aperture to devices."""

    def __init__(self):
        self._devices: List[Tuple[int, int, MMIODevice]] = []
        self._by_name: Dict[str, MMIODevice] = {}
        #: devices whose ``tick`` is not the base-class no-op
        self._tickers: List[MMIODevice] = []

    def register(self, base: int, device: MMIODevice, name: Optional[str] = None):
        """Attach ``device`` at absolute address ``base``."""
        window = device.WINDOW
        for other_base, other_window, _ in self._devices:
            if base < other_base + other_window and other_base < base + window:
                raise ValueError(f"MMIO window overlap at {base:#x}")
        self._devices.append((base, window, device))
        if getattr(device.tick, "__func__", None) is not MMIODevice.tick:
            self._tickers.append(device)
        if name:
            self._by_name[name] = device
        return device

    def device(self, name: str) -> MMIODevice:
        return self._by_name[name]

    @property
    def ticking(self) -> bool:
        """True if any registered device overrides ``tick`` (the run
        loop skips per-iteration ticking entirely otherwise)."""
        return bool(self._tickers)

    def _find(self, address: int) -> Tuple[int, MMIODevice]:
        for base, window, device in self._devices:
            if base <= address < base + window:
                return base, device
        raise MemFault("access to unmapped MMIO address", address)

    def read(self, address: int, size: int) -> int:
        base, device = self._find(address)
        return device.read(address - base, size) & ((1 << (8 * size)) - 1)

    def write(self, address: int, value: int, size: int) -> None:
        base, device = self._find(address)
        device.write(address - base, value & ((1 << (8 * size)) - 1), size)

    def tick(self, cycles: int) -> None:
        for device in self._tickers:
            device.tick(cycles)

    def reset(self) -> None:
        for _, _, device in self._devices:
            device.reset()
