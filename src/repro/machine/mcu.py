"""SoC composition: CPU + memory + MMIO + run loop."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.asm.program import Image
from repro.machine.cpu import CPU
from repro.machine.faults import ExecutionLimitExceeded
from repro.machine.jit.runtime import NOJIT, JITRuntime, hoisted_handlers
from repro.machine.memmap import MemoryMap
from repro.machine.memory import Memory
from repro.machine.mmio import MMIOBus, MMIODevice
from repro.machine.nvic import EXC_RETURN_MASKED, NVIC

#: Returning to the reset value of LR ends the program (bare-metal exit).
EXIT_PC = 0xFFFF_FFFE

#: Default runaway guard.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


def _jit_default() -> bool:
    """Default for ``enable_jit``: on, unless REPRO_JIT disables it."""
    return os.environ.get("REPRO_JIT", "1").lower() not in (
        "0", "off", "no", "false")


def _accepts(pre_batch, pcs) -> bool:
    """Ask each pre batch handler to observe ``pcs`` at once; stops at
    the first refusal (a refusing handler has no side effects)."""
    for handler in pre_batch:
        if not handler(pcs):
            return False
    return True


@dataclass
class RunResult:
    """Outcome of one program execution."""

    cycles: int
    instructions: int
    exit_reason: str  # "bkpt" | "return" | "halted"

    def __str__(self) -> str:
        return (f"RunResult(cycles={self.cycles}, "
                f"instructions={self.instructions}, exit={self.exit_reason})")


class MCU:
    """The simulated device: one core, one bus, the loaded image.

    ``enable_jit`` selects the superblock JIT tier
    (:mod:`repro.machine.jit`): hot straight-line regions are compiled
    into specialized Python functions with observation hoisted to block
    boundaries, falling back to ``CPU.step`` everywhere else.  Defaults
    to on (override per-process with ``REPRO_JIT=0``); execution is
    bit-identical either way, which the differential test battery pins.
    """

    def __init__(self, image: Image, memmap: Optional[MemoryMap] = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 enable_jit: Optional[bool] = None):
        self.image = image
        self.memmap = memmap or MemoryMap()
        self.mmio = MMIOBus()
        self.memory = Memory(self.memmap, self.mmio)
        self.memory.load_blob(0, image.data_bytes)
        self.cpu = CPU(image, self.memory)
        self.nvic = NVIC()
        self.max_instructions = max_instructions
        self._last_cycles = 0
        if enable_jit is None:
            enable_jit = _jit_default()
        self.jit: Optional[JITRuntime] = None
        if enable_jit:
            self.jit = JITRuntime(image, self.memmap, self.cpu.world)
            self.memory.add_code_write_hook(self.jit.on_code_write)

    def attach_device(self, base: int, device: MMIODevice,
                      name: Optional[str] = None) -> MMIODevice:
        """Register a peripheral in the MMIO aperture."""
        return self.mmio.register(base, device, name)

    def invalidate_jit(self, address: Optional[int] = None) -> int:
        """Drop compiled blocks (all, or those covering ``address``).

        Call after patching the loaded image in place (trampoline
        installation, devirtualization).  Checked writes to executable
        regions invalidate automatically through the memory observer.
        Returns the number of blocks dropped (0 when the JIT is off).
        """
        if self.jit is None:
            return 0
        return self.jit.invalidate(address)

    def reset(self) -> None:
        """Reset CPU state and peripherals; memory image is preserved."""
        self.cpu.reset()
        self.mmio.reset()
        self._last_cycles = 0

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Run from the current PC until halt, exit-return, or the guard.

        One loop serves both tiers.  Per iteration it either dispatches
        one compiled superblock (when the JIT is enabled, the entry is
        compiled, every hook is batch-capable, and the whole block fits
        under the instruction limit) or interprets one instruction.  The
        NVIC poll, MMIO tick, and the EXC_RETURN/EXIT_PC checks then run
        once per iteration — per *block* under the JIT, which is what
        makes the guard loop overhead amortized.  A loop-resident block
        (a register-only self-loop) whose whole loop the pre batch
        handlers accept runs all its iterations in one dispatch when no
        device ticks; it returns whenever this loop would act between
        two iterations.  A counted one (``rX = rX +/- #imm`` writes,
        ``cmp counter, #imm``) advances whole runs of iterations in
        closed form when every retire hook takes bulk loop retires
        (``jit_loop_cap``/``jit_loop_retire``, :mod:`repro.machine.jit.
        runtime`).
        """
        limit = max_instructions or self.max_instructions
        cpu = self.cpu
        nvic = self.nvic
        regs = cpu.regs
        step = cpu.step_fast
        pending = nvic.pending  # list identity is stable for an NVIC
        tick = self.mmio.tick if self.mmio.ticking else None
        start_cycles = cpu.cycles
        base = cpu.retired
        exit_reason = "halted"

        jit = self.jit
        blocks = jit.blocks if jit is not None else None
        consider = jit.consider if jit is not None else None
        # hook-hoisting state, revalidated whenever the hook lists change
        hp = hr = None
        hp_len = hr_len = -1
        pre_batch = ret_batch = loop_bulk = None
        jit_ok = False

        while True:
            done = cpu.retired - base
            if done >= limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} instructions (runaway program?)"
                )
            if pending:
                nvic.service_if_pending(cpu)
            stepped = True
            if blocks is not None:
                if (cpu.pre_hooks is not hp or len(hp) != hp_len
                        or cpu.retire_hooks is not hr or len(hr) != hr_len):
                    hp = cpu.pre_hooks
                    hp_len = len(hp)
                    hr = cpu.retire_hooks
                    hr_len = len(hr)
                    pre_batch = hoisted_handlers(
                        hp, "JIT_PRE_HOOK", "jit_block_pre")
                    ret_batch = hoisted_handlers(
                        hr, "JIT_RETIRE_HOOK", "jit_block_retire")
                    jit_ok = pre_batch is not None and ret_batch is not None
                    caps = hoisted_handlers(
                        hr, "JIT_RETIRE_HOOK", "jit_loop_cap")
                    bulk = hoisted_handlers(
                        hr, "JIT_RETIRE_HOOK", "jit_loop_retire")
                    loop_bulk = (None if caps is None or bulk is None
                                 else (caps, bulk))
                if jit_ok:
                    pc = regs[15]
                    blk = blocks.get(pc)
                    if blk is None:
                        blk = consider(pc)
                    if blk is not NOJIT and done + blk.max_extra < limit:
                        loop = blk.loop
                        if (loop is not None and tick is None
                                and _accepts(pre_batch, blk.pcs)):
                            jit.closed_form_chunks += loop(
                                cpu, ret_batch, base + limit - blk.max_extra,
                                pending, hp, hp_len, hr, hr_len, loop_bulk)
                            stepped = False
                        elif (not blk.body_pcs
                              or _accepts(pre_batch, blk.body_pcs)):
                            blk.fn(cpu, ret_batch)  # one iteration
                            stepped = False
                        # else non-uniform observation: interpret
            if stepped:
                step()
            if tick is not None:
                cycles = cpu.cycles
                tick(cycles - self._last_cycles)
                self._last_cycles = cycles
            pc = regs[15]
            if pc == EXC_RETURN_MASKED:
                nvic.exception_return(cpu)
            if cpu.halted:
                exit_reason = "bkpt"
                break
            if regs[15] == EXIT_PC:
                exit_reason = "return"
                break
        if tick is None:
            self._last_cycles = cpu.cycles
        return RunResult(
            cycles=cpu.cycles - start_cycles,
            instructions=cpu.retired - base,
            exit_reason=exit_reason,
        )
