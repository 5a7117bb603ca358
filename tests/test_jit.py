"""Superblock JIT: discovery, differential exactness, invalidation.

The contract under test is *bit-identical execution*: for any program,
running with the JIT enabled must produce exactly the same architectural
state (registers, flags, cycle count, retired count), the same
ground-truth retire stream, and the same faults at the same points as
the pure interpreter.  A hypothesis generator drives that over random
straight-line loop bodies (which is precisely the shape the compiler
specializes); fixed cases pin memory ops, stack ops, faults mid-block,
and the fallback/invalidation machinery.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.asm.assembler import assemble_and_link
from repro.cfa.engine import EngineConfig
from repro.cfa.wire import encode_report
from repro.core.loops import SimpleLoopShape, trip_count
from repro.isa.conditions import CONDITIONS
from repro.machine.faults import ExecutionLimitExceeded, MemFault
from repro.machine.jit import NOJIT, compile_superblock, discover_superblock
from repro.machine.jit.runtime import (
    HOT_THRESHOLD,
    clear_shared_caches,
    shared_cache_for,
)
from repro.machine.mcu import MCU
from repro.machine.memmap import MMIO_BASE, NS_RAM_BASE, RODATA_BASE
from repro.machine.mmio import MMIODevice
from repro.trace.dwt import DWT
from repro.trace.groundtruth import GroundTruthTracer
from repro.trace.mtb import MTB
from repro.workloads import load_workload
from conftest import naive_setup


@pytest.fixture(autouse=True)
def _cold_jit_cache():
    """Each test links its images against a cold content-keyed cache, so
    compile counts are this test's own."""
    clear_shared_caches()


def run_one(image, enable_jit, max_instructions=1_000_000):
    """Run a fresh MCU over ``image``; captures result or fault."""
    mcu = MCU(image, max_instructions=max_instructions,
              enable_jit=enable_jit)
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    try:
        result = mcu.run()
        error = None
    except Exception as exc:  # noqa: BLE001 — compared across tiers
        result = None
        error = exc
    return mcu, tracer, result, error


def assert_identical(source, require_compiles=True,
                     max_instructions=1_000_000):
    """Run ``source`` under both tiers; assert bit-identical outcomes."""
    clear_shared_caches()  # hypothesis replays an example in one test
    image = assemble_and_link(source)
    m0, t0, r0, e0 = run_one(image, False, max_instructions)
    m1, t1, r1, e1 = run_one(image, True, max_instructions)
    assert type(e0) is type(e1), (e0, e1)
    assert str(e0) == str(e1)
    if r0 is not None:
        assert (r0.cycles, r0.instructions, r0.exit_reason) == \
               (r1.cycles, r1.instructions, r1.exit_reason)
    assert m0.cpu.regs == m1.cpu.regs
    assert m0.cpu.flags.as_tuple() == m1.cpu.flags.as_tuple()
    assert m0.cpu.cycles == m1.cpu.cycles
    assert m0.cpu.retired == m1.cpu.retired
    assert t0.pcs == t1.pcs
    assert t0.transfers == t1.transfers
    if require_compiles:
        assert m1.jit.compiles > 0, "JIT never engaged — test is vacuous"
    return m0, m1


LOOP = """.entry main
main:
    mov r7, #6
loop:
{body}
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    bkpt
"""


class TestDiscovery:
    def test_straight_line_block_shape(self):
        image = assemble_and_link(
            ".entry main\nmain:\n    mov r0, #1\n    add r1, r0, r0\n"
            "    mul r2, r1, r1\n    b main\n")
        block = discover_superblock(image, image.entry)
        assert block is not None
        assert block.entry == image.entry
        assert len(block.body) == 3
        assert block.terminator is not None
        assert block.pcs == tuple(sorted(block.pcs))

    def test_block_ends_before_bkpt(self):
        image = assemble_and_link(
            ".entry main\nmain:\n    mov r0, #1\n    mov r1, #2\n"
            "    bkpt\n")
        block = discover_superblock(image, image.entry)
        assert block is not None
        assert block.terminator is None
        assert len(block.body) == 2  # bkpt itself is interpreted

    def test_too_small_without_terminator_declined(self):
        image = assemble_and_link(
            ".entry main\nmain:\n    mov r0, #1\n    bkpt\n")
        assert discover_superblock(image, image.entry) is None


class TestDifferentialFixed:
    def test_alu_and_flags(self):
        assert_identical(LOOP.format(body="""
    mov r0, #200
    add r1, r0, r0
    adc r2, r1, r0
    sub r3, r1, r0
    sbc r4, r3, r0
    rsb r5, r0, #1
    and r6, r1, r3
    orr r6, r6, r5
    eor r6, r6, r1
    bic r6, r6, r5
    mvn r6, r6
    cmp r6, r1
"""))

    def test_shifts_and_mul(self):
        assert_identical(LOOP.format(body="""
    mov r0, #29
    mov r1, #3
    lsl r2, r0, r1
    lsr r3, r2, r1
    asr r4, r2, r1
    ror r5, r0, r1
    mul r6, r1, r1
"""))

    def test_memory_roundtrip(self):
        assert_identical(LOOP.format(body=f"""
    mov32 r0, #{NS_RAM_BASE:#x}
    mov r1, #170
    str r1, [r0]
    ldr r2, [r0, #0]
    strb r1, [r0, #8]
    ldrb r3, [r0, #8]
    strh r1, [r0, #12]
    ldrh r4, [r0, #12]
"""))

    def test_push_pop(self):
        assert_identical(LOOP.format(body="""
    mov r0, #11
    mov r1, #22
    mov r2, #33
    push {r0, r1, r2}
    mov r0, #0
    mov r1, #0
    pop {r0, r1, r2}
"""))

    def test_calls_and_returns(self):
        assert_identical(""".entry main
main:
    mov r7, #6
loop:
    bl helper
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    bkpt
helper:
    add r0, r0, #1
    mul r1, r0, r0
    bx lr
""")

    def test_pop_into_pc(self):
        assert_identical(""".entry main
main:
    mov r7, #6
loop:
    bl helper
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    bkpt
helper:
    push {lr}
    add r0, r0, #3
    eor r1, r0, r7
    pop {pc}
""")

    def test_fault_mid_block_is_exact(self):
        """A store walks off the end of RAM and faults inside a compiled
        block; every architectural effect up to the faulting instruction
        must match the interpreter exactly."""
        top = NS_RAM_BASE + 0x8_0000
        source = f""".entry main
main:
    mov32 r1, #{top - 0x1000:#x}
    mov r2, #1
    mov r0, #0
loop:
    str r2, [r1]
    add r0, r0, r2
    lsl r1, r1, #0
    add r1, r1, #255
    add r1, r1, #1
    b loop
"""
        m0, m1 = assert_identical(source)
        assert isinstance(run_one(assemble_and_link(source), True)[3],
                          MemFault)
        assert m0.cpu.regs[15] == m1.cpu.regs[15]

    def test_write_to_rodata_faults_identically(self):
        assert_identical(f""".entry main
main:
    mov r7, #6
    mov32 r1, #{NS_RAM_BASE:#x}
loop:
    str r7, [r1]
    add r1, r1, #4
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    mov32 r1, #{RODATA_BASE:#x}
    str r7, [r1]
    bkpt
""")


class TestFallback:
    def test_unknown_hook_disables_dispatch(self):
        """A bare-closure retire hook (no batch protocol) must force the
        interpreter tier — and the run must still be correct."""
        source = LOOP.format(body="    add r0, r0, #1\n    mul r1, r0, r0")
        image = assemble_and_link(source)

        seen = []
        mcu = MCU(image, enable_jit=True)
        mcu.cpu.retire_hooks.append(lambda ev: seen.append(ev.src))
        mcu.run()
        assert mcu.jit.compiles == 0  # never even considered an entry
        assert not mcu.jit.blocks

        m0, _, r0, _ = run_one(assemble_and_link(source), False)
        assert len(seen) == r0.instructions
        assert m0.cpu.regs[:8] == mcu.cpu.regs[:8]

    def test_hook_added_mid_run_respected(self):
        """Hooks registered by an earlier hook-free run don't leak: a
        fresh MCU on the same image reuses the shared code cache."""
        source = LOOP.format(body="    add r0, r0, #1\n    mul r1, r0, r0")
        image = assemble_and_link(source)
        mcu1 = MCU(image, enable_jit=True)
        mcu1.run()
        assert mcu1.jit.compiles > 0
        mcu2 = MCU(image, enable_jit=True)
        mcu2.run()
        # every block mcu1 compiled is reused by identity, not recompiled
        shared = {e: b for e, b in mcu1.jit.blocks.items() if b is not NOJIT}
        assert shared
        for entry, block in shared.items():
            assert mcu2.jit.blocks.get(entry) is block
        assert mcu1.cpu.regs == mcu2.cpu.regs


class TestInvalidation:
    SOURCE = LOOP.format(body="    add r0, r0, #1\n    eor r1, r0, r7")

    def test_invalidate_all_drops_blocks_and_recompiles(self):
        image = assemble_and_link(self.SOURCE)
        mcu = MCU(image, enable_jit=True)
        mcu.run()
        first = mcu.jit.compiles
        assert first > 0 and mcu.jit.blocks
        dropped = mcu.invalidate_jit()
        assert dropped == first
        assert not mcu.jit.blocks
        assert mcu.jit.invalidations == 1
        mcu.reset()
        mcu.run()
        assert mcu.jit.compiles == 2 * first  # recompiled from scratch

    def test_invalidate_by_address_is_selective(self):
        image = assemble_and_link(""".entry main
main:
    mov r7, #6
loop:
    bl helper
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    bkpt
helper:
    add r0, r0, #1
    mul r1, r0, r0
    bx lr
""")
        mcu = MCU(image, enable_jit=True)
        mcu.run()
        blocks = [b for b in mcu.jit.blocks.values() if b is not NOJIT]
        assert len(blocks) >= 2
        victim = blocks[0]
        survivors = [b for b in blocks if b is not victim
                     and not (b.entry <= victim.entry < b.end)]
        assert survivors, "need a block not covering the victim address"
        dropped = mcu.invalidate_jit(victim.entry)
        assert dropped >= 1
        assert dropped < len(blocks)

    def test_code_write_triggers_invalidation(self):
        from repro.machine.memmap import World

        image = assemble_and_link(self.SOURCE)
        mcu = MCU(image, enable_jit=True)
        mcu.run()
        assert mcu.jit.compiles > 0
        entry = next(b.entry for b in mcu.jit.blocks.values()
                     if b is not NOJIT)
        mcu.memory.write(entry, 0, 2, World.NONSECURE)
        assert mcu.jit.invalidations == 1
        assert entry not in mcu.jit.blocks

    def test_invalidation_clears_sibling_runtimes(self):
        image = assemble_and_link(self.SOURCE)
        a = MCU(image, enable_jit=True)
        b = MCU(image, enable_jit=True)
        a.run()
        b.run()
        assert a.jit.blocks and b.jit.blocks
        a.invalidate_jit()
        assert not b.jit.blocks  # shared image: stale code is stale for all

    def test_nojit_entries_warm_back_up(self):
        image = assemble_and_link(self.SOURCE)
        mcu = MCU(image, enable_jit=True)
        mcu.run()
        # the halting bkpt is never worth compiling: once hot, the
        # NOJIT verdict is cached so the warmth counter stops churning
        bkpt_pc = mcu.cpu.regs[15]
        for _ in range(HOT_THRESHOLD):
            verdict = mcu.jit.consider(bkpt_pc)
        assert verdict is NOJIT
        assert mcu.jit.blocks[bkpt_pc] is NOJIT
        # address-selective invalidation drops NOJIT verdicts too — a
        # rewrite can make a previously unprofitable address compilable
        mcu.invalidate_jit(bkpt_pc)
        assert bkpt_pc not in mcu.jit.blocks
        mcu.reset()
        mcu.run()
        assert mcu.jit.blocks  # warms up and recompiles after the flush


# -- loop-resident blocks ---------------------------------------------------

#: geiger's delay-loop shape: a register-only body and a conditional
#: branch back to the block's own entry
DELAY = """.entry main
main:
    mov r7, #{n}
loop:
    sub r7, r7, #1
    cmp r7, #0
    bgt loop
    bkpt
"""

#: a 4-instruction body ahead of ``blt loop``, for the DWT cases
COUNT_UP = """.entry main
main:
    mov r7, #0
loop:
    add r7, r7, #1
    add r0, r0, r7
    eor r1, r0, r7
    cmp r7, #20
    blt loop
    bkpt
"""


def spy_loops(image):
    """Warm ``image``'s shared block table with one JIT run, then wrap
    every loop-resident block's loop function with a call counter.
    Later MCUs on ``image`` reuse these blocks; returns the counter."""
    MCU(image, enable_jit=True).run()
    calls = []
    blocks = shared_cache_for(image).blocks
    for blk in blocks.values():
        if blk is not NOJIT and blk.loop is not None:
            def spy(*args, _inner=blk.loop):
                calls.append(args[0].retired)
                return _inner(*args)
            blk.loop = spy
    assert calls == [] and any(b is not NOJIT and b.loop is not None
                               for b in blocks.values())
    return calls


def run_pair(image, setup, max_instructions=1_000_000):
    """Run ``image`` under both tiers after ``setup(mcu)``; return the
    two (mcu, result, error, setup value) tuples."""
    out = []
    for enable_jit in (False, True):
        mcu = MCU(image, max_instructions=max_instructions,
                  enable_jit=enable_jit)
        extra = setup(mcu)
        try:
            result, error = mcu.run(), None
        except Exception as exc:  # noqa: BLE001 — compared across tiers
            result, error = None, exc
        out.append((mcu, result, error, extra))
    return out


def dwt_setup(ranges, activation_latency=3):
    """A ``run_pair`` setup wiring an MTB behind a DWT.

    ``ranges`` holds ``(action, first, stop)``: the range covers the
    loop block's ``pcs[first:stop]`` (body, then the terminator).
    """
    def setup(mcu):
        image = mcu.image
        block = discover_superblock(image, image.addr_of("loop"))
        bounds = list(block.pcs) + [block.end]
        mtb = MTB(mcu.memory, activation_latency=activation_latency)
        dwt = DWT(mtb)
        for action, first, stop in ranges:
            dwt.configure_range(action, bounds[first], bounds[stop])
        mcu.cpu.pre_hooks.append(dwt.evaluate)
        mcu.cpu.retire_hooks.append(mtb.on_retire)
        return mtb
    return setup


class TestLoopMode:
    def test_store_in_body_is_not_loop_resident(self):
        image = assemble_and_link(f""".entry main
main:
    mov r7, #9
    mov32 r1, #{NS_RAM_BASE:#x}
loop:
    str r7, [r1]
    sub r7, r7, #1
    cmp r7, #0
    bgt loop
    bkpt
""")
        block = discover_superblock(image, image.addr_of("loop"))
        assert compile_superblock(image, block).loop is None
        delay = assemble_and_link(DELAY.format(n=9))
        block = discover_superblock(delay, delay.addr_of("loop"))
        assert compile_superblock(delay, block).loop is not None

    def test_groundtruth_pc_stream_identical(self):
        image = assemble_and_link(DELAY.format(n=40))
        calls = spy_loops(image)
        (m0, _, _, t0), (m1, _, _, t1) = run_pair(
            image, lambda mcu: _tracer(mcu))
        assert calls, "loop mode never engaged"
        assert t0.pcs == t1.pcs
        assert t0.transfers == t1.transfers
        assert (m0.cpu.cycles, m0.cpu.retired) == \
               (m1.cpu.cycles, m1.cpu.retired)

    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_limit_lands_mid_loop(self, slack):
        """Exhausting the limit on each of the loop's three positions:
        same retired count, registers and exception as interpreting."""
        image = assemble_and_link(DELAY.format(n=200))
        calls = spy_loops(image)
        limit = 301 + slack
        (m0, r0, e0, _), (m1, r1, e1, _) = run_pair(
            image, lambda mcu: None, max_instructions=limit)
        assert calls, "loop mode never engaged"
        assert isinstance(e0, ExecutionLimitExceeded)
        assert type(e0) is type(e1) and str(e0) == str(e1)
        assert m0.cpu.retired == m1.cpu.retired == limit
        assert m0.cpu.regs == m1.cpu.regs
        assert m0.cpu.cycles == m1.cpu.cycles
        assert m0.cpu.flags.as_tuple() == m1.cpu.flags.as_tuple()

    def test_irq_pended_mid_loop_is_serviced_at_same_boundary(self):
        image = assemble_and_link(""".entry main
main:
    mov r7, #60
loop:
    sub r7, r7, #1
    cmp r7, #0
    bgt loop
    bkpt
isr:
    add r6, r6, #1
    mov r5, r7
    bx lr
""")
        calls = spy_loops(image)

        def setup(mcu):
            mcu.nvic.register_vector(3, image.addr_of("isr"))
            pend = _OnTaken(mcu.nvic, lambda nvic: nvic.raise_irq(3), 25)
            mcu.cpu.retire_hooks.append(pend.on_retire)
            return _tracer(mcu)

        (m0, r0, _, t0), (m1, r1, _, t1) = run_pair(image, setup)
        assert len(calls) >= 2, "loop mode must exit for the IRQ"
        assert m0.nvic.serviced == m1.nvic.serviced == [3]
        assert m0.cpu.regs[5] == m1.cpu.regs[5] != 0  # same r7 at entry
        assert t0.pcs == t1.pcs
        assert (r0.cycles, r0.instructions) == (r1.cycles, r1.instructions)

    def test_hook_change_and_halt_mid_loop(self):
        """A retire hook that, on the 25th taken branch, adds a plain
        closure retire hook (no batch protocol) or halts the CPU: the
        loop must return so the next instruction is observed, or the run
        ends, exactly where interpreting would."""
        image = assemble_and_link(DELAY.format(n=60))
        calls = spy_loops(image)
        for action in ("hook", "halt"):
            def setup(mcu, action=action):
                seen = []

                def act(cpu):
                    if action == "halt":
                        cpu.halted = True
                    else:
                        cpu.retire_hooks.append(
                            lambda event: seen.append(event.src))

                hook = _OnTaken(mcu.cpu, act, 25)
                mcu.cpu.retire_hooks.append(hook.on_retire)
                return seen

            before = len(calls)
            (m0, r0, _, s0), (m1, r1, _, s1) = run_pair(image, setup)
            assert len(calls) > before, "loop mode never engaged"
            assert s0 == s1 and (s1 or action == "halt")
            assert (r0.cycles, r0.instructions, r0.exit_reason) == \
                   (r1.cycles, r1.instructions, r1.exit_reason)
            assert m0.cpu.regs == m1.cpu.regs
        assert r1.exit_reason == "bkpt" and r1.instructions < 100

    def test_ticking_device_disables_loop_mode(self):
        """With a device that ticks, each dispatch stays one iteration.
        On the warm table that is 51 ticks — the entry block plus one
        per iteration, as before loop mode — summing to 201 cycles."""
        image = assemble_and_link(DELAY.format(n=50))
        calls = spy_loops(image)

        def setup(mcu):
            return mcu.attach_device(MMIO_BASE, _Ticker())

        (m0, r0, _, d0), (m1, r1, _, d1) = run_pair(image, setup)
        assert calls == []
        assert sum(d0.ticks) == sum(d1.ticks) == r0.cycles == r1.cycles == 201
        assert len(d1.ticks) == 51
        assert m0.cpu.regs == m1.cpu.regs

    def test_silent_device_keeps_loop_mode(self):
        image = assemble_and_link(DELAY.format(n=50))
        calls = spy_loops(image)
        (m0, r0, _, _), (m1, r1, _, _) = run_pair(
            image, lambda mcu: mcu.attach_device(MMIO_BASE, _Silent()))
        assert not m1.mmio.ticking
        assert calls
        assert (r0.cycles, r0.instructions) == (r1.cycles, r1.instructions)

    def test_dwt_range_splitting_the_loop_falls_back(self):
        """A start range over the loop's last three instructions splits
        it: no loop mode, and the MTB records the same packets as when
        interpreting.  A range over the whole loop is hoisted."""
        image = assemble_and_link(COUNT_UP)
        calls = spy_loops(image)
        (_, _, _, whole0), (_, _, _, whole1) = run_pair(
            image, dwt_setup([("start", 0, 5)], activation_latency=1))
        assert calls
        entries = len(calls)
        (_, _, _, split0), (_, _, _, split1) = run_pair(
            image, dwt_setup([("start", 2, 5)], activation_latency=1))
        assert len(calls) == entries
        for mtb0, mtb1 in ((whole0, whole1), (split0, split1)):
            assert mtb0.total_packets == mtb1.total_packets > 0
            assert mtb0.drain() == mtb1.drain()

    def test_stop_then_start_cover_is_not_hoisted(self):
        """Regression: a stop range over the body only, configured before
        a start range over body and terminator.  Per instruction,
        stop-then-start re-arms the 3-retire warmup before every body
        instruction, so nothing is ever recorded; a single hoisted
        evaluation let the warmup run out and recorded 18 packets."""
        image = assemble_and_link(COUNT_UP)
        (_, r0, _, mtb0), (m1, r1, _, mtb1) = run_pair(
            image, dwt_setup([("stop", 0, 4), ("start", 0, 5)]))
        assert m1.jit.compiles > 0
        assert mtb0.total_packets == mtb1.total_packets == 0
        assert (r0.cycles, r0.instructions) == (r1.cycles, r1.instructions)

    def test_jit_block_pre_refuses_mixed_cover_without_side_effects(self):
        image = assemble_and_link(COUNT_UP)
        mcu = MCU(image, enable_jit=False)
        mtb = MTB(mcu.memory, activation_latency=3)
        dwt = DWT(mtb)
        lo = image.addr_of("loop")
        dwt.configure_range("stop", lo, lo + 8)
        dwt.configure_range("start", lo, lo + 10)
        assert dwt.jit_block_pre((lo, lo + 2, lo + 4, lo + 6)) is False
        assert not mtb.enabled
        dwt.clear()
        dwt.configure_range("start", lo, lo + 10)
        dwt.configure_range("start", lo - 2, lo + 12)
        assert dwt.jit_block_pre((lo, lo + 2, lo + 4, lo + 6, lo + 8))
        assert mtb.enabled


def _tracer(mcu):
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    return tracer


class _OnTaken:
    """Retire observer that calls ``action(target)`` on the ``at``-th
    taken branch.

    Batch-capable: a block's body retires are all sequential, so the
    hoisted counterpart has nothing to do.
    """

    JIT_RETIRE_HOOK = "on_retire"

    def __init__(self, target, action, at):
        self.target = target
        self.action = action
        self.at = at
        self.taken = 0

    def on_retire(self, event):
        if not event.sequential:
            self.taken += 1
            if self.taken == self.at:
                self.action(self.target)

    def jit_block_retire(self, pcs):
        pass


class _Ticker(MMIODevice):
    WINDOW = 0x10

    def __init__(self):
        self.ticks = []

    def tick(self, cycles):
        self.ticks.append(cycles)


class _Silent(MMIODevice):
    WINDOW = 0x10


# -- closed-form counted loops -----------------------------------------------

#: a counted loop: ``rX = rX +/- #imm`` updates, ``cmp r4, #bound`` and a
#: conditional branch back; r5/r6 are extra affine registers
COUNTED = """.entry main
main:
    mov32 r4, #{init:#x}
    mov32 r5, #{extra:#x}
loop:
{body}
    cmp r4, #{bound:#x}
    b{cond} loop
    bkpt
"""

#: DELAY plus an interrupt handler, for watermark handlers that pend IRQs
DELAY_ISR = DELAY + """isr:
    add r6, r6, #1
    mov r5, r7
    bx lr
"""

_MASK = 0xFFFF_FFFF
_BOUNDARY = [0, 1, 2, 0x7FFF_FFFE, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001,
             0xFFFF_FFFE, 0xFFFF_FFFF]
_UPDATE = st.tuples(st.sampled_from(["add", "sub"]),
                    st.one_of(st.sampled_from([1, 2, 3, 7, 255]),
                              st.integers(1, 0xFFFF_FFFF)))


def _counted_source(counter_ops, extra_ops, nops, init, bound, cond):
    lines = [f"    {op} r4, r4, #{imm}" for op, imm in counter_ops]
    lines += [f"    {op} r{reg}, r{reg}, #{imm}"
              for reg, (op, imm) in extra_ops]
    lines += ["    nop"] * nops
    return COUNTED.format(init=init, extra=0x7FFF_FFF0, bound=bound,
                          cond=cond, body="\n".join(lines))


def _chunks(mcu):
    return mcu.jit.closed_form_chunks


class TestClosedForm:
    """Counted loop-resident blocks advance whole runs of iterations in
    one step; everything observable must equal interpreting them."""

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(counter_ops=st.lists(_UPDATE, min_size=1, max_size=2),
           extra_ops=st.lists(st.tuples(st.sampled_from([5, 6]), _UPDATE),
                              max_size=3),
           nops=st.integers(0, 1),
           cond=st.sampled_from(CONDITIONS),
           bound=st.one_of(st.sampled_from(_BOUNDARY + [10, 255]),
                           st.integers(0, _MASK)),
           base=st.one_of(st.sampled_from(_BOUNDARY),
                          st.integers(0, _MASK)),
           near=st.booleans(), offset=st.integers(-300, 300),
           limit=st.integers(60, 3000))
    def test_matches_interpreter(self, counter_ops, extra_ops, nops, cond,
                                 bound, base, near, offset, limit):
        step = sum(imm if op == "add" else -imm for op, imm in counter_ops)
        init = ((bound if near else base) + offset * step) & _MASK
        source = _counted_source(counter_ops, extra_ops, nops, init, bound,
                                 cond)
        _, m1 = assert_identical(source, require_compiles=False,
                                 max_instructions=limit)
        n_iter = len(counter_ops) + len(extra_ops) + nops + 2
        try:
            trips = trip_count(SimpleLoopShape(0, 4, bound, step, cond,
                                               None), init)
        except ValueError:
            trips = None
        if trips is not None and trips >= 3 and 2 + trips * n_iter < limit:
            assert _chunks(m1) > 0, "closed form never engaged"

    @pytest.mark.parametrize("cond,init,step,bound", [
        ("gt", 40, -1, 0),                  # geiger's delay loop
        ("ne", 0xFFFF_FFF0, 1, 3),          # wraps through 2**32 - 1
        ("lt", 0xFFFF_FF00, 1, 5),          # negative counter counts up
        ("hi", 0x1000, -3, 0x10),           # unsigned, step -3
        ("pl", 0x7FFF_FF00, 0x10, 0),       # signed wrap ends it
        ("lt", 0x8000_0000, -0x1000, 0x8000_0000),  # exits at once
    ])
    def test_fixed_cases_take_one_chunk(self, cond, init, step, bound):
        op = "add" if step > 0 else "sub"
        source = _counted_source([(op, abs(step))], [(5, ("add", 9))], 0,
                                 init, bound, cond)
        _, m1 = assert_identical(source, require_compiles=False,
                                 max_instructions=5_000_000)
        trips = trip_count(SimpleLoopShape(0, 4, bound, step, cond, None),
                           init)
        assert _chunks(m1) == (1 if trips >= 3 else 0)

    @pytest.mark.parametrize("limit", [71, 82, 93, 120])
    def test_flags_after_a_chunk_cut_by_the_limit(self, limit):
        """The counter crosses 0x80000000 on its way to the bound, which
        flips V mid-loop: a chunk the limit cuts must leave the flags of
        its own last ``cmp``."""
        source = _counted_source([("add", 1)], [(5, ("add", 9))], 0,
                                 0x7FFF_FFF0, 0x8000_0010, "ne")
        _, m1 = assert_identical(source, max_instructions=limit)
        assert _chunks(m1) == 1
        assert m1.cpu.retired == limit and m1.cpu.regs[4] > 0x8000_0000

    def test_non_terminating_loop_keeps_per_iteration_path(self):
        """Step 2 never reaches an odd bound: no closed form, and the
        limit fires on the same instruction."""
        source = _counted_source([("add", 2)], [], 0, 0, 7, "ne")
        _, m1 = assert_identical(source, max_instructions=2_000)
        assert _chunks(m1) == 0

    @pytest.mark.parametrize("body", [
        "sub r4, r4, r5; cmp r4, #0",       # a register operand
        "mov r5, #1; sub r4, r4, #1; cmp r4, #0",   # a non-affine write
        "adc r5, r5, #1; sub r4, r4, #1; cmp r4, #0",  # reads the carry
        "sub r4, r4, #1; cmp r4, #0; nop",  # cmp not last
    ])
    def test_other_shapes_stay_per_iteration(self, body):
        lines = "\n".join("    " + part.strip() for part in body.split(";"))
        _, m1 = assert_identical(f""".entry main
main:
    mov r4, #90
    mov r5, #1
loop:
{lines}
    bgt loop
    bkpt
""")
        assert _chunks(m1) == 0
        assert any(b is not NOJIT and b.loop is not None
                   for b in m1.jit.blocks.values())

    @pytest.mark.parametrize("slack", range(4))
    def test_limit_lands_inside_a_chunk(self, slack):
        image = assemble_and_link(DELAY.format(n=2_000))
        calls = spy_loops(image)
        (m0, _, e0, t0), (m1, _, e1, t1) = run_pair(
            image, _tracer, max_instructions=3_001 + slack)
        assert calls and _chunks(m1) == 1
        assert isinstance(e0, ExecutionLimitExceeded)
        assert type(e1) is type(e0) and str(e1) == str(e0)
        _assert_same_cpu(m0, m1)
        assert t0.pcs == t1.pcs

    def test_loop_without_bulk_hook_falls_back(self):
        """``_OnTaken`` has no bulk loop methods: per iteration, exactly."""
        image = assemble_and_link(DELAY.format(n=50))

        def setup(mcu):
            hook = _OnTaken(mcu.cpu, lambda cpu: None, 10 ** 6)
            mcu.cpu.retire_hooks.append(hook.on_retire)
            return hook

        (m0, r0, _, h0), (m1, r1, _, h1) = run_pair(image, setup)
        assert h0.taken == h1.taken == 49
        assert _chunks(m1) == 0
        _assert_same_cpu(m0, m1)


def _assert_same_cpu(m0, m1):
    assert m0.cpu.regs == m1.cpu.regs
    assert m0.cpu.flags.as_tuple() == m1.cpu.flags.as_tuple()
    assert (m0.cpu.cycles, m0.cpu.retired, m0.cpu.halted) == \
           (m1.cpu.cycles, m1.cpu.retired, m1.cpu.halted)


def mtb_setup(buffer_size=64, watermark=None, activation_latency=1,
              action=None, drain=True):
    """A ``run_pair`` setup: an MTB enabled from reset, with a watermark
    handler that snapshots the CPU and trace SRAM on every call, may
    ``action(mcu, mtb, call_number)``, then drains unless told not to.
    Returns ``(mtb, snapshots, tracer)``."""
    def setup(mcu):
        mtb = MTB(mcu.memory, buffer_size=buffer_size,
                  activation_latency=activation_latency)
        snapshots = []

        def handler(unit):
            cpu = mcu.cpu
            snapshots.append((
                cpu.retired, cpu.cycles, tuple(cpu.regs),
                cpu.flags.as_tuple(), unit.position, unit.wrapped,
                unit.total_packets,
                unit.memory.peek_bytes(unit.base, unit.buffer_size)))
            if action is not None:
                action(mcu, unit, len(snapshots))
            if drain:
                unit.reset_position()

        mtb.configure(watermark=watermark, watermark_handler=handler)
        mcu.cpu.retire_hooks.append(mtb.on_retire)
        mtb.start()
        return mtb, snapshots, _tracer(mcu)
    return setup


def _assert_same_mtb_run(pair):
    (m0, r0, e0, (mtb0, s0, t0)), (m1, r1, e1, (mtb1, s1, t1)) = pair
    assert type(e0) is type(e1) and str(e0) == str(e1)
    if r0 is not None:
        assert (r0.cycles, r0.instructions, r0.exit_reason) == \
               (r1.cycles, r1.instructions, r1.exit_reason)
    _assert_same_cpu(m0, m1)
    assert (mtb0.position, mtb0.wrapped, mtb0.total_packets,
            mtb0.enabled) == (mtb1.position, mtb1.wrapped,
                              mtb1.total_packets, mtb1.enabled)
    assert (mtb0.memory.peek_bytes(mtb0.base, mtb0.buffer_size)
            == mtb1.memory.peek_bytes(mtb1.base, mtb1.buffer_size))
    assert s0 == s1
    assert t0.pcs == t1.pcs and t0.transfers == t1.transfers
    return m1, mtb1, s1


class TestClosedFormMTB:
    """The MTB takes a counted loop's packets per chunk: up to the next
    wrap, short of the packet that reaches the watermark."""

    @pytest.mark.parametrize("buffer_size,watermark,drain", [
        (64, 40, True),       # a partial report every 5 packets
        (64, 64, True),       # watermark at the buffer's end
        (64, 40, False),      # undrained: every packet past 40 fires
        (64, None, True),     # no watermark: the buffer wraps
        (64, 1_000, True),    # watermark beyond the buffer: wraps too
        (0, None, True),      # degenerate: every packet wraps to 0
    ])
    def test_watermarks_and_wraps(self, buffer_size, watermark, drain):
        image = assemble_and_link(DELAY.format(n=300))
        m1, mtb1, snaps = _assert_same_mtb_run(run_pair(
            image, mtb_setup(buffer_size, watermark, drain=drain)))
        assert mtb1.total_packets == 299
        assert (_chunks(m1) > 0) == (buffer_size > 0)
        if watermark is not None and watermark <= buffer_size:
            assert len(snaps) >= 299 // 8
        elif buffer_size:
            assert mtb1.wrapped

    @pytest.mark.parametrize("buffer_size,watermark", [(64, 40),
                                                       (4096, None)])
    def test_warmup_left_at_loop_entry(self, buffer_size, watermark):
        """A 9-retire activation window is still running when the loop
        block starts: it runs down one iteration at a time first."""
        image = assemble_and_link(DELAY.format(n=100))
        calls = spy_loops(image)
        m1, mtb1, _ = _assert_same_mtb_run(run_pair(
            image, mtb_setup(buffer_size, watermark, activation_latency=9)))
        assert calls[0] < 9, "the window must still run at loop entry"
        assert _chunks(m1) > 0
        assert mtb1.total_packets < 99  # the window swallowed some

    @pytest.mark.parametrize("slack", range(4))
    def test_limit_inside_a_chunk(self, slack):
        image = assemble_and_link(DELAY.format(n=400))
        m1, _, _ = _assert_same_mtb_run(run_pair(
            image, mtb_setup(4096, 2_000), max_instructions=901 + slack))
        assert _chunks(m1) > 0

    @pytest.mark.parametrize("what", ["halt", "irq", "add_hook",
                                      "drop_mtb", "stop"])
    def test_handler_side_effects(self, what):
        """A watermark handler that halts, pends an IRQ, edits the hook
        lists or stops the MTB on its second call: the loop returns (or
        the run ends) where interpreting would."""
        image = assemble_and_link(DELAY_ISR.format(n=200))
        extra = []

        def action(mcu, unit, call):
            if call != 2:
                return
            if what == "halt":
                mcu.cpu.halted = True
            elif what == "irq":
                mcu.nvic.raise_irq(3)
            elif what == "add_hook":
                mcu.cpu.retire_hooks.append(
                    lambda event: extra.append(event.src))
            elif what == "drop_mtb":
                mcu.cpu.retire_hooks.remove(unit.on_retire)
            else:
                unit.stop()

        def setup(mcu):
            mcu.nvic.register_vector(3, image.addr_of("isr"))
            extra.clear()
            return mtb_setup(64, 40, action=action)(mcu)

        pair = run_pair(image, setup)
        m1, _, snaps = _assert_same_mtb_run(pair)
        assert len(snaps) >= 2 and _chunks(m1) > 0
        if what == "irq":
            assert pair[0][0].nvic.serviced == m1.nvic.serviced == [3]
        if what == "add_hook":
            assert extra  # the closure saw the rest of the run
        if what == "halt":
            assert m1.cpu.halted and pair[1][1].exit_reason == "bkpt"

    @pytest.mark.parametrize("workload", [None, "geiger", "ultrasonic"])
    def test_naive_mtb_reports_identical(self, workload, monkeypatch):
        """Naive-MTB with an 8-packet buffer and a watermark at 5: every
        partial report's bytes and MAC, the packet count and the report
        cycles are identical on both tiers."""
        config = EngineConfig(mtb_buffer_size=64, watermark=40)
        results = []
        for enabled in ("0", "1"):
            monkeypatch.setenv("REPRO_JIT", enabled)
            subject = (DELAY.format(n=500) if workload is None
                       else load_workload(workload))
            _, _, mcu, engine, _, tracer = naive_setup(
                subject, engine_config=config)
            results.append((mcu, engine.attest(b"closed-form"), tracer))
        (m0, a0, t0), (m1, a1, t1) = results
        assert m1.jit is not None and _chunks(m1) > 0
        assert len(a0.reports) == len(a1.reports) > 10
        assert ([encode_report(r) for r in a0.reports]
                == [encode_report(r) for r in a1.reports])
        assert (a0.mtb_packets, a0.report_cycles, a0.cycles,
                a0.instructions) == (a1.mtb_packets, a1.report_cycles,
                                     a1.cycles, a1.instructions)
        assert t0.pcs == t1.pcs and t0.transfers == t1.transfers


# -- hypothesis: cycle pre-summing == per-instruction accounting ---------

_REG = st.integers(min_value=0, max_value=5).map("r{}".format)
_IMM = st.integers(min_value=0, max_value=255)

_OPS = [
    ("mov {d}, #{imm}", True),
    ("mov {d}, {a}", False),
    ("mvn {d}, {a}", False),
    ("add {d}, {a}, {b}", False),
    ("add {d}, {a}, #{imm}", True),
    ("sub {d}, {a}, {b}", False),
    ("sub {d}, {a}, #{imm}", True),
    ("adc {d}, {a}, {b}", False),
    ("sbc {d}, {a}, {b}", False),
    ("rsb {d}, {a}, #{imm}", True),
    ("and {d}, {a}, {b}", False),
    ("orr {d}, {a}, {b}", False),
    ("eor {d}, {a}, {b}", False),
    ("bic {d}, {a}, {b}", False),
    ("lsl {d}, {a}, {b}", False),
    ("lsr {d}, {a}, {b}", False),
    ("asr {d}, {a}, {b}", False),
    ("ror {d}, {a}, {b}", False),
    ("mul {d}, {a}, {b}", False),
    ("cmp {a}, {b}", False),
    ("cmp {a}, #{imm}", True),
]


@st.composite
def _random_instr(draw):
    template, has_imm = draw(st.sampled_from(_OPS))
    return "    " + template.format(
        d=draw(_REG), a=draw(_REG), b=draw(_REG),
        imm=draw(_IMM) if has_imm else 0)


@given(st.lists(_random_instr(), min_size=2, max_size=12))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_block_bodies_are_bit_identical(instrs):
    """Compiled pre-summed cycles/retires and flag/register effects must
    equal per-instruction interpretation for arbitrary ALU bodies."""
    assert_identical(LOOP.format(body="\n".join(instrs)))


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=15, deadline=None)
def test_block_length_never_overcounts(n):
    """A compiled block of n adds retires exactly n+loop-overhead
    instructions per iteration — cycle totals scale linearly."""
    body = "\n".join("    add r0, r0, #1" for _ in range(n))
    m0, m1 = assert_identical(LOOP.format(body=body))
    assert m0.cpu.retired == m1.cpu.retired


def test_hot_threshold_is_lazy():
    """An entry is interpreted HOT_THRESHOLD-1 times before compiling."""
    image = assemble_and_link(LOOP.format(
        body="    add r0, r0, #1\n    eor r1, r0, r7"))
    mcu = MCU(image, enable_jit=True)
    # consider() warms without compiling until the threshold
    for _ in range(HOT_THRESHOLD - 1):
        assert mcu.jit.consider(image.entry) is NOJIT
        assert mcu.jit.compiles == 0
    blk = mcu.jit.consider(image.entry)
    assert blk is not NOJIT
    assert mcu.jit.compiles == 1
