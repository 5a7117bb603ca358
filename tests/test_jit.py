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
from repro.machine.faults import MemFault
from repro.machine.jit import NOJIT, discover_superblock
from repro.machine.jit.runtime import HOT_THRESHOLD, clear_shared_caches
from repro.machine.mcu import MCU
from repro.machine.memmap import NS_RAM_BASE, RODATA_BASE
from repro.trace.groundtruth import GroundTruthTracer


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
