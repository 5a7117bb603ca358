"""Content-keyed JIT block cache and the word-wise MTB packet path.

Separately linked images with equal code share one compiled block table
(the eval grid links a fresh image per cell).  The contract stays
bit-identical execution against the interpreter: a key collision, an
eviction or an in-place patch may cost recompiles, never a wrong block.
"""

from __future__ import annotations

import random

import pytest

from repro.asm import link
from repro.asm.assembler import assemble_and_link
from repro.isa.instructions import make_instr
from repro.machine.cpu import RetireEvent
from repro.machine.jit import runtime
from repro.machine.jit.runtime import NOJIT, clear_shared_caches
from repro.machine.mcu import MCU
from repro.machine.memory import Memory
from repro.trace.groundtruth import GroundTruthTracer
from repro.trace.mtb import MTB, PACKET_BYTES, MTBPacket
from repro.workloads import load_workload
from repro.workloads.base import make_mcu

#: ``mov r0, #36`` and ``mov r0, #84`` encode to the same two bytes, so
#: these two programs have equal ``code_bytes()`` (and ``H_MEM``)
COLLIDING = """.entry main
main:
    mov r7, #6
    mov r1, #0
loop:
    mov r0, #{imm}
    add r1, r1, r0
    sub r7, r7, #1
    cmp r7, #0
    bne loop
    bkpt
"""


@pytest.fixture(autouse=True)
def _cold_jit_cache():
    clear_shared_caches()


def _run(mcu):
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    result = mcu.run()
    return (mcu.cpu.regs, mcu.cpu.flags.as_tuple(), result.cycles,
            result.instructions, result.exit_reason, tracer.pcs,
            tracer.transfers)


def _mcu(image, workload, enable_jit):
    if workload is None:
        return MCU(image, enable_jit=enable_jit)
    return make_mcu(image, workload, enable_jit=enable_jit)


def _interp(image, workload=None):
    return _run(_mcu(image, workload, False))


def _jit(image, workload=None):
    mcu = _mcu(image, workload, True)
    return mcu, _run(mcu)


def _colliding(imm):
    return assemble_and_link(COLLIDING.format(imm=imm))


def test_colliding_encodings_have_equal_code_bytes():
    assert _colliding(36).code_bytes() == _colliding(84).code_bytes()
    assert (runtime.content_key(_colliding(36))
            != runtime.content_key(_colliding(84)))


@pytest.mark.parametrize("order", [(36, 84), (84, 36)])
def test_code_bytes_collision_runs_its_own_code(order):
    for imm in order:
        image = _colliding(imm)
        mcu, state = _jit(image)
        assert state == _interp(image)
        assert mcu.jit.compiles > 0  # never borrows the other's blocks
        assert mcu.cpu.regs[0] == imm
        assert mcu.cpu.regs[1] == 6 * imm


def test_relinked_workload_reuses_blocks():
    workload = load_workload("prime")
    first = link(workload.module())
    m1, s1 = _jit(first, workload)
    assert m1.jit.compiles > 0
    second = link(workload.module())
    assert second is not first
    m2, s2 = _jit(second, workload)
    assert m2.jit.compiles == 0
    assert m2.jit.blocks
    assert s2 == s1 == _interp(second, workload)


def test_bounded_content_map(monkeypatch):
    monkeypatch.setattr(runtime, "SHARED_CACHE_IMAGES", 1)
    for imm in (36, 84, 36, 84):
        image = _colliding(imm)
        mcu, state = _jit(image)
        assert state == _interp(image)
        assert mcu.jit.compiles > 0  # the other content evicted this one
        assert len(runtime._CONTENT_BLOCKS) <= 1


def test_patched_image_never_serves_its_code():
    image = _colliding(36)
    mcu, _ = _jit(image)
    assert mcu.jit.compiles > 0
    # patch the loop body in place, as a trampoline installer would
    patched = _colliding(84)
    site = next(pc for pc, instr in image.instr_at.items()
                if str(instr) == "mov r0, #36")
    image.instr_at[site] = patched.instr_at[site]
    assert mcu.invalidate_jit() > 0
    mcu.reset()
    mcu.run()
    assert mcu.jit.compiles > 0
    assert mcu.cpu.regs[1] == 6 * 84
    # a fresh image with the original content runs its own code ...
    original = _colliding(36)
    fresh, state = _jit(original)
    assert state == _interp(original)
    assert fresh.cpu.regs[1] == 6 * 36
    # ... and a sibling MCU on the patched image joins its private table
    sibling, state = _jit(image)
    assert sibling.jit._shared is mcu.jit._shared
    assert state == _interp(image)
    assert sibling.cpu.regs[1] == 6 * 84


def test_invalidation_keeps_other_images_blocks():
    a, b = _colliding(36), _colliding(36)
    ma, _ = _jit(a)
    mb, _ = _jit(b)
    assert mb.jit.compiles == 0 and mb.jit.blocks
    ma.invalidate_jit()
    assert not ma.jit.blocks
    assert any(blk is not NOJIT for blk in mb.jit.blocks.values())


# -- MTB: word-wise SRAM path == the per-byte path ----------------------

class _PerByteMTB(MTB):
    """The MTB datapath as written before the word-wise helpers."""

    def _record(self, src, dst):
        offset = self.position
        if offset + PACKET_BYTES > self.buffer_size:
            offset = 0
            self.wrapped = True
        self.memory.poke(self.base + offset, src, 4)
        self.memory.poke(self.base + offset + 4, dst, 4)
        self.position = offset + PACKET_BYTES
        self.total_packets += 1
        if self.watermark is not None and self.position >= self.watermark:
            if self.watermark_handler is not None:
                self.watermark_handler(self)

    def drain(self):
        packets = []
        for i in range(self.position // PACKET_BYTES):
            src = self.memory.peek(self.base + i * PACKET_BYTES, 4)
            dst = self.memory.peek(self.base + i * PACKET_BYTES + 4, 4)
            packets.append(MTBPacket(src, dst))
        self.reset_position()
        return packets


@pytest.mark.parametrize("watermark", [None, 3 * PACKET_BYTES])
def test_mtb_word_path_matches_per_byte_path(watermark):
    rng = random.Random(watermark or 0)
    nop = make_instr("nop")
    events = [RetireEvent(rng.getrandbits(32), rng.getrandbits(32),
                          rng.random() < 0.3, nop) for _ in range(200)]

    def drive(cls):
        drained = []
        mtb = cls(Memory(), buffer_size=5 * PACKET_BYTES,
                  activation_latency=2)
        mtb.configure(watermark=watermark,
                      watermark_handler=lambda m: drained.append(m.drain()))
        mtb.start()
        for i, event in enumerate(events):
            mtb.on_retire(event)
            if i % 37 == 36:  # a partial report mid-stream
                drained.append(mtb.drain())
        wrapped = mtb.wrapped
        drained.append(mtb.drain())
        return drained, wrapped, mtb.total_packets, mtb.memory._bytes

    expected, actual = drive(_PerByteMTB), drive(MTB)
    assert actual == expected
    if watermark is None:
        assert actual[1]  # the 5-packet buffer wrapped
