"""Superblock → Python code generation.

Each discovered :class:`Superblock` is rendered into the source of one
function ``_block(cpu, _ret)`` and ``compile()``d.  The generated code
is a straight transliteration of what ``CPU.step`` would do for each
instruction, with everything static folded at compile time:

* operand dispatch (kind/mnemonic tests, ``isinstance`` checks) is gone;
* PC-relative reads (``pc + 4``), label addresses, and immediates are
  constants;
* per-instruction cycle and retire accounting is pre-summed and
  committed once at the block boundary;
* ARM flag updates are computed into locals (``ln``/``lz``/``lc``/``lv``)
  and committed to ``cpu.flags`` once.

Memory operations still go through ``cpu.memory.read``/``write`` in
original program order, so MPU checks, MMIO side effects, and faults are
identical to the interpreter's.  Fault exactness: before every memory
operation the generated code stores the instruction's PC in ``_fp``; if
the operation raises, the handler commits the cycles/retires of the
instructions that fully completed (from the ``_CYC``/``_RETD`` tables),
sets ``regs[15] = _fp`` and the flag state, then re-raises — leaving the
CPU in exactly the state the interpreter would have left it in, because
register and memory writes are issued incrementally in interpreter
order.

A block's terminating control transfer (direct/conditional branch, call,
``bx``/``blx``, ``cbz``/``cbnz``, PC-destined pop/load) is *inlined* with
real per-instruction hook calls — only the sequential body has its
observation hoisted.  A direct terminator hands its retire hooks one of
two prebuilt events (taken / fall-through) instead of building one per
dispatch.

*Loop-resident* blocks — no memory operation anywhere, terminated by a
conditional direct branch or ``cbz``/``cbnz`` back to the block's own
entry — get a second function, ``_loop``, that keeps iterating in place
(see :func:`compile_superblock`); the run loop uses it when the pre-hook
batch handlers accept the whole loop at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.asm.program import Image
from repro.core.loops import TRIP_GUARD, exit_ranges, latch_taken
from repro.isa import alu
from repro.isa.conditions import normalise_cond
from repro.isa.instructions import Instr, InstrKind, TAKEN_BRANCH_PENALTY
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import LR, PC, SP
from repro.machine.cpu import RetireEvent
from repro.machine.jit.superblock import Superblock

M32 = alu.MASK32

#: mnemonics whose generated code reads or writes the flag locals
_FLAG_MNEMONICS = frozenset({
    "mov", "mvn", "add", "sub", "rsb", "adc", "sbc", "mul",
    "and", "orr", "eor", "bic", "lsl", "lsr", "asr", "ror",
    "cmp", "cmn", "tst",
})

_LOAD_SIZES = {"ldrb": 1, "ldrh": 2}
_STORE_SIZES = {"strb": 1, "strh": 2}

#: condition code -> expression over the flag locals
_COND_EXPRS = {
    "eq": "lz",
    "ne": "not lz",
    "cs": "lc",
    "cc": "not lc",
    "mi": "ln",
    "pl": "not ln",
    "vs": "lv",
    "vc": "not lv",
    "hi": "lc and not lz",
    "ls": "not lc or lz",
    "ge": "ln == lv",
    "lt": "ln != lv",
    "gt": "not lz and ln == lv",
    "le": "lz or ln != lv",
}


class JitCompileError(Exception):
    """The block contains something the compiler cannot specialize."""


class CompiledBlock:
    """One compiled superblock plus its dispatch metadata."""

    __slots__ = ("entry", "end", "pcs", "body_pcs", "fn", "loop",
                 "max_extra", "n_instr")

    def __init__(self, entry: int, end: int, pcs: Tuple[int, ...],
                 body_pcs: Tuple[int, ...], fn, max_extra: int,
                 n_instr: int, loop=None):
        self.entry = entry
        self.end = end
        self.pcs = pcs
        self.body_pcs = body_pcs
        #: one iteration: ``fn(cpu, ret_batch)``
        self.fn = fn
        #: loop-resident blocks only (else None): ``loop(cpu, ret_batch,
        #: retire_limit, pending, pre_hooks, pre_len, retire_hooks,
        #: retire_len, bulk)`` iterates until the back-edge falls through
        #: or the run loop would act between iterations, and returns how
        #: many closed-form chunks it took (``bulk`` holds the retire
        #: hooks' ``jit_loop_cap`` and ``jit_loop_retire`` lists, or is
        #: None when some hook lacks them)
        self.loop = loop
        #: retires beyond the first — the run-loop dispatches this block
        #: only when ``retired_so_far + max_extra < limit``, so the
        #: execution-limit guard fires on exactly the same instruction
        #: boundary as under interpretation
        self.max_extra = max_extra
        self.n_instr = n_instr

    def __repr__(self) -> str:
        return (f"CompiledBlock(entry={self.entry:#x}, end={self.end:#x}, "
                f"n={self.n_instr})")


class _Codegen:
    """Accumulates generated lines plus the fault-commit tables."""

    def __init__(self, image: Image, block: Superblock):
        self.image = image
        self.block = block
        self.lines: List[str] = []
        self.uses_flags = False
        self.uses_mem = False
        self.body_faults = False  # any memory op inside the body
        self.cyc_at: Dict[int, int] = {}
        self.retd_at: Dict[int, int] = {}
        self._cyc = 0  # running pre-sum over completed body instructions
        self._retd = 0
        #: constant target of a direct terminator (None if indirect) and
        #: whether it may also fall through
        self.direct_target: Optional[int] = None
        self.conditional = False

    def emit(self, line: str) -> None:
        self.lines.append(line)

    # -- operand expressions ----------------------------------------------

    def reg_expr(self, num: int, pc: int) -> str:
        if num == PC:
            return hex((pc + 4) & M32)  # architectural read-ahead
        return f"regs[{num}]"

    def val_expr(self, op, pc: int) -> str:
        if isinstance(op, Reg):
            return self.reg_expr(op.num, pc)
        if isinstance(op, Imm):
            return hex(op.value & M32)
        if isinstance(op, Label):
            return hex(self.image.addr_of(op.name))  # KeyError -> no compile
        raise JitCompileError(f"bad operand {op!r}")

    def addr_expr(self, mem: Mem, pc: int) -> str:
        parts = self.reg_expr(mem.base.num, pc)
        if mem.offset:
            parts += f" + ({mem.offset})"
        if mem.index is not None:
            if mem.shift:
                parts += f" + ({self.reg_expr(mem.index.num, pc)} << {mem.shift})"
            else:
                parts += f" + {self.reg_expr(mem.index.num, pc)}"
        return f"({parts}) & 0xFFFFFFFF"

    # -- fault bookkeeping -------------------------------------------------

    def mark_mem_op(self, pc: int) -> None:
        """Record the commit state to restore if this instruction faults."""
        self.uses_mem = True
        self.body_faults = True
        self.cyc_at[pc] = self._cyc
        self.retd_at[pc] = self._retd
        self.emit(f"_fp = {hex(pc)}")

    def account(self, instr: Instr, extra: int = 0) -> None:
        """Advance the pre-sums past one completed sequential instruction."""
        self._cyc += instr.spec.cycles + extra
        self._retd += 1

    # -- per-kind body generation -----------------------------------------

    def gen_body(self, pc: int, instr: Instr) -> None:
        kind = instr.kind
        if instr.mnemonic in _FLAG_MNEMONICS:
            self.uses_flags = True
        if kind is InstrKind.MOVE:
            self._gen_move(pc, instr)
        elif kind is InstrKind.ALU:
            self._gen_alu(pc, instr)
        elif kind is InstrKind.COMPARE:
            self._gen_compare(pc, instr)
        elif kind is InstrKind.LOAD:
            self._gen_load(pc, instr)
        elif kind is InstrKind.STORE:
            self._gen_store(pc, instr)
        elif kind is InstrKind.PUSH:
            self._gen_push(pc, instr)
        elif kind is InstrKind.POP:
            self._gen_pop(pc, instr)
        elif kind is InstrKind.SYSTEM:  # only nop reaches the body
            self.account(instr)
        else:
            raise JitCompileError(f"unsupported body kind {kind}")

    def _gen_move(self, pc: int, instr: Instr) -> None:
        dest, src = instr.operands
        d = dest.num
        mn = instr.mnemonic
        if mn == "adr":
            self.emit(f"regs[{d}] = {hex(self.image.addr_of(src.name))}")
        elif mn == "mov32":
            self.emit(f"regs[{d}] = {self.val_expr(src, pc)}")
        else:  # mov / mvn set N and Z
            value = self.val_expr(src, pc)
            if mn == "mvn":
                self.emit(f"_t = {value} ^ 0xFFFFFFFF")
            else:
                self.emit(f"_t = {value}")
            self.emit(f"regs[{d}] = _t")
            self.emit("ln = _t > 0x7FFFFFFF")
            self.emit("lz = _t == 0")
        self.account(instr)

    def _gen_alu(self, pc: int, instr: Instr) -> None:
        dest, lhs_op, rhs_op = instr.operands
        d = dest.num
        mn = instr.mnemonic
        a = self.val_expr(lhs_op, pc)
        b = self.val_expr(rhs_op, pc)
        emit = self.emit
        if mn in ("add", "adc"):
            cin = "lc" if mn == "adc" else None
            emit(f"_u = {a} + {b}" + (f" + {cin}" if cin else ""))
            self._addsub_flags(a, b)
            emit(f"regs[{d}] = _r")
        elif mn in ("sub", "sbc", "rsb"):
            if mn == "rsb":
                a, b = b, a
            emit(f"_b = {b} ^ 0xFFFFFFFF")
            cin = "lc" if mn == "sbc" else "1"
            emit(f"_u = {a} + _b + {cin}")
            self._addsub_flags(a, "_b")
            emit(f"regs[{d}] = _r")
        elif mn == "mul":
            emit(f"_r = ({a} * {b}) & 0xFFFFFFFF")
            emit("ln = _r > 0x7FFFFFFF")
            emit("lz = _r == 0")
            emit(f"regs[{d}] = _r")
        elif mn == "udiv":
            emit(f"regs[{d}] = _udiv({a}, {b})")
        elif mn == "sdiv":
            emit(f"regs[{d}] = _sdiv({a}, {b})")
        elif mn in ("and", "orr", "eor", "bic"):
            op = {"and": "&", "orr": "|", "eor": "^"}.get(mn)
            if mn == "bic":
                emit(f"_r = {a} & ~{b}")
            else:
                emit(f"_r = {a} {op} {b}")
            emit("ln = _r > 0x7FFFFFFF")
            emit("lz = _r == 0")
            emit(f"regs[{d}] = _r")
        elif mn in ("lsl", "lsr", "asr", "ror"):
            emit(f"_r, lc = _{mn}({a}, {b} & 0xFF, lc)")
            emit("ln = _r > 0x7FFFFFFF")
            emit("lz = _r == 0")
            emit(f"regs[{d}] = _r")
        else:
            raise JitCompileError(f"ALU op {mn}")
        self.account(instr)

    def _addsub_flags(self, a: str, b: str) -> None:
        """N/Z/C/V for ``_u = a + b (+ cin)`` already emitted."""
        emit = self.emit
        emit("_r = _u & 0xFFFFFFFF")
        emit("ln = _r > 0x7FFFFFFF")
        emit("lz = _r == 0")
        emit("lc = _u > 0xFFFFFFFF")
        # signed overflow: both operands' signs differ from the result's
        emit(f"lv = (({a} ^ _r) & ({b} ^ _r)) > 0x7FFFFFFF")

    def _gen_compare(self, pc: int, instr: Instr) -> None:
        lhs_op, rhs_op = instr.operands
        mn = instr.mnemonic
        a = self.val_expr(lhs_op, pc)
        b = self.val_expr(rhs_op, pc)
        if mn == "cmp":
            self.emit(f"_b = {b} ^ 0xFFFFFFFF")
            self.emit(f"_u = {a} + _b + 1")
            self._addsub_flags(a, "_b")
        elif mn == "cmn":
            self.emit(f"_u = {a} + {b}")
            self._addsub_flags(a, b)
        else:  # tst
            self.emit(f"_r = {a} & {b}")
            self.emit("ln = _r > 0x7FFFFFFF")
            self.emit("lz = _r == 0")
        self.account(instr)

    def _gen_load(self, pc: int, instr: Instr) -> None:
        dest, mem = instr.operands
        size = _LOAD_SIZES.get(instr.mnemonic, 4)
        self.mark_mem_op(pc)
        self.emit(f"regs[{dest.num}] = "
                  f"mem_read({self.addr_expr(mem, pc)}, {size}, world)")
        self.account(instr)

    def _gen_store(self, pc: int, instr: Instr) -> None:
        src, mem = instr.operands
        size = _STORE_SIZES.get(instr.mnemonic, 4)
        self.mark_mem_op(pc)
        self.emit(f"mem_write({self.addr_expr(mem, pc)}, "
                  f"{self.reg_expr(src.num, pc)}, {size}, world)")
        self.account(instr)

    def _gen_push(self, pc: int, instr: Instr) -> None:
        (reglist,) = instr.operands
        regs = list(reglist)
        self.mark_mem_op(pc)
        self.emit(f"_sp = regs[13] - {4 * len(regs)}")
        for i, num in enumerate(regs):  # ascending addresses
            slot = "_sp" if i == 0 else f"_sp + {4 * i}"
            self.emit(f"mem_write({slot}, {self.reg_expr(num, pc)}, 4, world)")
        self.emit(f"regs[13] = _sp")
        self.account(instr, extra=len(regs))

    def _gen_pop(self, pc: int, instr: Instr) -> None:
        (reglist,) = instr.operands
        regs = list(reglist)  # PC excluded by discovery
        self.mark_mem_op(pc)
        self.emit("_sp = regs[13]")
        for i, num in enumerate(regs):
            slot = "_sp" if i == 0 else f"_sp + {4 * i}"
            self.emit(f"regs[{num}] = mem_read({slot}, 4, world)")
        self.emit(f"regs[13] = _sp + {4 * len(regs)}")
        self.account(instr, extra=len(regs))

    # -- terminator generation --------------------------------------------

    def gen_terminator(self, tpc: int, instr: Instr) -> None:
        """Inline the final transfer and its *real* retire hooks.

        The terminator's pre-hook call is left to the caller: the
        single-iteration function makes it, the loop function hoists it.
        """
        kind = instr.kind
        emit = self.emit
        next_pc = (tpc + instr.size) & M32
        base_cycles = instr.spec.cycles

        if kind is InstrKind.BRANCH:
            (target,) = instr.operands
            tgt = self._target_expr(target, tpc)
            self.conditional = instr.cond is not None
            if instr.cond is not None:
                self.uses_flags = True
                cond = _COND_EXPRS[normalise_cond(instr.cond)]
                emit(f"if {cond}:")
                emit(f"    _n = {tgt}")
                emit("else:")
                emit(f"    _n = {hex(next_pc)}")
            else:
                emit(f"_n = {tgt}")
        elif kind is InstrKind.CALL:
            (target,) = instr.operands
            emit(f"regs[14] = {hex(next_pc)}")
            emit(f"_n = {self._target_expr(target, tpc)}")
        elif kind is InstrKind.INDIRECT_CALL:
            (target,) = instr.operands
            emit(f"regs[14] = {hex(next_pc)}")
            emit(f"_n = {self.reg_expr(target.num, tpc)} & 0xFFFFFFFE")
        elif kind is InstrKind.INDIRECT_BRANCH:
            (target,) = instr.operands
            emit(f"_n = {self.reg_expr(target.num, tpc)} & 0xFFFFFFFE")
        elif kind is InstrKind.COMPARE_BRANCH:
            reg, target = instr.operands
            test = "==" if instr.mnemonic == "cbz" else "!="
            self.conditional = True
            emit(f"if {self.reg_expr(reg.num, tpc)} {test} 0:")
            emit(f"    _n = {self._target_expr(target, tpc)}")
            emit("else:")
            emit(f"    _n = {hex(next_pc)}")
        elif kind is InstrKind.POP:
            (reglist,) = instr.operands
            regs = list(reglist)
            base_cycles += len(regs)
            emit("_sp = regs[13]")
            for i, num in enumerate(regs):
                slot = "_sp" if i == 0 else f"_sp + {4 * i}"
                if num == PC:
                    emit(f"_n = mem_read({slot}, 4, world) & 0xFFFFFFFE")
                else:
                    emit(f"regs[{num}] = mem_read({slot}, 4, world)")
            emit(f"regs[13] = _sp + {4 * len(regs)}")
            self.uses_mem = True
        elif kind is InstrKind.LOAD:  # ldr pc, [...] — indirect jump
            _, mem = instr.operands
            emit(f"_n = mem_read({self.addr_expr(mem, tpc)}, 4, world)"
                 " & 0xFFFFFFFE")
            self.uses_mem = True
        else:
            raise JitCompileError(f"unsupported terminator kind {kind}")

        emit("regs[15] = _n")
        emit(f"_sq = _n == {hex(next_pc)}")
        emit(f"cpu.cycles += {base_cycles + TAKEN_BRANCH_PENALTY} - _sq")
        emit("cpu.retired += 1")
        emit("if cpu.retire_hooks:")
        if self.direct_target is not None:
            emit("    _e = _EVS[_n]")  # prebuilt per outcome
        else:
            emit(f"    _e = _Ev({hex(tpc)}, _n, _sq, _TI)")
        emit("    for _h in cpu.retire_hooks:")
        emit("        _h(_e)")

    def retire_events(self, tpc: int, instr: Instr,
                      taken: int) -> Dict[int, RetireEvent]:
        """A direct terminator's retire event per outcome, keyed by ``_n``."""
        next_pc = (tpc + instr.size) & M32
        outcomes = [taken, next_pc] if self.conditional else [taken]
        return {n: RetireEvent(tpc, n, n == next_pc, instr) for n in outcomes}

    def _target_expr(self, target, pc: int) -> str:
        """Branch-target value with the interpreter's ``& ~1`` applied.

        A constant target is recorded as the block's ``direct_target``.
        """
        if isinstance(target, (Label, Imm)):
            value = (self.image.addr_of(target.name)
                     if isinstance(target, Label) else target.value & M32)
            self.direct_target = value & ~1
            return hex(value & ~1)
        if isinstance(target, Reg):
            return f"{self.reg_expr(target.num, pc)} & 0xFFFFFFFE"
        raise JitCompileError(f"bad branch target {target!r}")


def _loop_resident(block: Superblock, gen: _Codegen) -> bool:
    """True if ``block`` may iterate inside its generated function.

    The body must not touch memory (so nothing but the retire hooks can
    run between iterations) and the terminator must be a conditional
    direct branch or ``cbz``/``cbnz`` back to the block's own entry.
    """
    return (block.terminator is not None and not gen.uses_mem
            and gen.conditional and gen.direct_target == block.entry)


def _counted_loop(block: Superblock) -> Optional[Tuple[Dict[int, int],
                                                     int, int, str]]:
    """``(steps, counter, bound, cond)`` if a loop-resident ``block`` is
    a counted loop, else None.

    Counted: every body register write is ``rX = rX +/- #imm`` (``nop``
    may sit between them), the body ends in ``cmp counter, #bound`` and
    the terminator is a conditional ``b`` back to the entry. ``steps``
    maps each written register to its net change per iteration, mod
    2**32; the counter's own step may be 0.
    """
    if not block.body:
        return None
    _, term = block.terminator
    if term.kind is not InstrKind.BRANCH or term.cond is None:
        return None
    _, cmp = block.body[-1]
    if cmp.mnemonic != "cmp":
        return None
    counter, bound = cmp.operands
    if (not isinstance(counter, Reg) or counter.num == PC
            or not isinstance(bound, Imm)):
        return None
    steps: Dict[int, int] = {}
    for _, instr in block.body[:-1]:
        if instr.mnemonic == "nop":
            continue
        if instr.mnemonic not in ("add", "sub") or len(instr.operands) != 3:
            return None
        dest, lhs, rhs = instr.operands
        if (not isinstance(dest, Reg) or not isinstance(lhs, Reg)
                or dest.num != lhs.num or dest.num == PC
                or not isinstance(rhs, Imm)):
            return None
        delta = rhs.value if instr.mnemonic == "add" else -rhs.value
        steps[dest.num] = (steps.get(dest.num, 0) + delta) & M32
    return steps, counter.num, bound.value, normalise_cond(term.cond)


def _taken_counter(step: int, cond: str, bound: int):
    """``taken(counter)``: whole taken iterations left in a counted loop
    whose counter is ``counter`` at an iteration's start (the latch
    falls through on the one after them), or None past
    :data:`~repro.core.loops.TRIP_GUARD` (non-terminating)."""
    ranges = exit_ranges(cond, bound)

    def taken(counter: int) -> Optional[int]:
        count = latch_taken((counter + step) & M32, step, ranges)
        if count is None or count > TRIP_GUARD:
            return None
        return count
    return taken


def compile_superblock(image: Image, block: Superblock) -> CompiledBlock:
    """Generate, compile, and wrap one superblock.

    Raises :class:`JitCompileError` (or ``KeyError`` for unresolved
    labels) when the block cannot be specialized; callers treat any
    exception as a permanent "interpret this address" decision.

    A loop-resident block also gets ``_loop``: the same body, commit,
    body retire batch and terminator inside a ``while``, without the
    terminator's pre-hook call (the run loop has asked the pre batch
    handlers about the whole loop).  Cycles, retires, PC and flags are
    committed every iteration, so the retire hooks observe exactly what
    they do one dispatch at a time.  It returns when the back-edge falls
    through, when ``cpu.retired`` reaches ``_lim`` (the last retire
    count at which the run loop would still dispatch the block), and —
    if any retire hook is attached, the only code that can run between
    iterations — when an IRQ is pending, the CPU halted, or either hook
    list changed: everything the run loop would act on between two
    dispatches.

    A counted loop (:func:`_counted_loop`) first tries a closed-form
    chunk at the top of every iteration: the taken iterations left
    (``_taken``), capped at ``_lim`` and by each bulk observer, advance
    the affine registers, cycles, retires, PC and flags at once, then
    the observers take them and the same exits are checked.  Whatever
    no chunk takes (the final fall-through, an MTB's warmup or
    watermark packet) runs through the per-iteration body.  ``_loop``
    returns the number of chunks taken.
    """
    gen = _Codegen(image, block)
    for pc, instr in block.body:
        gen.gen_body(pc, instr)

    body_lines = gen.lines
    gen.lines = []
    n_body = len(block.body)
    body_pcs = tuple(pc for pc, _ in block.body)

    # -- commit of the sequential body ------------------------------------
    commit = gen.lines
    if n_body:
        gen.emit(f"cpu.cycles += {gen._cyc}")
        gen.emit(f"cpu.retired += {n_body}")
    if block.terminator is not None:
        gen.emit(f"regs[15] = {hex(block.terminator[0])}")
    else:
        gen.emit(f"regs[15] = {hex(block.end & M32)}")

    gen.lines = []
    term_pre: List[str] = []
    events = None
    if block.terminator is not None:
        gen.gen_terminator(*block.terminator)
        term_pre = ["for _h in cpu.pre_hooks:",
                    f"    _h({hex(block.terminator[0])})"]
        if gen.direct_target is not None:
            events = gen.retire_events(*block.terminator, gen.direct_target)
    term_lines = gen.lines

    # flag handling decided now that every part has been generated
    flag_load = []
    flag_commit = []
    if gen.uses_flags:
        flag_load = ["flags = cpu.flags", "ln = flags.n", "lz = flags.z",
                     "lc = flags.c", "lv = flags.v"]
        flag_commit = ["flags.n = ln", "flags.z = lz", "flags.c = lc",
                       "flags.v = lv"]

    preamble = ["regs = cpu.regs"]
    if gen.uses_mem:
        preamble += ["mem_read = cpu.memory.read",
                     "mem_write = cpu.memory.write",
                     "world = cpu.world"]
    preamble += flag_load
    ret_batch = ["for _h in _ret:", "    _h(_PCS)"] if n_body else []

    out: List[str] = ["def _block(cpu, _ret):"]

    def indent(lines: List[str], depth: int = 1) -> None:
        out.extend("    " * depth + line for line in lines)

    indent(preamble)
    if gen.body_faults:
        indent(["try:"])
        indent(body_lines, 2)
        indent(["except BaseException:",
                "    cpu.cycles += _CYC[_fp]",
                "    cpu.retired += _RETD[_fp]",
                "    regs[15] = _fp"])
        indent(flag_commit, 2)
        indent(["    raise"])
        indent(commit)
        indent(flag_commit)
    else:
        indent(body_lines)
        indent(commit)
        indent(flag_commit)
    indent(ret_batch)
    indent(term_pre)
    indent(term_lines)

    loop_resident = _loop_resident(block, gen)
    counted = _counted_loop(block) if loop_resident else None
    taken_event = None
    taken = None
    if loop_resident:
        exits = ["if _hrl and (_pend or cpu.halted or cpu.pre_hooks is not _hp",
                 "             or len(_hp) != _hpl or cpu.retire_hooks is not _hr",
                 "             or len(_hr) != _hrl):"]
        out.append("def _loop(cpu, _ret, _lim, _pend, _hp, _hpl, _hr, _hrl, "
                   "_bulk):")
        indent(preamble + ["_nk = 0", "while True:"])
        if counted is not None:
            steps, counter, bound, cond = counted
            taken = _taken_counter(steps.get(counter, 0), cond, bound)
            taken_event = events[block.entry]
            n_iter = n_body + 1
            cycles = (gen._cyc + block.terminator[1].spec.cycles
                      + TAKEN_BRANCH_PENALTY)
            flagger = _Codegen(image, block)
            flagger._gen_compare(*block.body[-1])
            indent(["if _bulk is not None:",
                    f"    _k = _taken(regs[{counter}])",
                    "    if _k is None:",
                    "        _bulk = None",
                    "    elif _k:",
                    f"        _q = (_lim - cpu.retired + {n_iter - 1}) "
                    f"// {n_iter}",
                    "        if _q < _k:",
                    "            _k = _q",
                    "        for _c in _bulk[0]:",
                    "            _k = _c(_k)"], 2)
            indent(["if _k:"]
                   + [f"    regs[{reg}] = (regs[{reg}] + _k * {hex(step)})"
                      " & 0xFFFFFFFF" for reg, step in sorted(steps.items())]
                   + [f"    cpu.cycles += _k * {cycles}",
                      f"    cpu.retired += _k * {n_iter}",
                      f"    regs[15] = {hex(block.entry)}"]
                   + ["    " + line for line in flagger.lines + flag_commit]
                   + ["    for _o in _bulk[1]:",
                      "        _o(_PCS, _EVT, _k)",
                      "    _nk += 1",
                      "    if cpu.retired >= _lim:",
                      "        return _nk"]
                   + ["    " + line for line in exits]
                   + ["        return _nk",
                      "    continue"], 4)
        indent(body_lines + commit + flag_commit + ret_batch + term_lines, 2)
        indent([f"if _n != {hex(block.entry)} or cpu.retired >= _lim:",
                "    return _nk"] + exits + ["    return _nk"], 2)

    source = "\n".join(out) + "\n"
    namespace = {
        "_CYC": gen.cyc_at,
        "_RETD": gen.retd_at,
        "_Ev": RetireEvent,
        "_TI": block.terminator[1] if block.terminator is not None else None,
        "_EVS": events,
        "_PCS": body_pcs,
        "_EVT": taken_event,
        "_taken": taken,
        "_udiv": alu.udiv,
        "_sdiv": alu.sdiv,
        "_lsl": alu.lsl,
        "_lsr": alu.lsr,
        "_asr": alu.asr,
        "_ror": alu.ror,
    }
    code = compile(source, f"<jit:{block.entry:#x}>", "exec")
    exec(code, namespace)

    n_total = len(block)
    return CompiledBlock(
        entry=block.entry,
        end=block.end,
        pcs=block.pcs,
        body_pcs=body_pcs,
        fn=namespace["_block"],
        max_extra=n_total - 1,
        n_instr=n_total,
        loop=namespace["_loop"] if loop_resident else None,
    )
