"""Concrete dataflow analyses over a :class:`FlatProgram`/CFG.

Four analyses share the worklist framework:

* **value-set propagation** — which constants/addresses each register
  may hold before every instruction (``adr``/``mov32`` address
  materialization, ``mov`` copies, exact ALU folding via
  :mod:`repro.isa.alu`, and literal-pool loads resolved through the
  read-only ``rodata`` image);
* **LR validity** — program points where LR still holds the function's
  entry value (i.e. the return address the shadow stack predicts), a
  path-sensitive refinement of the syntactic
  :meth:`FlatProgram.function_writes_lr` test;
* **reaching definitions** — which instruction (or function entry) last
  wrote each register, feeding the lint's use-before-def check;
* **register liveness** — backward may-liveness feeding the lint's
  dead-definition check.

Soundness boundary: facts describe *policy-conforming* executions —
ones whose indirect transfers land on address-taken labels or function
entries (exactly the set the Verifier enforces) and that do not write
the read-only ``rodata`` region (the memory map faults on such
writes). Every such entry point is an analysis root with a TOP
(unknown-everything) boundary state, so reachable code is never
analysed under an unsound assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.asm.program import DataWord, Module
from repro.core.cfg import CFG
from repro.core.dataflow.framework import reverse_graph, solve
from repro.core.dataflow.lattice import (
    Addr,
    Const,
    RegState,
    TOP,
    Value,
    ValueSet,
    lift_binary,
    state_get,
    state_join,
    vs,
)
from repro.core.flat import FlatProgram
from repro.isa import alu
from repro.isa.instructions import MNEMONICS, Instr, InstrKind
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import LR, PC

#: registers tracked by def/use analyses (SP and PC are structural)
GENERAL_REGS = frozenset(range(13))
_DEFUSE_REGS = GENERAL_REGS | {LR}

#: reaching-definitions pseudo-site: "held since function entry"
ENTRY_DEF = -1


# -- read-only memory image -------------------------------------------------

class ConstMemory:
    """Pre-link view of the read-only data image.

    Maps ``label + byte offset`` to the ``.word`` stored there, so the
    value analysis can resolve literal-pool and switch-table loads
    without linking. Only ``rodata`` participates: ``data`` is mutable
    and never constant-foldable.
    """

    def __init__(self, module: Module) -> None:
        self._label_pos: Dict[str, int] = {}
        self._word_at: Dict[int, Union[int, str]] = {}
        section = module.sections.get("rodata")
        offset = 0
        for item in (section.items if section is not None else ()):
            for label in item.labels:
                self._label_pos[label] = offset
            payload = item.payload
            if isinstance(payload, DataWord):
                value = payload.value
                self._word_at[offset] = (
                    value.name if isinstance(value, Label) else value
                )
            offset += payload.size

    def load_word(self, label: str, offset: int) -> Optional[Value]:
        """The abstract value of a 4-byte load at ``label + offset``,
        or None when the location is unknown/not a whole word."""
        base = self._label_pos.get(label)
        if base is None:
            return None
        stored = self._word_at.get(base + offset)
        if stored is None:
            return None
        if isinstance(stored, str):
            return Addr(stored)
        return Const(stored & alu.MASK32)


# -- value-set propagation --------------------------------------------------

_FOLDABLE_ALU = {
    "add": lambda a, b: alu.u32(a + b),
    "sub": lambda a, b: alu.u32(a - b),
    "rsb": lambda a, b: alu.u32(b - a),
    "mul": lambda a, b: alu.u32(a * b),
    "and": lambda a, b: a & b,
    "orr": lambda a, b: a | b,
    "eor": lambda a, b: a ^ b,
    "bic": lambda a, b: a & ~b & alu.MASK32,
    "udiv": alu.udiv,
    "sdiv": alu.sdiv,
    "lsl": lambda a, b: alu.lsl(a, b & 0xFF, False)[0],
    "lsr": lambda a, b: alu.lsr(a, b & 0xFF, False)[0],
    "asr": lambda a, b: alu.asr(a, b & 0xFF, False)[0],
}


def _fold_alu(mnemonic: str) -> Callable[[Value, Value], Optional[Value]]:
    """Concrete ``Value x Value -> Optional[Value]`` for one ALU op."""
    fold = _FOLDABLE_ALU.get(mnemonic)

    def op(a: Value, b: Value) -> Optional[Value]:
        if isinstance(a, Const) and isinstance(b, Const):
            if fold is None:
                return None
            return Const(fold(a.value, b.value))
        # pointer arithmetic: label +/- constant keeps the symbol
        if isinstance(a, Addr) and isinstance(b, Const):
            if mnemonic == "add":
                return Addr(a.label, a.offset + b.value)
            if mnemonic == "sub":
                return Addr(a.label, a.offset - b.value)
        if isinstance(a, Const) and isinstance(b, Addr) and mnemonic == "add":
            return Addr(b.label, b.offset + a.value)
        return None

    return op


#: one fold per ALU mnemonic, built once
_FOLDS = {mnemonic: _fold_alu(mnemonic)
          for mnemonic, spec in MNEMONICS.items()
          if spec.kind is InstrKind.ALU}


def _negate(v: Value, _unused: Value) -> Optional[Value]:
    if isinstance(v, Const):
        return Const((~v.value) & alu.MASK32)
    return None


_ZERO = vs(Const(0))

#: instruction kinds whose transfer can change the register state
_STATE_KINDS = frozenset({
    InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD, InstrKind.POP,
    InstrKind.CALL, InstrKind.INDIRECT_CALL,
})


def _changes_state(instr: Instr) -> bool:
    kind = instr.kind
    if kind is InstrKind.SYSTEM:
        return instr.mnemonic == "svc"
    if kind is InstrKind.LOAD:
        dest = instr.operands[0]
        return isinstance(dest, Reg) and dest.num != PC
    return kind in _STATE_KINDS


class _ValueAnalysis:
    """Forward value-set propagation over basic blocks.

    Each block's state-changing instructions are picked out once; a
    block transfer copies the entry state once and applies them in
    place.
    """

    def __init__(self, flat: FlatProgram, cfg: CFG,
                 memory: ConstMemory) -> None:
        self.flat = flat
        self.cfg = cfg
        self.memory = memory
        self.equates = flat.module.equates

    @cached_property
    def _effects(self) -> List[Tuple[Instr, ...]]:
        """Per block: its state-changing instructions, in order."""
        instrs = self.flat.instrs
        return [
            tuple(instrs[idx] for idx in range(block.start, block.end)
                  if _changes_state(instrs[idx]))
            for block in self.cfg.blocks
        ]

    def _operand_set(self, op: object, state: RegState) -> ValueSet:
        if isinstance(op, Imm):
            return vs(Const(op.value & alu.MASK32))
        if isinstance(op, Reg):
            if op.num == PC:
                return TOP  # pc-relative reads depend on layout
            return state_get(state, op.num)
        if isinstance(op, Label):
            if op.name in self.equates:
                return vs(Const(self.equates[op.name] & alu.MASK32))
            return vs(Addr(op.name))
        return TOP

    def _mem_address_set(self, mem: Mem, state: RegState) -> ValueSet:
        address = state_get(state, mem.base.num)
        if mem.offset:
            address = lift_binary(
                _FOLDS["add"], address, vs(Const(mem.offset & alu.MASK32)))
        if mem.index is not None:
            scaled = lift_binary(
                _FOLDS["lsl"],
                state_get(state, mem.index.num),
                vs(Const(mem.shift)),
            )
            address = lift_binary(_FOLDS["add"], address, scaled)
        return address

    def load_set(self, mem: Mem, state: RegState) -> ValueSet:
        """Abstract result of a 4-byte load through ``mem``."""
        address = self._mem_address_set(mem, state)
        if address.is_top:
            return TOP
        loaded = set()
        for value in address.values:
            if not isinstance(value, Addr):
                return TOP  # absolute address: not resolvable pre-link
            word = self.memory.load_word(value.label, value.offset)
            if word is None:
                return TOP
            loaded.add(word)
        return ValueSet(frozenset(loaded))

    def _apply(self, instr: Instr, state: RegState) -> None:
        """Update ``state`` in place across one instruction, which must
        pass :func:`_changes_state` (that filter is the one rule for
        which instructions reach here)."""
        kind = instr.kind
        if kind is InstrKind.MOVE:
            dest, src = instr.operands
            value = self._operand_set(src, state)
            if instr.mnemonic == "mvn":
                value = lift_binary(_negate, value, _ZERO)
        elif kind is InstrKind.ALU:
            dest, lhs, rhs = instr.operands
            value = lift_binary(
                _FOLDS[instr.mnemonic],
                self._operand_set(lhs, state),
                self._operand_set(rhs, state),
            )
        elif kind is InstrKind.LOAD:
            dest, mem = instr.operands
            if instr.mnemonic != "ldr" or not isinstance(mem, Mem):
                value = TOP
            else:
                value = self.load_set(mem, state)
        elif kind is InstrKind.POP:
            (reglist,) = instr.operands
            for reg in reglist:
                if reg != PC:
                    state.pop(reg, None)
            return
        else:
            # a call or svc: the callee or secure-world handler may
            # write anything (no ABI contract)
            state.clear()
            return
        if value.is_top:
            state.pop(dest.num, None)
        else:
            state[dest.num] = value

    def transfer_instr(self, instr: Instr, state: RegState) -> RegState:
        """The state after ``instr`` (``state`` itself when unchanged)."""
        if not _changes_state(instr):
            return state
        state = dict(state)
        self._apply(instr, state)
        return state

    def transfer_block(self, bid: int, state: RegState) -> RegState:
        effects = self._effects[bid]
        if not effects:
            return state
        state = dict(state)
        for instr in effects:
            self._apply(instr, state)
        return state


def _root_blocks(flat: FlatProgram, cfg: CFG) -> List[int]:
    roots: Set[int] = set()
    for start in flat.function_starts():
        bid = cfg.block_of_index.get(start)
        if bid is not None:
            roots.add(bid)
    if cfg.blocks:
        roots.add(cfg.block_of_index.get(0, 0))
    return sorted(roots)


def analyse_value_sets(flat: FlatProgram, cfg: CFG, memory: ConstMemory
                       ) -> Tuple[Dict[int, RegState], int]:
    """Per-instruction entry states for every reachable instruction.

    Returns ``(index -> RegState, solver iterations)``; indices absent
    from the map are unreachable from any analysis root.
    """
    analysis = _ValueAnalysis(flat, cfg, memory)
    graph = {b.bid: tuple(b.succs) for b in cfg.blocks}
    roots: Dict[int, RegState] = {bid: {} for bid in _root_blocks(flat, cfg)}
    solution = solve(graph, roots, analysis.transfer_block, state_join)
    per_index: Dict[int, RegState] = {}
    for bid, state in solution.in_facts.items():
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            per_index[idx] = state
            state = analysis.transfer_instr(flat.instrs[idx], state)
    return per_index, solution.iterations


# -- LR validity ------------------------------------------------------------

def _writes_lr(instr: Instr) -> bool:
    kind = instr.kind
    if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
        return True
    if kind in (InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD):
        dest = instr.operands[0]
        if isinstance(dest, Reg) and dest.num == LR:
            return True
    if kind is InstrKind.POP:
        (reglist,) = instr.operands
        return LR in reglist
    return False


def analyse_lr_validity(flat: FlatProgram, cfg: CFG) -> FrozenSet[int]:
    """Indices where LR still holds the containing function's entry
    value on *every* path from the entry (a must-analysis: join is
    logical AND, and edges from outside the function contribute False).
    """
    valid: Set[int] = set()
    starts = flat.function_starts()
    for start in starts:
        lo, hi = flat.function_extent(start)
        entry_bid = cfg.block_of_index.get(start)
        if entry_bid is None:
            continue
        member = {
            b.bid for b in cfg.blocks if lo <= b.start and b.end <= hi
        }

        def transfer(bid: int, fact: bool) -> bool:
            block = cfg.blocks[bid]
            for idx in range(block.start, block.end):
                if _writes_lr(flat.instrs[idx]):
                    fact = False
            return fact

        graph = {
            bid: tuple(s for s in cfg.blocks[bid].succs if s in member)
            for bid in member
        }
        # jump targets reachable from outside the extent cannot assume
        # an intact entry LR
        tainted = {
            bid for bid in member
            if any(p not in member for p in cfg.blocks[bid].preds)
            and bid != entry_bid
        }
        roots = {entry_bid: True}
        roots.update({bid: False for bid in tainted})
        solution = solve(graph, roots, transfer, lambda a, b: a and b)
        for bid, fact in solution.in_facts.items():
            if not fact:
                continue
            block = cfg.blocks[bid]
            state = True
            for idx in range(block.start, block.end):
                if state:
                    valid.add(idx)
                if _writes_lr(flat.instrs[idx]):
                    state = False
    return frozenset(valid)


# -- def/use, reaching definitions, liveness --------------------------------

def def_use(instr: Instr) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(defined, used)`` register sets for one instruction.

    Calls and ``svc`` use *all* registers (there is no ABI: callees and
    secure-world handlers read caller registers directly); calls also
    define all registers.
    """
    kind = instr.kind
    if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
        uses = set(_DEFUSE_REGS)
        if kind is InstrKind.INDIRECT_CALL:
            (target,) = instr.operands
            uses.add(target.num)
        return frozenset(_DEFUSE_REGS), frozenset(uses)
    if kind is InstrKind.SYSTEM:
        if instr.mnemonic == "svc":
            return frozenset(), frozenset(_DEFUSE_REGS)
        return frozenset(), frozenset()

    defs: Set[int] = set()
    uses: Set[int] = set()

    def use_op(op: object) -> None:
        if isinstance(op, Reg) and op.num in _DEFUSE_REGS:
            uses.add(op.num)
        elif isinstance(op, Mem):
            if op.base.num in _DEFUSE_REGS:
                uses.add(op.base.num)
            if op.index is not None and op.index.num in _DEFUSE_REGS:
                uses.add(op.index.num)

    if kind in (InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD):
        dest = instr.operands[0]
        if isinstance(dest, Reg) and dest.num in _DEFUSE_REGS:
            defs.add(dest.num)
        for op in instr.operands[1:]:
            use_op(op)
    elif kind in (InstrKind.COMPARE, InstrKind.STORE):
        for op in instr.operands:
            use_op(op)
    elif kind is InstrKind.PUSH:
        (reglist,) = instr.operands
        uses.update(r for r in reglist if r in _DEFUSE_REGS)
    elif kind is InstrKind.POP:
        (reglist,) = instr.operands
        defs.update(r for r in reglist if r in _DEFUSE_REGS)
    elif kind is InstrKind.COMPARE_BRANCH:
        use_op(instr.operands[0])
    elif kind is InstrKind.INDIRECT_BRANCH:
        use_op(instr.operands[0])
    return frozenset(defs), frozenset(uses)


#: reaching-defs fact: reg -> set of defining instruction indices
#: (missing key = {ENTRY_DEF}: untouched since the root)
ReachFact = Dict[int, FrozenSet[int]]

_ENTRY_SET = frozenset({ENTRY_DEF})


def _reach_join(a: ReachFact, b: ReachFact) -> ReachFact:
    out = dict(a)
    for reg, sites in b.items():
        out[reg] = out.get(reg, _ENTRY_SET) | sites
    for reg in a.keys() - b.keys():
        out[reg] = out[reg] | _ENTRY_SET
    return out


def analyse_reaching_defs(flat: FlatProgram, cfg: CFG
                          ) -> Dict[int, ReachFact]:
    """Reaching definitions at every reachable instruction entry."""
    graph = {b.bid: tuple(b.succs) for b in cfg.blocks}

    def transfer(bid: int, fact: ReachFact) -> ReachFact:
        fact = dict(fact)
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            defs, _uses = def_use(flat.instrs[idx])
            for reg in defs:
                fact[reg] = frozenset({idx})
        return fact

    roots: Dict[int, ReachFact] = {
        bid: {} for bid in _root_blocks(flat, cfg)
    }
    solution = solve(graph, roots, transfer, _reach_join)
    per_index: Dict[int, ReachFact] = {}
    for bid, fact in solution.in_facts.items():
        fact = dict(fact)
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            per_index[idx] = dict(fact)
            defs, _uses = def_use(flat.instrs[idx])
            for reg in defs:
                fact[reg] = frozenset({idx})
    return per_index


def analyse_liveness(flat: FlatProgram, cfg: CFG
                     ) -> Dict[int, FrozenSet[int]]:
    """May-liveness *after* each instruction (backward analysis).

    Block exits that leave the analysed graph — returns, computed
    jumps, ``bkpt``, call edges — treat every register as live: with no
    ABI the caller/inspector may read anything, so only a definition
    overwritten before any possible read counts as dead.
    """
    graph = {b.bid: tuple(b.succs) for b in cfg.blocks}
    backward = reverse_graph(graph)
    exit_bids = {
        cfg.block_of_index[idx] for idx in cfg.exit_indices
    }

    def transfer(bid: int, live: FrozenSet[int]) -> FrozenSet[int]:
        block = cfg.blocks[bid]
        out = set(live)
        for idx in range(block.end - 1, block.start - 1, -1):
            defs, uses = def_use(flat.instrs[idx])
            out -= defs
            out |= uses
        return frozenset(out)

    roots: Dict[int, FrozenSet[int]] = {
        bid: frozenset(_DEFUSE_REGS) for bid in exit_bids
    }
    for bid in backward:
        if not graph.get(bid):
            roots.setdefault(bid, frozenset(_DEFUSE_REGS))
    if not roots:  # fully cyclic text: seed everything conservatively
        roots = {bid: frozenset(_DEFUSE_REGS) for bid in backward}
    solution = solve(backward, roots, transfer, lambda a, b: a | b)

    live_after: Dict[int, FrozenSet[int]] = {}
    for bid in backward:
        live = solution.in_facts.get(bid)
        if live is None:
            continue
        block = cfg.blocks[bid]
        for idx in range(block.end - 1, block.start - 1, -1):
            live_after[idx] = live
            defs, uses = def_use(flat.instrs[idx])
            live = frozenset((live - defs) | uses)
    return live_after


# -- the aggregate ----------------------------------------------------------

@dataclass
class DataflowFacts:
    """Everything the classifier/validator/lint consumers ask for."""

    flat: FlatProgram
    cfg: CFG
    memory: ConstMemory
    value_in: Dict[int, RegState] = field(default_factory=dict)
    lr_valid: FrozenSet[int] = frozenset()
    iterations: int = 0

    def state_at(self, index: int) -> Optional[RegState]:
        """Abstract register file before ``index`` (None: unreachable)."""
        return self.value_in.get(index)

    def target_set(self, index: int) -> ValueSet:
        """Possible destinations of the indirect transfer at ``index``."""
        state = self.value_in.get(index)
        if state is None:
            return TOP
        instr = self.flat.instrs[index]
        kind = instr.kind
        if kind in (InstrKind.INDIRECT_CALL, InstrKind.INDIRECT_BRANCH):
            (target,) = instr.operands
            return state_get(state, target.num)
        if kind is InstrKind.LOAD and instr.writes_pc():
            _dest, mem = instr.operands
            if isinstance(mem, Mem):
                analysis = _ValueAnalysis(self.flat, self.cfg, self.memory)
                return analysis.load_set(mem, state)
        return TOP

    def devirt_target(self, index: int) -> Optional[str]:
        """The unique text label an indirect transfer must reach, if the
        value analysis pins it down — the devirtualization license."""
        label = self.target_set(index).singleton_label()
        if label is not None and label in self.flat.label_index:
            return label
        return None

    def lr_valid_at(self, index: int) -> bool:
        return index in self.lr_valid

    def constant_registers(self, index: int) -> Dict[int, ValueSet]:
        """Non-TOP registers before ``index`` (for reports/dot export),
        restricted to the general-purpose file."""
        state = self.value_in.get(index)
        if not state:
            return {}
        return {
            reg: value for reg, value in sorted(state.items())
            if reg in GENERAL_REGS or reg == LR
        }


def analyse_module(flat: FlatProgram, cfg: CFG) -> DataflowFacts:
    """Run the value-set and LR analyses over one flat program."""
    memory = ConstMemory(flat.module)
    value_in, iterations = analyse_value_sets(flat, cfg, memory)
    lr_valid = analyse_lr_validity(flat, cfg)
    return DataflowFacts(
        flat=flat,
        cfg=cfg,
        memory=memory,
        value_in=value_in,
        lr_valid=lr_valid,
        iterations=iterations,
    )
