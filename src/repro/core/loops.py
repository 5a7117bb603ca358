"""Natural loop detection and the paper's loop shape analysis."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cfg import CFG
from repro.core.dominators import compute_dominators, dominates
from repro.isa.instructions import Instr, InstrKind
from repro.isa.operands import Imm, Reg


@dataclass
class Loop:
    """One natural loop: header block, body blocks, and its latches."""

    header: int
    body: Set[int] = field(default_factory=set)
    latches: List[int] = field(default_factory=list)

    def contains_block(self, bid: int) -> bool:
        return bid in self.body


def find_natural_loops(cfg: CFG, entry: int) -> List[Loop]:
    """Back-edge based natural loops of the function rooted at ``entry``."""
    idom = compute_dominators(cfg, entry)
    universe = set(idom)
    by_header: Dict[int, Loop] = {}
    for block in cfg.blocks:
        if block.bid not in universe:
            continue
        for succ in block.succs:
            if succ in universe and dominates(idom, succ, block.bid):
                loop = by_header.setdefault(succ, Loop(header=succ))
                loop.latches.append(block.bid)
                _collect_body(cfg, loop, block.bid)
    for loop in by_header.values():
        loop.body.add(loop.header)
    return sorted(by_header.values(), key=lambda l: l.header)


def _collect_body(cfg: CFG, loop: Loop, latch: int) -> None:
    """Standard natural-loop body collection: walk predecessors from the
    latch until the header."""
    if latch == loop.header:
        loop.body.add(latch)
        return
    stack = [latch]
    loop.body.add(latch)
    while stack:
        node = stack.pop()
        for pred in cfg.blocks[node].preds:
            if pred not in loop.body and pred != loop.header:
                loop.body.add(pred)
                stack.append(pred)
            loop.body.add(loop.header)


@dataclass(frozen=True)
class SimpleLoopShape:
    """A loop matching the paper's 'simple loop' criteria (section IV-D).

    The latch compares a register-only iterator against a fixed constant
    and the body contains only deterministic transfers, so a single
    logged loop condition lets the Verifier recover every iteration.
    """

    latch_index: int  # instruction index of the latch conditional branch
    counter_reg: int
    bound: int  # the fixed comparison constant
    step: int  # signed per-iteration counter increment
    cond: str  # latch branch condition code
    init_const: Optional[int]  # statically known initial value, if any


def analyse_simple_loop(cfg: CFG, loop: Loop,
                        ignore_cond_indices: Optional[Set[int]] = None
                        ) -> Optional[SimpleLoopShape]:
    """Check a loop against the simple-loop criteria; None if it fails.

    Criteria (paper section IV-D): the loop comparison is made against a
    fixed constant, the iterator uses register-only arithmetic, and all
    internal branches are deterministic. We additionally require a single
    conditional latch — the common down-counting / up-counting MCU loop.

    ``ignore_cond_indices`` lists conditional-branch indices already
    proven deterministic (fixed inner loops), so nesting a fixed loop
    does not disqualify an outer simple loop.
    """
    flat = cfg.flat
    if len(loop.latches) != 1:
        return None
    latch_block = cfg.blocks[loop.latches[0]]
    latch_idx = latch_block.terminator_index
    latch = flat.instrs[latch_idx]
    if latch.kind is InstrKind.COMPARE_BRANCH:
        reg = latch.operands[0]
        counter, bound = reg.num, 0
        cond = "eq" if latch.mnemonic == "cbz" else "ne"
    elif latch.kind is InstrKind.BRANCH and latch.cond is not None:
        flag_setter = _preceding_flag_setter(flat, latch_block.start, latch_idx)
        if flag_setter is None:
            return None
        counter, bound, idiom = flag_setter
        cond = latch.cond
        if idiom == "self" and cond not in ("eq", "ne", "mi", "pl"):
            # flags of 'subs rI, rI, #k' only equal 'cmp rI_new, #0'
            # for the N/Z-derived conditions
            return None
    else:
        return None

    step = _counter_step(cfg, loop, counter)
    if step is None or step == 0:
        return None
    if not _body_is_deterministic(cfg, loop, latch_idx,
                                  ignore_cond_indices or set()):
        return None
    init = _initial_value(cfg, loop, counter)
    return SimpleLoopShape(latch_idx, counter, bound, step, cond, init)


def _preceding_flag_setter(flat, start: int, latch_idx: int):
    """Find what sets the latch's flags inside the latch block.

    Returns ``(counter_reg, bound, idiom)`` for the two simple idioms:
    ``cmp rI, #bound`` (idiom ``"cmp"``) and the self-flag-setting
    counter update ``add/sub rI, rI, #imm`` (idiom ``"self"``, an
    implicit compare against zero).
    """
    for idx in range(latch_idx - 1, start - 1, -1):
        instr = flat.instrs[idx]
        if instr.mnemonic == "cmp":
            reg_op, imm_op = instr.operands
            if isinstance(reg_op, Reg) and isinstance(imm_op, Imm):
                return reg_op.num, imm_op.value, "cmp"
            return None
        if instr.mnemonic in ("add", "sub"):
            dest, lhs, rhs = instr.operands
            if (isinstance(dest, Reg) and isinstance(lhs, Reg)
                    and dest.num == lhs.num and isinstance(rhs, Imm)):
                # flags come from the update itself: comparison against 0
                return dest.num, 0, "self"
            return None
        if instr.kind in (InstrKind.ALU, InstrKind.COMPARE,
                          InstrKind.MOVE):
            return None  # flags clobbered by something we don't model
    return None


def _counter_step(cfg: CFG, loop: Loop, counter: int) -> Optional[int]:
    """Net constant step applied to the counter per iteration.

    Requires exactly one ``add/sub counter, counter, #imm`` in the loop
    and no other write to the counter register (register-only iterator).
    """
    flat = cfg.flat
    step: Optional[int] = None
    for bid in loop.body:
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            instr = flat.instrs[idx]
            if not _writes_reg(instr, counter):
                continue
            if instr.mnemonic in ("add", "sub"):
                dest, lhs, rhs = instr.operands
                if (isinstance(lhs, Reg) and lhs.num == counter
                        and isinstance(rhs, Imm)):
                    delta = rhs.value if instr.mnemonic == "add" else -rhs.value
                    if step is not None:
                        return None  # multiple updates: not simple
                    step = delta
                    continue
            return None  # non-arithmetic or non-register-only update
    return step


def _writes_reg(instr: Instr, reg: int) -> bool:
    kind = instr.kind
    if kind in (InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD):
        dest = instr.operands[0]
        return isinstance(dest, Reg) and dest.num == reg
    if kind is InstrKind.POP:
        (reglist,) = instr.operands
        return reg in reglist
    if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
        return reg == 14  # clobbers LR
    return False


def _body_is_deterministic(cfg: CFG, loop: Loop, latch_idx: int,
                           ignore_cond_indices: Set[int]) -> bool:
    """All transfers inside the loop (other than the latch itself) must
    be deterministic: no calls, no indirect transfers, no conditionals
    other than latches of inner loops already proven fixed."""
    flat = cfg.flat
    for bid in loop.body:
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            if idx == latch_idx or idx in ignore_cond_indices:
                continue
            instr = flat.instrs[idx]
            kind = instr.kind
            if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL,
                        InstrKind.INDIRECT_BRANCH):
                return False
            if kind is InstrKind.COMPARE_BRANCH:
                return False
            if kind is InstrKind.BRANCH and instr.cond is not None:
                return False
            if instr.writes_pc() and kind is not InstrKind.BRANCH:
                return False
            if instr.mnemonic == "svc":
                return False
    return True


def _initial_value(cfg: CFG, loop: Loop, counter: int) -> Optional[int]:
    """Statically-known initial counter value, if the unique lexical
    predecessor of the header ends by setting ``counter`` to a constant.

    This is deliberately conservative: failure just demotes the loop
    from 'fixed/deterministic' to 'loop-opt' (logged condition).
    """
    flat = cfg.flat
    header = cfg.blocks[loop.header]
    preheaders = [p for p in header.preds if p not in loop.body]
    if len(preheaders) != 1:
        return None
    pre = cfg.blocks[preheaders[0]]
    for idx in range(pre.end - 1, pre.start - 1, -1):
        instr = flat.instrs[idx]
        if _writes_reg(instr, counter):
            if instr.mnemonic in ("mov", "mov32"):
                value = instr.operands[1]
                if isinstance(value, Imm):
                    return value.value
            return None
    return None


#: a simple loop whose latch would be taken more often than this is
#: treated as non-terminating
TRIP_GUARD = 10_000_000

_WORD = 1 << 32


def trip_count(shape: SimpleLoopShape, init: int,
               ranges: Optional[Tuple[Tuple[int, int], ...]] = None) -> int:
    """Number of body executions of a simple loop entered with ``init``.

    The latch branch is taken ``trip_count - 1`` times and falls through
    on the final evaluation, when the updated counter first makes the
    latch condition fail against ``bound``. The answer is computed in
    closed form: the condition's failing counter values form a few
    intervals of the 32-bit ring (``ranges``, computed by
    :func:`exit_ranges` when not given), and the first iteration whose
    counter lands in one of them is a modular linear congruence. A
    step of +1 or -1 reaches an interval's near end directly. It equals
    stepping the counter with hardware flag semantics, up to the same
    :data:`TRIP_GUARD`, past which ``ValueError`` is raised.
    """
    if ranges is None:
        ranges = exit_ranges(shape.cond, shape.bound)
    taken = latch_taken((init + shape.step) % _WORD, shape.step, ranges)
    if taken is None or taken > TRIP_GUARD:
        raise ValueError("non-terminating simple loop")
    return taken + 1


def latch_taken(first: int, step: int,
                ranges: Tuple[Tuple[int, int], ...]) -> Optional[int]:
    """How often a latch is taken before it first falls through, or
    None if it never does.

    ``first`` is the counter at the first latch test, ``step`` the
    counter's signed (or mod 2**32) change per iteration, ``ranges`` the
    latch's :func:`exit_ranges`. This is the one statement of the rule:
    :func:`trip_count` and the JIT's closed-form loop step both call it.
    """
    step %= _WORD
    taken: Optional[int] = None
    if step == 1 or step == _WORD - 1:
        for lo, hi in ranges:
            if lo <= first <= hi:
                return 0
            hit = (lo - first) % _WORD if step == 1 else (first - hi) % _WORD
            if taken is None or hit < taken:
                taken = hit
        return taken
    for lo, hi in ranges:
        hit = _first_hit(first, step, lo, hi)
        if hit is not None and (taken is None or hit < taken):
            taken = hit
    return taken


def exit_ranges(cond: str, bound: int) -> Tuple[Tuple[int, int], ...]:
    """The counter intervals on which a latch ``cond`` against ``bound``
    falls through (what :func:`trip_count` searches)."""
    return _exit_ranges(cond, bound % _WORD)


@functools.lru_cache(maxsize=1024)
def _exit_ranges(cond: str, bound: int) -> Tuple[Tuple[int, int], ...]:
    """Counter values ``[lo, hi]`` for which ``cmp counter, #bound``
    makes ``cond`` fail.

    N, Z, C and V of ``counter - bound`` only change where the counter
    crosses ``0``, ``bound``, ``bound + 1``, ``2**31`` (signed wrap) or
    ``bound + 2**31`` (sign of the difference), so the flags are
    constant between those points and one evaluation per segment
    classifies it.
    """
    from repro.isa import alu
    from repro.isa.conditions import cond_passed
    from repro.isa.registers import Flags

    cuts = sorted({0, bound, bound + 1, alu.SIGN_BIT,
                   (bound + alu.SIGN_BIT) % _WORD} - {_WORD})
    ranges: List[Tuple[int, int]] = []
    for lo, end in zip(cuts, cuts[1:] + [_WORD]):
        _, n, z, c, v = alu.sub_with_flags(lo, bound)
        if cond_passed(cond, Flags(n, z, c, v)):
            continue
        if ranges and ranges[-1][1] == lo - 1:
            ranges[-1] = (ranges[-1][0], end - 1)
        else:
            ranges.append((lo, end - 1))
    return tuple(ranges)


def _first_hit(start: int, step: int, lo: int, hi: int) -> Optional[int]:
    """Smallest ``j >= 0`` with ``(start + j*step) mod 2**32`` in
    ``[lo, hi]``, or None if the progression never gets there."""
    offset = (start - lo) % _WORD
    width = hi - lo + 1
    if offset < width:
        return 0
    # (offset + j*step) mod 2**32 < width, with j = 0 already excluded
    return _min_multiple(step, _WORD, _WORD - offset,
                         _WORD - offset + width - 1)


def _min_multiple(a: int, m: int, lo: int, hi: int) -> Optional[int]:
    """Smallest ``x >= 0`` with ``(a*x) mod m`` in ``[lo, hi]``, where
    ``0 <= lo <= hi < m`` (a Euclid-style descent, O(log m) levels)."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x  # reached before the first wrap-around
    # no multiple of a lies in [lo, hi]: count the wrap-arounds y first,
    # which need (m*y) mod a in [-hi mod a, -lo mod a]
    wraps = _min_multiple(m % a, a, -hi % a, -lo % a)
    if wraps is None:
        return None
    return -(-(lo + m * wraps) // a)
