"""The stepping replays: the reference the compiled replay is pinned to.

``Verifier.verify``/``replay`` and ``NaiveVerifier.verify``/``replay``
answer from the compiled programs
(:class:`~repro.cfa.verifier.ReplayProgram`,
:class:`~repro.cfa.verifier.NaiveReplayProgram`). The loops here replay
the same CFLog one pc at a time and build the path as they go. They are
the differential reference of ``tests/test_replay_compiled.py``,
``tests/test_replay_fused.py``, ``benchmarks/bench_replay.py`` and
``benchmarks/bench_ingest.py``; nothing in ``src`` calls them.

    replay(verifier, records)            # VerificationResult with the path
    verify(verifier, result, challenge)  # ... authenticated as well
    digest(result)                       # its ReplayDigest form

Each reads the verifier's ``image``, bound ``map`` and ``max_steps``
when called, so a test may point a verifier at a broken image first.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence

from repro.cfa.cflog import AddressRecord, BranchRecord, LoopRecord, Record
from repro.cfa.report import AttestationResult
from repro.cfa.verifier import (
    EXIT_SENTINEL,
    NaiveVerifier,
    ReplayDigest,
    ReplayError,
    VerificationResult,
    Violation,
    _direct_dst,
    _loop_trips,
    _taken_target,
    call_resume,
)
from repro.isa.instructions import InstrKind


def verify(verifier, result: AttestationResult,
           challenge: bytes) -> VerificationResult:
    """Authenticate the report chain, then step the path."""
    out = replay(verifier, result.cflog.records)
    out.authenticated = verifier.authenticate(result, challenge)
    return out


def replay(verifier, records: Sequence[Record]) -> VerificationResult:
    """Step the complete execution path out of ``records``: the naive-MTB
    replay for a :class:`NaiveVerifier`, the trampoline replay
    (RAP-Track, TRACES) otherwise."""
    result = VerificationResult(authenticated=False, lossless=False)
    step = (_naive_replay if isinstance(verifier, NaiveVerifier)
            else _trampoline_replay)
    try:
        step(verifier, records, result)
        result.lossless = True
    except ReplayError as exc:
        result.error = str(exc)
    return result


def digest(result: VerificationResult) -> ReplayDigest:
    """The digest form of a stepping replay's result."""
    packed = struct.pack(f"<{len(result.path)}I", *result.path)
    return ReplayDigest(result.lossless, list(result.violations),
                        result.error, result.consumed,
                        result.max_shadow_depth, len(result.path),
                        hashlib.sha256(packed).hexdigest())


def _trampoline_replay(verifier, records: Sequence[Record],
                       result: VerificationResult) -> None:
    image, rmap = verifier.image, verifier.map
    pc = image.entry
    cursor = 0
    shadow: List[int] = []
    fixed_state = {}
    loop_state = {}
    path = result.path
    steps = 0

    def peek() -> Optional[Record]:
        return records[cursor] if cursor < len(records) else None

    while True:
        steps += 1
        if steps > verifier.max_steps:
            raise ReplayError("replay exceeded the step guard")
        instr = image.instr_at.get(pc)
        if instr is None:
            raise ReplayError(f"replay left the code image at {pc:#010x}")
        path.append(pc)

        # 1. loop-condition log sites
        if pc in rmap.loop_at:
            info = rmap.loop_at[pc]
            entry = peek()
            if not isinstance(entry, LoopRecord) or entry.key != pc:
                raise ReplayError(
                    f"missing loop-condition record at {pc:#010x}"
                )
            cursor += 1
            loop_state[info.latch_addr] = _loop_trips(
                info, entry.key, entry.value) - 1
            pc += instr.size
            continue

        # 2. trampolined indirect transfers
        if pc in rmap.indirect_at:
            info = rmap.indirect_at[pc]
            entry = peek()
            if (not isinstance(entry, (BranchRecord, AddressRecord))
                    or entry.key != info.rec_addr):
                raise ReplayError(
                    f"missing record for indirect transfer at {pc:#010x}"
                )
            cursor += 1
            if instr.mnemonic == "svc":
                # TRACES shape: the instrumented branch follows the svc
                path.append(pc + instr.size)
            dst = entry.dst
            if dst == EXIT_SENTINEL and not shadow:
                break  # top-level return: program exit
            if info.kind == "call":
                shadow.append(call_resume(image, pc))
                result.max_shadow_depth = max(
                    result.max_shadow_depth, len(shadow))
                if dst not in rmap.function_entry_addrs:
                    result.violations.append(Violation(
                        "jop-call", pc,
                        f"indirect call to non-entry {dst:#010x}"))
            elif info.kind in ("return_pop", "return_bx"):
                if shadow:
                    expected = shadow.pop()
                    if dst != expected:
                        result.violations.append(Violation(
                            "rop-return", pc,
                            f"return to {dst:#010x}, "
                            f"call site expected {expected:#010x}"))
                else:
                    result.violations.append(Violation(
                        "rop-return", pc,
                        f"return to {dst:#010x} with empty call stack"))
            else:  # ldr / bx computed jumps
                legal = (dst in rmap.address_taken_addrs
                         or dst in rmap.function_entry_addrs)
                if not legal:
                    result.violations.append(Violation(
                        "bad-jump-target", pc,
                        f"computed jump to {dst:#010x}"))
            if image.instr_at.get(dst) is None:
                raise ReplayError(
                    f"logged target {dst:#010x} is not code")
            pc = dst
            continue

        # 3. trampolined conditionals
        if pc in rmap.cond_at:
            info = rmap.cond_at[pc]
            entry = peek()
            match = (isinstance(entry, (BranchRecord, AddressRecord))
                     and entry.key == info.rec_addr)
            if info.flavor == "always":
                # silent-cycle latch: a record is mandatory
                if not match:
                    raise ReplayError(
                        f"missing record for latch at {pc:#010x}")
                cursor += 1
                rec = image.instr_at.get(info.rec_addr)
                if rec is not None and rec.mnemonic == "svc":
                    path.append(info.rec_addr)
                    path.append(info.rec_addr + rec.size)
                pc = info.taken_addr
            elif info.flavor == "taken":
                if match:
                    cursor += 1
                    rec = image.instr_at.get(info.rec_addr)
                    if rec is not None and rec.mnemonic == "svc":
                        # TRACES in-text thunk: svc + direct branch
                        path.append(info.rec_addr)
                        path.append(info.rec_addr + rec.size)
                    pc = info.taken_addr
                else:
                    pc += instr.size
            else:  # forward-exit: a record means "stayed in the loop"
                if match:
                    cursor += 1
                    # the in-text consume site (RAP: the inserted
                    # direct branch; TRACES: the inline svc)
                    path.append(pc + instr.size)
                    pc = info.cont_addr
                else:
                    pc = info.taken_addr
            continue

        # 4. fixed loops: unroll from the static trip count
        if pc in rmap.fixed_trip_at:
            remaining = fixed_state.get(pc)
            if remaining is None:
                remaining = rmap.fixed_trip_at[pc] - 1
            if remaining > 0:
                fixed_state[pc] = remaining - 1
                pc = _taken_target(image, pc, instr)
            else:
                fixed_state.pop(pc, None)
                pc += instr.size
            continue

        # 5. loop-opt latches: governed by the consumed condition
        if pc in rmap.loop_latches:
            remaining = loop_state.get(pc)
            if remaining is None:
                raise ReplayError(
                    f"loop latch at {pc:#010x} reached without "
                    f"a logged loop condition")
            if remaining > 0:
                loop_state[pc] = remaining - 1
                pc = _taken_target(image, pc, instr)
            else:
                del loop_state[pc]
                pc += instr.size
            continue

        # 6. untracked instructions
        kind = instr.kind
        if kind is InstrKind.BRANCH:
            if instr.cond is not None:
                raise ReplayError(
                    f"unclassified conditional at {pc:#010x}")
            pc = _taken_target(image, pc, instr)
        elif kind is InstrKind.CALL:
            shadow.append(pc + instr.size)
            result.max_shadow_depth = max(
                result.max_shadow_depth, len(shadow))
            pc = _taken_target(image, pc, instr)
        elif kind is InstrKind.INDIRECT_BRANCH:
            # untracked bx lr: a leaf return through an unspilled LR
            if not shadow:
                break  # entry function returned: program exit
            pc = shadow.pop()
        elif instr.mnemonic == "bkpt":
            break
        elif instr.writes_pc():
            raise ReplayError(
                f"unclassified pc-writing instruction at {pc:#010x}")
        elif instr.mnemonic == "svc":
            raise ReplayError(f"unexpected svc at {pc:#010x}")
        else:
            pc += instr.size

    result.consumed = cursor
    if cursor != len(records):
        raise ReplayError(
            f"{len(records) - cursor} CFLog records left after "
            f"execution reached its end")


def _naive_replay(verifier, records: Sequence[Record],
                  result: VerificationResult) -> None:
    """Replay of the *unmodified* binary where every non-sequential
    transfer consumes one MTB packet."""
    image = verifier.image
    pc = image.entry
    cursor = 0
    shadow: List[int] = []
    steps = 0

    def consume() -> BranchRecord:
        nonlocal cursor
        if cursor >= len(records):
            raise ReplayError(f"CFLog exhausted at {pc:#010x}")
        entry = records[cursor]
        if not isinstance(entry, BranchRecord) or entry.key != pc:
            raise ReplayError(
                f"CFLog record mismatch at {pc:#010x}")
        cursor += 1
        return entry

    while True:
        steps += 1
        if steps > verifier.max_steps:
            raise ReplayError("replay exceeded the step guard")
        instr = image.instr_at.get(pc)
        if instr is None:
            raise ReplayError(f"replay left the code image at {pc:#010x}")
        result.path.append(pc)

        kind = instr.kind
        if kind is InstrKind.BRANCH and instr.cond is None:
            target = _taken_target(image, pc, instr)
            if target == pc + instr.size:
                pc = target  # branch-to-next retires sequentially
            else:
                pc = _direct_dst(image, pc, instr, consume().dst)
        elif (kind is InstrKind.COMPARE_BRANCH
              or (kind is InstrKind.BRANCH and instr.cond is not None)):
            entry = records[cursor] if cursor < len(records) else None
            if isinstance(entry, BranchRecord) and entry.key == pc:
                cursor += 1
                pc = _direct_dst(image, pc, instr, entry.dst)
            else:
                pc += instr.size
        elif kind is InstrKind.CALL:
            target = _taken_target(image, pc, instr)
            shadow.append(pc + instr.size)
            result.max_shadow_depth = max(
                result.max_shadow_depth, len(shadow))
            if target == pc + instr.size:
                pc = target  # call-to-next retires sequentially
            else:
                pc = _direct_dst(image, pc, instr, consume().dst)
        elif kind is InstrKind.INDIRECT_CALL:
            entry = consume()
            shadow.append(pc + instr.size)
            result.max_shadow_depth = max(
                result.max_shadow_depth, len(shadow))
            pc = entry.dst
        elif kind is InstrKind.INDIRECT_BRANCH:
            entry = consume()
            if entry.dst == EXIT_SENTINEL and not shadow:
                break  # top-level return: program exit
            if shadow and entry.dst == shadow[-1]:
                shadow.pop()
            pc = entry.dst
        elif instr.writes_pc():  # pop {...,pc} / ldr pc
            entry = consume()
            if entry.dst == EXIT_SENTINEL and not shadow:
                break  # top-level return: program exit
            if kind is InstrKind.POP and shadow:
                expected = shadow.pop()
                if entry.dst != expected:
                    result.violations.append(Violation(
                        "rop-return", pc,
                        f"return to {entry.dst:#010x}, "
                        f"call site expected {expected:#010x}"))
            pc = entry.dst
        elif instr.mnemonic == "bkpt":
            break
        else:
            pc += instr.size

    result.consumed = cursor
    if cursor != len(records):
        raise ReplayError(
            f"{len(records) - cursor} CFLog records left after "
            f"execution reached its end")
