"""Verifier-side report validation and lossless path reconstruction.

``Vrf`` holds the (public) rewritten binary, the linking metadata
(:class:`~repro.core.rewrite_map.BoundRewriteMap`), and the shared
attestation key. Verification has three layers:

1. **Authentication** — MAC chain, sequence numbers, challenge
   freshness, and the expected ``H_MEM``.
2. **Lossless replay** — the CFLog is replayed against the binary:
   deterministic transfers are followed statically, fixed loops are
   unrolled from their static trip counts, loop-opt loops from their
   logged conditions, and every trampolined site consumes exactly one
   matching record. Replay succeeding with the log fully consumed means
   the complete control flow path has been reconstructed. Production
   verification runs the replay compiled per firmware
   (:class:`ReplayProgram`, :class:`NaiveReplayProgram`), which folds
   the path into its length and digest; the stepping replay that
   returns the path is the reference.
3. **Policy evidence** — consumed indirect targets are screened against
   the binary's legal-target sets and a shadow return stack; mismatches
   become :class:`Violation` evidence of ROP/JOP-style attacks (the log
   itself stays authentic — CFA reports attacks, it does not mask them).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asm.program import Image
from repro.cfa.cflog import AddressRecord, BranchRecord, LoopRecord, Record
from repro.cfa.report import AttestationResult
from repro.core.loops import trip_count
from repro.core.rewrite_map import BoundRewriteMap
from repro.crypto.hashing import measure_image
from repro.isa.instructions import InstrKind

#: Replay step guard (a verifier-side runaway protection).
DEFAULT_MAX_STEPS = 20_000_000

#: The bare-metal exit sentinel (return to the reset value of LR).
EXIT_SENTINEL = 0xFFFF_FFFE

#: packed path bytes a compiled replay buffers before hashing them
_HASH_CHUNK = 1 << 16

_PACK_PC = struct.Struct("<I").pack


@dataclass(frozen=True)
class Violation:
    """One piece of attack evidence surfaced during replay."""

    kind: str  # e.g. "rop-return", "jop-call", "bad-jump-target"
    address: int  # site address in the attested binary
    detail: str


@dataclass
class VerificationResult:
    """Outcome of verifying one attestation."""

    authenticated: bool
    lossless: bool
    violations: List[Violation] = field(default_factory=list)
    path: List[int] = field(default_factory=list)
    consumed: int = 0
    #: deepest the reconstructed shadow return stack ever got — the
    #: observable the `BNDS1` static depth bound is checked against
    max_shadow_depth: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Authentic, fully reconstructable, and attack-free."""
        return self.authenticated and self.lossless and not self.violations


class ReplayError(Exception):
    """The log cannot be losslessly replayed against the binary."""


class _ReplayVerifier:
    """What both verifiers share: the expected ``H_MEM``, report-chain
    authentication, and :attr:`program`, the compiled replay that
    production verification runs (built on first use and cached, so a
    ``copy.copy`` taken afterwards shares it). Each verifier's
    ``verify`` and ``replay`` step the path one pc at a time and return
    it: they are the reference the compiled program is pinned to."""

    def __init__(self, image: Image, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.image = image
        self.key = key
        self.max_steps = max_steps
        self.expected_h_mem = measure_image(image)

    def authenticate(self, result: AttestationResult,
                     challenge: bytes) -> bool:
        """MAC chain, challenge freshness and the expected ``H_MEM``."""
        return (result.verify_chain(self.key)
                and result.challenge == challenge
                and all(r.h_mem == self.expected_h_mem
                        for r in result.reports))

    @functools.cached_property
    def program(self) -> "_CompiledReplay":
        """This verifier's replay, compiled."""
        return self._compile()

    def _compile(self) -> "_CompiledReplay":
        raise NotImplementedError


class Verifier(_ReplayVerifier):
    """The remote Verifier for trampoline-based CFA (RAP-Track/TRACES)."""

    def __init__(self, image: Image, bound_map: BoundRewriteMap, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS):
        super().__init__(image, key, max_steps)
        self.map = bound_map

    def _compile(self) -> "ReplayProgram":
        return ReplayProgram(self.image, self.map)

    # -- top level ----------------------------------------------------------

    def verify(self, result: AttestationResult,
               challenge: bytes) -> VerificationResult:
        """Authenticate the report chain, then reconstruct the path."""
        out = self.replay(result.cflog.records)
        out.authenticated = self.authenticate(result, challenge)
        return out

    # -- replay ------------------------------------------------------------

    def replay(self, records: Sequence[Record]) -> VerificationResult:
        """Reconstruct the complete execution path from the CFLog."""
        result = VerificationResult(authenticated=False, lossless=False)
        try:
            self._replay(records, result)
            result.lossless = result.error is None
        except ReplayError as exc:
            result.error = str(exc)
            result.lossless = False
        return result

    def _replay(self, records: Sequence[Record],
                result: VerificationResult) -> None:
        image, rmap = self.image, self.map
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
            if steps > self.max_steps:
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
                loop_state[info.latch_addr] = _loop_trips(info, entry) - 1
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


def _taken_target(image: Image, pc: int, instr) -> int:
    target = instr.direct_target()
    if target is None:
        raise ReplayError(f"no direct target at {pc:#010x}")
    return image.addr_of(target.name)


def call_resume(image: Image, site: int) -> int:
    """Runtime return address of an indirect-call site.

    RAP-Track sites are a single ``bl`` (resume right after it); the
    TRACES shape is ``svc`` + the original ``blx`` (resume after the
    pair).
    """
    instr = image.instr_at[site]
    if instr.mnemonic == "svc":
        branch_addr = site + instr.size
        branch = image.instr_at[branch_addr]
        return branch_addr + branch.size
    return site + instr.size


def _loop_trips(info, entry: LoopRecord) -> int:
    """Body executions a logged loop condition stands for; a value that
    never terminates the loop makes the log unreplayable."""
    try:
        return trip_count(info, entry.value)
    except ValueError:
        raise ReplayError(
            f"logged loop condition {entry.value:#x} at "
            f"{entry.key:#010x} does not terminate") from None


@dataclass
class ReplayDigest:
    """A replay outcome with the path folded into its length and the
    SHA-256 of its ``<I``-packed pcs, the form the fleet records."""

    lossless: bool = False
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None
    consumed: int = 0
    max_shadow_depth: int = 0
    path_len: int = 0
    path_digest: str = ""

    @classmethod
    def of(cls, result: VerificationResult) -> "ReplayDigest":
        """The digest form of a stepping replay's result."""
        packed = struct.pack(f"<{len(result.path)}I", *result.path)
        return cls(result.lossless, list(result.violations), result.error,
                   result.consumed, result.max_shadow_depth,
                   len(result.path), hashlib.sha256(packed).hexdigest())


@dataclass(frozen=True)
class _Run:
    """A maximal straight-line run of untracked pcs."""

    packed: bytes  # the run's pcs, ``<I``-packed
    length: int
    exit: int  # where control goes after the run's last pc


def _build_runs(successor: Dict[int, int]) -> Dict[int, _Run]:
    """The run starting at every pc with a static ``successor``,
    followed until a pc without one or a pc that would repeat."""
    runs: Dict[int, _Run] = {}
    for start in successor:
        pcs, pc = [start], successor[start]
        seen = {start}
        while pc in successor and pc not in seen:
            pcs.append(pc)
            seen.add(pc)
            pc = successor[pc]
        runs[start] = _Run(struct.pack(f"<{len(pcs)}I", *pcs), len(pcs), pc)
    return runs


class _PathHash:
    """SHA-256 over a stream of ``<I``-packed pcs, without the path."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self._buf = bytearray()
        self.length = 0

    def add(self, packed: bytes, count: int) -> None:
        self._buf += packed
        self.length += count
        if len(self._buf) >= _HASH_CHUNK:
            self._flush()

    def repeat(self, body: bytes, count: int, entries: int) -> None:
        """Append the first ``entries`` pcs of ``body`` (``count`` pcs)
        repeated without end."""
        whole, part = divmod(entries, count)
        batch = _HASH_CHUNK // len(body) + 1
        if whole >= batch:
            self._flush()
            block = body * batch
            for _ in range(whole // batch):
                self._sha.update(block)
            whole %= batch
        self.add(body * whole + body[:4 * part], entries)

    def _flush(self) -> None:
        self._sha.update(self._buf)
        self._buf.clear()

    def hexdigest(self) -> str:
        self._flush()
        return self._sha.hexdigest()


def _guard_trips(path: _PathHash, body: bytes, count: int,
                 budget: int) -> None:
    """The step guard fires inside a repeating ``body``: record the
    ``budget`` pcs the stepping replay appends before it does."""
    path.repeat(body, count, budget)
    raise ReplayError("replay exceeded the step guard")


class _CompiledReplay:
    """A stepping replay compiled once per firmware: :meth:`run` equals
    the verifier's ``replay`` with the path replaced by its length and
    digest."""

    def run(self, records: Sequence[Record],
            max_steps: int = DEFAULT_MAX_STEPS) -> ReplayDigest:
        """Replay ``records`` without building the path."""
        out = ReplayDigest()
        path = _PathHash()
        try:
            self._run(records, max_steps, out, path)
            out.lossless = True
        except ReplayError as exc:
            out.error = str(exc)
        out.path_len = path.length
        out.path_digest = path.hexdigest()
        return out

    def _run(self, records: Sequence[Record], max_steps: int,
             out: ReplayDigest, path: _PathHash) -> None:
        raise NotImplementedError


class ReplayProgram(_CompiledReplay):
    """:meth:`Verifier.replay` compiled once per (image, bound map).

    Replay only needs the path's length and digest, so the program
    never builds the path. Every pc that is not a rewrite-map site and
    not a call, return, ``bkpt``, ``svc`` or conditional starts a
    precomputed straight-line *run* (direct unconditional branches
    followed, stopping before a pc would repeat), emitted as one
    pre-packed chunk. A fixed or loop-opt latch whose taken target's
    run ends exactly at the latch has a pure *body*: reaching it with
    ``r`` trips left emits the body ``r`` times at once. Everything
    else steps exactly like :meth:`Verifier._replay`: the same record
    matching, shadow stack, violations and errors, and the step guard
    fires at the identical step with the identical partial path, which
    is computed arithmetically inside runs and collapsed loops.
    """

    def __init__(self, image: Image, bound_map: BoundRewriteMap):
        self.image = image
        self.map = bound_map
        rmap = bound_map
        sites = (rmap.loop_at.keys() | rmap.indirect_at.keys()
                 | rmap.cond_at.keys() | rmap.fixed_trip_at.keys()
                 | rmap.loop_latches)
        targets: Dict[int, int] = {}
        successor: Dict[int, int] = {}
        for pc, instr in image.instr_at.items():
            target = instr.direct_target()
            if target is not None and (target.name in image.symbols
                                       or target.name in image.equates):
                targets[pc] = image.addr_of(target.name)
            if pc in sites:
                continue
            kind = instr.kind
            if kind is InstrKind.BRANCH:
                if instr.cond is None and pc in targets:
                    successor[pc] = targets[pc]
            elif not (kind is InstrKind.CALL
                      or kind is InstrKind.INDIRECT_BRANCH
                      or instr.mnemonic in ("bkpt", "svc")
                      or instr.writes_pc()):
                successor[pc] = pc + instr.size
        self._runs = _build_runs(successor)
        #: latch -> (packed body incl. the latch, body length)
        self._bodies: Dict[int, Tuple[bytes, int]] = {}
        for latch in rmap.fixed_trip_at.keys() | rmap.loop_latches:
            target = targets.get(latch, -1)
            run = self._runs.get(target)
            if target == latch:
                body, count = b"", 0
            elif run is not None and run.exit == latch:
                body, count = run.packed, run.length
            else:
                continue
            self._bodies[latch] = (body + _PACK_PC(latch), count + 1)

    def _run(self, records: Sequence[Record], max_steps: int,
             out: ReplayDigest, path: _PathHash) -> None:
        image, rmap = self.image, self.map
        instr_at, runs, bodies = image.instr_at, self._runs, self._bodies
        loop_at, indirect_at, cond_at = (
            rmap.loop_at, rmap.indirect_at, rmap.cond_at)
        fixed_trip_at, loop_latches = rmap.fixed_trip_at, rmap.loop_latches
        violations = out.violations
        emit = path.add
        pc = image.entry
        cursor, total = 0, len(records)
        shadow: List[int] = []
        fixed_state: Dict[int, int] = {}
        loop_state: Dict[int, int] = {}
        steps = 0

        while True:
            run = runs.get(pc)
            if run is not None:
                if run.exit == pc or steps + run.length > max_steps:
                    # a cycle of untracked pcs only ends at the guard
                    _guard_trips(path, run.packed, run.length,
                                 max_steps - steps)
                steps += run.length
                emit(run.packed, run.length)
                pc = run.exit
                continue
            steps += 1
            if steps > max_steps:
                raise ReplayError("replay exceeded the step guard")
            instr = instr_at.get(pc)
            if instr is None:
                raise ReplayError(f"replay left the code image at {pc:#010x}")
            emit(_PACK_PC(pc), 1)
            entry = records[cursor] if cursor < total else None

            # 1. loop-condition log sites
            if pc in loop_at:
                info = loop_at[pc]
                if not isinstance(entry, LoopRecord) or entry.key != pc:
                    raise ReplayError(
                        f"missing loop-condition record at {pc:#010x}"
                    )
                cursor += 1
                loop_state[info.latch_addr] = _loop_trips(info, entry) - 1
                pc += instr.size
                continue

            # 2. trampolined indirect transfers
            if pc in indirect_at:
                info = indirect_at[pc]
                if (not isinstance(entry, (BranchRecord, AddressRecord))
                        or entry.key != info.rec_addr):
                    raise ReplayError(
                        f"missing record for indirect transfer at {pc:#010x}"
                    )
                cursor += 1
                if instr.mnemonic == "svc":
                    emit(_PACK_PC(pc + instr.size), 1)
                dst = entry.dst
                if dst == EXIT_SENTINEL and not shadow:
                    break
                if info.kind == "call":
                    shadow.append(call_resume(image, pc))
                    out.max_shadow_depth = max(
                        out.max_shadow_depth, len(shadow))
                    if dst not in rmap.function_entry_addrs:
                        violations.append(Violation(
                            "jop-call", pc,
                            f"indirect call to non-entry {dst:#010x}"))
                elif info.kind in ("return_pop", "return_bx"):
                    if shadow:
                        expected = shadow.pop()
                        if dst != expected:
                            violations.append(Violation(
                                "rop-return", pc,
                                f"return to {dst:#010x}, "
                                f"call site expected {expected:#010x}"))
                    else:
                        violations.append(Violation(
                            "rop-return", pc,
                            f"return to {dst:#010x} with empty call stack"))
                else:
                    legal = (dst in rmap.address_taken_addrs
                             or dst in rmap.function_entry_addrs)
                    if not legal:
                        violations.append(Violation(
                            "bad-jump-target", pc,
                            f"computed jump to {dst:#010x}"))
                if instr_at.get(dst) is None:
                    raise ReplayError(
                        f"logged target {dst:#010x} is not code")
                pc = dst
                continue

            # 3. trampolined conditionals
            if pc in cond_at:
                info = cond_at[pc]
                match = (isinstance(entry, (BranchRecord, AddressRecord))
                         and entry.key == info.rec_addr)
                if info.flavor == "always":
                    if not match:
                        raise ReplayError(
                            f"missing record for latch at {pc:#010x}")
                    cursor += 1
                    rec = instr_at.get(info.rec_addr)
                    if rec is not None and rec.mnemonic == "svc":
                        emit(_PACK_PC(info.rec_addr)
                             + _PACK_PC(info.rec_addr + rec.size), 2)
                    pc = info.taken_addr
                elif info.flavor == "taken":
                    if match:
                        cursor += 1
                        rec = instr_at.get(info.rec_addr)
                        if rec is not None and rec.mnemonic == "svc":
                            emit(_PACK_PC(info.rec_addr)
                                 + _PACK_PC(info.rec_addr + rec.size), 2)
                        pc = info.taken_addr
                    else:
                        pc += instr.size
                else:
                    if match:
                        cursor += 1
                        emit(_PACK_PC(pc + instr.size), 1)
                        pc = info.cont_addr
                    else:
                        pc = info.taken_addr
                continue

            # 4-5. fixed and loop-opt latches: a pure body is emitted
            # for all remaining trips at once, any other body stepped
            if pc in fixed_trip_at or pc in loop_latches:
                if pc in fixed_trip_at:
                    remaining = fixed_state.pop(pc, None)
                    if remaining is None:
                        remaining = fixed_trip_at[pc] - 1
                    state = fixed_state
                else:
                    remaining = loop_state.pop(pc, None)
                    if remaining is None:
                        raise ReplayError(
                            f"loop latch at {pc:#010x} reached without "
                            f"a logged loop condition")
                    state = loop_state
                if remaining > 0:
                    body = bodies.get(pc)
                    if body is None:
                        state[pc] = remaining - 1
                        pc = _taken_target(image, pc, instr)
                        continue
                    packed, count = body
                    trips = remaining * count
                    if steps + trips > max_steps:
                        _guard_trips(path, packed, count, max_steps - steps)
                    steps += trips
                    path.repeat(packed, count, trips)
                pc += instr.size
                continue

            # 6. untracked instructions that end a run
            kind = instr.kind
            if kind is InstrKind.BRANCH:
                if instr.cond is not None:
                    raise ReplayError(
                        f"unclassified conditional at {pc:#010x}")
                pc = _taken_target(image, pc, instr)
            elif kind is InstrKind.CALL:
                shadow.append(pc + instr.size)
                out.max_shadow_depth = max(
                    out.max_shadow_depth, len(shadow))
                pc = _taken_target(image, pc, instr)
            elif kind is InstrKind.INDIRECT_BRANCH:
                if not shadow:
                    break
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

        out.consumed = cursor
        if cursor != total:
            raise ReplayError(
                f"{total - cursor} CFLog records left after "
                f"execution reached its end")


class NaiveVerifier(_ReplayVerifier):
    """Verifier for the naive-MTB baseline: replay of the *unmodified*
    binary where every non-sequential transfer consumes one MTB packet."""

    def _compile(self) -> "NaiveReplayProgram":
        return NaiveReplayProgram(self.image)

    def verify(self, result: AttestationResult,
               challenge: bytes) -> VerificationResult:
        out = self.replay(result.cflog.records)
        out.authenticated = self.authenticate(result, challenge)
        return out

    def replay(self, records: Sequence[Record]) -> VerificationResult:
        result = VerificationResult(authenticated=False, lossless=False)
        try:
            self._replay(records, result)
            result.lossless = result.error is None
        except ReplayError as exc:
            result.error = str(exc)
        return result

    def _replay(self, records: Sequence[Record],
                result: VerificationResult) -> None:
        image = self.image
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
            if steps > self.max_steps:
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


def _direct_dst(image: Image, pc: int, instr, dst: int) -> int:
    """A logged direct transfer: its destination must be the static
    target, or the log steers the binary where it cannot go."""
    target = _taken_target(image, pc, instr)
    if dst != target:
        raise ReplayError(
            f"direct transfer at {pc:#010x} logged to {dst:#010x}, "
            f"its target is {target:#010x}")
    return target


class NaiveReplayProgram(_CompiledReplay):
    """:meth:`NaiveVerifier.replay` compiled once per image.

    Every pc that is not a branch, call, return, ``pop {..,pc}`` /
    ``ldr pc`` or ``bkpt`` starts a precomputed straight-line *run* (a
    direct branch to the next pc included), emitted as one pre-packed
    chunk. Each control-transfer pc is decoded once into an
    ``(op, direct target, packed pc, next pc)`` site and steps exactly
    like :meth:`NaiveVerifier._replay`: the same packet matching,
    shadow stack, violations and errors, and the step guard fires at
    the identical step with the identical partial path. No loop is
    collapsed: the MTB logs every taken backward branch.
    """

    def __init__(self, image: Image):
        self.image = image
        successor: Dict[int, int] = {}
        #: control-transfer pc -> (op, direct target, packed pc, next pc)
        self._sites: Dict[int, Tuple[str, Optional[int], bytes, int]] = {}
        for pc, instr in image.instr_at.items():
            kind, nxt, target = instr.kind, pc + instr.size, None
            if kind in (InstrKind.BRANCH, InstrKind.CALL,
                        InstrKind.COMPARE_BRANCH):
                try:
                    target = _taken_target(image, pc, instr)
                except (ReplayError, KeyError):
                    pass  # stepped as "opaque": replay raises like _replay
            if kind is InstrKind.BRANCH and instr.cond is None:
                if target == nxt:
                    successor[pc] = nxt
                    continue
                op = "b" if target is not None else "opaque"
            elif kind is InstrKind.COMPARE_BRANCH or kind is InstrKind.BRANCH:
                op = "cond"
            elif kind is InstrKind.CALL:
                op = "call" if target is not None else "opaque"
            elif kind is InstrKind.INDIRECT_CALL:
                op = "icall"
            elif kind is InstrKind.INDIRECT_BRANCH:
                op = "bx"
            elif instr.writes_pc():
                op = "pop" if kind is InstrKind.POP else "jump"
            elif instr.mnemonic == "bkpt":
                op = "bkpt"
            else:
                successor[pc] = nxt
                continue
            self._sites[pc] = (op, target, _PACK_PC(pc), nxt)
        self._runs = _build_runs(successor)

    def _run(self, records: Sequence[Record], max_steps: int,
             out: ReplayDigest, path: _PathHash) -> None:
        image, runs, sites = self.image, self._runs, self._sites
        violations = out.violations
        emit = path.add
        pc = image.entry
        cursor, total = 0, len(records)
        shadow: List[int] = []
        steps = 0

        while True:
            run = runs.get(pc)
            if run is not None:
                if steps + run.length > max_steps:
                    _guard_trips(path, run.packed, run.length,
                                 max_steps - steps)
                steps += run.length
                emit(run.packed, run.length)
                pc = run.exit  # never a run start: step it right away
            steps += 1
            if steps > max_steps:
                raise ReplayError("replay exceeded the step guard")
            site = sites.get(pc)
            if site is None:
                raise ReplayError(f"replay left the code image at {pc:#010x}")
            op, target, packed, nxt = site
            emit(packed, 1)

            if op == "cond":
                entry = records[cursor] if cursor < total else None
                if isinstance(entry, BranchRecord) and entry.key == pc:
                    cursor += 1
                    pc = (target if entry.dst == target else _direct_dst(
                        image, pc, image.instr_at[pc], entry.dst))
                else:
                    pc = nxt
                continue
            if op == "call":
                shadow.append(nxt)
                if len(shadow) > out.max_shadow_depth:
                    out.max_shadow_depth = len(shadow)
                if target == nxt:
                    pc = nxt  # call-to-next retires sequentially
                    continue
            elif op == "bkpt":
                break
            elif op == "opaque":
                _taken_target(image, pc, image.instr_at[pc])

            # every other transfer consumes one MTB packet
            if cursor >= total:
                raise ReplayError(f"CFLog exhausted at {pc:#010x}")
            entry = records[cursor]
            if not isinstance(entry, BranchRecord) or entry.key != pc:
                raise ReplayError(f"CFLog record mismatch at {pc:#010x}")
            cursor += 1
            dst = entry.dst
            if op == "b" or op == "call":
                if dst != target:
                    _direct_dst(image, pc, image.instr_at[pc], dst)
            elif op == "icall":
                shadow.append(nxt)
                if len(shadow) > out.max_shadow_depth:
                    out.max_shadow_depth = len(shadow)
            elif dst == EXIT_SENTINEL and not shadow:
                break  # top-level return: program exit
            elif op == "bx":
                if shadow and dst == shadow[-1]:
                    shadow.pop()
            elif op == "pop" and shadow:
                expected = shadow.pop()
                if dst != expected:
                    violations.append(Violation(
                        "rop-return", pc,
                        f"return to {dst:#010x}, "
                        f"call site expected {expected:#010x}"))
            pc = dst

        out.consumed = cursor
        if cursor != total:
            raise ReplayError(
                f"{total - cursor} CFLog records left after "
                f"execution reached its end")
