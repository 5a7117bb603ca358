"""Verifier-side report validation and lossless path reconstruction.

``Vrf`` holds the (public) rewritten binary, the linking metadata
(:class:`~repro.core.rewrite_map.BoundRewriteMap`), and the shared
attestation key. Verification has three layers:

1. **Authentication** — MAC chain, sequence numbers, challenge
   freshness, and the expected ``H_MEM``.
2. **Lossless replay** — the CFLog, packed as the wire carries it
   (``CFLog.pack``), is replayed against the binary: deterministic
   transfers are followed statically, fixed loops are unrolled from
   their static trip counts, loop-opt loops from their logged
   conditions, and every trampolined site consumes exactly one
   matching record. Replay succeeding with the log fully consumed means
   the complete control flow path has been reconstructed. The replay
   is compiled once per firmware (:class:`ReplayProgram`,
   :class:`NaiveReplayProgram`): ``program.run`` folds the path into
   its length and digest, the form the fleet records, and the
   verifiers' ``verify``/``replay`` return it. The reference the
   programs are pinned to steps the path one pc at a time in
   ``tests/replay_oracle.py``.
3. **Policy evidence** — consumed indirect targets are screened against
   the binary's legal-target sets and a shadow return stack; mismatches
   become :class:`Violation` evidence of ROP/JOP-style attacks (the log
   itself stays authentic — CFA reports attacks, it does not mask them).
"""

from __future__ import annotations

import functools
import hashlib
import operator
import struct
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.asm.program import Image
from repro.cfa.cflog import (PACKED_RECORD, AddressRecord, BranchRecord,
                             LoopRecord)
from repro.cfa.report import AttestationResult, ChainCheck
from repro.core.loops import exit_ranges, trip_count
from repro.core.rewrite_map import BoundRewriteMap
from repro.crypto.hashing import measure_image
from repro.isa.instructions import InstrKind

#: Replay step guard (a verifier-side runaway protection).
DEFAULT_MAX_STEPS = 20_000_000

#: The bare-metal exit sentinel (return to the reset value of LR).
EXIT_SENTINEL = 0xFFFF_FFFE

#: packed path bytes a compiled replay buffers before hashing them
_HASH_CHUNK = 1 << 16
#: replay steps between two hashes of the buffer (a step appends at
#: most three pcs)
_DRAIN_STEPS = _HASH_CHUNK // 12

_PACK_PC = struct.Struct("<I").pack

#: a packed CFLog is read as ``(tag, key, value)`` triples: an MTB
#: packet and a TRACES entry log a transfer to ``value``, a loop record
#: a loop condition
_TAG_BRANCH, _TAG_LOOP = BranchRecord.tag, LoopRecord.tag
_TRANSFER_TAGS = (_TAG_BRANCH, AddressRecord.tag)
#: the lookahead once the log is spent: its key matches no pc
_END = (0, -1, 0)


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
    authentication, and :attr:`program`, the compiled replay (built on
    first use and cached, so a ``copy.copy`` taken afterwards shares
    it). :meth:`verify` and :meth:`replay` run the program and keep the
    packed path it emits; the fleet and ``run_method`` call
    ``program.run``, which hashes the path instead."""

    def __init__(self, image: Image, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.image = image
        self.key = key
        self.max_steps = max_steps
        self.expected_h_mem = measure_image(image)

    def authenticate(self, result: AttestationResult,
                     challenge: bytes) -> bool:
        """Every report passes :class:`~repro.cfa.report.ChainCheck`
        (MAC, challenge freshness, the expected ``H_MEM``, sequencing)
        and the chain ends with its final report."""
        return ChainCheck(self.key, challenge,
                          self.expected_h_mem).admit_all(result.reports)

    @functools.cached_property
    def program(self) -> "_CompiledReplay":
        """This verifier's replay, compiled."""
        return self._compile()

    def _compile(self) -> "_CompiledReplay":
        raise NotImplementedError

    def verify(self, result: AttestationResult,
               challenge: bytes) -> VerificationResult:
        """Authenticate the report chain, then reconstruct the path."""
        out = self.replay(result.span)
        out.authenticated = self.authenticate(result, challenge)
        return out

    def replay(self, log: bytes) -> VerificationResult:
        """Reconstruct the complete execution path from a packed CFLog
        (``CFLog.pack()``, the records as the wire carries them)."""
        out = VerificationResult(authenticated=False, lossless=False)
        path = _PathKeep()
        self.program.replay_into(log, self.max_steps, out, path)
        out.path = path.pcs()
        return out


class Verifier(_ReplayVerifier):
    """The remote Verifier for trampoline-based CFA (RAP-Track/TRACES)."""

    def __init__(self, image: Image, bound_map: BoundRewriteMap, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS):
        super().__init__(image, key, max_steps)
        self.map = bound_map

    def _compile(self) -> "ReplayProgram":
        return ReplayProgram(self.image, self.map)

    # each class's own attributes: perfbench's tracer wraps them per class
    verify, replay = _ReplayVerifier.verify, _ReplayVerifier.replay


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


def _loop_trips(info, key: int, value: int, ranges=None) -> int:
    """Body executions the loop condition ``value`` logged at ``key``
    stands for; a value that never terminates the loop makes the log
    unreplayable."""
    try:
        return trip_count(info, value, ranges)
    except ValueError:
        raise ReplayError(
            f"logged loop condition {value:#x} at "
            f"{key:#010x} does not terminate") from None


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


#: what a compiled replay fills in besides the path
_Outcome = Union[ReplayDigest, VerificationResult]


class _Run(NamedTuple):
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
    """SHA-256 over a stream of ``<I``-packed pcs, without the path.

    A compiled replay appends packed pcs to :attr:`buf` itself and
    hashes them through :meth:`drain`; :meth:`repeat` appends a
    collapsed loop and :attr:`length` counts every pc appended. Every
    byte reaches the hash through ``_sink.update``.
    """

    def __init__(self):
        self._sink = hashlib.sha256()
        self._hashed = 0
        self.buf = bytearray()

    @property
    def length(self) -> int:
        return (self._hashed + len(self.buf)) // 4

    def repeat(self, body: bytes, count: int, entries: int) -> None:
        """Append the first ``entries`` pcs of ``body`` (``count`` pcs)
        repeated without end."""
        whole, part = divmod(entries, count)
        batch = _HASH_CHUNK // len(body) + 1
        if whole >= batch:
            self._flush()
            block = body * batch
            for _ in range(whole // batch):
                self._sink.update(block)
            self._hashed += len(block) * (whole // batch)
            whole %= batch
        self.buf += body * whole + body[:4 * part]
        if len(self.buf) >= _HASH_CHUNK:
            self._flush()

    def drain(self, steps: int, max_steps: int) -> int:
        """Hash what :attr:`buf` holds; return the step count past which
        the replay drains next (never past ``max_steps``). A step
        appends at most three pcs, so :attr:`buf` stays near
        :data:`_HASH_CHUNK` bytes however long the path."""
        self._flush()
        return min(max_steps, steps + _DRAIN_STEPS)

    def _flush(self) -> None:
        self._sink.update(self.buf)
        self._hashed += len(self.buf)
        self.buf.clear()

    def hexdigest(self) -> str:
        self._flush()
        return self._sink.hexdigest()


class _Kept(bytearray):
    """Packed pcs, taken in through a hash object's ``update``."""

    update = bytearray.extend


class _PathKeep(_PathHash):
    """A :class:`_PathHash` whose sink keeps what it would hash: every
    drained chunk and every batched block of :meth:`repeat`, in the
    order the replay emits them, so :meth:`pcs` is the path."""

    def __init__(self):
        super().__init__()
        self._sink = _Kept()

    def pcs(self) -> List[int]:
        self._flush()
        kept = self._sink
        return list(struct.unpack(f"<{len(kept) // 4}I", kept))


def _guard_trips(path: _PathHash, body: bytes, count: int,
                 budget: int) -> None:
    """The step guard fires inside a repeating ``body``: emit the
    ``budget`` pcs the path holds when it does."""
    path.repeat(body, count, budget)
    raise ReplayError("replay exceeded the step guard")


class _CompiledReplay:
    """A replay compiled once per firmware. :meth:`run` folds the path
    into its length and digest; the verifier's ``replay`` keeps it.
    Both read the packed log as one record stream with a one-record
    lookahead, matched on its key and tag."""

    def run(self, log: bytes,
            max_steps: int = DEFAULT_MAX_STEPS) -> ReplayDigest:
        """Replay the packed ``log`` without building the path."""
        out = ReplayDigest()
        path = _PathHash()
        self.replay_into(log, max_steps, out, path)
        out.path_len = path.length
        out.path_digest = path.hexdigest()
        return out

    def replay_into(self, log: bytes, max_steps: int,
                    out: _Outcome, path: _PathHash) -> None:
        """Replay the packed ``log``: set ``out``'s ``lossless``,
        ``error``, ``violations``, ``consumed`` and
        ``max_shadow_depth``, and emit the packed path into ``path``."""
        try:
            self._run(log, max_steps, out, path)
            out.lossless = True
        except ReplayError as exc:
            out.error = str(exc)

    def _run(self, log: bytes, max_steps: int,
             out: _Outcome, path: _PathHash) -> None:
        raise NotImplementedError


def _consumed(out: _Outcome, log: bytes, stream, key: int) -> None:
    """Execution reached its end with ``key`` pending (``-1``: none)
    and ``stream`` left: set ``out.consumed``, or raise on records the
    path never read."""
    left = operator.length_hint(stream) + (key >= 0)
    out.consumed = len(log) // PACKED_RECORD.size - left
    if left:
        raise ReplayError(
            f"{left} CFLog records left after execution reached its end")


# ReplayProgram's op table: each entry is a tuple whose first field is
# one of these opcodes and whose second (sites only) is the packed pc
_RUN = 0  # (op, packed run, length, exit pc, exit pc's op or None)
_COND = 1  # (op, packed, rec_addr, packed on a match, pc on a match,
#            pc on no match or None: the record is mandatory)
_INDIRECT = 2  # (op, packed, packed with the svc pair, rec_addr,
#                _IND_* kind, call_resume or None)
_CALL = 3  # (op, packed, return address, direct target or None)
_LATCH = 4  # (op, packed, next pc, taken target or None,
#             (packed pure body, its length) or None, trips left when
#             first reached (None: loop-opt, set by its loop record),
#             whether the latch is a fixed loop's)
_LOOP = 5  # (op, packed, next pc, latch pc, loop info, exit ranges)
_RET = 6  # (op, packed): an untracked bx lr
_EXIT = 7  # (op, packed): bkpt
_FAIL = 8  # (op, packed, ReplayError message or None: the direct
#            target does not resolve)

_IND_CALL, _IND_RETURN, _IND_JUMP = range(3)

#: the kinds whose instructions may name a direct target
_DIRECT_KINDS = frozenset({InstrKind.BRANCH, InstrKind.CALL,
                           InstrKind.COMPARE_BRANCH})


class ReplayProgram(_CompiledReplay):
    """The RAP-Track/TRACES replay, compiled once per (image, bound map).

    Every pc that is not a rewrite-map site and not a call, return,
    ``bkpt``, ``svc`` or conditional starts a precomputed straight-line
    *run* (direct unconditional branches followed, stopping before a pc
    would repeat), emitted as one pre-packed chunk. A fixed or loop-opt
    latch whose taken target's run ends exactly at the latch has a pure
    *body*: reaching it with ``r`` trips left emits the body ``r`` times
    at once.

    Every code pc has one entry in an op table: a run, or a site
    decoded into an opcode and the fields fixed once the program is
    built. A run's entry carries the op of the site it ends at, so a
    run and that site are one dispatch. Each site replays exactly as
    the stepping reference in ``tests/replay_oracle.py`` does: the same
    record matching, shadow stack, violations and errors, and the step
    guard fires at the identical step with the identical partial path,
    which is computed arithmetically inside runs and collapsed loops.
    Where the guard could fire inside a fused run and site, where a run
    ends at the start of a run (a cycle) and where it leaves the code,
    the run is dispatched alone.
    """

    def __init__(self, image: Image, bound_map: BoundRewriteMap):
        self.image = image
        self.map = bound_map
        rmap = bound_map
        instr_at = image.instr_at
        loop_at, indirect_at, cond_at = (
            rmap.loop_at, rmap.indirect_at, rmap.cond_at)
        latches = rmap.fixed_trip_at.keys() | rmap.loop_latches
        sites = (loop_at.keys() | indirect_at.keys() | cond_at.keys()
                 | latches)
        targets: Dict[int, int] = {}
        successor: Dict[int, int] = {}
        ops: Dict[int, tuple] = {}
        for pc, instr in instr_at.items():
            kind = instr.kind
            if kind in _DIRECT_KINDS:
                target = instr.direct_target()
                if target is not None and (target.name in image.symbols
                                           or target.name in image.equates):
                    targets[pc] = image.addr_of(target.name)
            if pc in sites:
                if pc in loop_at:
                    info = loop_at[pc]
                    ops[pc] = (_LOOP, _PACK_PC(pc), pc + instr.size,
                               info.latch_addr, info,
                               exit_ranges(info.cond, info.bound))
                elif pc in indirect_at:
                    ops[pc] = _indirect_op(image, pc, instr, indirect_at[pc])
                elif pc in cond_at:
                    ops[pc] = _cond_op(image, pc, instr, cond_at[pc])
                # latches are decoded once the loop bodies are known
            else:
                if kind is InstrKind.BRANCH:
                    if instr.cond is None and pc in targets:
                        successor[pc] = targets[pc]
                        continue
                    ops[pc] = (_FAIL, _PACK_PC(pc), None if instr.cond is None
                               else f"unclassified conditional at {pc:#010x}")
                elif kind is InstrKind.CALL:
                    ops[pc] = (_CALL, _PACK_PC(pc), pc + instr.size,
                               targets.get(pc))
                elif kind is InstrKind.INDIRECT_BRANCH:
                    ops[pc] = (_RET, _PACK_PC(pc))
                elif instr.mnemonic == "bkpt":
                    ops[pc] = (_EXIT, _PACK_PC(pc))
                elif instr.writes_pc():
                    ops[pc] = (_FAIL, _PACK_PC(pc), "unclassified pc-writing "
                               f"instruction at {pc:#010x}")
                elif instr.mnemonic == "svc":
                    ops[pc] = (_FAIL, _PACK_PC(pc),
                               f"unexpected svc at {pc:#010x}")
                else:
                    successor[pc] = pc + instr.size
        self._runs = _build_runs(successor)
        #: latch -> (packed body incl. the latch, body length)
        self._bodies: Dict[int, Tuple[bytes, int]] = {}
        for latch in latches:
            target = targets.get(latch, -1)
            run = self._runs.get(target)
            if target == latch:
                self._bodies[latch] = (_PACK_PC(latch), 1)
            elif run is not None and run.exit == latch:
                self._bodies[latch] = (run.packed + _PACK_PC(latch),
                                       run.length + 1)
            instr = instr_at.get(latch)
            if instr is not None and latch not in ops:
                fixed = latch in rmap.fixed_trip_at
                ops[latch] = (_LATCH, _PACK_PC(latch), latch + instr.size,
                              targets.get(latch), self._bodies.get(latch),
                              rmap.fixed_trip_at[latch] - 1 if fixed
                              else None, fixed)
        runs = self._runs
        for start, (packed, length, exit_pc) in runs.items():
            ops[start] = (_RUN, packed, length, exit_pc,
                          None if exit_pc in runs else ops.get(exit_pc))
        self._ops = ops

    def _run(self, log: bytes, max_steps: int,
             out: _Outcome, path: _PathHash) -> None:
        image, ops = self.image, self._ops
        instr_at = image.instr_at
        entries = self.map.function_entry_addrs
        address_taken = self.map.address_taken_addrs
        violations = out.violations
        buf = path.buf
        pc = image.entry
        stream = PACKED_RECORD.iter_unpack(log)
        tag, key, value = next(stream, _END)
        shadow: List[int] = []
        depth = 0
        fixed_state: Dict[int, int] = {}
        loop_state: Dict[int, int] = {}
        steps = 0
        #: the guard, or the step at which ``buf`` is hashed, if earlier
        limit = min(max_steps, _DRAIN_STEPS)

        try:
            while True:
                op = ops.get(pc)
                if op is None:
                    steps += 1
                    if steps > max_steps:
                        raise ReplayError("replay exceeded the step guard")
                    raise ReplayError(
                        f"replay left the code image at {pc:#010x}")
                code = op[0]
                if code == _RUN:
                    _, packed, length, exit_pc, site = op
                    if site is None or steps + length + 1 > limit:
                        limit = path.drain(steps, max_steps)
                        if exit_pc == pc or steps + length > max_steps:
                            # a cycle of untracked pcs only ends at the guard
                            _guard_trips(path, packed, length,
                                         max_steps - steps)
                        steps += length
                        buf += packed
                        pc = exit_pc
                        continue
                    steps += length + 1
                    buf += packed
                    pc, op = exit_pc, site
                    code = op[0]
                else:
                    steps += 1
                    if steps > limit:
                        limit = path.drain(steps, max_steps)
                        if steps > max_steps:
                            raise ReplayError("replay exceeded the step guard")

                # trampolined conditionals
                if code == _COND:
                    _, packed, rec, hit_packed, hit, miss = op
                    if key == rec and tag in _TRANSFER_TAGS:
                        tag, key, value = next(stream, _END)
                        buf += hit_packed
                        pc = hit
                        continue
                    buf += packed
                    if miss is None:
                        # silent-cycle latch: a record is mandatory
                        raise ReplayError(
                            f"missing record for latch at {pc:#010x}")
                    pc = miss
                    continue

                # trampolined indirect transfers
                if code == _INDIRECT:
                    _, packed, full, rec, kind, resume = op
                    if key != rec or tag not in _TRANSFER_TAGS:
                        buf += packed
                        raise ReplayError(
                            f"missing record for indirect transfer at "
                            f"{pc:#010x}")
                    dst = value
                    tag, key, value = next(stream, _END)
                    buf += full
                    if dst == EXIT_SENTINEL and not shadow:
                        break
                    if kind == _IND_CALL:
                        shadow.append(call_resume(image, pc) if resume is None
                                      else resume)
                        if len(shadow) > depth:
                            depth = len(shadow)
                        if dst not in entries:
                            violations.append(Violation(
                                "jop-call", pc,
                                f"indirect call to non-entry {dst:#010x}"))
                    elif kind == _IND_RETURN:
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
                                f"return to {dst:#010x} with empty call "
                                f"stack"))
                    elif dst not in address_taken and dst not in entries:
                        violations.append(Violation(
                            "bad-jump-target", pc,
                            f"computed jump to {dst:#010x}"))
                    if dst not in instr_at:
                        raise ReplayError(
                            f"logged target {dst:#010x} is not code")
                    pc = dst
                    continue

                # untracked direct calls
                if code == _CALL:
                    _, packed, resume, target = op
                    buf += packed
                    shadow.append(resume)
                    if len(shadow) > depth:
                        depth = len(shadow)
                    pc = (_taken_target(image, pc, instr_at[pc])
                          if target is None else target)
                    continue

                # fixed and loop-opt latches: a pure body is emitted for
                # all remaining trips at once, any other body stepped
                if code == _LATCH:
                    _, packed, nxt, target, body, first, fixed = op
                    buf += packed
                    state = fixed_state if fixed else loop_state
                    remaining = state.pop(pc, first)
                    if remaining is None:
                        raise ReplayError(
                            f"loop latch at {pc:#010x} reached without "
                            f"a logged loop condition")
                    if remaining > 0:
                        if body is None:
                            state[pc] = remaining - 1
                            pc = (_taken_target(image, pc, instr_at[pc])
                                  if target is None else target)
                            continue
                        packed, count = body
                        trips = remaining * count
                        if steps + trips > limit:
                            limit = path.drain(steps, max_steps)
                            if steps + trips > max_steps:
                                _guard_trips(path, packed, count,
                                             max_steps - steps)
                        steps += trips
                        if remaining * len(packed) < _HASH_CHUNK:
                            buf += packed * remaining
                        else:
                            path.repeat(packed, count, trips)
                    pc = nxt
                    continue

                # loop-condition log sites
                if code == _LOOP:
                    _, packed, nxt, latch, info, ranges = op
                    buf += packed
                    if key != pc or tag != _TAG_LOOP:
                        raise ReplayError(
                            f"missing loop-condition record at {pc:#010x}")
                    loop_state[latch] = _loop_trips(info, key, value,
                                                    ranges) - 1
                    tag, key, value = next(stream, _END)
                    pc = nxt
                    continue

                buf += op[1]
                if code == _RET:
                    # untracked bx lr: a leaf return through an unspilled LR
                    if not shadow:
                        break
                    pc = shadow.pop()
                    continue
                if code == _EXIT:
                    break
                if op[2] is None:  # _FAIL
                    _taken_target(image, pc, instr_at[pc])
                raise ReplayError(op[2])
        finally:
            out.max_shadow_depth = depth
        _consumed(out, log, stream, key)


def _indirect_op(image: Image, pc: int, instr, info) -> tuple:
    """The op of a trampolined indirect transfer: the TRACES shape
    (an ``svc`` followed by the instrumented branch) appends both."""
    packed = _PACK_PC(pc)
    full = (packed + _PACK_PC(pc + instr.size) if instr.mnemonic == "svc"
            else packed)
    resume = None
    if info.kind == "call":
        kind = _IND_CALL
        try:
            resume = call_resume(image, pc)
        except KeyError:
            pass  # replay raises it on reaching the site
    elif info.kind in ("return_pop", "return_bx"):
        kind = _IND_RETURN
    else:  # ldr / bx computed jumps
        kind = _IND_JUMP
    return (_INDIRECT, packed, full, info.rec_addr, kind, resume)


def _cond_op(image: Image, pc: int, instr, info) -> tuple:
    """The op of a trampolined conditional, by flavor: ``always`` (a
    silent-cycle latch: a record is mandatory), ``taken`` (a record
    means taken; the TRACES in-text thunk is an ``svc`` + direct
    branch) and forward-exit (a record means "stayed in the loop",
    consumed at the in-text site right after the branch)."""
    packed = _PACK_PC(pc)
    if info.flavor in ("always", "taken"):
        rec = image.instr_at.get(info.rec_addr)
        hit_packed = packed
        if rec is not None and rec.mnemonic == "svc":
            hit_packed += (_PACK_PC(info.rec_addr)
                           + _PACK_PC(info.rec_addr + rec.size))
        miss = None if info.flavor == "always" else pc + instr.size
        return (_COND, packed, info.rec_addr, hit_packed, info.taken_addr,
                miss)
    return (_COND, packed, info.rec_addr, packed + _PACK_PC(pc + instr.size),
            info.cont_addr, info.taken_addr)


class NaiveVerifier(_ReplayVerifier):
    """Verifier for the naive-MTB baseline: replay of the *unmodified*
    binary where every non-sequential transfer consumes one MTB packet."""

    def _compile(self) -> "NaiveReplayProgram":
        return NaiveReplayProgram(self.image)

    # each class's own attributes: perfbench's tracer wraps them per class
    verify, replay = _ReplayVerifier.verify, _ReplayVerifier.replay


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
    """The naive-MTB replay, compiled once per image.

    Every pc that is not a branch, call, return, ``pop {..,pc}`` /
    ``ldr pc`` or ``bkpt`` starts a precomputed straight-line *run* (a
    direct branch to the next pc included), emitted as one pre-packed
    chunk. Each control-transfer pc is decoded once into an
    ``(op, direct target, packed pc, next pc)`` site and replays
    exactly as the stepping reference in ``tests/replay_oracle.py``
    does: the same packet matching, shadow stack, violations and
    errors, and the step guard fires at the identical step with the
    identical partial path. No loop is
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
                    pass  # an "opaque" site: replay raises on reaching it
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

    def _run(self, log: bytes, max_steps: int,
             out: _Outcome, path: _PathHash) -> None:
        image, runs, sites = self.image, self._runs, self._sites
        violations = out.violations
        buf = path.buf
        pc = image.entry
        stream = PACKED_RECORD.iter_unpack(log)
        tag, key, value = next(stream, _END)
        shadow: List[int] = []
        steps = 0
        #: the guard, or the step at which ``buf`` is hashed, if earlier
        limit = min(max_steps, _DRAIN_STEPS)

        while True:
            run = runs.get(pc)
            if run is not None:
                if steps + run.length > limit:
                    limit = path.drain(steps, max_steps)
                    if steps + run.length > max_steps:
                        _guard_trips(path, run.packed, run.length,
                                     max_steps - steps)
                steps += run.length
                buf += run.packed
                pc = run.exit  # never a run start: step it right away
            steps += 1
            if steps > limit:
                limit = path.drain(steps, max_steps)
                if steps > max_steps:
                    raise ReplayError("replay exceeded the step guard")
            site = sites.get(pc)
            if site is None:
                raise ReplayError(f"replay left the code image at {pc:#010x}")
            op, target, packed, nxt = site
            buf += packed

            if op == "cond":
                if key == pc and tag == _TAG_BRANCH:
                    dst = value
                    tag, key, value = next(stream, _END)
                    pc = (target if dst == target else _direct_dst(
                        image, pc, image.instr_at[pc], dst))
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
            if key != pc or tag != _TAG_BRANCH:
                raise ReplayError(f"CFLog exhausted at {pc:#010x}" if key < 0
                                  else f"CFLog record mismatch at {pc:#010x}")
            dst = value
            tag, key, value = next(stream, _END)
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
        _consumed(out, log, stream, key)
