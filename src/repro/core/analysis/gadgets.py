"""ROP/JOP gadget mining and concrete attack-chain synthesis.

The miner runs the *replay verifier's own semantics in generate mode*:
instead of consuming a device's CFLog, a :class:`TraceSynthesizer`
walks the attested image from any address and fabricates exactly the
records replay will demand — loop conditions with minimal trip counts,
mandatory latch records, and one record per indirect-transfer site.
Anything replay accepts, the synthesizer can emit; anything the
synthesizer emits, replay consumes losslessly.

A **gadget** is an address whose forward walk reaches an
attacker-steerable point: an indirect-transfer record site (the next
hop's ``dst`` is chain-controlled) or a terminal ``bkpt`` (a landing
pad — ``vulnerable.py``'s ``maintenance_unlock`` is the canonical
one). Chains are built greedily: walk honestly from the image entry,
hijack the first steerable site toward a mined pad, and keep walking
until the program halts. The result is a complete, losslessly
replayable CFLog whose only difference from an honest one is the
redirected destination — which the shadow stack then flags
(``rop-return`` / ``jop-call``), or the admission pre-check rejects
outright (return-hop floods against a pinned depth bound).

Chains are plain record lists; :func:`chain_reports` wraps one into a
signed report chain, making hostile traces consumable by the fleet
service and ``CampaignSimulator`` exactly like device traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asm.program import Image
from repro.cfa.cflog import (AddressRecord, BranchRecord, CFLog, LoopRecord,
                             Record, tag_sizes)
from repro.cfa.verifier import EXIT_SENTINEL, call_resume
from repro.core.loops import trip_count
from repro.core.rewrite_map import BoundRewriteMap
from repro.isa.instructions import InstrKind

#: instruction budget for one gadget probe / one whole-chain walk
PROBE_FUEL = 256
CHAIN_FUEL = 200_000


@dataclass(frozen=True)
class Gadget:
    """One mined gadget: where it starts and how it ends."""

    entry: int  # first executed address
    terminator: int  # address of the steerable/terminal instruction
    kind: str  # "call" | "return_pop" | "return_bx" | "ldr" | "bx" | "halt"
    steps: int  # instructions walked entry -> terminator
    records: int  # records the gadget body itself emits
    label: Optional[str] = None  # symbol at entry, when one exists

    @property
    def is_pad(self) -> bool:
        """Terminal landing pad: execution halts here (no further hop)."""
        return self.kind == "halt"


@dataclass(frozen=True)
class AttackChain:
    """One synthesized hostile CFLog for a specific image."""

    name: str  # e.g. "rop:maintenance_unlock"
    method: str
    records: Tuple[Record, ...]
    gadgets: Tuple[Gadget, ...]  # hop targets, in order
    hijack_site: int  # address of the redirected transfer
    expected_violation: str  # "rop-return" | "jop-call" | "bounds"
    description: str = ""

    @property
    def cflog(self) -> CFLog:
        return CFLog(self.records)


class _Dead(Exception):
    """The walk reached a state replay would refuse."""


@dataclass
class _Walk:
    """Mutable walk state threaded through a synthesis."""

    pc: int
    shadow: List[int] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
    fixed_state: Dict[int, int] = field(default_factory=dict)
    loop_state: Dict[int, int] = field(default_factory=dict)
    steps: int = 0


@dataclass(frozen=True)
class _Stop:
    """Why a walk paused: at a steerable site or a terminal."""

    kind: str  # indirect kinds, or "halt" / "exit"
    pc: int  # site address ("halt"/"exit": final pc)
    rec_addr: Optional[int] = None  # record key the site demands


class TraceSynthesizer:
    """Replay semantics in generate mode for one attested image.

    ``bound_map`` selects the dialect: a :class:`BoundRewriteMap` for
    the trampoline methods (rap-track / traces), ``None`` for the
    naive baseline's unmodified image.
    """

    def __init__(self, image: Image, bound_map: Optional[BoundRewriteMap],
                 method: str):
        self.image = image
        self.map = bound_map
        self.method = method
        if method in ("rap-track", "traces") and bound_map is None:
            raise ValueError(f"{method} synthesis requires a bound map")

    # -- record fabrication ------------------------------------------------

    def _branch_record(self, key: int, dst: int) -> Record:
        if self.method == "traces":
            return AddressRecord(key, dst)
        return BranchRecord(key, dst)

    def _min_trip_value(self, info) -> Tuple[int, int]:
        """A logged counter value giving the fewest loop trips."""
        best: Optional[Tuple[int, int]] = None
        seeds = {0, 1, info.bound, info.bound - info.step,
                 info.bound + info.step, info.bound - 1, info.bound + 1}
        for seed in seeds:
            value = seed & 0xFFFF_FFFF
            try:
                trips = trip_count(info, value)
            except ValueError:
                continue
            if best is None or trips < best[0]:
                best = (trips, value)
        if best is None:
            raise _Dead(f"loop at {info.rec_addr:#x} has no finite trip")
        return best[1], best[0]

    # -- the walk ----------------------------------------------------------

    def walk(self, state: _Walk, fuel: int = CHAIN_FUEL) -> _Stop:
        """Advance until the next steerable site or a terminal."""
        if self.map is None:
            return self._walk_naive(state, fuel)
        return self._walk_trampoline(state, fuel)

    def _walk_trampoline(self, state: _Walk, fuel: int) -> _Stop:
        image, rmap = self.image, self.map
        while True:
            state.steps += 1
            if state.steps > fuel:
                raise _Dead(f"fuel exhausted at {state.pc:#x}")
            pc = state.pc
            instr = image.instr_at.get(pc)
            if instr is None:
                raise _Dead(f"walk left the image at {pc:#x}")
            if pc in rmap.loop_at:
                info = rmap.loop_at[pc]
                value, trips = self._min_trip_value(info)
                state.records.append(LoopRecord(pc, value))
                state.loop_state[info.latch_addr] = trips - 1
                state.pc = pc + instr.size
                continue
            if pc in rmap.indirect_at:
                return _Stop(rmap.indirect_at[pc].kind, pc,
                             rmap.indirect_at[pc].rec_addr)
            if pc in rmap.cond_at:
                info = rmap.cond_at[pc]
                if info.flavor == "always":
                    state.records.append(
                        self._branch_record(info.rec_addr, info.taken_addr))
                    state.pc = info.taken_addr
                elif info.flavor == "taken":
                    state.pc = pc + instr.size  # silent: not taken
                else:  # forward-exit: silence means "left the loop"
                    state.pc = info.taken_addr
                continue
            if pc in rmap.fixed_trip_at:
                remaining = state.fixed_state.get(pc)
                if remaining is None:
                    remaining = rmap.fixed_trip_at[pc] - 1
                if remaining > 0:
                    state.fixed_state[pc] = remaining - 1
                    state.pc = self._taken(pc, instr)
                else:
                    state.fixed_state.pop(pc, None)
                    state.pc = pc + instr.size
                continue
            if pc in rmap.loop_latches:
                remaining = state.loop_state.get(pc)
                if remaining is None:
                    raise _Dead(f"latch {pc:#x} without a loop condition")
                if remaining > 0:
                    state.loop_state[pc] = remaining - 1
                    state.pc = self._taken(pc, instr)
                else:
                    del state.loop_state[pc]
                    state.pc = pc + instr.size
                continue
            kind = instr.kind
            if kind is InstrKind.BRANCH:
                if instr.cond is not None:
                    raise _Dead(f"unclassified conditional at {pc:#x}")
                state.pc = self._taken(pc, instr)
            elif kind is InstrKind.CALL:
                state.shadow.append(pc + instr.size)
                state.pc = self._taken(pc, instr)
            elif kind is InstrKind.INDIRECT_BRANCH:
                if not state.shadow:
                    return _Stop("exit", pc)
                state.pc = state.shadow.pop()
            elif instr.mnemonic == "bkpt":
                return _Stop("halt", pc)
            elif instr.writes_pc() or instr.mnemonic == "svc":
                raise _Dead(f"replay-opaque instruction at {pc:#x}")
            else:
                state.pc = pc + instr.size

    def _walk_naive(self, state: _Walk, fuel: int) -> _Stop:
        image = self.image
        while True:
            state.steps += 1
            if state.steps > fuel:
                raise _Dead(f"fuel exhausted at {state.pc:#x}")
            pc = state.pc
            instr = image.instr_at.get(pc)
            if instr is None:
                raise _Dead(f"walk left the image at {pc:#x}")
            kind = instr.kind
            if kind is InstrKind.BRANCH and instr.cond is None:
                target = self._taken(pc, instr)
                if target != pc + instr.size:
                    state.records.append(self._branch_record(pc, target))
                state.pc = target
            elif (kind is InstrKind.COMPARE_BRANCH
                  or (kind is InstrKind.BRANCH and instr.cond is not None)):
                state.pc = pc + instr.size  # silent: not taken
            elif kind is InstrKind.CALL:
                target = self._taken(pc, instr)
                state.shadow.append(pc + instr.size)
                if target != pc + instr.size:
                    state.records.append(self._branch_record(pc, target))
                state.pc = target
            elif kind is InstrKind.INDIRECT_CALL:
                return _Stop("call", pc, pc)
            elif kind is InstrKind.INDIRECT_BRANCH:
                return _Stop("bx", pc, pc)
            elif instr.writes_pc():
                stop_kind = ("return_pop" if kind is InstrKind.POP
                             else "ldr")
                return _Stop(stop_kind, pc, pc)
            elif instr.mnemonic == "bkpt":
                return _Stop("halt", pc)
            else:
                state.pc = pc + instr.size

    def _taken(self, pc: int, instr) -> int:
        target = instr.direct_target()
        if target is None:
            raise _Dead(f"no direct target at {pc:#x}")
        return self.image.addr_of(target.name)

    # -- steering ----------------------------------------------------------

    def take_indirect(self, state: _Walk, stop: _Stop, dst: int) -> None:
        """Emit the site's record for ``dst`` and apply the same shadow
        semantics replay will: the chain and the verifier never drift."""
        state.records.append(self._branch_record(stop.rec_addr, dst))
        if self.map is not None and self.map.indirect_at[stop.pc].kind \
                == "call":
            state.shadow.append(call_resume(self.image, stop.pc))
        elif self.map is not None and self.map.indirect_at[stop.pc].kind \
                in ("return_pop", "return_bx"):
            if state.shadow:
                state.shadow.pop()
        elif self.map is None:
            instr = self.image.instr_at[stop.pc]
            if instr.kind is InstrKind.INDIRECT_CALL:
                state.shadow.append(stop.pc + instr.size)
            elif instr.kind is InstrKind.INDIRECT_BRANCH:
                if state.shadow and dst == state.shadow[-1]:
                    state.shadow.pop()
            elif instr.kind is InstrKind.POP and state.shadow:
                state.shadow.pop()
        state.pc = dst

    def honest_dst(self, state: _Walk, stop: _Stop) -> Optional[int]:
        """The destination an honest device would log at this site, or
        None when it is not statically determined (open indirect call)."""
        if stop.kind in ("return_pop", "return_bx"):
            return state.shadow[-1] if state.shadow else EXIT_SENTINEL
        if stop.kind == "bx":
            return state.shadow[-1] if state.shadow else EXIT_SENTINEL
        return None


# -- mining ------------------------------------------------------------------

_RETURN_KINDS = ("return_pop", "return_bx", "bx")


def mine_gadgets(image: Image, bound_map: Optional[BoundRewriteMap],
                 method: str, fuel: int = PROBE_FUEL) -> List[Gadget]:
    """Probe every text address: which ones reach a steerable site?"""
    synth = TraceSynthesizer(image, bound_map, method)
    out: List[Gadget] = []
    for entry in sorted(image.instr_at):
        state = _Walk(pc=entry, shadow=[0xDEAD0000])  # a frame to pop
        try:
            stop = synth.walk(state, fuel=fuel)
        except _Dead:
            continue
        if stop.kind == "exit":
            continue
        out.append(Gadget(
            entry=entry, terminator=stop.pc, kind=stop.kind,
            steps=state.steps, records=len(state.records),
            label=image.label_at(entry),
        ))
    return out


def _first_stop_of_kind(synth: TraceSynthesizer, kinds: Sequence[str]
                        ) -> Optional[Tuple[_Walk, _Stop]]:
    """Walk honestly from the entry until a site of one of ``kinds``;
    honest destinations are supplied at earlier steerable sites."""
    state = _Walk(pc=synth.image.entry)
    while True:
        try:
            stop = synth.walk(state)
        except _Dead:
            return None
        if stop.kind in ("halt", "exit"):
            return None
        if stop.kind in kinds:
            return state, stop
        dst = synth.honest_dst(state, stop)
        if dst is None or dst == EXIT_SENTINEL:
            return None
        synth.take_indirect(state, stop, dst)


def _finish_honestly(synth: TraceSynthesizer, state: _Walk) -> bool:
    """Run the walk to halt/exit, steering honestly; False on dead end."""
    while True:
        try:
            stop = synth.walk(state)
        except _Dead:
            return False
        if stop.kind in ("halt", "exit"):
            if stop.kind == "exit" and state.shadow:
                return False
            return True
        dst = synth.honest_dst(state, stop)
        if dst is None:
            return False
        if dst == EXIT_SENTINEL and state.shadow:
            return False
        if dst == EXIT_SENTINEL:
            synth.take_indirect(state, stop, dst)
            return True
        synth.take_indirect(state, stop, dst)


def synthesize_chains(image: Image, bound_map: Optional[BoundRewriteMap],
                      method: str, *, limit: int = 4) -> List[AttackChain]:
    """Greedy chain synthesis: hijack the first steerable transfer.

    Emits up to ``limit`` chains per image: ROP redirections of the
    first return site into each distinct landing pad (terminal
    ``bkpt`` gadgets a return would never reach honestly), then JOP
    redirections of the first indirect-call site into a mid-function
    gadget (not a legal function entry).
    """
    gadgets = mine_gadgets(image, bound_map, method)
    pads = sorted((g for g in gadgets if g.is_pad),
                  key=lambda g: (g.label is None, g.entry))
    chains: List[AttackChain] = []
    synth = TraceSynthesizer(image, bound_map, method)

    # ROP: redirect the first return to a landing pad
    hit = _first_stop_of_kind(synth, _RETURN_KINDS)
    if hit is not None:
        state, stop = hit
        honest = synth.honest_dst(state, stop)
        seen_entries: Set[int] = set()
        for pad in pads:
            if len(chains) >= limit:
                break
            if pad.entry == honest or pad.entry in seen_entries:
                continue
            seen_entries.add(pad.entry)
            forked = _Walk(pc=state.pc, shadow=list(state.shadow),
                           records=list(state.records),
                           fixed_state=dict(state.fixed_state),
                           loop_state=dict(state.loop_state),
                           steps=state.steps)
            synth.take_indirect(forked, stop, pad.entry)
            if not _finish_honestly(synth, forked):
                continue
            label = pad.label or f"{pad.entry:#x}"
            chains.append(AttackChain(
                name=f"rop:{label}", method=method,
                records=tuple(forked.records), gadgets=(pad,),
                hijack_site=stop.pc, expected_violation="rop-return",
                description=(
                    f"return at {stop.pc:#x} redirected from "
                    f"{honest if honest is not None else 0:#x} to the "
                    f"{label} landing pad"),
            ))

    # JOP: redirect the first indirect call into a mid-function gadget
    if len(chains) < limit:
        hit = _first_stop_of_kind(synth, ("call",))
        if hit is not None:
            state, stop = hit
            entries = (bound_map.function_entry_addrs
                       if bound_map is not None else set())
            for pad in pads:
                if pad.entry in entries:
                    continue
                forked = _Walk(pc=state.pc, shadow=list(state.shadow),
                               records=list(state.records),
                               fixed_state=dict(state.fixed_state),
                               loop_state=dict(state.loop_state),
                               steps=state.steps)
                synth.take_indirect(forked, stop, pad.entry)
                if not _finish_honestly(synth, forked):
                    continue
                label = pad.label or f"{pad.entry:#x}"
                chains.append(AttackChain(
                    name=f"jop:{label}", method=method,
                    records=tuple(forked.records), gadgets=(pad,),
                    hijack_site=stop.pc, expected_violation="jop-call",
                    description=(f"indirect call at {stop.pc:#x} bent "
                                 f"into the non-entry gadget {label}"),
                ))
                break
    return chains


def synthesize_return_flood(image: Image,
                            bound_map: Optional[BoundRewriteMap],
                            method: str, hops: int) -> Optional[AttackChain]:
    """A return-to-return hop chain ``hops`` deep: each hop redirects a
    return record into a gadget that runs forward to another return
    site. Against a pinned depth bound the admission pre-check rejects
    the chain before replay ever runs (the drawdown of return records
    exceeds any honest stack depth)."""
    synth = TraceSynthesizer(image, bound_map, method)
    gadgets = mine_gadgets(image, bound_map, method)
    return_gadgets = [g for g in gadgets if g.kind in _RETURN_KINDS]
    pads = [g for g in gadgets if g.is_pad]
    if not return_gadgets or not pads:
        return None
    hit = _first_stop_of_kind(synth, _RETURN_KINDS)
    if hit is None:
        return None
    state, stop = hit
    hijack = stop.pc
    hop_gadget = return_gadgets[0]
    for _ in range(hops):
        synth.take_indirect(state, stop, hop_gadget.entry)
        try:
            stop = synth.walk(state)
        except _Dead:
            return None
        if stop.kind not in _RETURN_KINDS:
            return None
    synth.take_indirect(state, stop, pads[0].entry)
    if not _finish_honestly(synth, state):
        return None
    return AttackChain(
        name=f"flood:{hops}-hops", method=method,
        records=tuple(state.records), gadgets=(hop_gadget, pads[0]),
        hijack_site=hijack, expected_violation="bounds",
        description=(f"{hops} return-to-return hops inflate the claimed "
                     f"stack depth past any honest execution"),
    )


# -- fleet packaging ---------------------------------------------------------

def chain_reports(chain: AttackChain, device_id: str, challenge: bytes,
                  h_mem: bytes, key: bytes,
                  watermark: Optional[int] = None) -> List[bytes]:
    """Wrap a synthesized chain into a signed wire-encoded report chain
    — what a compromised device holding its own key would transmit."""
    from repro.cfa.report import Report
    from repro.cfa.wire import encode_report

    logs: List[List[Record]] = []
    if watermark:
        sizes = tag_sizes(chain.method)
        current: List[Record] = []
        size = 0
        for record in chain.records:
            current.append(record)
            size += sizes[record.tag]
            if size >= watermark:
                logs.append(current)
                current, size = [], 0
        logs.append(current)
    else:
        logs = [list(chain.records)]
    last = len(logs) - 1
    return [
        encode_report(Report(
            device_id=device_id.encode(), method=chain.method,
            challenge=challenge, h_mem=h_mem, seq=seq,
            final=seq == last, cflog=CFLog(records),
        ).sign(key))
        for seq, records in enumerate(logs)
    ]


__all__ = [
    "AttackChain",
    "Gadget",
    "TraceSynthesizer",
    "chain_reports",
    "mine_gadgets",
    "synthesize_chains",
    "synthesize_return_flood",
]
