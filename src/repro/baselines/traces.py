"""TRACES-style instrumentation-based CFA baseline.

Implements the comparison system of the paper's evaluation: a TEE-based
CFA that instruments every tracked control transfer with a call into the
Secure World (via a Non-Secure-Callable gateway) and applies the same
state-of-the-art CFLog optimizations RAP-Track does — deterministic
branches untracked, fixed loops elided, simple-loop conditions logged
once — so the comparison isolates the *logging mechanism*: per-event
world switches versus parallel MTB capture.

Entry sizes follow the instrumentation format: one 32-bit destination
word per event (4 bytes), versus the MTB's 8-byte packets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.asm.program import Module, Space
from repro.cfa.cflog import AddressRecord, CFLog, LoopRecord, Record, tag_sizes
from repro.cfa.engine import AttestationEngineBase, EngineConfig
from repro.cfa.report import AttestationResult
from repro.cfa.services import (
    SVC_LOG_LOOP,
    SVC_TRACES_BX,
    SVC_TRACES_COND_NOT_TAKEN,
    SVC_TRACES_COND_TAKEN,
    SVC_TRACES_IND_CALL,
    SVC_TRACES_LDR,
    SVC_TRACES_RET_POP,
)
from repro.core.classify import BranchClass, Classification
from repro.core.rewrite_map import (
    BoundRewriteMap,
    CondSite,
    FixedLoopInfo,
    IndirectSite,
    LoopOptSite,
    RewriteMap,
)
from repro.core.trampolines import LabelMint
from repro.isa.instructions import Instr, InstrKind, make_instr
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import LR, PC
from repro.machine.cpu import CPU
from repro.machine.mcu import MCU
from repro.tz.gateway import SecureGateway
from repro.tz.keystore import KeyStore

_INDIRECT_SVC = {
    BranchClass.INDIRECT_CALL: (SVC_TRACES_IND_CALL, "call"),
    BranchClass.LOGGED_CALL: (SVC_TRACES_IND_CALL, "call"),
    BranchClass.RETURN_POP: (SVC_TRACES_RET_POP, "return_pop"),
    BranchClass.INDIRECT_LDR: (SVC_TRACES_LDR, "ldr"),
    BranchClass.INDIRECT_BX: (SVC_TRACES_BX, "bx"),
}


def rewrite_for_traces(module: Module, classification: Classification
                       ) -> Tuple[Module, RewriteMap]:
    """Instrument a module the TRACES way."""
    flat = classification.flat
    out = Module(module.entry)
    out.equates = dict(module.equates)
    text = out.section("text")
    for name, section in module.sections.items():
        if name in ("text", "mtbar"):
            continue
        dest = out.section(name)
        for item in section.items:
            dest.add(item.payload, item.labels)

    mint = LabelMint("tr")
    rmap = RewriteMap(
        method="traces",
        address_taken=set(classification.address_taken),
        function_entries=set(classification.function_entry_labels),
    )

    svc_before: Dict[int, List] = {}
    extra_labels: Dict[int, List[str]] = {}
    latch_labels: Dict[int, str] = {}
    pending: List[str] = []

    def emit(payload, labels=()):
        merged = tuple(pending) + tuple(labels)
        pending.clear()
        text.add(payload, merged)

    def label_for_index(index: int, tag: str) -> str:
        if index in latch_labels:
            return latch_labels[index]
        label = mint.fresh(tag)
        latch_labels[index] = label
        extra_labels.setdefault(index, []).append(label)
        return label

    for site in classification.sites.values():
        if site.cls is BranchClass.LOOP_OPT_LATCH:
            svc_before.setdefault(site.header_index, []).append(site)
        elif site.cls is BranchClass.FIXED_LOOP_LATCH:
            rmap.fixed_loops.append(FixedLoopInfo(
                latch_label=label_for_index(site.index, "fixed"),
                trip_count=site.trip_count,
            ))

    thunks: List[Tuple[str, Label]] = []  # (svc label, taken target)

    for idx, instr in enumerate(flat.instrs):
        labels = tuple(flat.labels_at[idx]) + tuple(extra_labels.get(idx, ()))
        for loop_site in svc_before.get(idx, ()):
            svc_label = mint.fresh("loop")
            latch_label = label_for_index(loop_site.index, "latch")
            shape = loop_site.shape
            rmap.loop_sites.append(LoopOptSite(
                site_label=svc_label, latch_label=latch_label,
                counter_reg=shape.counter_reg, step=shape.step,
                bound=shape.bound, cond=shape.cond,
            ))
            emit(make_instr("svc", Imm(SVC_LOG_LOOP)), (svc_label,))

        site = classification.sites.get(idx)
        cls = site.cls if site is not None else None

        if cls in (BranchClass.DEVIRT_CALL, BranchClass.DEVIRT_JUMP):
            # proven single-target transfer: direct equivalent, untracked
            mnemonic = "bl" if cls is BranchClass.DEVIRT_CALL else "b"
            emit(make_instr(mnemonic, Label(site.devirt_target)), labels)
        elif cls in _INDIRECT_SVC:
            svc_id, kind = _INDIRECT_SVC[cls]
            if (cls is BranchClass.INDIRECT_BX
                    and isinstance(instr.operands[0], Reg)
                    and instr.operands[0].num == LR):
                # non-leaf bx lr is a return: shadow-stack checked
                kind = "return_bx"
            site_label = mint.fresh("site")
            emit(make_instr("svc", Imm(svc_id)), labels + (site_label,))
            emit(instr, ())
            rmap.indirect_sites.append(
                IndirectSite(kind, site_label, site_label))
        elif cls in (BranchClass.COND_NONLOOP,
                     BranchClass.COND_BACKWARD_LATCH,
                     BranchClass.UNCOND_LATCH):
            taken = instr.direct_target()
            thunk_label = mint.fresh("thunk")
            site_label = mint.fresh("site")
            emit(_redirect_cond(instr, thunk_label), labels + (site_label,))
            thunks.append((thunk_label, taken))
            flavor = ("always" if cls is BranchClass.UNCOND_LATCH
                      else "taken")
            rmap.cond_sites.append(CondSite(
                site_label=site_label, rec_label=thunk_label,
                taken_label=taken.name, flavor=flavor,
            ))
        elif cls is BranchClass.COND_FORWARD_EXIT:
            taken = instr.direct_target()
            site_label = mint.fresh("site")
            svc_label = mint.fresh("nt")
            cont_label = mint.fresh("cont")
            emit(instr, labels + (site_label,))
            emit(make_instr("svc", Imm(SVC_TRACES_COND_NOT_TAKEN)),
                 (svc_label,))
            pending.append(cont_label)
            rmap.cond_sites.append(CondSite(
                site_label=site_label, rec_label=svc_label,
                taken_label=taken.name, cont_label=cont_label,
            ))
        else:
            emit(instr, labels)

    # out-of-line taken thunks at the end of the text section (reached
    # only by explicit branches; no original code falls through here)
    for thunk_label, taken in thunks:
        emit(make_instr("svc", Imm(SVC_TRACES_COND_TAKEN)), (thunk_label,))
        emit(make_instr("b", taken), ())

    trailing = [
        (lbl, i) for lbl, i in flat.label_index.items()
        if i == len(flat.instrs)
    ]
    if trailing:
        # bind end-of-section labels before the thunks would be wrong;
        # they are data-boundary markers, keep them past everything
        text.add(Space(0), tuple(lbl for lbl, _ in trailing))
    return out, rmap


def _redirect_cond(instr: Instr, thunk_label: str) -> Instr:
    if instr.kind is InstrKind.COMPARE_BRANCH:
        reg, _ = instr.operands
        return make_instr(instr.mnemonic, reg, Label(thunk_label))
    return make_instr("b", Label(thunk_label), cond=instr.cond)


class TracesEngine(AttestationEngineBase):
    """Secure-World logger for the instrumented binary."""

    method = "traces"

    def __init__(self, mcu: MCU, keystore: KeyStore,
                 bound_map: BoundRewriteMap,
                 config: Optional[EngineConfig] = None):
        super().__init__(mcu, keystore, config)
        self.bound_map = bound_map
        self.gateway = SecureGateway(self.config.gateway)
        for svc_id, handler in (
            (SVC_LOG_LOOP, self._log_loop),
            (SVC_TRACES_COND_TAKEN, self._log_cond_taken),
            (SVC_TRACES_COND_NOT_TAKEN, self._log_cond_not_taken),
            (SVC_TRACES_IND_CALL, self._log_indirect_call),
            (SVC_TRACES_RET_POP, self._log_return_pop),
            (SVC_TRACES_LDR, self._log_ldr),
            (SVC_TRACES_BX, self._log_bx),
        ):
            self.gateway.register(svc_id, handler)
        self._records: List[Record] = []
        self._pending_bytes = 0
        self._sizes = tag_sizes(self.method)

    # -- secure services ------------------------------------------------------

    def _append(self, record: Record) -> None:
        self._records.append(record)
        self._pending_bytes += self._sizes[record.tag]
        limit = self.config.watermark or self.config.mtb_buffer_size
        if self._pending_bytes >= limit:
            self._emit_partial()

    def _emit_partial(self) -> None:
        self._emit_report(CFLog(self._records), final=False)
        self._records = []
        self._pending_bytes = 0
        self.report_cycles += self.config.sign_cycles

    def _next_instr(self, cpu: CPU):
        svc_addr = cpu.regs[PC]
        branch_addr = svc_addr + self.image.instr_at[svc_addr].size
        return svc_addr, self.image.instr_at[branch_addr]

    def _log_loop(self, cpu: CPU) -> int:
        site = cpu.regs[PC]
        loop = self.bound_map.loop_at.get(site)
        if loop is None:
            raise RuntimeError(f"loop-log svc from unknown site {site:#x}")
        self._append(LoopRecord(site, cpu.regs[loop.counter_reg]))
        return self.config.loop_log_cycles

    def _log_cond_taken(self, cpu: CPU) -> int:
        svc_addr, branch = self._next_instr(cpu)
        dst = self.image.addr_of(branch.direct_target().name)
        self._append(AddressRecord(svc_addr, dst))
        return self.config.event_log_cycles

    def _log_cond_not_taken(self, cpu: CPU) -> int:
        svc_addr = cpu.regs[PC]
        cont = svc_addr + self.image.instr_at[svc_addr].size
        self._append(AddressRecord(svc_addr, cont))
        return self.config.event_log_cycles

    def _log_indirect_call(self, cpu: CPU) -> int:
        svc_addr, branch = self._next_instr(cpu)
        (target,) = branch.operands
        if isinstance(target, Label):  # logged direct (recursive) call
            dst = self.image.addr_of(target.name)
        else:
            dst = cpu.regs[target.num] & ~1
        self._append(AddressRecord(svc_addr, dst))
        return self.config.event_log_cycles

    def _log_return_pop(self, cpu: CPU) -> int:
        svc_addr, branch = self._next_instr(cpu)
        (reglist,) = branch.operands
        # PC is architecturally the highest register: top stack slot
        slot = cpu.regs[13] + 4 * (len(reglist) - 1)
        dst = self.mcu.memory.peek(slot, 4) & ~1
        self._append(AddressRecord(svc_addr, dst))
        return self.config.event_log_cycles

    def _log_ldr(self, cpu: CPU) -> int:
        svc_addr, branch = self._next_instr(cpu)
        _dest, mem = branch.operands
        assert isinstance(mem, Mem)
        address = cpu._mem_address(mem, cpu.regs[PC])
        dst = self.mcu.memory.peek(address, 4) & ~1
        self._append(AddressRecord(svc_addr, dst))
        return self.config.event_log_cycles

    def _log_bx(self, cpu: CPU) -> int:
        svc_addr, branch = self._next_instr(cpu)
        (target,) = branch.operands
        self._append(AddressRecord(svc_addr, cpu.regs[target.num] & ~1))
        return self.config.event_log_cycles

    # -- main entry ------------------------------------------------------------

    def attest(self, challenge: bytes) -> AttestationResult:
        self._begin(challenge)
        self._records = []
        self._pending_bytes = 0
        self.gateway.install(self.mcu.cpu)
        self.mcu.reset()
        try:
            run = self.mcu.run()
            self._emit_report(CFLog(self._records), final=True)
            self._records = []
        finally:
            self._end()
        return AttestationResult(
            reports=list(self.reports),
            cycles=run.cycles,
            instructions=run.instructions,
            gateway_calls=self.gateway.calls,
            gateway_cycles=self.gateway.cycles_charged,
            exit_reason=run.exit_reason,
            mtb_packets=0,
            report_cycles=self.report_cycles + self.config.sign_cycles,
        )
