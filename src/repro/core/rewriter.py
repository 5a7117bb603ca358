"""The RAP-Track binary rewriter: MTBDR/MTBAR splitting + trampolines.

Takes a classified module and produces a new module whose ``text``
section is the MTBDR (original code with non-deterministic transfers
replaced by trampolines) and whose ``mtbar`` section holds the recording
stubs, together with the :class:`RewriteMap` the Verifier replays with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asm.program import Module
from repro.core.classify import BranchClass, Classification, ClassifiedSite
from repro.core.rewrite_map import (
    CondSite,
    FixedLoopInfo,
    IndirectSite,
    LoopOptSite,
    RewriteMap,
)
from repro.core.trampolines import LabelMint, emit_stub
from repro.cfa.services import SVC_LOG_LOOP
from repro.isa.instructions import Instr, InstrKind, make_instr
from repro.isa.operands import Imm, Label, Reg, RegList
from repro.isa.registers import LR, PC


@dataclass
class RewriterConfig:
    """Ablation switches for the offline phase."""

    nop_padding: bool = True  # pad stubs for MTB activation latency
    share_pop_stub: bool = True  # single MTBAR_POP_ADDR stub (figure 4)


def rewrite_for_rap_track(module: Module, classification: Classification,
                          config: Optional[RewriterConfig] = None
                          ) -> Tuple[Module, RewriteMap]:
    """Apply the RAP-Track transformation to ``module``."""
    config = config or RewriterConfig()
    flat = classification.flat
    out = Module(module.entry)
    out.equates = dict(module.equates)
    text = out.section("text")
    mtbar = out.section("mtbar")
    # copy non-text sections verbatim
    for name, section in module.sections.items():
        if name in ("text", "mtbar"):
            continue
        dest = out.section(name)
        for item in section.items:
            dest.add(item.payload, item.labels)

    mint = LabelMint("rt")
    rmap = RewriteMap(
        method="rap-track",
        address_taken=set(classification.address_taken),
        function_entries=set(classification.function_entry_labels),
    )

    # loop-opt condition logging: svc inserted immediately before the
    # loop header instruction (executed on entry, skipped by the latch)
    svc_before: Dict[int, List[ClassifiedSite]] = {}
    extra_labels: Dict[int, List[str]] = {}
    latch_labels: Dict[int, str] = {}
    pending: List[str] = []  # labels bound to the next emitted text item

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

    shared_pop: Optional[str] = None  # rec label of the shared POP stub

    def shared_pop_stub() -> str:
        nonlocal shared_pop
        if shared_pop is None:
            stub_label = "__rt_pop_stub"
            rec_label = "__rt_pop_rec"
            emit_stub(mtbar, stub_label, rec_label,
                      make_instr("pop", RegList((PC,))), config.nop_padding)
            shared_pop = rec_label
        return shared_pop

    # -- planning + emission in one pass ------------------------------------
    for idx, instr in enumerate(flat.instrs):
        labels: Tuple[str, ...] = tuple(flat.labels_at[idx]) + tuple(
            extra_labels.get(idx, ())
        )
        for loop_site in svc_before.get(idx, ()):  # insert loop-opt svc
            svc_label = mint.fresh("loop")
            latch_label = label_for_index(loop_site.index, "latch")
            shape = loop_site.shape
            rmap.loop_sites.append(LoopOptSite(
                site_label=svc_label,
                latch_label=latch_label,
                counter_reg=shape.counter_reg,
                step=shape.step,
                bound=shape.bound,
                cond=shape.cond,
            ))
            emit(make_instr("svc", Imm(SVC_LOG_LOOP)), (svc_label,))

        site = classification.sites.get(idx)
        cls = site.cls if site is not None else None

        if cls is BranchClass.INDIRECT_CALL:
            stub_label = mint.fresh("icall")
            rec_label = mint.fresh("icall_rec")
            site_label = mint.fresh("site")
            # figure 3: LR was already set by the direct call into the
            # MTBAR, so the stub completes the transfer with a plain BX
            (target_reg,) = instr.operands
            emit_stub(mtbar, stub_label, rec_label,
                      make_instr("bx", target_reg), config.nop_padding)
            emit(make_instr("bl", Label(stub_label)), labels + (site_label,))
            rmap.indirect_sites.append(
                IndirectSite("call", site_label, rec_label))
        elif cls is BranchClass.LOGGED_CALL:
            # a direct call that closes a silent (recursion) cycle: the
            # stub re-issues the jump so the MTB records each descent;
            # LR was already set by the bl into the MTBAR. A
            # devirtualized call demoted here jumps to its proven target.
            if site.devirt_target is not None:
                target = Label(site.devirt_target)
            else:
                target = instr.direct_target()
            stub_label = mint.fresh("rcall")
            rec_label = mint.fresh("rcall_rec")
            site_label = mint.fresh("site")
            emit_stub(mtbar, stub_label, rec_label,
                      make_instr("b", target), config.nop_padding)
            emit(make_instr("bl", Label(stub_label)), labels + (site_label,))
            rmap.indirect_sites.append(
                IndirectSite("call", site_label, rec_label))
        elif cls is BranchClass.RETURN_POP:
            (reglist,) = instr.operands
            remaining = reglist.without(PC)
            site_label = mint.fresh("site")
            if len(remaining):
                emit(make_instr("pop", remaining), labels)
                labels = ()
            if config.share_pop_stub:
                rec_label = shared_pop_stub()
                stub_target = "__rt_pop_stub"
            else:
                stub_target = mint.fresh("ret")
                rec_label = mint.fresh("ret_rec")
                emit_stub(mtbar, stub_target, rec_label,
                          make_instr("pop", RegList((PC,))), config.nop_padding)
            emit(make_instr("b", Label(stub_target)),
                 labels + (site_label,))
            rmap.indirect_sites.append(
                IndirectSite("return_pop", site_label, rec_label))
        elif cls in (BranchClass.INDIRECT_LDR, BranchClass.INDIRECT_BX):
            tag = "ildr" if cls is BranchClass.INDIRECT_LDR else "ibx"
            stub_label = mint.fresh(tag)
            rec_label = mint.fresh(f"{tag}_rec")
            site_label = mint.fresh("site")
            emit_stub(mtbar, stub_label, rec_label, instr, config.nop_padding)
            emit(make_instr("b", Label(stub_label)),
                 labels + (site_label,))
            if cls is BranchClass.INDIRECT_LDR:
                kind = "ldr"
            elif (isinstance(instr.operands[0], Reg)
                  and instr.operands[0].num == LR):
                # a non-leaf bx lr is a *return*: the Verifier must check
                # it against the shadow stack, not the jump-target policy
                kind = "return_bx"
            else:
                kind = "bx"
            rmap.indirect_sites.append(IndirectSite(kind, site_label, rec_label))
        elif cls in (BranchClass.DEVIRT_CALL, BranchClass.DEVIRT_JUMP):
            # value-set analysis proved a single target: replace the
            # indirect transfer with its direct equivalent — no
            # trampoline, no CFLog record, deterministic for the Verifier
            mnemonic = "bl" if cls is BranchClass.DEVIRT_CALL else "b"
            emit(make_instr(mnemonic, Label(site.devirt_target)), labels)
        elif cls in (BranchClass.COND_NONLOOP, BranchClass.COND_BACKWARD_LATCH,
                     BranchClass.UNCOND_LATCH):
            taken = instr.direct_target()
            stub_label = mint.fresh("cond")
            rec_label = mint.fresh("cond_rec")
            site_label = mint.fresh("site")
            emit_stub(mtbar, stub_label, rec_label,
                      make_instr("b", taken), config.nop_padding)
            redirected = _redirect_cond(instr, stub_label)
            emit(redirected, labels + (site_label,))
            flavor = ("always" if cls is BranchClass.UNCOND_LATCH
                      else "taken")
            rmap.cond_sites.append(CondSite(
                site_label=site_label, rec_label=rec_label,
                taken_label=taken.name, flavor=flavor,
            ))
        elif cls is BranchClass.COND_FORWARD_EXIT:
            taken = instr.direct_target()
            site_label = mint.fresh("site")
            emit(instr, labels + (site_label,))
            stub_label = mint.fresh("fwd")
            rec_label = mint.fresh("fwd_rec")
            cont_label = mint.fresh("cont")
            emit_stub(mtbar, stub_label, rec_label,
                      make_instr("b", Label(cont_label)), config.nop_padding)
            emit(make_instr("b", Label(stub_label)), ())
            pending.append(cont_label)
            rmap.cond_sites.append(CondSite(
                site_label=site_label, rec_label=rec_label,
                taken_label=taken.name, cont_label=cont_label,
            ))
        else:
            # deterministic / leaf return / fixed latch / loop-opt latch /
            # plain instruction: copied verbatim
            emit(instr, labels)

    # labels bound one-past-the-end of the text section
    trailing = [
        (lbl, i) for lbl, i in flat.label_index.items()
        if i == len(flat.instrs)
    ]
    if trailing:
        from repro.asm.program import Space

        text.add(Space(0), tuple(lbl for lbl, _ in trailing))
    return out, rmap


def _redirect_cond(instr: Instr, stub_label: str) -> Instr:
    """Point a conditional branch at its MTBAR stub."""
    if instr.kind is InstrKind.COMPARE_BRANCH:
        reg, _target = instr.operands
        return make_instr(instr.mnemonic, reg, Label(stub_label))
    return make_instr("b", Label(stub_label), cond=instr.cond)
