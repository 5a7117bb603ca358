"""The Secure-World CFA Engine.

Implements the execution phase of RAP-Track (paper section IV-A):

1. disable Non-Secure interrupts and MPU-lock the attested binary;
2. measure the code (``H_MEM``);
3. program the DWT ranges and the MTB (watermark, activation latency);
4. release the application in the Non-Secure World;
5. on the MTB_FLOW watermark exception, emit a signed *partial* report
   and reset the trace buffer (section IV-E);
6. when the application finishes, sign the final report over
   ``(Chal, H_MEM, CFLog)``.

A common base class carries the report machinery so the naive-MTB and
TRACES baseline engines (``repro.baselines``) reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.asm.program import MTBAR, TEXT, Image
from repro.cfa.cflog import CFLog, LoopRecord
from repro.cfa.report import AttestationResult, Report
from repro.cfa.services import SVC_LOG_LOOP
from repro.cfa.wire import (
    RECORD_BYTES,
    decode_records,
    pack_branch_packets,
)
from repro.core.rewrite_map import BoundRewriteMap
from repro.crypto.hashing import hash_bytes
from repro.machine.cpu import CPU
from repro.machine.mcu import MCU
from repro.trace.dwt import DWT
from repro.trace.mtb import MTB
from repro.tz.gateway import GatewayCosts, SecureGateway
from repro.tz.keystore import KeyStore
from repro.isa.registers import PC


@dataclass
class EngineConfig:
    """Secure-World configuration knobs (calibration points)."""

    mtb_buffer_size: int = 4096  # the M33 MTB limit the paper cites
    watermark: Optional[int] = None  # None = full buffer
    activation_latency: int = 1  # retirements before MTB records
    gateway: GatewayCosts = field(default_factory=GatewayCosts)
    loop_log_cycles: int = 24  # secure loop-condition append routine
    event_log_cycles: int = 22  # secure branch-record append (TRACES)
    hash_cycles_per_byte: int = 4  # H_MEM measurement cost (one-off)
    sign_cycles: int = 6400  # HMAC of one report (one-off)


class AttestationEngineBase:
    """Shared report/lifecycle machinery for all CFA methods."""

    method = "base"

    def __init__(self, mcu: MCU, keystore: KeyStore,
                 config: Optional[EngineConfig] = None):
        self.mcu = mcu
        self.image: Image = mcu.image
        self.keystore = keystore
        self.config = config or EngineConfig()
        self.reports: List[Report] = []
        self._challenge: bytes = b""
        self._h_mem: bytes = b""
        self._seq = 0
        self.ns_interrupts_enabled = True
        self.setup_cycles = 0
        self.report_cycles = 0  # signing/transmission pauses (separate
        # from figure-8 CPU cycles, per the paper's section V-B framing)

    # -- lifecycle ---------------------------------------------------------

    def _begin(self, challenge: bytes) -> None:
        self._challenge = challenge
        self.reports = []
        self._seq = 0
        self.report_cycles = 0
        self.ns_interrupts_enabled = False  # paper section III
        self.mcu.nvic.ns_enabled = False
        for region in ("ns_text", "mtbar"):
            self.mcu.memmap.lock_region_writes(region)
        code = self.image.code_bytes()
        self._h_mem = hash_bytes(code)
        self.setup_cycles = len(code) * self.config.hash_cycles_per_byte

    def _end(self) -> None:
        for region in ("ns_text", "mtbar"):
            self.mcu.memmap.unlock_region_writes(region)
        self.ns_interrupts_enabled = True
        self.mcu.nvic.ns_enabled = True

    def _emit_report(self, cflog: CFLog, final: bool) -> Report:
        report = Report(
            device_id=self.keystore.device_id,
            method=self.method,
            challenge=self._challenge,
            h_mem=self._h_mem,
            seq=self._seq,
            final=final,
            cflog=cflog,
        ).sign(self.keystore.attestation_key)
        self._seq += 1
        self.reports.append(report)
        return report

    def attest(self, challenge: bytes) -> AttestationResult:
        raise NotImplementedError


class RapTrackEngine(AttestationEngineBase):
    """RAP-Track: MTB/DWT parallel tracking over the rewritten binary."""

    method = "rap-track"

    def __init__(self, mcu: MCU, keystore: KeyStore, bound_map: BoundRewriteMap,
                 config: Optional[EngineConfig] = None):
        super().__init__(mcu, keystore, config)
        self.bound_map = bound_map
        self.mtb = MTB(
            mcu.memory,
            buffer_size=self.config.mtb_buffer_size,
            activation_latency=self.config.activation_latency,
        )
        self.dwt = DWT(self.mtb)
        self.gateway = SecureGateway(self.config.gateway)
        self.gateway.register(SVC_LOG_LOOP, self._log_loop_condition)
        # engine-side log of loop records, tagged with the MTB packet
        # count at log time so the streams merge in execution order
        self._loop_records: List[Tuple[int, LoopRecord]] = []
        self._drained_packets = 0

    # -- secure services ------------------------------------------------------

    def _log_loop_condition(self, cpu: CPU) -> int:
        site = cpu.regs[PC]
        loop = self.bound_map.loop_at.get(site)
        if loop is None:
            raise RuntimeError(f"loop-log svc from unknown site {site:#x}")
        value = cpu.regs[loop.counter_reg]
        self._loop_records.append(
            (self.mtb.total_packets, LoopRecord(site, value))
        )
        return self.config.loop_log_cycles

    # -- trace plumbing ---------------------------------------------------------

    def _configure_tracing(self) -> None:
        text_lo, text_hi = self.image.section_ranges[TEXT]
        mtbar_lo, mtbar_hi = self.image.section_ranges.get(
            MTBAR, (0, 0)
        )
        self.dwt.clear()
        if mtbar_hi > mtbar_lo:
            self.dwt.configure_range("start", mtbar_lo, mtbar_hi)
        self.dwt.configure_range("stop", text_lo, text_hi)
        self.mtb.configure(
            watermark=self.config.watermark or self.config.mtb_buffer_size,
            watermark_handler=self._on_watermark,
        )
        self.mtb.stop()
        cpu = self.mcu.cpu
        if self.dwt.evaluate not in cpu.pre_hooks:
            cpu.pre_hooks.append(self.dwt.evaluate)
        if self.mtb.on_retire not in cpu.retire_hooks:
            cpu.retire_hooks.append(self.mtb.on_retire)
        self.gateway.install(cpu)

    def _merged_log(self) -> CFLog:
        """Drain the MTB and interleave loop records in program order.

        The log is packed straight from the trace SRAM bytes, each loop
        record spliced in before the first packet recorded after it was
        logged; the records are that packing, decoded.
        """
        if self.mtb.wrapped:
            raise RuntimeError("MTB wrapped before drain: packets lost")
        branches = pack_branch_packets(self.mtb.drain_bytes())
        first = self._drained_packets
        parts: List[bytes] = []
        done = 0  # byte offset into ``branches`` already spliced
        for at, loop in self._loop_records:
            cut = (at - first) * RECORD_BYTES
            parts.append(branches[done:cut])
            parts.append(loop.pack())
            done = cut
        parts.append(branches[done:])
        packed = b"".join(parts)
        self._loop_records = []
        self._drained_packets += len(branches) // RECORD_BYTES
        return CFLog(decode_records(packed), packed=packed)

    def _on_watermark(self, _mtb: MTB) -> None:
        """MTB_FLOW debug exception: emit a partial report and resume."""
        self._emit_report(self._merged_log(), final=False)
        self.report_cycles += self.config.sign_cycles

    # -- main entry ------------------------------------------------------------

    def attest(self, challenge: bytes) -> AttestationResult:
        """Run the attested application once and produce the report chain."""
        self._begin(challenge)
        self._drained_packets = 0
        self._loop_records = []
        self.mtb.total_packets = 0
        self._configure_tracing()
        self.mcu.reset()
        try:
            run = self.mcu.run()
            self._emit_report(self._merged_log(), final=True)
        finally:
            self._end()
        return AttestationResult(
            reports=list(self.reports),
            cycles=run.cycles,
            instructions=run.instructions,
            gateway_calls=self.gateway.calls,
            gateway_cycles=self.gateway.cycles_charged,
            exit_reason=run.exit_reason,
            mtb_packets=self.mtb.total_packets,
            report_cycles=self.report_cycles + self.config.sign_cycles,
        )
