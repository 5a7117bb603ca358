"""Naive MTB-based CFA: trace everything, rewrite nothing.

This is the strawman of the paper's figure 1(a): zero instrumentation
(so runtime equals the unmodified baseline) but the MTB records *every*
non-sequential transfer — direct branches, fixed loops, every loop
iteration — yielding CFLogs 1.9-217x larger than optimized methods and
frequent partial-report pauses under the 4 KB MTB limit.
"""

from __future__ import annotations

from typing import Optional

from repro.cfa.cflog import CFLog
from repro.cfa.engine import AttestationEngineBase, EngineConfig
from repro.cfa.report import AttestationResult
from repro.cfa.wire import decode_records, pack_branch_packets
from repro.machine.mcu import MCU
from repro.trace.mtb import MTB
from repro.tz.keystore import KeyStore


class NaiveMtbEngine(AttestationEngineBase):
    """CFA engine that simply master-enables the MTB for the whole run."""

    method = "naive-mtb"

    def __init__(self, mcu: MCU, keystore: KeyStore,
                 config: Optional[EngineConfig] = None):
        super().__init__(mcu, keystore, config)
        self.mtb = MTB(
            mcu.memory,
            buffer_size=self.config.mtb_buffer_size,
            activation_latency=self.config.activation_latency,
        )

    def _log(self) -> CFLog:
        """Drain the MTB into a log packed straight from its bytes."""
        if self.mtb.wrapped:
            raise RuntimeError("MTB wrapped before drain: packets lost")
        packed = pack_branch_packets(self.mtb.drain_bytes())
        return CFLog(decode_records(packed), packed=packed)

    def _on_watermark(self, _mtb: MTB) -> None:
        self._emit_report(self._log(), final=False)
        self.report_cycles += self.config.sign_cycles

    def attest(self, challenge: bytes) -> AttestationResult:
        self._begin(challenge)
        self.mtb.total_packets = 0
        self.mtb.configure(
            watermark=self.config.watermark or self.config.mtb_buffer_size,
            watermark_handler=self._on_watermark,
        )
        cpu = self.mcu.cpu
        if self.mtb.on_retire not in cpu.retire_hooks:
            cpu.retire_hooks.append(self.mtb.on_retire)
        self.mcu.reset()
        # TSTARTEN: record all non-sequential branches from this point on
        self.mtb.start()
        # consume the activation window before the application starts so
        # no packet is lost (the engine idles inside the Secure World)
        self.mtb._warmup = 0
        try:
            run = self.mcu.run()
            self._emit_report(self._log(), final=True)
        finally:
            self.mtb.stop()
            self._end()
        return AttestationResult(
            reports=list(self.reports),
            cycles=run.cycles,
            instructions=run.instructions,
            gateway_calls=0,
            gateway_cycles=0,
            exit_reason=run.exit_reason,
            mtb_packets=self.mtb.total_packets,
            report_cycles=self.report_cycles + self.config.sign_cycles,
        )
