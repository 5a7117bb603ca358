"""Attestation reports: structure, authentication, and run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cfa.cflog import CFLog
from repro.crypto.mac import mac_report, verify_mac


@dataclass
class Report:
    """One (possibly partial) attestation report.

    A full attestation is a chain of ``seq``-numbered reports sharing
    one challenge; only the last has ``final=True`` (paper section
    IV-E: partial reports under the MTB_FLOW watermark).
    """

    device_id: bytes
    method: str
    challenge: bytes
    h_mem: bytes
    seq: int
    final: bool
    cflog: CFLog
    mac: bytes = b""

    def _fields(self):
        return (
            self.device_id,
            self.method.encode(),
            self.challenge,
            self.h_mem,
            self.seq.to_bytes(4, "little"),
            b"\x01" if self.final else b"\x00",
            self.cflog.pack(),
        )

    @property
    def span(self) -> bytes:
        """The packed records, as the MAC covers them."""
        return self.cflog.pack()

    def sign(self, key: bytes) -> "Report":
        self.mac = mac_report(key, *self._fields())
        return self

    def verify(self, key: bytes) -> bool:
        return verify_mac(key, self.mac, *self._fields())


@dataclass
class AttestationResult:
    """Everything one attested execution produced, plus run metrics."""

    reports: List[Report] = field(default_factory=list)
    cycles: int = 0
    instructions: int = 0
    gateway_calls: int = 0
    gateway_cycles: int = 0
    exit_reason: str = ""
    mtb_packets: int = 0  # total packets the MTB captured (lifetime)
    report_cycles: int = 0  # report signing/transmission pause cycles

    @property
    def final_report(self) -> Report:
        return self.reports[-1]

    @property
    def challenge(self) -> bytes:
        return self.final_report.challenge

    @property
    def cflog(self) -> CFLog:
        """The full log: all partial reports concatenated in order, with
        the join of their packed logs (what the verifier replays)."""
        return CFLog([r for report in self.reports
                      for r in report.cflog.records],
                     packed=b"".join(report.cflog.pack()
                                     for report in self.reports))

    @property
    def cflog_bytes(self) -> int:
        return sum(r.cflog.size_bytes for r in self.reports)

    @property
    def partial_report_count(self) -> int:
        return max(0, len(self.reports) - 1)

    def verify_chain(self, key: bytes) -> bool:
        """Check MACs, sequencing, and challenge consistency."""
        if not self.reports:
            return False
        challenge = self.reports[0].challenge
        for seq, report in enumerate(self.reports):
            if report.seq != seq or report.challenge != challenge:
                return False
            if report.final != (seq == len(self.reports) - 1):
                return False
            if not report.verify(key):
                return False
        return True
