"""Attestation reports: structure, authentication, and run results."""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cfa.cflog import CFLog, span_claim
from repro.crypto.mac import report_head, report_mac


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

    @property
    def head(self) -> bytes:
        """The MAC input's first four fields (:func:`report_head`)."""
        return report_head(self.device_id, self.method, self.challenge,
                           self.h_mem)

    @property
    def span(self) -> bytes:
        """The packed records, as the MAC covers them."""
        return self.cflog.pack()

    def sign(self, key: bytes) -> "Report":
        self.mac = report_mac(key, self.head, self.seq, self.final,
                              self.span)
        return self

    def verify(self, key: bytes) -> bool:
        return hmac.compare_digest(self.mac, report_mac(
            key, self.head, self.seq, self.final, self.span))


class ChainCheck:
    """A report chain's authentication, one report (a :class:`Report`
    or a :class:`~repro.cfa.wire.ReportView`) at a time: report ``n``
    must verify under ``key``, answer ``challenge``, carry ``h_mem``
    and have ``seq == n``, and the chain ends at its first final
    report (:attr:`finished`)."""

    def __init__(self, key: bytes, challenge: bytes, h_mem: bytes):
        self.key = key
        self.challenge = challenge
        self.h_mem = h_mem
        #: reports admitted so far (the next one's expected ``seq``)
        self.seq = 0
        self.finished = False

    def admit(self, report) -> Optional[str]:
        """Absorb the chain's next report: ``None``, or why it is
        refused (the reason the Vrf records)."""
        if self.finished:
            return "stream already finished"
        if not report.verify(self.key):
            return f"bad MAC on report #{report.seq}"
        if report.challenge != self.challenge:
            return f"challenge mismatch on report #{report.seq}"
        if report.h_mem != self.h_mem:
            return f"H_MEM mismatch on report #{report.seq}"
        if report.seq != self.seq:
            return (f"out-of-order report #{report.seq}, "
                    f"expected #{self.seq}")
        self.seq += 1
        self.finished = report.final
        return None

    def admit_all(self, reports) -> bool:
        """Whether ``reports`` are, in order, one whole chain."""
        return all(self.admit(r) is None for r in reports) and self.finished


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
    def span(self) -> bytes:
        """Every report's packed records, joined in order: the log the
        verifier replays."""
        return b"".join(report.span for report in self.reports)

    @property
    def cflog(self) -> CFLog:
        """The full log: all partial reports concatenated in order."""
        return CFLog([r for report in self.reports
                      for r in report.cflog.records], packed=self.span)

    @property
    def cflog_bytes(self) -> int:
        """Log bytes the chain cost, each record sized by the method
        that logged it."""
        return sum(span_claim(r.span, r.method)[1] for r in self.reports)

    @property
    def partial_report_count(self) -> int:
        return max(0, len(self.reports) - 1)
