"""Streaming verification of partial-report chains.

Section IV-E's partial reports exist because Prv cannot hold the whole
CFLog; the operational counterpart on the Vrf side is *incremental*
consumption: authenticate each partial as it arrives (rejecting bad
chains early, bounding Vrf memory to the running log) and replay once
the final report lands. :class:`StreamingVerifier` implements that over
the wire codec: it authenticates each report from its wire fields and
keeps the records packed; the replay reads their join as it arrived.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.cfa.report import Report
from repro.cfa.verifier import VerificationResult, Verifier
from repro.cfa.wire import ReportView, read_report
from repro.cfa.wire import decode_report  # noqa: F401 (perfbench traces it)


class StreamError(Exception):
    """A protocol violation in the incoming report stream."""


class StreamingVerifier:
    """Consumes a report chain one (wire-encoded) report at a time."""

    def __init__(self, verifier: Verifier, challenge: bytes):
        self.verifier = verifier
        self.challenge = challenge
        #: what every report's MAC must verify under: the verifier's
        #: key unless the caller rebinds it, which lets one keyless
        #: verifier serve every device's session
        self.key = verifier.key
        #: each accepted report's packed records, in order
        self.spans: List[bytes] = []
        self._next_seq = 0
        self._finished = False
        self.rejected: Optional[str] = None

    @property
    def partials_accepted(self) -> int:
        return self._next_seq

    @property
    def finished(self) -> bool:
        """True once the final report has been absorbed."""
        return self._finished

    def feed_bytes(self, data: bytes) -> ReportView:
        """Feed one wire-encoded report; returns its view."""
        view, consumed = read_report(data)
        if consumed != len(data):
            raise StreamError("trailing bytes after report")
        self.feed(view)
        return view

    def feed(self, report: Union[Report, ReportView]) -> None:
        """Authenticate and absorb one report, in order: a decoded
        :class:`Report` or a :class:`ReportView` read off the wire."""
        if self._finished:
            raise StreamError("stream already finished")
        if self.rejected:
            raise StreamError(f"stream already rejected: {self.rejected}")
        if not report.verify(self.key):
            self.rejected = f"bad MAC on report #{report.seq}"
        elif report.challenge != self.challenge:
            self.rejected = f"challenge mismatch on report #{report.seq}"
        elif report.h_mem != self.verifier.expected_h_mem:
            self.rejected = f"H_MEM mismatch on report #{report.seq}"
        elif report.seq != self._next_seq:
            self.rejected = (f"out-of-order report #{report.seq}, "
                             f"expected #{self._next_seq}")
        if self.rejected:
            raise StreamError(self.rejected)
        self.spans.append(report.span)
        self._next_seq += 1
        if report.final:
            self._finished = True

    def finish(self) -> VerificationResult:
        """Replay the accumulated log after the final report."""
        if not self._finished:
            raise StreamError("final report not yet received")
        outcome = self.verifier.replay(b"".join(self.spans))
        outcome.authenticated = True  # each report was checked on feed
        return outcome
