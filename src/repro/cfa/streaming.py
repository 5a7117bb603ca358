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

from repro.cfa.report import ChainCheck, Report
from repro.cfa.verifier import VerificationResult, Verifier
from repro.cfa.wire import ReportView, read_report
from repro.cfa.wire import decode_report  # noqa: F401 (perfbench traces it)


class StreamError(Exception):
    """A protocol violation in the incoming report stream."""


class StreamingVerifier:
    """Consumes a report chain one (wire-encoded) report at a time,
    each through the chain's :class:`~repro.cfa.report.ChainCheck`
    under ``key`` (default: the verifier's), so one keyless verifier
    can serve every device's session."""

    def __init__(self, verifier: Verifier, challenge: bytes,
                 key: Optional[bytes] = None):
        self.verifier = verifier
        self.chain = ChainCheck(
            verifier.key if key is None else key, challenge,
            verifier.expected_h_mem)
        #: each accepted report's packed records, in order
        self.spans: List[bytes] = []
        self.rejected: Optional[str] = None

    @property
    def partials_accepted(self) -> int:
        return self.chain.seq

    @property
    def finished(self) -> bool:
        """True once the final report has been absorbed."""
        return self.chain.finished

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
        if self.rejected:
            raise StreamError(f"stream already rejected: {self.rejected}")
        self.rejected = self.chain.admit(report)
        if self.rejected:
            raise StreamError(self.rejected)
        self.spans.append(report.span)

    def final_spans(self) -> List[bytes]:
        """The accepted reports' packed records, once the final report
        is in."""
        if not self.chain.finished:
            raise StreamError("final report not yet received")
        return self.spans

    def finish(self) -> VerificationResult:
        """Replay the accumulated log after the final report."""
        outcome = self.verifier.replay(b"".join(self.final_spans()))
        outcome.authenticated = True  # each report was checked on feed
        return outcome
