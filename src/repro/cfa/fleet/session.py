"""Per-device session bookkeeping for the fleet Vrf.

The :class:`SessionManager` is the protocol brain of the service and
deliberately knows nothing about threads: every method is a pure state
transition driven by an explicit logical clock, which is what makes
session semantics unit-testable. It owns:

* **challenge issuance** — one fresh nonce per session attempt,
  derived from ``(seed, device id, round, attempt)``, with a
  seen-nonce set guarding reuse;
* **replay protection** — a report is only accepted if its challenge
  matches the session's *outstanding* nonce and its device id matches
  the session's device: chains replayed from an earlier challenge (or
  another device) die at ingest, before any MAC work is spent;
* **sequence tracking** — in-order reports extend the accepted chain;
  out-of-order reports are buffered inside a bounded *reorder window*
  and drained when the gap fills; duplicates of already-seen reports
  are dropped iff byte-identical (a conflicting duplicate is
  equivocation and rejects the session); anything past the final
  report rejects;
* **idle expiry and retry** — a session with no activity for
  ``idle_timeout`` logical seconds is re-challenged (fresh nonce,
  chain discarded) up to ``max_attempts`` times, then expired;
* **a bounded buffer** — no MAC is checked before the chain
  completes, so a session holding more than
  :data:`MAX_SESSION_REPORTS` reports or :data:`MAX_SESSION_BYTES`
  wire bytes (accepted and reorder-buffered alike) is rejected rather
  than buffered further.

Structural checks here are *pre-filters*: the authoritative verdict
always comes from replaying the accepted chain through
:func:`~repro.cfa.fleet.verify.verify_session_chain`, which re-checks
MACs, challenge, and sequencing from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfa.protocol import Challenge
from repro.cfa.fleet.dictver import DictEpoch, spec_challenge
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.speccfa import SubPathDict, expand, span_claim
from repro.cfa.wire import ReportView, WireError, decode_records, read_report
from repro.cfa.wire import decode_report  # noqa: F401 (perfbench traces it)

# session lifecycle states
PENDING = "pending"        # challenged, no report accepted yet
STREAMING = "streaming"    # mid-chain
QUEUED = "queued"          # chain complete, awaiting verification
VERIFIED = "verified"      # verdict in, accepted
REJECTED = "rejected"      # verdict in (or protocol violation), refused
EXPIRED = "expired"        # idled out after the last attempt

#: states in which a session still occupies Vrf resources
ACTIVE_STATES = (PENDING, STREAMING, QUEUED)

#: most reports one session may hold before its chain completes. The
#: largest honest chain over the 15 workloads x 3 methods, at the
#: smallest watermark any test uses (16 B), is geiger under naive-mtb:
#: 7527 reports, so this leaves 4.35x headroom.
MAX_SESSION_REPORTS = 32768
#: most wire bytes one session may hold before its chain completes;
#: the same largest honest chain is 1,129,032 B (4.64x headroom)
MAX_SESSION_BYTES = 5 << 20


class FleetOverloadError(Exception):
    """The service refused a new session: at its max_sessions limit."""


@dataclass
class Session:
    """One device's attestation session (possibly across retries)."""

    device_id: str
    profile: DeviceProfile
    key: bytes
    challenge: Challenge
    opened_at: float
    last_activity: float
    state: str = PENDING
    attempt: int = 1
    #: how many sessions this device opened before this one (feeds
    #: the nonce derivation)
    round_index: int = 0
    #: the dictionary epoch this session is pinned to (None: epoch 0).
    #: Pinned at ``open`` (from the device's last acknowledged epoch)
    #: and never changed afterwards: a dictionary push landing
    #: mid-session takes effect at the device's *next* session, so Prv
    #: and Vrf always compress/expand under the same version.
    dict_epoch: Optional[DictEpoch] = None
    chunks: List[bytes] = field(default_factory=list)  # accepted, in order
    #: the views of ``chunks`` (records still packed) — ingest already
    #: read them, so in-process verification need not read them again
    reports: List[ReportView] = field(default_factory=list)
    #: reorder-window holding area: seq -> (bytes, report view)
    buffered: Dict[int, Tuple[bytes, ReportView]] = field(
        default_factory=dict)
    #: wire bytes held in ``chunks`` and ``buffered`` together
    held_bytes: int = 0
    next_seq: int = 0
    final_seq: Optional[int] = None
    duplicates: int = 0
    reject_reason: str = ""
    verdict: Optional[SessionVerdict] = None
    #: opened by the healing protocol (bypasses admission control; its
    #: evidence record carries the healing flag so the policy fold can
    #: judge the rejoin)
    healing: bool = False
    #: ``(admission_claim(),)`` once the chain is complete
    _claim: Optional[tuple] = field(default=None, init=False, repr=False)
    #: ``(challenge, dict_epoch, bound challenge)`` last derived
    _bound: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    @property
    def epoch(self) -> int:
        return self.dict_epoch.epoch if self.dict_epoch else 0

    @property
    def dict_digest(self) -> bytes:
        return self.dict_epoch.digest if self.dict_epoch else b""

    @property
    def dictionary(self) -> Optional[SubPathDict]:
        """The pinned epoch's parsed dictionary, shared read-only."""
        return self.dict_epoch.dictionary if self.dict_epoch else None

    @property
    def bound_challenge(self) -> bytes:
        """What the reports' challenge field must equal: the bare nonce
        under epoch 0, the epoch-bound nonce otherwise (so the report
        MACs pin the session to exactly one dictionary version).
        Derived once per challenge: a retry issues a new one."""
        bound = self._bound
        if (bound is None or bound[0] is not self.challenge
                or bound[1] is not self.dict_epoch):
            bound = self._bound = (
                self.challenge, self.dict_epoch,
                spec_challenge(self.challenge.nonce, self.epoch,
                               self.dict_digest))
        return bound[2]

    def admission_claim(self) -> Optional[Tuple[int, int]]:
        """(records, log bytes) the chain claims once dictionary-expanded,
        counted without expanding: a token's repeat count costs nothing
        before the report MACs are checked. ``None`` when the chain
        references unknown dictionary entries, as for
        :meth:`admission_records`. Counted once for a complete chain
        (the bounds screen and the traffic sampler both ask)."""
        if self._claim is not None:
            return self._claim[0]
        claim = self._count_claim()
        if self.state not in (PENDING, STREAMING):  # the chain is final
            self._claim = (claim,)
        return claim

    def _count_claim(self) -> Optional[Tuple[int, int]]:
        # each report's packed records are counted by the pinned epoch's
        # expander, which memoizes the spans that carry tokens
        claim_of: Callable[[bytes], Optional[Tuple[int, int]]] = span_claim
        if self.dict_epoch is not None and self.dictionary:
            claim_of = self.dict_epoch.expander.claim
        count = size = 0
        for report in self.reports:
            claim = claim_of(report.span)
            if claim is None:
                return None
            count += claim[0]
            size += claim[1]
        return count, size

    def admission_records(self) -> Optional[list]:
        """The chain's claimed records, dictionary-expanded — what the
        `BNDS1` admission screen inspects before replay is paid for.
        ``None`` when expansion fails (the chain references unknown
        dictionary entries; replay will reject it authoritatively)."""
        records = self.records()
        if self.dictionary:
            try:
                records = expand(records, self.dictionary)
            except ValueError:
                return None
        return records

    def records(self) -> list:
        """The chain's records as received (tokens unexpanded), decoded
        from the reports' packed spans."""
        records = []
        for report in self.reports:
            records.extend(decode_records(report.span))
        return records


class SessionManager:
    """Protocol state for every device session at the fleet Vrf."""

    def __init__(self, seed: bytes = b"fleet-vrf",
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 epoch_bindings: Optional[Callable[
                     [DeviceProfile], Sequence[Tuple[int, bytes]]]] = None):
        #: optional ``profile -> [(epoch, digest)]`` lookup used only to
        #: *diagnose* a challenge mismatch as a stale-epoch attestation
        #: (the rejection itself never depends on it)
        self.epoch_bindings = epoch_bindings
        self.seed = seed
        self.idle_timeout = idle_timeout
        self.reorder_window = reorder_window
        self.max_attempts = max_attempts
        self.max_sessions = max_sessions
        self.sessions: Dict[str, Session] = {}
        self._seen_nonces = set()
        #: device id -> sessions opened so far
        self._device_rounds: Dict[str, int] = {}
        # aggregate ingest accounting (the service folds these into metrics)
        self.duplicates_dropped = 0
        self.reports_ignored = 0

    # -- challenge issuance -------------------------------------------------

    def _fresh_challenge(self, device_id: str, round_index: int,
                         attempt: int) -> Challenge:
        """One fresh nonce, derived from ``(seed, device id, round,
        attempt)``.

        A device's challenge is thus independent of how sessions
        interleave, how the fleet is sharded, and whether the Vrf
        restarted: after :meth:`restore_rounds` a settled device's next
        round derives a nonce no earlier session was issued — the
        property the sharding and crash-recovery differentials pin.
        The seen-nonce set guards reuse within one manager.
        """
        scoped = hashlib.sha256(b"|".join([
            b"device-nonce", self.seed, device_id.encode(),
            round_index.to_bytes(8, "little")])).digest()
        challenge = Challenge.derive(scoped, attempt)
        if challenge.nonce in self._seen_nonces:
            raise RuntimeError("nonce reuse")
        self._seen_nonces.add(challenge.nonce)
        return challenge

    def restore_rounds(self, rounds: Dict[str, int]) -> None:
        """Resume nonce derivation after a restart.

        ``rounds`` maps device id -> completed sessions (one evidence
        record each). A settled device's next session derives a nonce
        no pre-crash chain can answer, while a device that was mid-
        session re-derives its exact pre-crash challenge, so the
        device's retransmitted chain verifies unchanged.
        """
        self._device_rounds.update(rounds)

    @property
    def active_count(self) -> int:
        return sum(1 for s in self.sessions.values() if s.active)

    def open(self, device_id: str, profile: DeviceProfile, key: bytes,
             now: float = 0.0,
             dict_epoch: Optional[DictEpoch] = None) -> Session:
        """Admit a device and issue its challenge.

        ``dict_epoch`` pins the session to one dictionary version (the
        device's last acknowledged epoch); omitted means epoch 0
        (plain, uncompressed logs).
        """
        existing = self.sessions.get(device_id)
        if existing is not None and existing.active:
            raise ValueError(f"device {device_id!r} already has an "
                             f"active session")
        if (self.max_sessions is not None
                and self.active_count >= self.max_sessions):
            raise FleetOverloadError(
                f"at the {self.max_sessions}-session limit; "
                f"refusing {device_id!r}")
        round_index = self._device_rounds.get(device_id, 0)
        self._device_rounds[device_id] = round_index + 1
        session = Session(
            device_id=device_id, profile=profile, key=key,
            challenge=self._fresh_challenge(device_id, round_index, 1),
            opened_at=now, last_activity=now, round_index=round_index,
        )
        if dict_epoch is not None and not dict_epoch.is_empty:
            session.dict_epoch = dict_epoch
        self.sessions[device_id] = session
        return session

    # -- report ingest ------------------------------------------------------

    def _reject(self, session: Session, reason: str) -> Session:
        session.state = REJECTED
        session.reject_reason = reason
        return session

    def _diagnose_challenge(self, session: Session, report) -> str:
        """Name a challenge mismatch precisely.

        A chain compressed under any epoch other than the session's
        pinned one fails the bound-challenge equality above — that is
        the security property (no expansion under a mismatched
        dictionary is ever attempted). For the reject *reason*, probe
        the known epoch bindings so a stale-epoch attestation is
        reported as such instead of as a generic replay.
        """
        nonce = session.challenge.nonce
        bindings = [(0, b"")]
        if self.epoch_bindings is not None:
            bindings += list(self.epoch_bindings(session.profile))
        for epoch, digest in bindings:
            if epoch == session.epoch:
                continue
            if report.challenge == spec_challenge(nonce, epoch, digest):
                return (f"report #{report.seq} compressed under "
                        f"dictionary epoch {epoch}, but the session is "
                        f"pinned to epoch {session.epoch} (stale-epoch "
                        f"attestation)")
        return (f"report #{report.seq} does not answer the "
                f"outstanding challenge (replayed chain?)")

    def ingest(self, device_id: str, data: bytes,
               now: float) -> Optional[Session]:
        """Absorb one wire-encoded report from a device.

        Returns the session so the caller can act on its new state
        (``QUEUED`` means the chain is complete and ready to verify;
        ``REJECTED`` means a protocol violation was just detected), or
        ``None`` when the report has no live session to land in (late,
        unknown device) and was counted + dropped.
        """
        session = self.sessions.get(device_id)
        if session is None or session.state not in (PENDING, STREAMING):
            self.reports_ignored += 1
            return None
        session.last_activity = now
        try:
            report, consumed = read_report(data)
            if consumed != len(data):
                raise WireError("trailing bytes after report")
        except WireError as exc:
            return self._reject(session, f"malformed report: {exc}")
        if report.device_id != device_id.encode():
            return self._reject(
                session, "report device id does not match the session")
        if report.challenge != session.bound_challenge:
            return self._reject(
                session, self._diagnose_challenge(session, report))
        seq = report.seq
        if seq < session.next_seq:  # duplicate of an accepted report
            if session.chunks[seq] == data:
                session.duplicates += 1
                self.duplicates_dropped += 1
                return session
            return self._reject(
                session, f"conflicting duplicate of report #{seq}")
        if seq in session.buffered:  # duplicate of a buffered report
            if session.buffered[seq][0] == data:
                session.duplicates += 1
                self.duplicates_dropped += 1
                return session
            return self._reject(
                session, f"conflicting duplicate of report #{seq}")
        if session.final_seq is not None and seq > session.final_seq:
            return self._reject(
                session,
                f"report #{seq} past the final report #{session.final_seq}")
        if len(session.chunks) + len(session.buffered) >= MAX_SESSION_REPORTS:
            return self._reject(
                session, f"session exceeds {MAX_SESSION_REPORTS} reports")
        if session.held_bytes + len(data) > MAX_SESSION_BYTES:
            return self._reject(
                session, f"session exceeds {MAX_SESSION_BYTES} bytes")
        if report.final:
            if any(b > seq for b in session.buffered):
                return self._reject(
                    session, f"buffered report past the final #{seq}")
            session.final_seq = seq
        session.held_bytes += len(data)
        if seq == session.next_seq:
            session.chunks.append(data)
            session.reports.append(report)
            session.next_seq += 1
            while session.next_seq in session.buffered:  # drain the window
                chunk, buffered = session.buffered.pop(session.next_seq)
                session.chunks.append(chunk)
                session.reports.append(buffered)
                session.next_seq += 1
        else:
            if seq - session.next_seq > self.reorder_window:
                return self._reject(
                    session,
                    f"report #{seq} outside the reorder window "
                    f"(expecting #{session.next_seq}, window "
                    f"{self.reorder_window})")
            session.buffered[seq] = (data, report)
        session.state = STREAMING
        if (session.final_seq is not None
                and session.next_seq > session.final_seq):
            session.state = QUEUED
        return session

    # -- timeouts / retry ---------------------------------------------------

    def tick(self, now: float) -> Tuple[List[Session], List[Session]]:
        """Advance the logical clock; returns (re-challenged, expired).

        A stalled chain (no activity for ``idle_timeout``) is
        re-challenged with a fresh nonce while attempts remain — the
        partial chain is discarded, because reports are bound to their
        challenge — and expired after the last attempt. Sessions that
        are already queued for verification are not expired: their
        chain is complete and the verdict is in flight.
        """
        rechallenged: List[Session] = []
        expired: List[Session] = []
        for session in self.sessions.values():
            if session.state not in (PENDING, STREAMING):
                continue
            if now - session.last_activity < self.idle_timeout:
                continue
            if session.attempt < self.max_attempts:
                session.attempt += 1
                session.challenge = self._fresh_challenge(
                    session.device_id, session.round_index, session.attempt)
                session.chunks = []
                session.reports = []
                session.buffered = {}
                session.held_bytes = 0
                session.next_seq = 0
                session.final_seq = None
                session.state = PENDING
                session.last_activity = now
                rechallenged.append(session)
            else:
                session.state = EXPIRED
                session.reject_reason = (
                    f"idle timeout after {session.attempt} attempt(s)")
                expired.append(session)
        return rechallenged, expired
