"""The quarantine engine: a deterministic fold over session evidence.

Every lifecycle decision this engine makes is a **pure function of the
device's evidence chain**: the inputs are exactly the fields persisted
in the device's session records (accepted, reason, violations,
expired, firmware measurement, healing flag) plus the signed policy
documents, and the fold is replayed record-by-record — so the live
path and the crash-recovery path run the *same code over the same
bytes* and produce byte-identical decision records. That is what makes
the kill-and-restart differential hold by construction instead of by
luck, and what makes the whole control plane rebuildable from the
evidence store alone (:mod:`repro.cfa.policy.recovery`).

The state machine::

                      soft failure           score >= threshold
        HEALTHY ───────────────────> SUSPECT ───────────────────┐
           ^  ^                         │                       │
           │  │ accepted ("recover")    │ hard signal           │
           │  └─────────────────────────┘                       v
           │         hard signal (violation / equivocation   QUARANTINED
           │          / revoked or unpinned firmware)        │  ^     │
           │                                      begin_heal │  │     │
           │                                                 v  │     │
           │                    clean chain ("rejoin")    HEALING     │ heal
        REJOINED <────────────────────────────────────────┘ │         │ attempts
           │                                                │fail     │ exhausted
           └── (admitted again; future failures re-score)   └──> back │
                                                                      v
                                                                  REVOKED

Hard signals quarantine immediately: an *authenticated* control-flow
violation (the chain verified but walked a bad edge — the device is
compromised, not flaky), equivocation (two conflicting reports for one
sequence number — only a compromised or cloned device can sign both),
and a firmware measurement the policy registry lists as revoked (or
refuses to pin). Soft failures — MAC/framing damage, truncation,
stale-epoch attestations, replayed chains, idle expiry — score one
point each and quarantine at ``suspect_threshold`` consecutive
failures; one accepted session wipes the score ("recover"). Honest
devices never produce rejected verdicts, so an honest fleet can never
be wrongfully quarantined — zero is structural, not statistical.

Admission control: QUARANTINED, HEALING and REVOKED devices cannot
open sessions or land reports (:class:`PolicyDeniedError`); the only
session a HEALING device owns is the one the healing protocol itself
opened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cfa.epochs import DeviceProfile
from repro.cfa.policy.registry import (
    ALLOWED,
    PolicyDoc,
    PolicyRegistry,
    REVOKED_FW,
    UNPINNED,
)

# lifecycle states (the u8 codes persisted in policy records)
HEALTHY = 0
SUSPECT = 1
QUARANTINED = 2
HEALING = 3
REJOINED = 4
REVOKED = 5

STATE_NAMES = {
    HEALTHY: "HEALTHY",
    SUSPECT: "SUSPECT",
    QUARANTINED: "QUARANTINED",
    HEALING: "HEALING",
    REJOINED: "REJOINED",
    REVOKED: "REVOKED",
}

#: states a device may open sessions / land reports from
_ADMITTED = (HEALTHY, SUSPECT, REJOINED)

#: decision actions (persisted as strings so the trail reads plainly)
ACT_SUSPECT = "suspect"
ACT_QUARANTINE = "quarantine"
ACT_RECOVER = "recover"
ACT_HEAL = "heal"
ACT_REJOIN = "rejoin"
ACT_HEAL_FAIL = "heal-fail"
ACT_REVOKE = "revoke"


def state_name(code: int) -> str:
    try:
        return STATE_NAMES[code]
    except KeyError:
        raise ValueError(f"unknown policy state code {code}") from None


class PolicyDeniedError(Exception):
    """Admission refused: the device is quarantined or revoked."""


@dataclass(frozen=True)
class PolicyDecision:
    """One lifecycle transition, exactly as persisted in the evidence
    log (field-for-field the policy-record body)."""

    device_id: str
    workload: str
    method: str
    from_state: int
    to_state: int
    action: str
    reason: str
    score: int           # failure score *after* this decision
    heal_attempt: int    # healing attempts consumed so far
    policy_epoch: int    # policy-document epoch the decision ran under
    measurement: bytes   # the firmware measurement that was judged

    @property
    def profile(self) -> DeviceProfile:
        return DeviceProfile(self.workload, self.method)


@dataclass
class DevicePolicyState:
    """The engine's per-device fold state."""

    profile: DeviceProfile
    state: int = HEALTHY
    score: int = 0
    heal_attempts: int = 0
    last_reason: str = ""
    #: last firmware measurement seen on an accepted session (what
    #: healing re-provisions when no policy document pins an image)
    good_measurement: bytes = b""
    decisions: int = 0


#: observation fields the fold consumes — both live appends
#: (EvidenceRecord) and recovery replays satisfy this shape
_HARD_EQUIVOCATION = "conflicting duplicate"


class PolicyEngine:
    """Scores devices over their evidence chains and owns their states."""

    def __init__(self, registry: Optional[PolicyRegistry] = None,
                 suspect_threshold: int = 2,
                 max_heal_attempts: int = 2):
        if suspect_threshold < 1:
            raise ValueError("suspect_threshold must be >= 1")
        if max_heal_attempts < 1:
            raise ValueError("max_heal_attempts must be >= 1")
        self.registry = registry
        self.suspect_threshold = suspect_threshold
        self.max_heal_attempts = max_heal_attempts
        self._lock = threading.Lock()
        self.states: Dict[str, DevicePolicyState] = {}
        #: device id -> (state, reason, policy epoch) not yet pushed as
        #: a PLCY notice. Deliberately *not* restored from evidence:
        #: notices are idempotent and re-sending after a crash is safe.
        self._unnotified: Dict[str, Tuple[int, str, int]] = {}
        self.decisions_made = 0

    # -- introspection --------------------------------------------------------

    def state_of(self, device_id: str) -> int:
        with self._lock:
            entry = self.states.get(device_id)
            return entry.state if entry else HEALTHY

    def state_names(self) -> Dict[str, str]:
        with self._lock:
            return {device: STATE_NAMES[entry.state]
                    for device, entry in self.states.items()}

    def devices_in(self, state: int) -> List[str]:
        with self._lock:
            return sorted(device for device, entry in self.states.items()
                          if entry.state == state)

    def admits(self, device_id: str) -> bool:
        return self.state_of(device_id) in _ADMITTED

    def deny_reason(self, device_id: str) -> str:
        return (f"device {device_id!r} is "
                f"{STATE_NAMES[self.state_of(device_id)]}")

    def take_notices(self) -> List[Tuple[str, int, str, int]]:
        """Drain pending ``(device, state, reason, policy_epoch)``
        lifecycle notices for the PLCY push path."""
        with self._lock:
            out = [(device, state, reason, epoch)
                   for device, (state, reason, epoch)
                   in sorted(self._unnotified.items())]
            self._unnotified.clear()
            return out

    # -- the fold -------------------------------------------------------------

    def _entry(self, device_id: str,
               profile: DeviceProfile) -> DevicePolicyState:
        entry = self.states.get(device_id)
        if entry is None:
            entry = DevicePolicyState(profile=profile)
            self.states[device_id] = entry
        return entry

    def _document(self, profile: DeviceProfile) -> Optional[PolicyDoc]:
        """The latest policy document for ``profile`` (``None`` with no
        registry): one registry read, from which a decision takes both
        its ``policy_epoch`` and its firmware judgement, so a publish
        racing the fold can never stamp one epoch on another's
        judgement."""
        if self.registry is None:
            return None
        return self.registry.latest(profile)

    @staticmethod
    def _judge_measurement(doc: Optional[PolicyDoc],
                           measurement: bytes) -> str:
        """The firmware verdict under ``doc`` ("" = nothing to object
        to)."""
        outcome = ALLOWED if doc is None else doc.judge(measurement)
        if outcome == REVOKED_FW:
            return (f"firmware measurement {measurement.hex()[:16]} is "
                    f"revoked by policy")
        if outcome == UNPINNED:
            return (f"firmware measurement {measurement.hex()[:16]} is "
                    f"not pinned by policy")
        return ""

    def _hard_reason(self, obs, doc: Optional[PolicyDoc]) -> str:
        """A hard signal quarantines immediately, whatever the score."""
        if obs.accepted:
            # the chain verified — but the image itself may be banned
            return self._judge_measurement(doc, obs.measurement)
        if getattr(obs, "violations", ()):
            kind = obs.violations[0][0]
            return (f"authenticated control-flow violation "
                    f"({kind}; {len(obs.violations)} total)")
        if _HARD_EQUIVOCATION in obs.reason:
            return f"equivocation: {obs.reason}"
        return self._judge_measurement(doc, obs.measurement)

    def preview(self, obs) -> List[PolicyDecision]:
        """The decisions one session observation triggers — **pure**.

        ``obs`` is anything shaped like a v3 session evidence record:
        ``device_id``, ``profile``/``workload``/``method``,
        ``accepted``, ``reason``, ``violations``, ``measurement``,
        ``healing``. Recovery replays persisted records through this
        same function, so re-derived decisions are byte-identical to
        the ones a crash lost.
        """
        with self._lock:
            return self._preview_locked(obs, obs.profile)

    def _preview_locked(self, obs,
                        profile: DeviceProfile) -> List[PolicyDecision]:
        device_id = obs.device_id
        entry = self.states.get(device_id) or DevicePolicyState(
            profile=profile)
        doc = self._document(profile)
        epoch = _epoch_of(doc)
        measurement = getattr(obs, "measurement", b"")

        def decision(to_state: int, action: str, reason: str,
                     score: int, heal_attempt: int,
                     from_state: int) -> PolicyDecision:
            return PolicyDecision(
                device_id=device_id, workload=profile.workload,
                method=profile.method, from_state=from_state,
                to_state=to_state, action=action, reason=reason,
                score=score, heal_attempt=heal_attempt,
                policy_epoch=epoch, measurement=measurement)

        if getattr(obs, "healing", False):
            # the healing round: a clean chain on acceptable firmware
            # rejoins; anything else burns the attempt
            if entry.state != HEALING:
                return []  # stale healing report after a manual reset
            fw = (self._judge_measurement(doc, measurement)
                  if obs.accepted else "")
            if obs.accepted and not fw:
                return [decision(
                    REJOINED, ACT_REJOIN,
                    "healing chain verified clean", 0,
                    entry.heal_attempts, HEALING)]
            why = fw or (obs.reason or "healing chain rejected")
            out = [decision(QUARANTINED, ACT_HEAL_FAIL,
                            f"healing attempt {entry.heal_attempts} "
                            f"failed: {why}",
                            entry.score, entry.heal_attempts, HEALING)]
            if entry.heal_attempts >= self.max_heal_attempts:
                out.append(decision(
                    REVOKED, ACT_REVOKE,
                    f"healing exhausted after "
                    f"{entry.heal_attempts} attempt(s)",
                    entry.score, entry.heal_attempts, QUARANTINED))
            return out

        if entry.state not in _ADMITTED:
            return []  # no session should exist; ignore, don't re-judge

        hard = self._hard_reason(obs, doc)
        if hard:
            return [decision(QUARANTINED, ACT_QUARANTINE, hard,
                             entry.score, entry.heal_attempts,
                             entry.state)]
        if obs.accepted:
            if entry.state == SUSPECT:
                return [decision(HEALTHY, ACT_RECOVER,
                                 "accepted session cleared the score",
                                 0, entry.heal_attempts, SUSPECT)]
            return []
        # soft failure: rejection or expiry with no hard signal
        score = entry.score + 1
        if score >= self.suspect_threshold:
            return [decision(
                QUARANTINED, ACT_QUARANTINE,
                f"{score} consecutive failed session(s), last: "
                f"{obs.reason or 'expired'}",
                score, entry.heal_attempts, entry.state)]
        return [decision(
            SUSPECT, ACT_SUSPECT,
            obs.reason or "session expired", score,
            entry.heal_attempts, entry.state)]

    def apply(self, decision) -> None:
        """Advance the fold by one decision (live or replayed).

        ``decision`` is a :class:`PolicyDecision` or a persisted
        policy record — anything carrying the decision fields.
        """
        with self._lock:
            self._apply_locked(decision)

    def _apply_locked(self, decision) -> None:
        entry = self.states.get(decision.device_id)
        if entry is None:
            entry = self._entry(decision.device_id, DeviceProfile(
                decision.workload, decision.method))
        entry.state = decision.to_state
        entry.score = decision.score
        entry.last_reason = decision.reason
        entry.decisions += 1
        if decision.action == ACT_HEAL:
            entry.heal_attempts = decision.heal_attempt
        elif decision.action == ACT_REJOIN:
            entry.heal_attempts = 0
        self.decisions_made += 1
        self._unnotified[decision.device_id] = (
            decision.to_state, decision.reason, decision.policy_epoch)

    def _step_locked(self, obs) -> List[PolicyDecision]:
        """One session observation's step of the fold, shared by the
        live path and recovery: the decisions it triggers (returned,
        not applied) and the known-good firmware it teaches. An
        accepted session's measurement is remembered if the device is
        still admitted once those decisions apply."""
        profile = obs.profile
        decisions = self._preview_locked(obs, profile)
        if obs.accepted and not getattr(obs, "healing", False):
            entry = self._entry(obs.device_id, profile)
            measurement = getattr(obs, "measurement", b"")
            state = decisions[-1].to_state if decisions else entry.state
            if measurement and state in _ADMITTED:
                entry.good_measurement = measurement
        return decisions

    def observe(self, obs) -> List[PolicyDecision]:
        """Preview + apply: the live-path entry point. The caller must
        persist each returned decision *before* releasing the verdict
        (the service does this under its own lock)."""
        with self._lock:
            decisions = self._step_locked(obs)
            for decision in decisions:
                self._apply_locked(decision)
            return decisions

    # -- healing hooks --------------------------------------------------------

    def begin_heal(self, device_id: str) -> Optional[PolicyDecision]:
        """The QUARANTINED -> HEALING transition (exogenous: driven by
        the healing coordinator, not by a session record). Returns the
        decision to persist+apply, or ``None`` if the device is not
        eligible (not quarantined, or out of attempts — the revoke
        escalation happens on the failed healing session itself)."""
        with self._lock:
            entry = self.states.get(device_id)
            if entry is None or entry.state != QUARANTINED:
                return None
            if entry.heal_attempts >= self.max_heal_attempts:
                return None
            attempt = entry.heal_attempts + 1
            doc = self._document(entry.profile)
            return PolicyDecision(
                device_id=device_id, workload=entry.profile.workload,
                method=entry.profile.method, from_state=QUARANTINED,
                to_state=HEALING, action=ACT_HEAL,
                reason=f"healing attempt {attempt} of "
                       f"{self.max_heal_attempts}: re-provision pinned "
                       f"firmware and re-challenge",
                score=entry.score, heal_attempt=attempt,
                policy_epoch=_epoch_of(doc),
                measurement=_heal_image(entry, doc))

    def heal_measurement(self, device_id: str) -> bytes:
        """The image a healing order re-provisions: the policy-pinned
        measurement when a document exists, else the device's last
        known-good measurement (factory image otherwise)."""
        entry = self.states.get(device_id)
        if entry is None:
            return b""
        return _heal_image(entry, self._document(entry.profile))

    def heal_order(self, device_id: str) -> Optional[
            Tuple[int, int, bytes, DeviceProfile]]:
        """The standing heal order for a HEALING device —
        ``(attempt, policy_epoch, measurement, profile)`` — so a
        restarted coordinator can re-issue the same HEAL frame without
        minting a new decision. ``None`` unless the device is HEALING."""
        with self._lock:
            entry = self.states.get(device_id)
            if entry is None or entry.state != HEALING:
                return None
            doc = self._document(entry.profile)
            return (entry.heal_attempts, _epoch_of(doc),
                    _heal_image(entry, doc), entry.profile)

    def healing_devices(self) -> List[str]:
        return self.devices_in(HEALING)

    def quarantined_devices(self) -> List[str]:
        return self.devices_in(QUARANTINED)

    # -- crash recovery -------------------------------------------------------

    def restore(self, records, store=None) -> Tuple[int, int]:
        """Rebuild the fold from one evidence log's records, repairing
        the crash window.

        ``records`` is the mixed (session + policy) record list of one
        store, in file order. Session records re-run the fold; the
        policy records that follow each one must match what the fold
        re-derives (anything else is tamper). A crash between a session
        append and its decision appends loses only the *globally last*
        decisions of the file — those are re-derived and, when
        ``store`` is given, re-appended **byte-identically** (same
        fields, same chain position).

        Returns ``(decisions_replayed, decisions_repaired)``.
        """
        expected: Dict[str, List[PolicyDecision]] = {}
        replayed = repaired = 0
        with self._lock:
            for record in records:
                if getattr(record, "is_policy", False):
                    queue = expected.get(record.device_id)
                    if queue:
                        want = queue.pop(0)
                        # defense-in-depth: the hash chain already
                        # authenticates the record; additionally check
                        # it against the re-run fold. Only comparable
                        # when the record was decided under the policy
                        # epoch the registry holds *now* — a mid-run
                        # publish changes later judgments, so older
                        # records are trusted on the chain alone.
                        if (want.policy_epoch == record.policy_epoch
                                and not _decision_matches(want, record)):
                            raise ValueError(
                                f"policy record for "
                                f"{record.device_id!r} (seq "
                                f"{record.seq}) does not match the "
                                f"fold: logged {record.action!r} "
                                f"{STATE_NAMES[record.to_state]}, "
                                f"derived {want.action!r} "
                                f"{STATE_NAMES[want.to_state]}")
                    elif record.action != ACT_HEAL:
                        raise ValueError(
                            f"unexpected policy record "
                            f"{record.action!r} for "
                            f"{record.device_id!r} (seq {record.seq}): "
                            f"no session record predicts it")
                    self._apply_locked(record)
                    replayed += 1
                else:
                    # a session record's decisions always directly
                    # follow it in the device's chain: anything still
                    # pending here means the log skipped them
                    pending = expected.setdefault(record.device_id, [])
                    if pending:
                        raise ValueError(
                            f"device {record.device_id!r}: session "
                            f"record at seq {record.seq} arrived before "
                            f"{len(pending)} expected policy record(s)")
                    # each decision is applied when its persisted
                    # policy record arrives (or repaired at
                    # end-of-stream if the crash lost it)
                    expected[record.device_id] = self._step_locked(record)
            # the crash window: decisions derived but never persisted —
            # re-derive, re-append (same chain position: nothing for
            # the device was appended after them), and apply
            for device_id in sorted(expected):
                for decision in expected[device_id]:
                    if store is not None:
                        store.append_decision(decision)
                    self._apply_locked(decision)
                    repaired += 1
            # restart resends any still-relevant lifecycle notice
            self._unnotified = {
                device: (entry.state, entry.last_reason,
                         _epoch_of(self._document(entry.profile)))
                for device, entry in sorted(self.states.items())
                if entry.state not in (HEALTHY,) and entry.decisions}
        return replayed, repaired


def _epoch_of(doc: Optional[PolicyDoc]) -> int:
    return 0 if doc is None else doc.epoch


def _heal_image(entry: DevicePolicyState, doc: Optional[PolicyDoc]) -> bytes:
    """The pinned image of ``doc``, else the device's last known-good
    measurement."""
    if doc is not None and not doc.is_permissive:
        return doc.pinned
    return entry.good_measurement


def _decision_matches(decision: PolicyDecision, record) -> bool:
    return (decision.device_id == record.device_id
            and decision.workload == record.workload
            and decision.method == record.method
            and decision.from_state == record.from_state
            and decision.to_state == record.to_state
            and decision.action == record.action
            and decision.reason == record.reason
            and decision.score == record.score
            and decision.heal_attempt == record.heal_attempt
            and decision.policy_epoch == record.policy_epoch
            and decision.measurement == record.measurement)
