"""One fleet shard: many device sessions, one Vrf.

:class:`FleetService` multiplexes thousands of concurrent device
sessions over the wire codec; it is the per-shard worker behind
:class:`~repro.cfa.fleet.shard.ShardedFleetService`, the public
service. The split of responsibilities:

* the :class:`~repro.cfa.fleet.session.SessionManager` does the cheap,
  strictly-ordered protocol bookkeeping (challenges, replay
  protection, sequence tracking, expiry) under the service lock;
* the expensive part — MAC-checking and losslessly replaying a
  completed chain — runs inline on the thread whose ``submit``
  completed the chain, outside the lock, through
  :func:`~repro.cfa.fleet.verify.verify_session_chain`. Caller threads
  may submit concurrently; each verifies its own chains and shares the
  shard's replay cache.

``verify_session_chain`` never raises: wire damage and protocol
violations come back as a rejected verdict, so no catch-all wraps it.
Admission control: with ``max_sessions`` set, ``open_session`` refuses
new devices (``FleetOverloadError``) once that many sessions are
active.

All timing used for protocol decisions is an explicit logical clock
(``now``) supplied by the caller, so tests and the simulator are
deterministic; only the performance metrics touch the wall clock.

A shard's surface is what one RSHD frame kind can carry for one device
(``open_session``, ``submit``, ``dictionary_pushes``, ``ingest_dack``,
``acked_epoch``, ``begin_heal``, ``resume_heal``,
``policy_notice_frame``) plus ``tick``, ``restore``, ``drain``,
``close``, ``verdicts`` and ``metrics``. Fleet-wide operations — the
merged traffic sample, dictionary publishes, healing and notice
rounds — live on the router only. :attr:`FleetService.metrics` is a
snapshot built on each read: a counter that the session manager, the
replay cache, the evidence store or the sampler keeps is read from it
there, never mirrored.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cfa.fleet.dictver import DictionaryRegistry, verify_dack
from repro.cfa.fleet.metrics import LATENCY_WINDOW, FleetMetrics
from repro.cfa.fleet.mining import TrafficSampler
from repro.cfa.fleet.store import EvidenceStore, chain_digest
from repro.cfa.fleet.session import (
    EXPIRED,
    QUEUED,
    REJECTED,
    VERIFIED,
    Session,
    SessionManager,
)
from repro.cfa.fleet.verify import (
    DeviceProfile,
    ReplayCache,
    SessionVerdict,
    verify_session_chain,
)
from repro.cfa.policy.engine import (
    ACT_HEAL,
    ACT_HEAL_FAIL,
    ACT_QUARANTINE,
    ACT_RECOVER,
    ACT_REJOIN,
    ACT_REVOKE,
    ACT_SUSPECT,
    PolicyDeniedError,
    PolicyEngine,
)
from repro.cfa.policy.heal import build_heal_frame, build_policy_frame

#: decision action -> FleetMetrics counter name
_DECISION_COUNTERS = {
    ACT_SUSPECT: "suspects",
    ACT_QUARANTINE: "quarantines",
    ACT_RECOVER: "recoveries",
    ACT_HEAL: "heals_started",
    ACT_HEAL_FAIL: "heals_failed",
    ACT_REJOIN: "rejoins",
    ACT_REVOKE: "revocations",
}
from repro.cfa.protocol import Challenge
from repro.cfa.speccfa import expand  # noqa: F401 (perfbench traces it)
from repro.cfa.wire import WireError, decode_dack_frame, encode_dict_frame
from repro.cfa.wire import decode_records
from repro.core.analysis.certificate import (
    BoundsRegistry,
    screen_claim,
    screen_records,
)


class FleetService:
    """Session-multiplexing verification front end for a device fleet."""

    def __init__(self, seed: bytes = b"fleet-vrf",
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 replay_cache: Union[bool, ReplayCache] = True,
                 store: Optional[EvidenceStore] = None,
                 registry: Optional[DictionaryRegistry] = None,
                 sampler: Union[bool, TrafficSampler, None] = None,
                 policy: Optional[PolicyEngine] = None,
                 key_lookup: Optional[Callable[[str], bytes]] = None,
                 bounds: Optional[BoundsRegistry] = None):
        #: policy control plane: when set, every settled session feeds
        #: the quarantine engine's fold, its decisions are persisted in
        #: the evidence chain, and admission control applies (shared
        #: with sibling shards when the router injects one engine —
        #: devices are disjoint across shards, so per-store folds
        #: compose)
        self.policy = policy
        #: device id -> attestation key, for policy/heal pushes to
        #: devices with no session on file (e.g. right after a restart)
        self._key_lookup = key_lookup
        #: `BNDS1` certificates for the fleet's firmware images: when
        #: set, a completed chain whose claimed log length or inferred
        #: stack depth exceeds the image's pinned static bound is
        #: rejected at admission — before any replay work is spent —
        #: with an evidence record like any other verdict
        self.bounds = bounds
        #: speculation-dictionary versions this Vrf knows (shared with
        #: sibling shards when the router injects one registry)
        self.registry = registry or DictionaryRegistry()
        #: live-traffic tap feeding the sub-path miner; None = no
        #: sampling (the default: sampling costs one digest per
        #: accepted session)
        if sampler is True:
            sampler = TrafficSampler()
        self.sampler: Optional[TrafficSampler] = sampler or None
        #: device id -> last ACKed dictionary epoch for its profile
        self._acks: Dict[Tuple[str, DeviceProfile], int] = {}
        self.manager = SessionManager(
            seed=seed, idle_timeout=idle_timeout,
            reorder_window=reorder_window, max_attempts=max_attempts,
            max_sessions=max_sessions,
            epoch_bindings=self.registry.bindings)
        # replay_cache may be a ready-made cache instance or a bool
        self._cache: Optional[ReplayCache] = (
            replay_cache if isinstance(replay_cache, ReplayCache)
            else ReplayCache() if replay_cache else None)
        #: durable evidence log; when set, every verdict is fsync'd
        #: into the hash chain *before* it is released
        self.store = store
        #: the counters this service owns; :attr:`metrics` adds the
        #: ones its session manager, cache, store and sampler own
        self._metrics = FleetMetrics()
        self.verdicts: Dict[str, SessionVerdict] = {}
        self._lock = threading.Lock()
        self._started = time.perf_counter()

    # -- session lifecycle --------------------------------------------------

    def open_session(self, device_id: str, profile: DeviceProfile,
                     key: bytes, now: float = 0.0) -> Challenge:
        """Admit a device, issue its challenge (raises FleetOverloadError
        at the ``max_sessions`` admission limit).

        The session is pinned, for its whole lifetime, to the
        dictionary epoch the device last acknowledged (epoch 0 until a
        first ACK arrives): a push landing mid-session changes nothing
        until the device's next session.

        With a policy engine attached, QUARANTINED / HEALING / REVOKED
        devices are refused (:class:`PolicyDeniedError`) — the only
        session such a device may own is the one :meth:`begin_heal`
        opens for it.
        """
        with self._lock:
            if self.policy is not None and not self.policy.admits(device_id):
                self._metrics.sessions_denied += 1
                raise PolicyDeniedError(self.policy.deny_reason(device_id))
            epoch = self._acks.get((device_id, profile), 0)
            dict_epoch = self.registry.get(profile, epoch)
            try:
                session = self.manager.open(device_id, profile, key, now,
                                            dict_epoch=dict_epoch)
            except Exception:
                self._metrics.sessions_refused += 1
                raise
            self._metrics.sessions_opened += 1
            return session.challenge

    def submit(self, device_id: str, data: bytes, now: float = 0.0) -> None:
        """Ingest one wire-encoded report from a device.

        Cheap protocol checks run under the service lock; a report
        that completes its session's chain is then verified on this
        thread, outside the lock (see the module docstring).
        """
        with self._lock:
            if self.policy is not None:
                # blocked devices land nothing — except into the healing
                # session the protocol itself opened for them; a device
                # with a live session was admitted, so only a report
                # without one asks the engine
                session = self.manager.sessions.get(device_id)
                if (session is None or not session.active) \
                        and not self.policy.admits(device_id):
                    self._metrics.reports_denied += 1
                    return
            self._metrics.reports_ingested += 1
            self._metrics.bytes_ingested += len(data)
            session = self.manager.ingest(device_id, data, now)
            if session is None:
                return
            if session.state == REJECTED and session.verdict is None:
                self._record_locked(session, SessionVerdict(
                    device_id=session.device_id, profile=session.profile,
                    accepted=False, reason=session.reject_reason,
                    reports=len(session.chunks)))
                return
            if session.state == QUEUED and self.bounds is not None:
                reason = self._screen_bounds_locked(session)
                if reason is not None:
                    self._metrics.sessions_bounds_rejected += 1
                    self._record_locked(session, SessionVerdict(
                        device_id=session.device_id,
                        profile=session.profile, accepted=False,
                        reason=reason, reports=len(session.chunks)))
                    return
        if session.state == QUEUED:
            self._verify(session)

    def tick(self, now: float) -> List[Tuple[str, Challenge]]:
        """Advance the logical clock: expire idle sessions, re-challenge
        stalled ones. Returns ``(device_id, fresh_challenge)`` pairs the
        transport should deliver to the stalled devices."""
        with self._lock:
            rechallenged, expired = self.manager.tick(now)
            self._metrics.sessions_retried += len(rechallenged)
            for session in expired:
                self._record_locked(session, SessionVerdict(
                    device_id=session.device_id, profile=session.profile,
                    accepted=False, reason=session.reject_reason,
                    reports=len(session.chunks)))
            return [(s.device_id, s.challenge) for s in rechallenged]

    # -- crash recovery -----------------------------------------------------

    def restore(self, records) -> int:
        """Rebuild released state from recovered evidence records.

        Each *session* record is one settled session: its verdict
        re-enters the verdict map (latest round wins) and the device's
        round counter advances, so device-scoped nonce derivation
        resumes exactly where the crashed process stopped — settled
        devices get fresh challenges, interrupted ones re-derive their
        pre-crash nonce. With a policy engine attached, the mixed
        (session + policy) stream then re-runs the policy fold — every
        device's lifecycle state comes back, and decisions a crash lost
        (derived but never appended) are re-appended byte-identically.
        Returns the number of verdicts restored. The replay cache is
        not rebuilt: it starts cold after a restart and warms from new
        traffic. Evidence never records cache hits, so a cold cache
        changes no verdict and no evidence byte.
        """
        records = list(records)
        session_records = [r for r in records
                           if not getattr(r, "is_policy", False)]
        rounds = Counter(r.device_id for r in session_records)
        # only each device's last session survives in the verdict map;
        # first-seen order is the order the verdicts were first set
        latest = {r.device_id: r for r in session_records}
        with self._lock:
            for device_id, record in latest.items():
                self.verdicts[device_id] = record.to_verdict()
            self.manager.restore_rounds(rounds)
            self._metrics.sessions_recovered += len(session_records)
        if self.policy is not None:
            replayed, repaired = self.policy.restore(records,
                                                     store=self.store)
            with self._lock:
                self._metrics.policy_decisions += replayed + repaired
        return len(session_records)

    # -- adaptive speculation: epoch handshake -------------------------------

    def dictionary_pushes(
            self, profile: Optional[DeviceProfile] = None
    ) -> List[Tuple[str, bytes]]:
        """``(device_id, DICT frame)`` for every known device lagging
        the latest published epoch of its profile.

        "Known" means the device has opened a session with this Vrf at
        some point; the transport delivers the frames and feeds signed
        ``DACK`` replies back through :meth:`ingest_dack`. A device
        that never ACKs simply keeps receiving the offer — and keeps
        attesting under its pinned (possibly 0) epoch.
        """
        pushes: List[Tuple[str, bytes]] = []
        with self._lock:
            devices = [(d, s.profile)
                       for d, s in self.manager.sessions.items()]
        for device_id, dev_profile in sorted(devices):
            if profile is not None and dev_profile != profile:
                continue
            latest = self.registry.latest(dev_profile)
            if latest.is_empty:
                continue
            acked = self._acks.get((device_id, dev_profile), 0)
            if acked >= latest.epoch:
                continue
            frame = encode_dict_frame(
                dev_profile.workload, dev_profile.method,
                latest.epoch, latest.digest, latest.payload)
            pushes.append((device_id, frame))
        with self._lock:
            self._metrics.dict_pushes += len(pushes)
        return pushes

    def ingest_dack(self, device_id: str, data: bytes,
                    now: float = 0.0) -> bool:
        """Absorb one wire-encoded ``DACK`` frame from a device.

        The acknowledged epoch must name a published dictionary of the
        device's own profile and the MAC must verify under the device's
        attestation key; anything else is counted and dropped (a
        network adversary cannot re-pin a device). A valid ACK moves
        the device's pin — its *next* session opens under the new
        epoch; the current one stays on the epoch it was opened with.
        """
        with self._lock:
            try:
                acked_id, epoch, digest, mac = decode_dack_frame(data)
            except WireError:
                self._metrics.dict_acks_rejected += 1
                return False
            if acked_id != device_id:
                self._metrics.dict_acks_rejected += 1
                return False
            session = self.manager.sessions.get(device_id)
            if session is None:  # never opened a session: no key on file
                self._metrics.dict_acks_rejected += 1
                return False
            entry = verify_dack(self.registry, session.profile,
                                session.key, device_id, epoch, digest,
                                mac)
            if entry is None:
                self._metrics.dict_acks_rejected += 1
                return False
            pin = (device_id, session.profile)
            # monotone: a replayed older ACK can never roll a device back
            if entry.epoch <= self._acks.get(pin, 0):
                return True
            self._acks[pin] = entry.epoch
            self._metrics.dict_acks += 1
            return True

    def acked_epoch(self, device_id: str, profile: DeviceProfile) -> int:
        """The dictionary epoch this device last acknowledged."""
        with self._lock:
            return self._acks.get((device_id, profile), 0)

    # -- policy control plane: quarantine + guaranteed healing --------------

    def _count_decision_locked(self, decision) -> None:
        self._metrics.policy_decisions += 1
        counter = _DECISION_COUNTERS.get(decision.action)
        if counter is not None:
            setattr(self._metrics, counter,
                    getattr(self._metrics, counter) + 1)

    def _device_key_locked(self, device_id: str) -> Optional[bytes]:
        session = self.manager.sessions.get(device_id)
        if session is not None:
            return session.key
        if self._key_lookup is not None:
            return self._key_lookup(device_id)
        return None

    def begin_heal(self, device_id: str,
                   now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Issue a heal order for one quarantined device.

        Persists + applies the QUARANTINED -> HEALING decision, opens
        the device's healing session (admission control does not apply:
        the protocol itself owns this session) and returns the
        ``(device_id, HEAL frame)`` the transport must deliver. The
        frame orders the device to re-provision the policy-pinned
        firmware and answer a fresh challenge; the session's evidence
        record carries the healing flag, so the fold judges the rejoin.
        ``None`` when the device is not eligible (not quarantined, out
        of attempts, or no attestation key on file).
        """
        if self.policy is None:
            return None
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            decision = self.policy.begin_heal(device_id)
            if decision is None:
                return None
            if self.store is not None:
                self.store.append_decision(decision)
            self.policy.apply(decision)
            self._count_decision_locked(decision)
            epoch = self._acks.get((device_id, decision.profile), 0)
            dict_epoch = self.registry.get(decision.profile, epoch)
            session = self.manager.open(device_id, decision.profile, key,
                                        now, dict_epoch=dict_epoch)
            session.healing = True
            self._metrics.sessions_opened += 1
            frame = build_heal_frame(
                key, device_id, decision.heal_attempt,
                decision.policy_epoch, decision.measurement,
                session.challenge.nonce)
        return (device_id, frame)

    def resume_heal(self, device_id: str,
                    now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Re-issue one standing heal order after a restart (idempotent).

        A device the evidence log shows as HEALING already burned its
        attempt; no new decision is minted. Its healing session is
        re-opened — device-scoped nonces make the re-derived challenge
        identical to the pre-crash one, so a device that already
        answered can simply retransmit — and the HEAL frame is rebuilt
        from the engine's standing order. A device whose healing
        session is still live is re-framed without reopening.
        """
        if self.policy is None:
            return None
        order = self.policy.heal_order(device_id)
        if order is None:
            return None
        attempt, policy_epoch, measurement, profile = order
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            session = self.manager.sessions.get(device_id)
            if session is None or not session.active:
                epoch = self._acks.get((device_id, profile), 0)
                dict_epoch = self.registry.get(profile, epoch)
                session = self.manager.open(device_id, profile, key,
                                            now, dict_epoch=dict_epoch)
                session.healing = True
                self._metrics.sessions_opened += 1
            frame = build_heal_frame(
                key, device_id, attempt, policy_epoch, measurement,
                session.challenge.nonce)
        return (device_id, frame)

    def policy_notice_frame(self, device_id: str, state: int,
                            reason: str, epoch: int) -> Optional[bytes]:
        """Build one PLCY lifecycle notice (MAC'd under the device key
        so a device can reject forged quarantine notices); ``None``
        when no key is on file."""
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            self._metrics.policy_notices += 1
            return build_policy_frame(key, device_id, state, reason, epoch)

    def _sample_locked(self, session: Session,
                       verdict: SessionVerdict) -> None:
        """Feed one accepted session to the sampler, which decodes its
        expanded log only when it keeps a new exemplar."""
        claim = session.admission_claim()
        assert claim is not None  # accepted: every token expanded
        self.sampler.observe(session.profile,
                             lambda: decode_records(session.expanded()),
                             digest=bytes.fromhex(verdict.records_digest),
                             size_bytes=claim[1])

    # -- admission pre-check: certified path bounds ------------------------

    def _screen_bounds_locked(self, session: Session) -> Optional[str]:
        """Screen a completed chain against its image's `BNDS1` bound.

        Purely a fast-path rejection: the certificate is pinned to one
        image digest, so the screen only applies when the chain claims
        exactly that measurement (a wrong measurement is replay's /
        the policy registry's business), and only ever *rejects* —
        passing the screen proves nothing, replay stays authoritative.
        """
        cert = self.bounds.get(session.profile.workload,
                               session.profile.method)
        if cert is None:
            return None
        if not session.reports \
                or session.reports[0].h_mem != cert.image_digest:
            return None
        claim = session.admission_claim()
        if claim is None:
            return None
        # counts first: a forged repeat count is never expanded
        reason = screen_claim(cert, *claim)
        if reason is None and cert.depth_exact:
            try:
                reason = screen_records(cert, session.expanded())
            except ValueError:  # a token without its sub-path
                pass  # replay rejects the chain
        return reason

    # -- verification -------------------------------------------------------

    def _verify(self, session: Session) -> None:
        t0 = time.perf_counter()
        verdict = verify_session_chain(
            session.device_id, session.profile, session.key,
            session.bound_challenge, tuple(session.chunks),
            cache=self._cache, reports=tuple(session.reports),
            dict_epoch=session.dict_epoch)
        latency_s = time.perf_counter() - t0
        with self._lock:
            self._metrics.verify_latencies_s.append(latency_s)
            self._record_locked(session, verdict)

    def _record_locked(self, session: Session,
                       verdict: SessionVerdict) -> None:
        # durability first: the evidence record (cache hits included —
        # a replayed verdict is still a verdict) must be fsync'd into
        # the hash chain before anything observes the verdict. If the
        # append fails the verdict is withheld, never half-released.
        # Which cache served the replay stays side-band (metrics only).
        measurement = session.reports[0].h_mem if session.reports else b""
        record = None
        if self.store is not None:
            record = self.store.append(
                verdict,
                chain=chain_digest(session.chunks),
                challenge=session.challenge.nonce,
                expired=session.state == EXPIRED,
                epoch=session.epoch,
                measurement=measurement,
                healing=session.healing,
            )
        if self.sampler is not None and verdict.accepted:
            self._sample_locked(session, verdict)
        if self.policy is not None:
            # the fold's input is the *persisted* record (live and
            # crash-recovery paths thus run the same code over the same
            # bytes); with no store attached, an equivalent observation
            if record is None:
                record = SimpleNamespace(
                    device_id=session.device_id, profile=session.profile,
                    accepted=verdict.accepted, reason=verdict.reason,
                    violations=tuple(verdict.violations),
                    measurement=measurement, healing=session.healing)
            decisions = self.policy.observe(record)
            for decision in decisions:
                if self.store is not None:
                    self.store.append_decision(decision)
                self._count_decision_locked(decision)
        session.verdict = verdict
        if session.state == EXPIRED:
            self._metrics.sessions_expired += 1
        elif verdict.accepted:
            session.state = VERIFIED
            self._metrics.sessions_verified += 1
        else:
            session.state = REJECTED
            session.reject_reason = session.reject_reason or verdict.reason
            self._metrics.sessions_rejected += 1
        self.verdicts[session.device_id] = verdict

    # -- metrics, draining, shutdown ----------------------------------------

    @property
    def metrics(self) -> FleetMetrics:
        """A snapshot of this shard's counters, built on each read:
        the service's own, plus each counter read from its owner —
        the session manager, the replay cache, the evidence store and
        the sampler."""
        with self._lock:
            snapshot = replace(self._metrics, verify_latencies_s=deque(
                self._metrics.verify_latencies_s, maxlen=LATENCY_WINDOW))
            snapshot.reports_ignored = self.manager.reports_ignored
            snapshot.duplicates_dropped = self.manager.duplicates_dropped
            if self._cache is not None:
                snapshot.replay_cache_hits = self._cache.hits
                snapshot.replay_cache_misses = self._cache.misses
                snapshot.replay_cache_evictions = self._cache.evictions
            if self.store is not None:
                snapshot.evidence_records = self.store.records_appended
                snapshot.evidence_bytes = self.store.bytes_appended
                snapshot.evidence_fsyncs = self.store.fsyncs
            if self.sampler is not None:
                snapshot.sampler_evictions = self.sampler.evictions
        return snapshot

    def drain(self) -> FleetMetrics:
        """Refresh the wall-clock metrics (verification is inline, so
        nothing is ever in flight once ``submit`` returns)."""
        self._metrics.wall_s = time.perf_counter() - self._started
        return self.metrics

    def close(self) -> FleetMetrics:
        metrics = self.drain()
        if self.store is not None:
            self.store.close()
        return metrics

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
