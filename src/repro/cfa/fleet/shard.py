"""The fleet Vrf: a consistent-hash router over per-shard services.

:class:`ShardedFleetService` is the public fleet service; ``shards=1``
is the plain, single-shard case. It partitions the fleet by device
id: a :class:`HashRing` routes each device to exactly one shard, and
each shard is a :class:`~repro.cfa.fleet.service.FleetService` owning
its devices' sessions, nonces, reorder windows, replay cache, and
evidence log — no state is shared across shards, so shards need no
coordination. Every shard verifies inline, on the caller's thread. In
process the router hands each call straight to the owning shard; the
RSHD handoff frame in :mod:`repro.cfa.wire` is the codec for a shard
in another process.

Three properties make sharding invisible to verdicts, all pinned by
``tests/test_fleet_sharding.py``:

* **device-scoped nonces** — challenges derive from
  ``(seed, device id, round, attempt)``, so the challenge a device
  answers (and hence every wire byte and every evidence digest) is
  independent of shard count;
* **one owner per device** — the ring maps a device id to exactly one
  shard, so session state is never split or duplicated;
* **per-device evidence chains** — each device's hash chain threads
  only through its own records, so the chain head is invariant to how
  devices interleave inside (or across) shard logs.

The ring hashes a device id once per device, not once per call: the
router keeps an owner map from every device that opened a session (by
``open_session``, ``begin_heal`` or ``resume_heal``) to its shard, and
every other per-device call reads that map. An id that never opened a
session is routed through the ring and never stored, so traffic for
unknown ids cannot grow the map; it holds one entry per admitted
device, like each shard's session table.

Consistent hashing keeps resharding cheap: adding a shard to an
``n``-shard ring remaps only ~``1/(n+1)`` of the keyspace, and every
remapped device lands on the *new* shard — an existing shard never
inherits devices from another existing shard, so their evidence logs
and session state stay put.

With ``store_dir`` set, each shard appends to its own evidence log
(``evidence-NN.log``). The replay cache is per shard and in memory
only: evidence records verdicts, never cache hits, so a cold cache
after a restart, or another shard count, changes no evidence byte.
Constructing with ``resume=True`` replays the evidence logs —
truncating at most one torn tail per shard — and restores every
released verdict and every device's nonce round before new traffic is
admitted: the crash-recovery protocol of docs/internals.md §9.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cfa.fleet.dictver import DictEpoch, DictionaryRegistry
from repro.cfa.fleet.metrics import FleetMetrics, aggregate_metrics
from repro.cfa.fleet.mining import TrafficSampler
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.store import (
    EvidenceStore,
    audit_key,
    evidence_logs,
    recorded_count,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyEngine
from repro.cfa.policy.registry import PolicyRegistry, policy_key
from repro.cfa.protocol import Challenge


class HashRing:
    """Consistent hashing of device ids onto shard ids.

    Each shard contributes ``vnodes`` pseudo-random points on a
    64-bit ring; a device routes to the owner of the first point at or
    after its own hash (wrapping). More vnodes smooth the load split
    and the remap fraction at the cost of a larger (still tiny) ring.
    """

    def __init__(self, shard_count: int, vnodes: int = 64,
                 shard_ids: Optional[Sequence[int]] = None):
        if vnodes < 1:
            raise ValueError("need at least one vnode per shard")
        if shard_ids is None:
            if shard_count < 1:
                raise ValueError("need at least one shard")
            shard_ids = tuple(range(shard_count))
        else:
            # an explicit member set: what a ring looks like after
            # decommissions — shard ids need not be contiguous
            shard_ids = tuple(sorted(set(shard_ids)))
            if not shard_ids:
                raise ValueError("need at least one shard")
        self.shard_ids = shard_ids
        self.shard_count = len(shard_ids)
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for shard in shard_ids:
            for vnode in range(vnodes):
                points.append((self._point(
                    f"shard:{shard}:vnode:{vnode}".encode()), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _point(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def route(self, device_id: str) -> int:
        """The shard that owns ``device_id``."""
        here = self._point(b"device:" + device_id.encode())
        index = bisect.bisect_right(self._points, here)
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]

    def remove(self, shard: int) -> "HashRing":
        """The ring after decommissioning ``shard``.

        A removed shard's vnode points vanish; every one of its keys
        falls through to the next surviving point. Keys owned by the
        survivors never move (their owning points are untouched) — the
        mirror of the add-a-shard property, pinned by the removal
        property test in ``tests/test_fleet_sharding.py``.
        """
        if shard not in self.shard_ids:
            raise ValueError(f"shard {shard} is not on the ring")
        return HashRing(
            0, vnodes=self.vnodes,
            shard_ids=[s for s in self.shard_ids if s != shard])


class ShardedFleetService:
    """N fleet shards behind one consistent-hash router.

    Presents the per-shard :class:`FleetService` surface
    (``open_session`` / ``submit`` / ``tick`` / ``drain`` / ``close`` /
    ``verdicts`` / ``metrics`` and the per-device speculation and
    policy calls), routing each call to the owning shard, and is the
    only home of the fleet-wide operations: ``traffic_samples``,
    ``publish_dictionary``, ``heal_pushes``, ``resume_heals`` and
    ``policy_pushes``. The CLI, the simulators and the benchmarks
    build this class. ``workers`` is accepted for old callers and must
    be 0: verification is always inline.
    Shards live in this process, so every routed call is a plain
    method call on the owning shard: nothing is framed. The
    RSHD handoff frame (:func:`~repro.cfa.wire.encode_shard_frame`)
    stays the codec for a shard behind a process boundary; its golden
    bytes, decoder battery and round-trip tests pin it until shards
    run as processes behind a socket and carry it.
    """

    def __init__(self, shards: int = 2,
                 store_dir: Optional[Union[str, os.PathLike]] = None,
                 seed: bytes = b"fleet-vrf",
                 workers: int = 0,
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 replay_cache: bool = True,
                 fsync: bool = True,
                 resume: bool = False,
                 vnodes: int = 64,
                 sampler: bool = False,
                 policy: bool = False,
                 key_lookup=None,
                 suspect_threshold: int = 2,
                 max_heal_attempts: int = 2,
                 bounds=None):
        if workers != 0:
            raise ValueError(
                f"workers={workers}: verification runs inline; the "
                f"only accepted value is 0")
        self.ring = HashRing(shards, vnodes=vnodes)
        #: device id -> owning shard, for every device that opened a
        #: session (see :meth:`shard_of`)
        self._owners: Dict[str, int] = {}
        self.seed = seed
        self.audit_key = audit_key(seed)
        self.store_dir = Path(store_dir) if store_dir is not None else None
        logs = ([None] * shards if self.store_dir is None
                else evidence_logs(self.store_dir, shards))
        if not resume:
            # refused before any log is opened: the disk stays as it was
            for path in filter(None, logs):
                count = recorded_count(path, self.audit_key)
                if count:
                    raise ValueError(
                        f"evidence log {path} already has {count} "
                        f"record(s); pass resume=True to recover or use "
                        f"a fresh store_dir")
        # dictionary versions are fleet-wide, not per shard: one shared
        # registry (persisted beside the evidence logs when durable) so
        # every shard resolves the same (profile, epoch) -> dictionary
        self.registry = DictionaryRegistry(
            self.store_dir / "dicts" if self.store_dir is not None else None)
        # the policy control plane is likewise fleet-wide: one signed
        # firmware registry and one quarantine engine shared by every
        # shard. Devices are disjoint across shards, so the per-store
        # policy folds compose into the fleet-wide engine state.
        self.policy_registry: Optional[PolicyRegistry] = None
        self.policy: Optional[PolicyEngine] = None
        if policy:
            self.policy_registry = PolicyRegistry(
                policy_key(seed),
                self.store_dir / "policy"
                if self.store_dir is not None else None)
            self.policy = PolicyEngine(
                registry=self.policy_registry,
                suspect_threshold=suspect_threshold,
                max_heal_attempts=max_heal_attempts)
        self.stores: List[Optional[EvidenceStore]] = []
        self.shards: List[FleetService] = []
        t0 = time.perf_counter()
        recovered = 0
        try:
            for path in logs:
                store = None
                if path is not None:
                    store = EvidenceStore(path, self.audit_key, fsync=fsync)
                self.stores.append(store)
                service = FleetService(
                    seed=seed, idle_timeout=idle_timeout,
                    reorder_window=reorder_window,
                    max_attempts=max_attempts, max_sessions=max_sessions,
                    replay_cache=replay_cache, store=store,
                    registry=self.registry, sampler=sampler,
                    policy=self.policy, key_lookup=key_lookup,
                    bounds=bounds)
                if store is not None and store.recovered_count:
                    recovered += service.restore(store.take_recovered())
                self.shards.append(service)
        except BaseException:
            # a damaged later log must not leave earlier ones open
            for opened in filter(None, self.stores):
                opened.close()
            raise
        self.recovered_verdicts = recovered
        if self.store_dir is not None:
            # the operator's map of what on this disk is authoritative
            # state vs cache, and how to rebuild the control plane;
            # imported here because the auditor side reads this
            # package's evidence store (a top-level import is a cycle)
            from repro.cfa.policy.recovery import write_recovery_manifest
            write_recovery_manifest(self.store_dir)
        self._recovery_s = time.perf_counter() - t0 if resume else 0.0
        self._started = time.perf_counter()

    # -- the FleetService surface -------------------------------------------

    @property
    def manager(self) -> SimpleNamespace:
        """Protocol constants view (what the simulator consults); the
        real per-device state lives in each shard's own manager."""
        first = self.shards[0].manager
        return SimpleNamespace(
            idle_timeout=first.idle_timeout,
            max_attempts=first.max_attempts,
            reorder_window=first.reorder_window,
        )

    def shard_of(self, device_id: str) -> int:
        """The shard that owns ``device_id``: its recorded owner, or
        the ring's answer for a device that never opened a session."""
        shard = self._owners.get(device_id)
        return self.ring.route(device_id) if shard is None else shard

    def open_session(self, device_id: str, profile: DeviceProfile,
                     key: bytes, now: float = 0.0) -> Challenge:
        shard = self.shard_of(device_id)
        challenge = self.shards[shard].open_session(device_id, profile,
                                                    key, now)
        self._owners[device_id] = shard
        return challenge

    def submit(self, device_id: str, data: bytes, now: float = 0.0) -> None:
        """Route one report to its owning shard."""
        self.shards[self.shard_of(device_id)].submit(device_id, data, now)

    def tick(self, now: float) -> List[Tuple[str, Challenge]]:
        """Advance every shard's logical clock; merge re-challenges."""
        out: List[Tuple[str, Challenge]] = []
        for service in self.shards:
            out.extend(service.tick(now))
        return out

    @property
    def verdicts(self) -> Dict[str, SessionVerdict]:
        merged: Dict[str, SessionVerdict] = {}
        for service in self.shards:
            merged.update(service.verdicts)
        return merged

    def evidence_heads(self) -> Dict[str, bytes]:
        """device id -> evidence-chain head digest, fleet-wide."""
        merged: Dict[str, bytes] = {}
        for store in self.stores:
            if store is not None:
                merged.update(store.heads())
        return merged

    # -- adaptive speculation (router surface) ------------------------------

    def traffic_samples(self) -> Dict[DeviceProfile, list]:
        """Fleet-wide miner input: per-shard samplers merged into one
        sample, so the miner sees the whole fleet's traffic weights."""
        samplers = [s.sampler for s in self.shards if s.sampler is not None]
        if not samplers:
            return {}
        merged = TrafficSampler.merge(samplers)
        return {profile: merged.sample(profile)
                for profile in merged.profiles()}

    def publish_dictionary(self, profile: DeviceProfile,
                           dictionary) -> DictEpoch:
        """One publish in the shared registry; every shard resolves the
        new epoch immediately (the registry is the shared truth)."""
        return self.registry.publish(profile, dictionary)

    def dictionary_pushes(
            self, profile: Optional[DeviceProfile] = None
    ) -> List[Tuple[str, bytes]]:
        """``(device_id, DICT frame)`` fleet-wide, shard by shard."""
        return [push for service in self.shards
                for push in service.dictionary_pushes(profile)]

    def ingest_dack(self, device_id: str, data: bytes,
                    now: float = 0.0) -> bool:
        """Route a device's ``DACK`` to its owning shard, which
        validates MAC and registry binding."""
        return self.shards[self.shard_of(device_id)].ingest_dack(
            device_id, data, now)

    def acked_epoch(self, device_id: str, profile: DeviceProfile) -> int:
        return self.shards[self.shard_of(device_id)].acked_epoch(
            device_id, profile)

    # -- policy control plane (router surface) ------------------------------

    def policy_states(self) -> Dict[str, str]:
        """device id -> lifecycle state name, fleet-wide."""
        return self.policy.state_names() if self.policy else {}

    def begin_heal(self, device_id: str,
                   now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Heal one quarantined device at its owning shard."""
        shard = self.shard_of(device_id)
        push = self.shards[shard].begin_heal(device_id, now)
        if push is not None:  # it opened the healing session
            self._owners[device_id] = shard
        return push

    def heal_pushes(self, now: float = 0.0) -> List[Tuple[str, bytes]]:
        """One fleet-wide healing round. The engine is shared, so the
        router — not the shards — enumerates quarantined devices and
        routes each heal to the shard that owns the device's sessions.
        A device out of attempts gets no order: it stays quarantined
        until an operator intervenes (or its failed healing session
        already revoked it)."""
        if self.policy is None:
            return []
        pushes = (self.begin_heal(device_id, now)
                  for device_id in self.policy.quarantined_devices())
        return [push for push in pushes if push is not None]

    def resume_heals(self, now: float = 0.0) -> List[Tuple[str, bytes]]:
        """Re-issue standing heal orders after a restart, each at its
        owning shard (no new decisions are minted)."""
        if self.policy is None:
            return []
        pushes = []
        for device_id in self.policy.healing_devices():
            shard = self.shard_of(device_id)
            push = self.shards[shard].resume_heal(device_id, now)
            if push is not None:  # its healing session is open
                self._owners[device_id] = shard
                pushes.append(push)
        return pushes

    def policy_pushes(self) -> List[Tuple[str, bytes]]:
        """Drain pending lifecycle notices fleet-wide as ``(device_id,
        PLCY frame)`` pairs; each notice is MAC'd by the owning shard
        under the device's key. Notices are idempotent: a crash between
        draining and delivery just re-sends them after a restore."""
        if self.policy is None:
            return []
        pushes: List[Tuple[str, bytes]] = []
        for device_id, state, reason, epoch in self.policy.take_notices():
            frame = self.shards[self.shard_of(device_id)] \
                .policy_notice_frame(device_id, state, reason, epoch)
            if frame is not None:
                pushes.append((device_id, frame))
        return pushes

    def drain(self) -> FleetMetrics:
        for service in self.shards:
            service.drain()
        return self.metrics

    def close(self) -> FleetMetrics:
        for service in self.shards:
            service.close()
        return self.metrics

    @property
    def metrics(self) -> FleetMetrics:
        return aggregate_metrics(
            [s.metrics for s in self.shards],
            wall_s=time.perf_counter() - self._started,
            recovery_s=self._recovery_s)

    def __enter__(self) -> "ShardedFleetService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
