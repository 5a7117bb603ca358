"""Structured metrics for the fleet verification service.

Mirrors the :class:`~repro.eval.parallel.EvalMetrics` idiom: plain
counters mutated under the service lock, plus derived views (latency
percentiles, throughput) computed on demand and a one-line
``summary()`` for the CLI/CI smoke output.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, Sequence

#: most verification latencies one metrics object keeps (the newest);
#: the percentiles describe this window, so a long-lived service holds
#: a fixed amount of latency state
LATENCY_WINDOW = 16384


def _latency_window() -> Deque[float]:
    return deque(maxlen=LATENCY_WINDOW)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass
class FleetMetrics:
    """Aggregate counters for one service lifetime."""

    # sessions
    sessions_opened: int = 0
    sessions_verified: int = 0
    sessions_rejected: int = 0
    sessions_expired: int = 0
    sessions_retried: int = 0
    sessions_refused: int = 0  # overload: never admitted
    #: chains rejected by the `BNDS1` static-bound screen before replay
    sessions_bounds_rejected: int = 0
    # reports
    reports_ingested: int = 0
    reports_ignored: int = 0   # late / unknown-device deliveries
    duplicates_dropped: int = 0
    bytes_ingested: int = 0
    # verification engine
    #: the last :data:`LATENCY_WINDOW` verification latencies
    verify_latencies_s: Deque[float] = field(
        default_factory=_latency_window, repr=False)
    replay_cache_hits: int = 0
    replay_cache_misses: int = 0
    #: entries the bounded in-memory replay cache dropped (a dropped
    #: chain is simply replayed again on its next sighting)
    replay_cache_evictions: int = 0
    wall_s: float = 0.0
    # durability / sharding
    evidence_records: int = 0
    evidence_bytes: int = 0
    evidence_fsyncs: int = 0
    sessions_recovered: int = 0  # verdicts restored from the evidence log
    shards: int = 0              # 0 on one shard's own metrics
    recovery_s: float = 0.0      # wall time replaying evidence at restart
    # adaptive speculation (dictionary epoch handshake)
    dict_pushes: int = 0         # DICT frames offered to lagging devices
    dict_acks: int = 0           # valid DACKs that advanced a device's pin
    dict_acks_rejected: int = 0  # malformed / forged / mismatched DACKs
    #: traffic-sampler exemplars evicted by the dedup-map bound
    sampler_evictions: int = 0
    # policy control plane
    sessions_denied: int = 0     # open_session refused: quarantined/revoked
    reports_denied: int = 0      # reports dropped from blocked devices
    policy_decisions: int = 0    # decision records appended (live+repaired)
    policy_notices: int = 0      # PLCY frames pushed
    suspects: int = 0            # transitions into SUSPECT
    quarantines: int = 0         # transitions into QUARANTINED
    recoveries: int = 0          # SUSPECT -> HEALTHY recoveries
    heals_started: int = 0       # HEAL orders issued
    heals_failed: int = 0        # healing rounds that burned an attempt
    rejoins: int = 0             # HEALING -> REJOINED successes
    revocations: int = 0         # permanent revocations

    @property
    def sessions_settled(self) -> int:
        return (self.sessions_verified + self.sessions_rejected
                + self.sessions_expired)

    @property
    def reports_per_second(self) -> float:
        return self.reports_ingested / self.wall_s if self.wall_s else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        sample = self.verify_latencies_s
        return {
            "p50": percentile(sample, 0.50),
            "p95": percentile(sample, 0.95),
            "p99": percentile(sample, 0.99),
        }

    def summary(self) -> str:
        pct = self.latency_percentiles()
        return (
            f"{self.sessions_settled}/{self.sessions_opened} sessions "
            f"settled ({self.sessions_verified} ok, "
            f"{self.sessions_rejected} rejected, "
            f"{self.sessions_expired} expired, "
            f"{self.sessions_retried} retried, "
            f"{self.sessions_refused} refused), "
            f"{self.reports_ingested} reports "
            f"({self.bytes_ingested} B, {self.duplicates_dropped} dup, "
            f"{self.reports_ignored} ignored) "
            f"at {self.reports_per_second:.0f} rps, "
            f"verify p50/p95/p99 {pct['p50'] * 1e3:.1f}/"
            f"{pct['p95'] * 1e3:.1f}/{pct['p99'] * 1e3:.1f} ms, "
            f"replay cache {self.replay_cache_hits}/"
            f"{self.replay_cache_hits + self.replay_cache_misses} hits "
            f"({self.replay_cache_evictions} evicted), "
            + (f"bounds screen {self.sessions_bounds_rejected} rejected, "
               if self.sessions_bounds_rejected else "")
            + (f"shards={self.shards}, " if self.shards else "")
            + (f"evidence {self.evidence_records} rec "
               f"({self.evidence_bytes} B, {self.evidence_fsyncs} fsync), "
               if self.evidence_records else "")
            + (f"recovered {self.sessions_recovered} verdicts in "
               f"{self.recovery_s * 1e3:.1f} ms, "
               if self.sessions_recovered else "")
            + (f"dict pushes/acks {self.dict_pushes}/{self.dict_acks} "
               f"({self.dict_acks_rejected} rejected), "
               if self.dict_pushes or self.dict_acks
               or self.dict_acks_rejected else "")
            + (f"policy {self.policy_decisions} decisions "
               f"({self.quarantines} quarantine, {self.heals_started} "
               f"heal, {self.rejoins} rejoin, {self.revocations} "
               f"revoked; {self.sessions_denied}+{self.reports_denied} "
               f"denied), "
               if self.policy_decisions or self.sessions_denied
               or self.reports_denied else "")
            + f"wall {self.wall_s:.2f}s"
        )


#: every counter a fleet-wide view sums over its shards: each ``int``
#: field but ``shards``, which the view sets itself
_COUNTERS = tuple(f.name for f in fields(FleetMetrics)
                  if f.type == "int" and f.name != "shards")


def aggregate_metrics(per_shard: Sequence[FleetMetrics],
                      wall_s: float = 0.0,
                      recovery_s: float = 0.0) -> FleetMetrics:
    """Fold per-shard metrics into one fleet-wide view.

    Every ``int`` counter sums; latency windows concatenate, shard by
    shard, into one window of the same bound (so the percentiles are
    fleet-wide, not a mean of per-shard percentiles, and a read copies
    at most one window per shard). ``wall_s`` is the *router's* wall
    clock — shards run concurrently, so summing their walls would
    double count.
    """
    total = FleetMetrics(shards=len(per_shard))
    for m in per_shard:
        for name in _COUNTERS:
            setattr(total, name, getattr(total, name) + getattr(m, name))
        total.verify_latencies_s.extend(m.verify_latencies_s)
    total.wall_s = wall_s or max(
        (m.wall_s for m in per_shard), default=0.0)
    total.recovery_s = recovery_s
    return total
