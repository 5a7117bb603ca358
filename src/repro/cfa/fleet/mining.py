"""Mine hot sub-paths from live fleet traffic (the Vrf-side learner).

The static :func:`repro.cfa.speccfa.mine_subpaths` only catches
*tandem* repeats (a loop body repeating back-to-back); real CFLogs are
full of hot sub-paths that recur **non**-adjacently — an inner-loop
body separated by data-dependent records, a helper call sequence, a
sensor-poll idiom — which a fixed tandem dictionary leaves
uncompressed. This miner closes that gap with the machinery the fleet
tier already provides:

* :class:`TrafficSampler` — a bounded, deduplicating tap on the
  authenticated record streams of *accepted* sessions. Identical
  executions across the fleet (the common case: same firmware, same
  inputs) collapse to one exemplar stream with a session count, so the
  sample a 10k-device fleet feeds the miner stays tiny while its
  weights still reflect live traffic volume.

* :func:`mine_fleet_dictionary` — n-gram frequency mining over the
  sampled streams, profit-scored by **measured** bytes saved: a
  candidate sub-path enters the dictionary only if actually
  compressing the weighted sample with it saves at least
  ``min_gain_bytes`` beyond what the already-chosen sub-paths save.
  Greedy selection with measured marginal gain makes the usual n-gram
  pathology (ten overlapping shifts of the same hot loop all scoring
  high, then shadowing each other) self-correcting.

Everything is deterministic for a fixed traffic sample: streams are
visited in sorted digest order and candidates are ranked with a full
tiebreak on their canonical serialization, so two Vrf replicas (or a
restarted one) mine byte-identical dictionaries — which is what makes
dictionary *epochs* content-addressable in the first place.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cfa.cflog import CFLog, Record, SpecRecord, tag_sizes
from repro.cfa.fleet.verify import DeviceProfile, ReplayCache
from repro.cfa.speccfa import SubPathDict, compress

#: one weighted exemplar: (record stream, sessions observed)
WeightedStream = Tuple[Tuple[Record, ...], int]


@dataclass
class ProfileSample:
    """The deduplicated traffic sample for one device profile."""

    #: stream digest -> exemplar record tuple (bounded by max_streams)
    streams: Dict[bytes, Tuple[Record, ...]] = field(default_factory=dict)
    #: stream digest -> sessions observed (bounded by max_digests;
    #: cold digests — and their exemplars — are evicted deterministically
    #: when the bound is hit)
    counts: Counter = field(default_factory=Counter)
    #: min-heap of (count, digest), one entry per counted digest; an
    #: entry's count may lag the digest's (see
    #: :meth:`TrafficSampler._evict_coldest`)
    heap: List[Tuple[int, bytes]] = field(default_factory=list)
    sessions: int = 0
    bytes_observed: int = 0


class TrafficSampler:
    """Bounded per-profile tap on accepted sessions' record streams.

    Both maps are hard-bounded, so a fleet of adversarially-diverse
    streams cannot grow Vrf memory without limit: at most
    ``max_streams`` exemplar record tuples are retained per profile,
    and the dedup-count map holds at most ``max_digests`` entries
    (default ``4 * max_streams``) — one 32-byte digest plus one int
    each, so the per-profile footprint is a few KiB however many
    distinct executions the fleet produces. When a new digest would
    exceed the cap, the *coldest* existing entry is evicted
    deterministically — minimum count, ties broken by lexicographically
    smallest digest, the newcomer itself never evicted — and its
    exemplar (if retained) is dropped with it. Evictions are counted
    (:attr:`evictions`, surfaced as ``sampler_evictions`` in
    :class:`~repro.cfa.fleet.metrics.FleetMetrics`); an evicted hot
    path that stays hot simply re-enters with a fresh count.

    The coldest digest is found through a per-profile min-heap of
    ``(count, digest)`` with one entry per counted digest, so it never
    outgrows the count map. A new digest pushes its entry; a repeat
    only bumps its count, and an entry popped with a count behind the
    digest's is pushed back with the current one (counts only grow, so
    the first current entry popped is the minimum). Eviction costs
    O(log n) per count change since the digest was last pushed.
    """

    def __init__(self, max_streams: int = 64,
                 max_digests: Optional[int] = None):
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.max_streams = max_streams
        self.max_digests = (max(max_streams, max_digests)
                            if max_digests is not None
                            else 4 * max_streams)
        self.evictions = 0
        self._lock = threading.Lock()
        self._profiles: Dict[DeviceProfile, ProfileSample] = {}

    def _evict_coldest(self, sample: ProfileSample,
                       keep: Optional[bytes] = None) -> None:
        """Deterministically evict the coldest digest (never ``keep``):
        the minimum ``(count, digest)``."""
        heap, counts = sample.heap, sample.counts
        kept = None
        while True:
            count, digest = heapq.heappop(heap)
            if counts[digest] != count:
                # counted again since it was pushed: its key is larger
                heapq.heappush(heap, (counts[digest], digest))
                continue
            if digest != keep:
                break
            kept = (count, digest)
        if kept is not None:
            heapq.heappush(heap, kept)
        del counts[digest]
        sample.streams.pop(digest, None)
        self.evictions += 1

    def observe(self, profile: DeviceProfile,
                records: Union[Sequence[Record],
                               Callable[[], Sequence[Record]]],
                digest: Optional[bytes] = None,
                size_bytes: Optional[int] = None) -> None:
        """Absorb one accepted session's (expanded) record stream.

        ``records`` may be a zero-argument callable producing the
        stream; given with its ``digest`` and wire ``size_bytes`` (by
        default, each record sized by the profile's method), it is
        called only when the stream is kept as a new exemplar.
        """
        if digest is None or size_bytes is None:
            if callable(records):
                records = records()
            if digest is None:
                digest = ReplayCache.key(CFLog(records).pack())
            if size_bytes is None:
                sizes = tag_sizes(profile.method)
                size_bytes = sum(sizes[r.tag] for r in records)
        with self._lock:
            sample = self._profiles.get(profile)
            if sample is None:
                sample = self._profiles[profile] = ProfileSample()
            sample.sessions += 1
            sample.bytes_observed += size_bytes
            if digest in sample.counts:
                sample.counts[digest] += 1
            else:
                sample.counts[digest] = 1
                heapq.heappush(sample.heap, (1, digest))
                while len(sample.counts) > self.max_digests:
                    self._evict_coldest(sample, digest)
            if (digest in sample.counts
                    and digest not in sample.streams
                    and len(sample.streams) < self.max_streams):
                sample.streams[digest] = tuple(
                    records() if callable(records) else records)

    def sample(self, profile: DeviceProfile) -> List[WeightedStream]:
        """The weighted exemplar streams for one profile, in sorted
        digest order (the miner's deterministic input)."""
        with self._lock:
            sample = self._profiles.get(profile)
            if sample is None:
                return []
            return [(sample.streams[d], sample.counts[d])
                    for d in sorted(sample.streams)]

    def profiles(self) -> List[DeviceProfile]:
        with self._lock:
            return sorted(self._profiles,
                          key=lambda p: (p.workload, p.method))

    def sessions_observed(self, profile: DeviceProfile) -> int:
        with self._lock:
            sample = self._profiles.get(profile)
            return sample.sessions if sample else 0

    @staticmethod
    def merge(samplers: Sequence["TrafficSampler"]) -> "TrafficSampler":
        """Fold per-shard samplers into one fleet-wide sample (counts
        sum; both bounds apply to the merged set — the merged map is
        trimmed back to ``max_digests`` by the same coldest-first
        rule)."""
        merged = TrafficSampler(
            max_streams=max((s.max_streams for s in samplers), default=64),
            max_digests=max((s.max_digests for s in samplers),
                            default=None) or None)
        for sampler in samplers:
            with sampler._lock:
                items = list(sampler._profiles.items())
            for profile, sample in items:
                out = merged._profiles.setdefault(profile, ProfileSample())
                out.sessions += sample.sessions
                out.bytes_observed += sample.bytes_observed
                out.counts.update(sample.counts)
                for digest in sorted(sample.streams):
                    if (digest not in out.streams
                            and len(out.streams) < merged.max_streams):
                        out.streams[digest] = sample.streams[digest]
        for out in merged._profiles.values():
            out.heap = [(count, digest)
                        for digest, count in out.counts.items()]
            heapq.heapify(out.heap)
            while len(out.counts) > merged.max_digests:
                merged._evict_coldest(out)
        return merged


def _weighted_bytes(streams: Sequence[WeightedStream],
                    dictionary: SubPathDict, sizes: Dict[int, int]) -> int:
    """Total wire bytes of the sample compressed under ``dictionary``,
    each record costing ``sizes[tag]``."""
    total = 0
    for records, weight in streams:
        sent = compress(list(records), dictionary) if dictionary else records
        total += weight * sum(sizes[r.tag] for r in sent)
    return total


def mine_fleet_dictionary(streams: Sequence[WeightedStream],
                          method: str,
                          max_len: int = 8,
                          top_k: int = 16,
                          min_gain_bytes: int = 16,
                          candidate_pool: int = 96) -> SubPathDict:
    """Mine a speculation dictionary from weighted fleet traffic.

    Candidate sub-paths are every n-gram of length 2..``max_len``
    occurring in the sample, ranked by an upper-bound profit score
    ``(pattern bytes - token bytes) x weighted occurrences``; the top
    ``candidate_pool`` survivors are then admitted greedily, each one
    kept only if the **measured** compressed size of the whole sample
    drops by at least ``min_gain_bytes``. Records cost the bytes
    ``method`` logs them in; because a token costs 4 bytes and every
    pattern is at least 4 bytes, the mined dictionary can never expand
    a stream — profit is structurally non-negative.

    Deterministic: independent of stream order, candidate hash order,
    and dict iteration order.
    """
    sizes = tag_sizes(method)

    def profit(pattern: Tuple[Record, ...], count: int) -> int:
        return (sum(sizes[r.tag] for r in pattern)
                - sizes[SpecRecord.tag]) * count

    ordered = sorted(
        streams, key=lambda sw: ReplayCache.key(CFLog(sw[0]).pack()))
    gains: Counter = Counter()
    for records, weight in ordered:
        n = len(records)
        for length in range(2, max_len + 1):
            for i in range(n - length + 1):
                gains[records[i:i + length]] += weight
    candidates = sorted(
        gains.items(),
        key=lambda kv: (-profit(*kv), b"".join(r.pack() for r in kv[0])))
    candidates = [(pattern, count) for pattern, count in candidates
                  if profit(pattern, count)
                  >= min_gain_bytes][:candidate_pool]
    chosen: List[Tuple[Record, ...]] = []
    current_bytes = _weighted_bytes(ordered, {}, sizes)
    for pattern, _count in candidates:
        if len(chosen) >= top_k:
            break
        trial = sorted(
            chosen + [pattern],
            key=lambda p: (-len(p), b"".join(r.pack() for r in p)))
        trial_bytes = _weighted_bytes(
            ordered, {i: p for i, p in enumerate(trial)}, sizes)
        if current_bytes - trial_bytes >= min_gain_bytes:
            chosen = trial
            current_bytes = trial_bytes
    # longest-first ids so greedy compression prefers long matches,
    # with the serialization tiebreak keeping ids deterministic
    chosen.sort(key=lambda p: (-len(p), b"".join(r.pack() for r in p)))
    return {path_id: pattern for path_id, pattern in enumerate(chosen)}


def mining_gain(streams: Sequence[WeightedStream],
                dictionary: SubPathDict, method: str) -> int:
    """Measured profit: weighted sample bytes saved by ``dictionary``
    when ``method`` logged the sample (non-negative by construction)."""
    sizes = tag_sizes(method)
    return (_weighted_bytes(streams, {}, sizes)
            - _weighted_bytes(streams, dictionary, sizes))


def learn_dictionaries(service, profiles=None, max_len: int = 8,
                       top_k: int = 16, min_gain_bytes: int = 16):
    """One fleet learning round: mine and publish per-profile epochs.

    ``service`` is the router, a
    :class:`~repro.cfa.fleet.shard.ShardedFleetService`: learning is
    fleet-wide, so it reads the router's merged ``traffic_samples()``
    and publishes through its ``publish_dictionary()`` (a shard has
    neither). Returns ``profile -> DictEpoch`` for every profile whose
    mined dictionary was worth publishing. Pushing the new epochs to
    devices (and ingesting their ACKs) is the transport's job — see
    ``dictionary_pushes`` / ``ingest_dack`` on the router.
    """
    samples = service.traffic_samples()
    published = {}
    for profile in sorted(samples, key=lambda p: (p.workload, p.method)):
        if profiles is not None and profile not in profiles:
            continue
        streams = samples[profile]
        if not streams:
            continue
        dictionary = mine_fleet_dictionary(
            streams, profile.method, max_len=max_len, top_k=top_k,
            min_gain_bytes=min_gain_bytes)
        if not dictionary:
            continue
        published[profile] = service.publish_dictionary(profile, dictionary)
    return published
