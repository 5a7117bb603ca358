"""The traffic sampler's eviction heap against the linear rule it replaced.

:class:`~repro.cfa.fleet.TrafficSampler` evicts the coldest digest (the
minimum ``(count, digest)``, never the one being observed) through a
min-heap per profile whose entries may lag their digest's count. Over
random traffic with repeats, several profiles, small bounds and merges
of samplers that keep being observed afterwards, it must keep exactly
the counts, exemplar streams, session tallies and eviction count of a
reference sampler that takes ``min((count, digest))`` over the whole
count map each time. Its heap must hold exactly one entry per counted
digest, never ahead of the digest's count.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cfa.cflog import AddressRecord
from repro.cfa.fleet import DeviceProfile, TrafficSampler

PROFILES = [DeviceProfile("prime"), DeviceProfile("fibcall")]


class ReferenceSampler:
    """The sampler's bookkeeping with the eviction rule written out: a
    linear ``min((count, digest))`` per eviction."""

    def __init__(self, max_streams, max_digests):
        self.max_streams = max_streams
        self.max_digests = max(max_streams, max_digests)
        self.evictions = 0
        #: profile -> [counts, streams, sessions, bytes observed]
        self.profiles = {}

    def _sample(self, profile):
        return self.profiles.setdefault(profile, [Counter(), {}, 0, 0])

    def _evict(self, sample, keep=None):
        counts, streams = sample[0], sample[1]
        victim = min((d for d in counts if d != keep),
                     key=lambda d: (counts[d], d))
        del counts[victim]
        streams.pop(victim, None)
        self.evictions += 1

    def observe(self, profile, records, digest, size_bytes):
        sample = self._sample(profile)
        counts, streams = sample[0], sample[1]
        sample[2] += 1
        sample[3] += size_bytes
        counts[digest] += 1
        while len(counts) > self.max_digests:
            self._evict(sample, digest)
        if (digest in counts and digest not in streams
                and len(streams) < self.max_streams):
            streams[digest] = tuple(records)

    @staticmethod
    def merge(samplers):
        merged = ReferenceSampler(max(s.max_streams for s in samplers),
                                  max(s.max_digests for s in samplers))
        for sampler in samplers:
            for profile, (counts, streams, sessions, size) in \
                    sampler.profiles.items():
                out = merged._sample(profile)
                out[2] += sessions
                out[3] += size
                out[0].update(counts)
                for digest in sorted(streams):
                    if (digest not in out[1]
                            and len(out[1]) < merged.max_streams):
                        out[1][digest] = streams[digest]
        for out in merged.profiles.values():
            while len(out[0]) > merged.max_digests:
                merged._evict(out)
        return merged


def assert_same(sampler, reference):
    assert sampler.evictions == reference.evictions
    assert set(sampler._profiles) == set(reference.profiles)
    for profile, sample in sampler._profiles.items():
        counts, streams, sessions, size = reference.profiles[profile]
        assert dict(sample.counts) == dict(counts)
        assert sample.streams == streams
        assert sample.sessions == sessions
        assert sample.bytes_observed == size
        assert len(sample.heap) == len(sample.counts)
        assert all(digest in sample.counts
                   and count <= sample.counts[digest]
                   for count, digest in sample.heap)


def digest_of(value):
    return bytes([value]) * 32


bounds = st.tuples(st.integers(1, 3), st.integers(1, 6))
#: few digests, so that traffic repeats and every eviction has a choice
observe = st.tuples(st.just("observe"), st.integers(0, 3),
                    st.integers(0, len(PROFILES) - 1), st.integers(0, 5))
merge = st.tuples(st.just("merge"), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(shards=st.lists(bounds, min_size=1, max_size=3),
       ops=st.lists(st.one_of(observe, observe, observe, merge),
                    min_size=30, max_size=300))
def test_heap_eviction_matches_the_linear_rule(shards, ops):
    pairs = [(TrafficSampler(s, d), ReferenceSampler(s, d))
             for s, d in shards]
    for op in ops:
        if op[0] == "observe":
            _, index, profile, value = op
            sampler, reference = pairs[index % len(pairs)]
            records = (AddressRecord(1, value),)
            digest = digest_of(value)
            sampler.observe(PROFILES[profile], records, digest, 4)
            reference.observe(PROFILES[profile], records, digest, 4)
            assert_same(sampler, reference)
        elif len(pairs) < 6:
            _, first, second = op
            chosen = [pairs[first % len(pairs)], pairs[second % len(pairs)]]
            pair = (TrafficSampler.merge([s for s, _ in chosen]),
                    ReferenceSampler.merge([r for _, r in chosen]))
            assert_same(*pair)
            pairs.append(pair)  # merged samplers keep being observed


def test_repeats_leave_one_heap_entry_per_digest():
    """Repeated digests only bump their counts: the heap keeps one
    entry per digest however long the traffic, and an entry that fell
    behind its count is pushed back with the current count before the
    coldest digest is evicted."""
    sampler = TrafficSampler(max_streams=1, max_digests=2)
    profile = PROFILES[0]
    for i in range(500):
        value = int(i % 3 == 0)
        sampler.observe(profile, (AddressRecord(1, value),),
                        digest_of(value), 4)
        sample = sampler._profiles[profile]
        assert len(sample.heap) == len(sample.counts)
    assert sorted(sample.heap) == [(1, digest_of(0)), (1, digest_of(1))]
    sampler.observe(profile, (AddressRecord(1, 2),), digest_of(2), 4)
    assert sampler.evictions == 1
    assert dict(sample.counts) == {digest_of(0): 333, digest_of(2): 1}
    assert sorted(sample.heap) == [(1, digest_of(2)), (333, digest_of(0))]
