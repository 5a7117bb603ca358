"""Property battery for the fleet sub-path miner.

Three properties make a mined dictionary safe to push to a fleet, all
hypothesis-checked over arbitrary weighted record streams:

1. **Lossless** — ``expand(compress(s, d), d) == s`` for every stream
   in the traffic sample a dictionary was mined from (and any other
   stream: compression is greedy matching, expansion is substitution).
2. **Non-negative profit** — ``mining_gain`` never reports a negative
   saving; a 4-byte token only ever replaces patterns of >= 4 bytes.
3. **Deterministic** — the mined dictionary is a pure function of the
   traffic *multiset*: stream order, sampler insertion order, and dict
   iteration order cannot change a single byte of it (this is what
   makes epochs content-addressable across Vrf replicas).

Plus unit coverage for the serialization the epochs are named by and
the bounded deduplicating :class:`TrafficSampler`.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfa.cflog import (
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    tag_sizes,
)
from repro.cfa.fleet import (
    DeviceProfile,
    ReplayCache,
    TrafficSampler,
    mine_fleet_dictionary,
    mining_gain,
)
from repro.cfa.speccfa import (
    EMPTY_DICTIONARY_DIGEST,
    SpecRecord,
    compress,
    dictionary_digest,
    expand,
    pack_dictionary,
    unpack_dictionary,
)

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

#: the methods whose record sizes differ (TRACES logs a loop in a word)
METHODS = ("rap-track", "traces")


def _stream_digest(records):
    """The sampler's dedup digest: the replay-cache key of the stream."""
    return ReplayCache.key(CFLog(records).pack())

#: expanded (plain) record streams — what the sampler feeds the miner
base_records = st.lists(
    st.one_of(
        st.builds(BranchRecord, u32, u32),
        st.builds(AddressRecord, u32, u32),
        st.builds(LoopRecord, u32, u32),
    ),
    max_size=40,
)

weighted_streams = st.lists(
    st.tuples(base_records, st.integers(min_value=1, max_value=9)),
    min_size=1, max_size=4,
)

#: streams with actual repetition, so mining usually finds something
looped_streams = st.tuples(base_records, st.integers(2, 6)).map(
    lambda body_n: [(body_n[0] * body_n[1], 3)])


def _mine(streams, method="rap-track"):
    return mine_fleet_dictionary(
        [(tuple(records), weight) for records, weight in streams], method)


@given(weighted_streams)
@settings(max_examples=60, deadline=None)
def test_mined_dictionary_roundtrips(streams):
    for method in METHODS:
        dictionary = _mine(streams, method)
        for records, _weight in streams:
            compressed = compress(list(records), dictionary)
            assert expand(compressed, dictionary) == list(records)


@given(looped_streams)
@settings(max_examples=60, deadline=None)
def test_mined_dictionary_roundtrips_on_loops(streams):
    dictionary = _mine(streams)
    for records, _weight in streams:
        assert expand(compress(list(records), dictionary),
                      dictionary) == list(records)


@given(weighted_streams)
@settings(max_examples=60, deadline=None)
def test_mined_profit_non_negative(streams):
    tupled = [(tuple(r), w) for r, w in streams]
    for method in METHODS:
        dictionary = mine_fleet_dictionary(tupled, method)
        assert mining_gain(tupled, dictionary, method) >= 0
        # and compression never expands any individual stream
        sizes = tag_sizes(method)
        for records, _weight in streams:
            compressed = compress(list(records), dictionary)
            assert (sum(sizes[r.tag] for r in compressed)
                    <= sum(sizes[r.tag] for r in records))


@given(weighted_streams, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mining_deterministic_under_stream_order(streams, seed):
    tupled = [(tuple(r), w) for r, w in streams]
    shuffled = list(tupled)
    random.Random(seed).shuffle(shuffled)
    assert (mine_fleet_dictionary(shuffled, "rap-track")
            == mine_fleet_dictionary(tupled, "rap-track"))


@given(weighted_streams)
@settings(max_examples=40, deadline=None)
def test_mining_deterministic_through_sampler(streams):
    """Observation order cannot change the miner's input: the sampler
    deduplicates by digest and emits in sorted-digest order."""
    profile = DeviceProfile("fibcall")
    forward, backward = TrafficSampler(), TrafficSampler()
    for records, weight in streams:
        for _ in range(weight):
            forward.observe(profile, list(records))
    for records, weight in reversed(streams):
        for _ in range(weight):
            backward.observe(profile, list(records))
    assert forward.sample(profile) == backward.sample(profile)
    assert (mine_fleet_dictionary(forward.sample(profile), profile.method)
            == mine_fleet_dictionary(backward.sample(profile),
                                     profile.method))


# -- serialization (what epochs are named by) -------------------------------


@given(weighted_streams)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_dictionary_roundtrip(streams):
    dictionary = _mine(streams)
    payload = pack_dictionary(dictionary)
    assert unpack_dictionary(payload) == {
        path_id: tuple(pattern) for path_id, pattern in dictionary.items()}
    # canonical: identical content -> identical bytes -> identical digest
    assert pack_dictionary(dict(reversed(list(dictionary.items())))) \
        == payload
    assert dictionary_digest(dictionary) == dictionary_digest(
        unpack_dictionary(payload))


def test_empty_dictionary_digest_is_stable():
    assert dictionary_digest({}) == EMPTY_DICTIONARY_DIGEST
    assert unpack_dictionary(pack_dictionary({})) == {}


def test_unpack_rejects_damage():
    payload = pack_dictionary({0: (BranchRecord(4, 8), BranchRecord(8, 4))})
    with pytest.raises(ValueError):
        unpack_dictionary(payload[:-1])  # truncated
    with pytest.raises(ValueError):
        unpack_dictionary(payload + b"\x00")  # trailing bytes
    with pytest.raises(ValueError):
        unpack_dictionary(b"XXXX" + payload[4:])  # bad magic
    with pytest.raises(ValueError):
        unpack_dictionary(pack_dictionary({0: ()}))  # empty sub-path


def test_pack_rejects_nested_speculation():
    with pytest.raises(ValueError):
        pack_dictionary({0: (SpecRecord(1, 2),)})


# -- the sampler's bound and merge ------------------------------------------


def test_sampler_dedupes_and_bounds():
    profile = DeviceProfile("prime")
    sampler = TrafficSampler(max_streams=2)
    hot = [BranchRecord(4, 8), BranchRecord(8, 4)]
    for _ in range(5):
        sampler.observe(profile, hot)
    for i in range(4):  # distinct cold streams past the bound
        sampler.observe(profile, [AddressRecord(1, i)])
    sample = sampler.sample(profile)
    assert len(sample) == 2  # bound held: 2 exemplars kept
    weights = {tuple(records): weight for records, weight in sample}
    assert weights[tuple(hot)] == 5  # every observation still counted
    assert sampler.sessions_observed(profile) == 9


def test_sampler_merge_sums_counts():
    profile = DeviceProfile("prime")
    a, b = TrafficSampler(), TrafficSampler()
    hot = [BranchRecord(4, 8)]
    a.observe(profile, hot)
    a.observe(profile, hot)
    b.observe(profile, hot)
    b.observe(profile, [AddressRecord(1, 2)])
    merged = TrafficSampler.merge([a, b])
    weights = {tuple(records): weight
               for records, weight in merged.sample(profile)}
    assert weights[tuple(hot)] == 3
    assert weights[(AddressRecord(1, 2),)] == 1
    assert merged.sessions_observed(profile) == 4


# -- the dedup-map bound and deterministic eviction -------------------------


def test_sampler_bound_floors_and_defaults():
    assert TrafficSampler(max_streams=10).max_digests == 40
    # the dedup map can never be smaller than the exemplar map
    assert TrafficSampler(max_streams=8, max_digests=2).max_digests == 8
    with pytest.raises(ValueError):
        TrafficSampler(max_streams=0)


def test_sampler_eviction_is_deterministic_coldest_first():
    """Overflowing the dedup map evicts the minimum-(count, digest)
    entry — never the digest being observed — and drops its exemplar."""
    profile = DeviceProfile("prime")
    sampler = TrafficSampler(max_streams=4, max_digests=4)
    streams = [[AddressRecord(1, i)] for i in range(4)]
    for records, heat in zip(streams, (3, 2, 1, 1)):
        for _ in range(heat):
            sampler.observe(profile, records)
    assert sampler.evictions == 0

    newcomer = [BranchRecord(4, 8)]
    sampler.observe(profile, newcomer)
    assert sampler.evictions == 1
    # the two count-1 entries tied; lexicographically smaller digest lost
    victim = min(_stream_digest(streams[2]), _stream_digest(streams[3]))
    kept = {_stream_digest(records)
            for records, _ in sampler.sample(profile)}
    assert victim not in kept
    assert _stream_digest(newcomer) in kept  # the newcomer survives
    assert {_stream_digest(streams[0]),
            _stream_digest(streams[1])} <= kept


def test_sampler_evicted_digest_reenters_with_fresh_count():
    profile = DeviceProfile("prime")
    sampler = TrafficSampler(max_streams=2, max_digests=2)
    hot, cold, other = ([BranchRecord(4, 8)], [AddressRecord(1, 0)],
                        [AddressRecord(1, 1)])
    for _ in range(5):
        sampler.observe(profile, hot)
    sampler.observe(profile, cold)
    sampler.observe(profile, other)  # evicts cold (count 1)
    assert sampler.evictions == 1
    assert _stream_digest(cold) not in {
        _stream_digest(records) for records, _ in sampler.sample(profile)}
    for _ in range(3):  # cold comes back hot: first observe evicts other
        sampler.observe(profile, cold)
    assert sampler.evictions == 2
    weights = {_stream_digest(records): weight
               for records, weight in sampler.sample(profile)}
    # history before the eviction is gone: 3, not 4
    assert weights == {_stream_digest(hot): 5, _stream_digest(cold): 3}


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=40,
                unique=True))
@settings(max_examples=60, deadline=None)
def test_sampler_bounds_hold_under_any_traffic(values):
    """All-distinct traffic (the adversarial worst case): both maps
    stay hard-bounded at every step, the observed digest is never the
    eviction victim, and the eviction count is exact."""
    profile = DeviceProfile("prime")
    sampler = TrafficSampler(max_streams=3, max_digests=6)
    for value in values:
        records = [AddressRecord(1, value)]
        sampler.observe(profile, records)
        sample = sampler._profiles[profile]
        assert len(sample.counts) <= 6
        assert len(sample.streams) <= 3
        assert set(sample.streams) <= set(sample.counts)
        assert sample.counts[_stream_digest(records)] == 1
    assert sampler.evictions == max(0, len(values) - 6)
    assert sampler.sessions_observed(profile) == len(values)


def test_sampler_merge_trims_to_bound_and_counts_evictions():
    profile = DeviceProfile("prime")
    a = TrafficSampler(max_streams=2, max_digests=3)
    b = TrafficSampler(max_streams=2, max_digests=3)
    for i in range(3):  # each sampler within bound on its own
        a.observe(profile, [AddressRecord(1, i)])
    hot = [BranchRecord(4, 8)]
    for _ in range(4):
        b.observe(profile, hot)
    b.observe(profile, [AddressRecord(2, 0)])
    b.observe(profile, [AddressRecord(2, 1)])

    merged = TrafficSampler.merge([a, b])
    assert merged.max_digests == 3  # bounds carry through the fold
    assert merged.evictions == 3  # 6 distinct digests trimmed to 3
    sample = merged._profiles[profile]
    assert len(sample.counts) == 3
    assert sample.counts[_stream_digest(hot)] == 4  # hottest survives
    assert set(sample.streams) <= set(sample.counts)
    assert merged.sessions_observed(profile) == 9  # no sessions lost
