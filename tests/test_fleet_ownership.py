"""Every fleet fact has one owner.

Fleet-wide operations (the merged traffic sample, dictionary
publishes, healing and notice rounds) live on the router only; a shard
keeps the per-device surface an RSHD frame can carry. A shard's
``metrics`` is a snapshot that reads each counter the session manager,
replay cache, evidence store and sampler keep from that owner.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cfa.fleet import (
    CampaignSimulator,
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictionaryRegistry,
    FleetMetrics,
    FleetSimulator,
    ShardedFleetService,
    TrafficSampler,
    build_fleet_specs,
    device_key,
    learn_dictionaries,
    mine_fleet_dictionary,
)
from repro.cfa.fleet import verify
from repro.cfa.fleet.service import FleetService
from repro.cfa.policy import QUARANTINED

FLEET_WIDE = ("traffic_samples", "publish_dictionary", "heal_pushes",
              "resume_heals", "policy_pushes")
SHARD_SURFACE = ("open_session", "submit", "dictionary_pushes",
                 "ingest_dack", "acked_epoch", "begin_heal", "resume_heal",
                 "policy_notice_frame", "tick", "restore", "drain",
                 "close", "verdicts", "metrics")
#: FleetMetrics field -> (owner attribute on the shard, owner counter)
OWNED = {
    "reports_ignored": ("manager", "reports_ignored"),
    "duplicates_dropped": ("manager", "duplicates_dropped"),
    "replay_cache_hits": ("_cache", "hits"),
    "replay_cache_misses": ("_cache", "misses"),
    "replay_cache_evictions": ("_cache", "evictions"),
    "evidence_records": ("store", "records_appended"),
    "evidence_bytes": ("store", "bytes_appended"),
    "evidence_fsyncs": ("store", "fsyncs"),
    "sampler_evictions": ("sampler", "evictions"),
}
COUNTERS = [f.name for f in dataclasses.fields(FleetMetrics)
            if f.type == "int" and f.name != "shards"]


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=512)


def test_fleet_wide_operations_live_on_the_router_only():
    for name in FLEET_WIDE:
        assert not hasattr(FleetService, name), name
        assert callable(getattr(ShardedFleetService, name)), name
    with FleetService() as shard:
        for name in SHARD_SURFACE:
            assert hasattr(shard, name), name


def mixed_round(service, factory):
    """Duplicates, reorders, stalls, hostile chains, late reports and a
    second round of identical executions (replay-cache hits)."""
    specs = build_fleet_specs(16, attack_fraction=0.25, seed=4)
    simulator = FleetSimulator(specs, seed=4, factory=factory)
    first = simulator.run(service)
    assert first.ok, first.mismatches
    # late: the settled sessions' chains arrive once more
    for spec in specs[:4]:
        for chunk in factory.chain(spec, b"\x00" * 16):
            service.submit(spec.device_id, chunk, 100.0)
    second = simulator.run(service)
    assert second.ok, second.mismatches


@pytest.mark.parametrize("shards", [1, 2])
def test_every_owned_counter_reads_its_owner(factory, tmp_path, shards):
    with ShardedFleetService(shards=shards, store_dir=tmp_path,
                             sampler=True, fsync=True) as service:
        mixed_round(service, factory)
        per_shard = [shard.metrics for shard in service.shards]
        for shard, metrics in zip(service.shards, per_shard):
            for field, (owner, counter) in OWNED.items():
                assert getattr(metrics, field) == getattr(
                    getattr(shard, owner), counter), field
        total = service.metrics
        for name in COUNTERS:
            assert getattr(total, name) == sum(
                getattr(m, name) for m in per_shard), name
        assert total.shards == shards
        # the round exercised every owner
        assert total.duplicates_dropped and total.reports_ignored
        assert total.replay_cache_hits and total.replay_cache_misses
        assert total.evidence_records and total.evidence_bytes
        assert total.evidence_fsyncs == total.evidence_records


def test_sampler_and_cache_evictions_read_their_owners(factory,
                                                      monkeypatch):
    monkeypatch.setattr(verify, "REPLAY_CACHE_ENTRIES", 1)
    sampler = TrafficSampler(max_streams=1, max_digests=1)
    with FleetService(sampler=sampler) as service:
        specs = build_fleet_specs(6, workloads=("fibcall", "prime"),
                                  attack_fraction=0.0, seed=1)
        FleetSimulator(specs, seed=1, factory=factory).run(service)
        # the owner moves outside any session record: still read
        for index in range(3):
            sampler.observe(specs[0].profile, [],
                            digest=bytes([index]) * 32, size_bytes=1)
        metrics = service.metrics
        assert metrics.sampler_evictions == sampler.evictions > 0
        assert metrics.replay_cache_evictions \
            == service._cache.evictions > 0


def test_metrics_is_a_snapshot(factory):
    with FleetService() as service:
        specs = build_fleet_specs(4, attack_fraction=0.0, seed=5)
        FleetSimulator(specs, seed=5, factory=factory).run(service)
        before = service.metrics
        settled = before.sessions_settled
        latencies = list(before.verify_latencies_s)
        FleetSimulator(specs, seed=5, factory=factory).run(service)
        assert before.sessions_settled == settled
        assert list(before.verify_latencies_s) == latencies
        assert service.metrics.sessions_settled == 2 * settled


def test_router_sample_and_learn_round_match_the_lone_shard(factory):
    specs = build_fleet_specs(12, attack_fraction=0.0, seed=3)
    with ShardedFleetService(shards=1, sampler=True) as service:
        report = FleetSimulator(specs, seed=3, factory=factory).run(service)
        assert report.ok, report.mismatches
        sampler = service.shards[0].sampler
        samples = service.traffic_samples()
        assert sorted(samples, key=str) == sorted(sampler.profiles(),
                                                  key=str)
        for profile in sampler.profiles():
            assert samples[profile] == sampler.sample(profile)
        expected = {}
        for profile, streams in samples.items():
            mined = mine_fleet_dictionary(streams, profile.method)
            if mined:
                expected[profile] = DictionaryRegistry().publish(
                    profile, mined).digest
        published = learn_dictionaries(service)
        assert expected
        assert {p: e.digest for p, e in published.items()} == expected
        for profile, digest in expected.items():
            assert service.registry.latest(profile).digest == digest


# -- admission: the engine is asked only about reports without a session --


def count_admits(engine):
    calls = []
    admits = engine.admits

    def counting(device_id):
        calls.append(device_id)
        return admits(device_id)

    engine.admits = counting
    return calls


def test_honest_policy_round_asks_no_admission_per_report(factory):
    specs = build_fleet_specs(12, attack_fraction=0.0, seed=6)
    specs = [dataclasses.replace(s, behavior="honest") for s in specs]
    with ShardedFleetService(shards=2, policy=True,
                             key_lookup=device_key) as service:
        sessions = []
        for spec in specs:
            challenge = service.open_session(
                spec.device_id, spec.profile, device_key(spec.device_id))
            sessions.append((spec, factory.chain(spec, challenge.nonce)))
        calls = count_admits(service.policy)
        for spec, chunks in sessions:
            for chunk in chunks:
                service.submit(spec.device_id, chunk)
        assert calls == []
        metrics = service.metrics
        assert metrics.sessions_verified == len(specs)
        assert metrics.reports_ingested == sum(len(c) for _, c in sessions)
        assert metrics.reports_denied == 0


def test_quarantined_device_stray_reports_are_denied(factory):
    spec = DeviceSpec("prv-0000", DeviceProfile("vulnerable"), "attack")
    simulator = CampaignSimulator([spec], seed=9, factory=factory)
    with ShardedFleetService(shards=1, policy=True, idle_timeout=5.0,
                             key_lookup=device_key) as service:
        simulator.pin_profiles(service)
        simulator.run_round(service, 0)
        assert service.policy.state_of(spec.device_id) == QUARANTINED
        before = service.metrics
        calls = count_admits(service.policy)
        chunks = factory.chain(spec, b"\x00" * 16)
        for chunk in chunks:
            service.submit(spec.device_id, chunk, 10.0)
        after = service.metrics
        assert calls == [spec.device_id] * len(chunks)
        assert after.reports_denied - before.reports_denied == len(chunks)
        for name in ("reports_ingested", "bytes_ingested",
                     "reports_ignored"):
            assert getattr(after, name) == getattr(before, name), name
