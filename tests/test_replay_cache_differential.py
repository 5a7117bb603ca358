"""The replay cache must be invisible to verdicts and evidence bytes.

Evidence records the verdict, never which cache served its replay
(flag bit 3 is written 0), and each shard keeps its own bounded
in-memory cache. So the same fleet driven with the cache on, off, and
capped at a single entry must produce identical verdicts, identical
evidence-chain heads and byte-identical evidence logs — across 1, 2
and 4 shards, and across a hard crash and restart (which starts the
cache cold) against an uninterrupted reference run. No store
directory grows a ``replay/`` subdirectory.
"""

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    ShardedFleetService,
    audit_key,
    device_key,
    verify_evidence_trail,
)
from repro.cfa.fleet import verify as verify_mod

SEED = b"fleet-vrf"
MODES = ("on", "off", "one")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


@pytest.fixture(scope="module")
def specs():
    """Several honest devices per firmware (cache hits) interleaved
    across three firmwares plus attacked devices (distinct chains, so a
    one-entry cache keeps evicting)."""
    workloads = ("fibcall", "prime", "gps")
    out = [DeviceSpec(f"prv-{index:02d}",
                      DeviceProfile(workloads[index % 3]), "honest")
           for index in range(12)]
    out += [DeviceSpec(f"atk-{index}", DeviceProfile("vulnerable"),
                       "attack" if index % 2 else "honest")
            for index in range(4)]
    return out


def open_service(store_dir, shards, mode, resume=False):
    return ShardedFleetService(
        shards=shards, store_dir=store_dir, seed=SEED, idle_timeout=5.0,
        replay_cache=mode != "off", resume=resume)


def open_sessions(service, specs, factory):
    """Open a session for every unsettled device; its chain, in order."""
    deliveries = []
    for spec in specs:
        if spec.device_id in service.verdicts:
            continue  # settled before a crash: recovered, not re-run
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        for chunk in factory.chain(spec, challenge.nonce):
            deliveries.append((spec.device_id, chunk))
    return deliveries


def outcome(service, store_dir):
    """Verdicts, evidence heads and every log's bytes, after close."""
    metrics = service.close()
    assert not (store_dir / "replay").exists()
    logs = {path.name: path.read_bytes()
            for path in sorted(store_dir.glob("evidence-*.log"))}
    for path in sorted(store_dir.glob("evidence-*.log")):
        for record in verify_evidence_trail(path, audit_key(SEED)):
            assert not record.cache_hit
    return dict(service.verdicts), service.evidence_heads(), logs, metrics


def run(specs, factory, store_dir, shards, mode):
    service = open_service(store_dir, shards, mode)
    for device_id, chunk in open_sessions(service, specs, factory):
        service.submit(device_id, chunk)
    return outcome(service, store_dir)


@pytest.fixture
def cap_cache(monkeypatch):
    """``cap_cache(mode)`` bounds every replay cache to one entry in
    mode ``"one"`` and restores the real bound otherwise."""
    full = verify_mod.REPLAY_CACHE_ENTRIES

    def apply(mode):
        monkeypatch.setattr(verify_mod, "REPLAY_CACHE_ENTRIES",
                            1 if mode == "one" else full)
    return apply


def test_cache_modes_and_shard_counts_agree(specs, factory, tmp_path,
                                            cap_cache):
    reference = None
    for shards in (1, 2, 4):
        logs_by_mode = {}
        for mode in MODES:
            cap_cache(mode)
            verdicts, heads, logs, metrics = run(
                specs, factory, tmp_path / f"s{shards}-{mode}", shards,
                mode)
            if reference is None:
                reference = verdicts, heads
                assert set(heads) == {s.device_id for s in specs}
            assert (verdicts, heads) == reference
            logs_by_mode[mode] = logs
            # the modes really differ in what the cache did
            if mode == "on":
                assert metrics.replay_cache_hits > 0
            elif mode == "off":
                assert metrics.replay_cache_hits == 0
            else:
                assert metrics.replay_cache_evictions > 0
        assert logs_by_mode["on"] == logs_by_mode["off"]
        assert logs_by_mode["on"] == logs_by_mode["one"]


# hard-stop after the k-th delivery (including mid-chain)
CRASH_POINTS = (1, 17, 40)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_crash_restart_matches_uninterrupted(specs, factory, tmp_path,
                                             cap_cache, mode,
                                             crash_point):
    cap_cache("on")
    ref_verdicts, ref_heads, ref_logs, _ = run(
        specs, factory, tmp_path / "reference", 2, "on")
    cap_cache(mode)
    store_dir = tmp_path / "crashed"
    service = open_service(store_dir, 2, mode)
    deliveries = open_sessions(service, specs, factory)
    assert crash_point < len(deliveries)
    for device_id, chunk in deliveries[:crash_point]:
        service.submit(device_id, chunk)
    released = dict(service.verdicts)
    del service  # the crash: no drain, no close
    resumed = open_service(store_dir, 2, mode, resume=True)
    assert dict(resumed.verdicts) == released
    for device_id, chunk in open_sessions(resumed, specs, factory):
        resumed.submit(device_id, chunk)
    verdicts, heads, logs, _ = outcome(resumed, store_dir)
    assert verdicts == ref_verdicts
    assert heads == ref_heads
    # same record order as the uninterrupted run, cold cache or not
    assert logs == ref_logs
