"""Fleet verification throughput: serial Vrf vs the fleet service.

One 200-session honest fleet (fibcall/prime under RAP-Track) transmits
the same report stream to both configurations: the serial baseline
verifies one session at a time through ``verify_session_chain`` with
no sharing; one fleet shard (``FleetService``) runs the identical
interleaved stream, verifying inline with the replay cache. The shard
must reach at least 2x the baseline's reports/sec while producing
byte-identical per-session verdicts — caching is only allowed to move
the clock, never the verdict.

Chain generation (the Prv side) happens before the timed window; the
measurement is ingest + verification only. Each side runs the stream
``PASSES`` times and reports its median pass: one pass lasts only
0.05-0.2 s, short enough for host noise to move a single ratio across
the 2x gate.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    ShardedFleetService,
    build_fleet_specs,
    device_key,
    verify_session_chain,
)
from repro.cfa.fleet.service import FleetService
from conftest import save_table

SESSIONS = 200
SEED = 7
#: timed passes per side; each side reports its median pass
PASSES = 5

#: sharded scale run size — default keeps the suite quick; the
#: benchmarks/results table was produced with FLEET_SCALE_DEVICES=100000
SCALE_DEVICES = int(os.environ.get("FLEET_SCALE_DEVICES", "2000"))


@pytest.fixture(scope="module")
def specs():
    return build_fleet_specs(SESSIONS, attack_fraction=0.0, seed=SEED)


@pytest.fixture(scope="module")
def factory(artifact_cache):
    return ChainFactory(watermark=1024, cache=artifact_cache)


@pytest.fixture(scope="module")
def baseline(specs, factory):
    """Serial verification: per-session, uncached, one at a time."""
    service = FleetService(replay_cache=False)
    sessions = []
    for spec in specs:
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        sessions.append((spec, challenge.nonce,
                         factory.chain(spec, challenge.nonce)))
    reports = sum(len(chunks) for _, _, chunks in sessions)
    walls = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        verdicts = {
            spec.device_id: verify_session_chain(
                spec.device_id, spec.profile, device_key(spec.device_id),
                nonce, chunks)
            for spec, nonce, chunks in sessions
        }
        walls.append(time.perf_counter() - t0)
    return verdicts, statistics.median(walls), reports


def run_fleet(specs, factory):
    """Drive the same interleaved stream through one fleet shard."""
    service = FleetService()
    chains = {}
    order = []
    for spec in specs:
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        chains[spec.device_id] = factory.chain(spec, challenge.nonce)
        order.extend((spec.device_id, i)
                     for i in range(len(chains[spec.device_id])))
    random.Random(SEED).shuffle(order)
    cursors = dict.fromkeys(chains, 0)
    t0 = time.perf_counter()
    for device_id, _ in order:  # per-device cursors keep in-session order
        index = cursors[device_id]
        cursors[device_id] += 1
        service.submit(device_id, chains[device_id][index])
    metrics = service.close()
    wall = time.perf_counter() - t0
    return dict(service.verdicts), wall, metrics


def test_fleet_throughput(specs, factory, baseline, results_dir):
    base_verdicts, base_wall, reports = baseline
    base_rps = reports / base_wall
    runs = [run_fleet(specs, factory) for _ in range(PASSES)]
    verdicts, _, metrics = runs[0]
    wall = statistics.median(run_wall for _, run_wall, _ in runs)
    assert all(run[0] == base_verdicts for run in runs), \
        "fleet: verdicts diverged"
    assert all(v.accepted for v in verdicts.values())
    speedup = base_rps and (reports / wall) / base_rps
    rows = [("serial baseline", base_wall, base_rps, 1.0, "-"),
            ("fleet inline + cache", wall, reports / wall, speedup,
             f"{metrics.replay_cache_hits}/{SESSIONS}")]
    lines = [f"Fleet verification throughput "
             f"({SESSIONS} sessions, {reports} reports, "
             f"median of {PASSES} passes)",
             f"{'configuration':38s} {'wall':>7s} {'rps':>7s} "
             f"{'speedup':>8s} {'cache':>9s}"]
    lines += [f"{label:38s} {wall:6.2f}s {rps:7.0f} {speedup:7.2f}x "
              f"{cache:>9s}"
              for label, wall, rps, speedup, cache in rows]
    save_table(results_dir, "fleet_throughput", "\n".join(lines))
    # the headline claim: inline + cache at >= 2x serial reports/sec
    assert speedup >= 2.0


def run_sharded_scale(specs, factory, shards, store_dir):
    """Stream every device's session through a sharded service.

    Devices are driven one after another (generate chain, submit,
    next) so a 100k-device run stays flat in memory; verdict and
    evidence byte-identity across shard counts cannot depend on the
    interleave anyway — that is what device-scoped nonces guarantee.
    Evidence fsync is off: this measures router + verify throughput,
    not the disk (the durability tests own that axis).
    """
    service = ShardedFleetService(
        shards=shards, store_dir=store_dir, fsync=False)
    reports = 0
    t0 = time.perf_counter()
    for spec in specs:
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        for chunk in factory.chain(spec, challenge.nonce):
            service.submit(spec.device_id, chunk)
            reports += 1
    metrics = service.close()
    wall = time.perf_counter() - t0
    verdicts = dict(service.verdicts)
    heads = service.evidence_heads()
    return verdicts, heads, wall, reports, metrics


def test_fleet_sharded_scale(factory, results_dir, tmp_path):
    """The tentpole differential at scale: a 4-shard fleet must be
    byte-identical (verdicts *and* evidence heads) to the 1-shard
    reference over the same devices, and crash recovery must replay
    the whole evidence trail."""
    specs = build_fleet_specs(SCALE_DEVICES, workloads=("fibcall",),
                              attack_fraction=0.0, seed=SEED)
    runs = {}
    for shards in (1, 4):
        runs[shards] = run_sharded_scale(
            specs, factory, shards, tmp_path / f"scale-{shards}")
    verdicts_1, heads_1, _, _, _ = runs[1]
    verdicts_4, heads_4, wall_4, reports, metrics_4 = runs[4]
    assert verdicts_4 == verdicts_1
    assert heads_4 == heads_1
    assert len(verdicts_4) == SCALE_DEVICES
    assert all(v.accepted for v in verdicts_4.values())

    # recovery: reopen the 4-shard store and replay the evidence trail
    t0 = time.perf_counter()
    recovered = ShardedFleetService(
        shards=4, store_dir=tmp_path / "scale-4", fsync=False,
        resume=True)
    recovery_s = time.perf_counter() - t0
    assert recovered.recovered_verdicts == SCALE_DEVICES
    assert dict(recovered.verdicts) == verdicts_4
    recovered.close()

    lines = [f"Sharded fleet scale run ({SCALE_DEVICES} devices, "
             f"{reports} reports, evidence on, fsync off)",
             f"{'metric':34s} {'value':>12s}"]
    latencies = sorted(metrics_4.verify_latencies_s)
    p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
    for name, value in (
        ("4-shard wall", f"{wall_4:.2f}s"),
        ("4-shard sustained", f"{reports / wall_4:.0f} rps"),
        ("verify latency p99", f"{p99 * 1e3:.2f} ms"),
        ("evidence records", f"{metrics_4.evidence_records}"),
        ("evidence bytes", f"{metrics_4.evidence_bytes}"),
        ("recovery (replay all)", f"{recovery_s:.2f}s"),
        ("1-shard differential", "byte-identical"),
    ):
        lines.append(f"{name:34s} {value:>12s}")
    save_table(results_dir, "fleet_scale", "\n".join(lines))


def test_bench_session_verify_latency(benchmark, specs, factory):
    """Time one end-to-end session verification (no cache)."""
    spec = specs[0]
    service = FleetService(replay_cache=False)
    challenge = service.open_session(
        spec.device_id, spec.profile, device_key(spec.device_id))
    chunks = factory.chain(spec, challenge.nonce)
    verdict = benchmark.pedantic(
        lambda: verify_session_chain(
            spec.device_id, spec.profile, device_key(spec.device_id),
            challenge.nonce, chunks),
        rounds=5, iterations=1)
    assert verdict.accepted
