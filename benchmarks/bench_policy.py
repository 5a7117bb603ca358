"""Policy control plane at fleet scale: SLA metrics + fold overhead.

Two axes. **SLA**: a compromise-then-heal campaign (5% of the fleet
running genuine attacks, equivocating, or persistently tampered) over
a sharded durable store must quarantine every compromised device,
heal-and-rejoin all of them, and never touch an honest device — while
the table records mean time-to-quarantine, healing success, decision
volume, and how fast a killed coordinator rebuilds the whole control
plane from the evidence store. **Overhead**: the quarantine engine is
a pure fold over verdicts the service already produced, so an honest
fleet with the policy engine on must not measurably lose throughput
against the same fleet with it off — the fold is allowed to move the
clock by noise, never by a tier.

Chain generation (the Prv side) happens before the timed windows; the
measurements are ingest + verification (+ fold) only.
"""

from __future__ import annotations

import os
import time

from repro.cfa.fleet import (
    CampaignSimulator,
    ChainFactory,
    ShardedFleetService,
    build_campaign_specs,
    build_fleet_specs,
    device_key,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.policy import PolicyEngine, PolicyRegistry, policy_key
from conftest import save_table

#: campaign size — default keeps the suite quick; the committed
#: benchmarks/results table was produced with POLICY_SCALE_DEVICES=2000
SCALE = int(os.environ.get("POLICY_SCALE_DEVICES", "400"))
ROUNDS = 3
SEED = 7
SHARDS = 2


def test_policy_campaign_sla(artifact_cache, results_dir, tmp_path):
    factory = ChainFactory(watermark=1024, cache=artifact_cache)
    specs = build_campaign_specs(SCALE, compromised_fraction=0.05,
                                 seed=SEED)
    simulator = CampaignSimulator(specs, seed=SEED, factory=factory)
    store = tmp_path / "policy-evidence"
    service = ShardedFleetService(
        shards=SHARDS, store_dir=store, fsync=False,
        policy=True, key_lookup=device_key)
    simulator.pin_profiles(service)
    t0 = time.perf_counter()
    report = simulator.run(service, rounds=ROUNDS)
    wall = time.perf_counter() - t0
    decisions = service.policy.decisions_made
    metrics = service.close()
    assert report.ok, report.summary()
    assert report.rejoined == report.compromised
    assert report.wrongful_quarantines == []

    # a killed coordinator rebuilds states + heal orders from evidence
    t0 = time.perf_counter()
    resumed = ShardedFleetService(
        shards=SHARDS, store_dir=store, fsync=False, resume=True,
        policy=True, key_lookup=device_key)
    rebuild_s = time.perf_counter() - t0
    assert resumed.policy.state_names() == report.end_states
    resumed.close()

    lines = [f"Policy campaign SLA ({SCALE} devices, "
             f"{len(report.compromised)} compromised, {ROUNDS} rounds, "
             f"{SHARDS} shards, evidence on, fsync off)",
             f"{'metric':34s} {'value':>14s}"]
    for name, value in (
        ("campaign wall", f"{wall:.2f}s"),
        ("sustained", f"{metrics.reports_ingested / wall:.0f} rps"),
        ("quarantined / compromised",
         f"{len(report.quarantined_round)}/{len(report.compromised)}"),
        ("mean time to quarantine",
         f"{report.mean_time_to_quarantine:.2f} rounds"),
        ("healing success", f"{report.healing_success_rate:.0%}"),
        ("wrongful quarantines", f"{len(report.wrongful_quarantines)}"),
        ("notices MAC-verified", f"{report.notices_verified}"),
        ("policy decisions", f"{decisions}"),
        ("evidence records", f"{metrics.evidence_records}"),
        ("control-plane rebuild", f"{rebuild_s * 1e3:.1f} ms"),
    ):
        lines.append(f"{name:34s} {value:>14s}")
    save_table(results_dir, "policy_sla", "\n".join(lines))


def run_honest(specs, factory, policy):
    service = FleetService(idle_timeout=5.0, policy=policy,
                           key_lookup=device_key if policy else None)
    sessions = []
    for spec in specs:
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        sessions.append((spec, factory.chain(spec, challenge.nonce)))
    reports = 0
    t0 = time.perf_counter()
    for spec, chunks in sessions:
        for chunk in chunks:
            service.submit(spec.device_id, chunk)
            reports += 1
    service.drain()
    wall = time.perf_counter() - t0
    verdicts = dict(service.verdicts)
    service.close()
    return verdicts, reports / wall


def test_policy_fold_overhead_is_noise(artifact_cache, results_dir):
    """Honest fleet, engine on vs off: identical verdicts, zero
    decisions, and throughput within noise (>= 0.8x)."""
    factory = ChainFactory(watermark=1024, cache=artifact_cache)
    specs = build_fleet_specs(SCALE, workloads=("fibcall", "prime"),
                              attack_fraction=0.0, seed=SEED)
    base_verdicts, base_rps = run_honest(specs, factory, policy=None)
    engine = PolicyEngine(registry=PolicyRegistry(
        policy_key(b"fleet-vrf")))
    verdicts, rps = run_honest(specs, factory, policy=engine)
    assert {d: v.accepted for d, v in verdicts.items()} \
        == {d: v.accepted for d, v in base_verdicts.items()}
    assert engine.decisions_made == 0  # honest fleet: silent engine
    lines = [f"Policy fold overhead ({SCALE} honest devices)",
             f"{'configuration':22s} {'rps':>8s}",
             f"{'policy off':22s} {base_rps:8.0f}",
             f"{'policy on':22s} {rps:8.0f}",
             f"{'ratio':22s} {rps / base_rps:7.2f}x"]
    save_table(results_dir, "policy_overhead", "\n".join(lines))
    assert rps >= 0.8 * base_rps
