"""Caller threads submitting at once must equal one caller.

Verification runs inline, on the thread whose ``submit`` completes a
chain, so the only concurrency left in the fleet service is several
caller threads submitting to one service at once. Four threads drive
disjoint device sets through one 2-shard service with a durable
evidence store; every shard's replay cache is shared by all four
threads. The same pre-generated deliveries are then driven by one
thread through a fresh service. Nonces are device-scoped, so both
services issue identical challenges and every device transmits
byte-identical traffic: the verdict maps and the per-device evidence
heads must compare ``==``. A 50-device mixed fleet driven serially
through the simulator anchors the expectations first.
"""

import random
import sys
import threading

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetSimulator,
    ShardedFleetService,
    build_fleet_specs,
    device_key,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.simulator import apply_behavior

DEVICES = 50
THREADS = 4
ROUNDS = 3
SEED = 11
BEHAVIORS = ("honest", "duplicate", "reorder", "tamper", "truncate",
             "attack", "equivocate", "honest")


@pytest.fixture(scope="module")
def fleet_specs():
    return build_fleet_specs(DEVICES, attack_fraction=0.3, seed=SEED)


@pytest.fixture(scope="module")
def serial_run(fleet_specs):
    sim = FleetSimulator(fleet_specs, seed=SEED)
    service = FleetService(idle_timeout=5.0)
    report = sim.run(service)
    return sim, report, dict(service.verdicts)


class TestSerialBaseline:
    def test_every_expectation_met(self, serial_run):
        _, report, verdicts = serial_run
        assert report.ok, report.mismatches
        assert len(verdicts) == DEVICES

    def test_mixed_outcomes_present(self, fleet_specs, serial_run):
        _, _, verdicts = serial_run
        accepted = sum(1 for v in verdicts.values() if v.accepted)
        assert 0 < accepted < DEVICES  # the fleet is genuinely mixed


@pytest.fixture(scope="module")
def specs():
    out = []
    for index in range(32):
        behavior = BEHAVIORS[index % len(BEHAVIORS)]
        workload = ("vulnerable" if behavior == "attack"
                    else ("fibcall", "prime")[index % 2])
        out.append(DeviceSpec(f"prv-{index:02d}", DeviceProfile(workload),
                              behavior))
    return out


@pytest.fixture(scope="module")
def deliveries(specs):
    """device id -> one delivery list per round, answering that
    round's device-scoped challenge."""
    factory = ChainFactory(watermark=256)
    probe = ShardedFleetService(shards=1, idle_timeout=5.0)
    rng = random.Random(SEED)
    out = {spec.device_id: [] for spec in specs}
    for _ in range(ROUNDS):
        for spec in specs:
            challenge = probe.open_session(
                spec.device_id, spec.profile, device_key(spec.device_id))
            out[spec.device_id].append(apply_behavior(
                spec.behavior, factory.chain(spec, challenge.nonce), rng))
        for spec in specs:  # settle the round so the next one can open
            for chunk in out[spec.device_id][-1]:
                probe.submit(spec.device_id, chunk)
    probe.close()
    return out


def drive(service, specs, deliveries, round_index):
    """Open one round for ``specs`` and deliver it, interleaving the
    devices report by report."""
    for spec in specs:
        service.open_session(spec.device_id, spec.profile,
                             device_key(spec.device_id))
    queues = [list(deliveries[spec.device_id][round_index])
              for spec in specs]
    while any(queues):
        for spec, queue in zip(specs, queues):
            if queue:
                service.submit(spec.device_id, queue.pop(0))


def run(specs, deliveries, store_dir, threads):
    service = ShardedFleetService(shards=2, store_dir=store_dir,
                                  idle_timeout=5.0, fsync=False)
    groups = [specs[i::threads] for i in range(threads)]
    barrier = threading.Barrier(threads)
    errors = []

    def caller(group):
        try:
            for round_index in range(ROUNDS):
                barrier.wait()
                drive(service, group, deliveries, round_index)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)
            barrier.abort()

    workers = [threading.Thread(target=caller, args=(group,))
               for group in groups]
    # switch threads often, so a check-then-act race has room to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    metrics = service.close()
    return dict(service.verdicts), service.evidence_heads(), metrics


class TestConcurrentEqualsSerial:
    def test_caller_threads_equal_one_caller(self, specs, deliveries,
                                             tmp_path):
        serial = run(specs, deliveries, tmp_path / "serial", threads=1)
        threaded = run(specs, deliveries, tmp_path / "threaded",
                       threads=THREADS)
        verdicts, heads, metrics = threaded
        assert verdicts == serial[0]
        assert heads == serial[1]
        assert set(heads) == {spec.device_id for spec in specs}
        # the fleet is genuinely mixed; the threads shared cached replays
        accepted = sum(v.accepted for v in verdicts.values())
        assert 0 < accepted < len(specs)
        assert metrics.sessions_settled == ROUNDS * len(specs)
        assert metrics.replay_cache_hits > 0
