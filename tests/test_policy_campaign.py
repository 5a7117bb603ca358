"""Compromise-then-heal campaigns against the policy control plane.

The SLA the ``repro policy`` CLI and the CI smoke gate enforce, pinned
as tests: every compromised device (genuine ROP execution, report
equivocation, persistent tamper) is quarantined, healed through the
MAC'd HEAL protocol, and rejoined — or revoked when healing is
exhausted — while **zero** honest devices are ever quarantined. The
zero is structural (honest devices never produce rejected verdicts,
and their pinned firmware always evaluates clean), so it is asserted
over every evaluation workload, not sampled.
"""

import json

import pytest

from repro.cfa.fleet import (
    CampaignSimulator,
    ChainFactory,
    DeviceSpec,
    ShardedFleetService,
    build_campaign_specs,
    device_key,
)
from repro.cfa.fleet.verify import DeviceProfile
from repro.cfa.policy import (
    PolicyDeniedError,
    QUARANTINED,
    REVOKED,
    verify_heal_frame,
)
from repro.cli import main
from repro.eval.figures import EVAL_WORKLOADS

SEED = b"fleet-vrf"
IDLE = 5.0


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def policy_service(max_heal_attempts: int = 2) -> ShardedFleetService:
    return ShardedFleetService(
        shards=1, seed=SEED, idle_timeout=IDLE, policy=True,
        key_lookup=device_key, suspect_threshold=2,
        max_heal_attempts=max_heal_attempts)


class TestCampaignSLA:
    def test_every_compromised_device_is_caught_and_healed(
            self, factory):
        specs = build_campaign_specs(
            24, compromised_fraction=0.125, workloads=("fibcall",),
            seed=1)
        simulator = CampaignSimulator(specs, seed=2, factory=factory)
        service = policy_service()
        assert simulator.pin_profiles(service) >= 2
        report = simulator.run(service, rounds=3)
        assert report.ok, report.summary()
        assert len(report.compromised) == 3
        assert sorted(report.quarantined_round) == report.compromised
        assert report.rejoined == report.compromised
        assert report.revoked == []
        assert report.wrongful_quarantines == []
        assert 1.0 <= report.mean_time_to_quarantine <= 3.0
        assert report.healing_success_rate == 1.0
        # every compromised device received a verified notice
        assert report.notices_verified >= len(report.compromised)
        # quarantine + heal + rejoin per compromised device, plus at
        # most one SUSPECT when the tamper device's first flip reads
        # as a soft failure rather than a rogue measurement
        assert 9 <= service.policy.decisions_made <= 10
        service.close()

    def test_campaign_is_deterministic(self, factory):
        specs = build_campaign_specs(
            16, compromised_fraction=0.2, workloads=("fibcall",),
            seed=4)
        runs = []
        for _ in range(2):
            simulator = CampaignSimulator(specs, seed=5,
                                          factory=factory)
            service = policy_service()
            simulator.pin_profiles(service)
            report = simulator.run(service, rounds=2)
            service.close()
            runs.append((report.end_states, report.quarantined_round,
                         report.healed_round, report.denials))
        assert runs[0] == runs[1]

    def test_sharded_campaign_matches_unsharded(self, factory,
                                                tmp_path):
        specs = build_campaign_specs(
            20, compromised_fraction=0.15, workloads=("fibcall",),
            seed=6)
        reports = {}
        for name in ("plain", "sharded"):
            simulator = CampaignSimulator(specs, seed=7,
                                          factory=factory)
            if name == "plain":
                service = policy_service()
            else:
                service = ShardedFleetService(
                    shards=2, store_dir=tmp_path / "store", seed=SEED,
                    idle_timeout=IDLE, policy=True,
                    key_lookup=device_key)
            simulator.pin_profiles(service)
            reports[name] = simulator.run(service, rounds=3)
            service.close()
        plain, sharded = reports["plain"], reports["sharded"]
        assert sharded.ok and plain.ok
        assert sharded.end_states == plain.end_states
        assert sharded.quarantined_round == plain.quarantined_round
        assert sharded.healed_round == plain.healed_round


class TestHonestFleetsAreNeverTouched:
    def test_zero_wrongful_quarantines_across_all_workloads(
            self, factory):
        """One honest device per evaluation workload (cycling every
        honest transport behavior), pinned firmware, two full rounds:
        the policy engine must make zero decisions of any kind."""
        honest = ("honest", "duplicate", "reorder", "stall")
        specs = [
            DeviceSpec(f"prv-{index:04d}", DeviceProfile(workload),
                       honest[index % len(honest)])
            for index, workload in enumerate(EVAL_WORKLOADS)
        ]
        simulator = CampaignSimulator(specs, seed=8, factory=factory)
        service = policy_service()
        assert simulator.pin_profiles(service) == len(EVAL_WORKLOADS)
        report = simulator.run(service, rounds=2)
        service.close()
        assert report.wrongful_quarantines == []
        assert report.quarantined_round == {}
        assert report.denials == 0
        assert service.policy.decisions_made == 0
        assert set(report.end_states.values()) <= {"HEALTHY"}


class TestRevocation:
    def test_exhausted_healing_revokes_and_bars_readmission(
            self, factory):
        """A device that stays compromised through healing: every HEAL
        order is answered with a stale chain, attempts exhaust, and the
        device is permanently revoked (admission refused, no further
        heal orders minted)."""
        spec = DeviceSpec("prv-0000", DeviceProfile("vulnerable"),
                          "attack")
        simulator = CampaignSimulator([spec], seed=9, factory=factory)
        service = policy_service(max_heal_attempts=1)
        simulator.pin_profiles(service)
        simulator.run_round(service, 0)
        assert service.policy.state_of("prv-0000") == QUARANTINED

        pushes = service.heal_pushes(500.0)
        assert [device for device, _ in pushes] == ["prv-0000"]
        device_id, frame = pushes[0]
        order = verify_heal_frame(device_key(device_id), device_id,
                                  frame)
        assert order is not None  # the order itself is authentic
        # the device ignores the re-provision and replays a stale chain
        for chunk in factory.chain(spec, b"\x00" * 32):
            service.submit(device_id, chunk, 500.0)
        service.drain()
        assert service.policy.state_of(device_id) == REVOKED
        with pytest.raises(PolicyDeniedError, match="REVOKED"):
            service.open_session(device_id, spec.profile,
                                 device_key(device_id), 1000.0)
        assert service.heal_pushes(1000.0) == []
        service.close()


class TestPolicyCli:
    def test_policy_command_meets_the_sla(self, capsys):
        rc = main(["policy", "--devices", "12",
                   "--compromised-fraction", "0.1", "--rounds", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "campaign SLA met" in out
        assert "0 wrongful quarantine(s)" in out

    def test_policy_flag_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["policy", "--devices", "4", "--shards", "0"])
        assert exc.value.code == 2
        assert main(["policy", "--devices", "4",
                     "--smoke-restart"]) == 2

    def test_audit_json_clean_and_failing(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["policy", "--devices", "12",
                   "--compromised-fraction", "0.1", "--rounds", "2",
                   "--shards", "2", "--store", str(store)])
        assert rc == 0, capsys.readouterr().out
        capsys.readouterr()

        rc = main(["audit", str(store), "--json"])
        result = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert result["ok"] is True
        assert result["error"] is None
        assert result["policy_records"] > 0
        assert result["records"] == (result["session_records"]
                                     + result["policy_records"])
        assert sum(result["policy_states"].values()) >= 1

        # flip one byte mid-log: the auditor must fail with exit 1
        log = store / "evidence-00.log"
        blob = bytearray(log.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        log.write_bytes(bytes(blob))
        rc = main(["audit", str(store), "--json"])
        result = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert result["ok"] is False
        assert result["error"]
