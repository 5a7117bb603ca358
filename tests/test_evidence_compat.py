"""Backward compatibility for legacy evidence-log formats.

``tests/data/evidence-v1.log`` is a **committed** v1-format log (6
devices, 4 accepted / 2 rejected sessions, written by the PR-9-era
store: no dictionary epochs, no measurements, no policy records). The
current tree must keep that file fully alive: strict audit, service
restore, continued appends in the file's *native* format, and offline
control-plane reconstruction — all next to v3 logs in the same store.

Regenerate (only if the fixture must ever change) with::

    from repro.cfa.fleet.service import FleetService
    path.write_bytes(b"EVD1\\x01")
    store = EvidenceStore(path, audit_key(b"fleet-vrf"))
    service = FleetService(seed=b"fleet-vrf", idle_timeout=5.0,
                           store=store)
    FleetSimulator(build_fleet_specs(6, workloads=("fibcall",), seed=3),
                   seed=7, factory=ChainFactory(watermark=256)).run(service)
"""

import hashlib
import hmac
import shutil
import struct
from pathlib import Path

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    ShardedFleetService,
    audit_key,
    build_fleet_specs,
    device_key,
    verify_evidence_trail,
)
from repro.cfa.fleet.store import (
    GENESIS,
    EvidenceError,
    EvidenceStore,
    _encode_body,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy import PolicyEngine, reconstruct_control_plane
from repro.cli import main

FIXTURE = Path(__file__).parent / "data" / "evidence-v1.log"
SEED = b"fleet-vrf"
KEY = audit_key(SEED)


def test_fixture_is_the_committed_v1_bytes():
    data = FIXTURE.read_bytes()
    assert data[:5] == b"EVD1\x01"
    assert len(data) == 1519  # any drift means the fixture was touched


def test_v1_fixture_audits_clean():
    records = verify_evidence_trail(FIXTURE, KEY)
    assert len(records) == 6
    assert sum(r.accepted for r in records) == 4
    # v1 predates epochs, measurements, healing, and policy records
    for record in records:
        assert not record.is_policy
        assert record.epoch == 0
        assert record.measurement == b""
        assert not record.healing


def test_v1_fixture_rejects_any_bit_flip(tmp_path):
    # the MAC/chain discipline applies to legacy bytes unchanged
    data = bytearray(FIXTURE.read_bytes())
    data[len(data) // 2] ^= 0x01
    damaged = tmp_path / "evidence.log"
    damaged.write_bytes(bytes(data))
    with pytest.raises(EvidenceError):
        verify_evidence_trail(damaged, KEY)


def test_service_restores_v1_and_appends_in_native_format(tmp_path):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    shutil.copy(FIXTURE, store_dir / "evidence-00.log")
    service = ShardedFleetService(shards=1, store_dir=store_dir,
                                  seed=SEED, idle_timeout=5.0,
                                  resume=True)
    assert len(service.verdicts) == 6
    assert service.recovered_verdicts == 6
    # the restored rounds continue the device-scoped nonce sequence:
    # a fixture device attests again and the session settles normally
    spec = build_fleet_specs(6, workloads=("fibcall",), seed=3)[2]
    factory = ChainFactory(watermark=256)
    challenge = service.open_session(spec.device_id, spec.profile,
                                     device_key(spec.device_id), 0.0)
    for chunk in factory.chain(spec, challenge.nonce):
        service.submit(spec.device_id, chunk, 0.0)
    service.drain()
    assert service.verdicts[spec.device_id].accepted
    service.close()
    # the log stayed in its native v1 format and still audits clean
    log = store_dir / "evidence-00.log"
    assert log.read_bytes()[:5] == b"EVD1\x01"
    records = verify_evidence_trail(log, KEY)
    assert len(records) == 7
    assert records[-1].device_id == spec.device_id


def test_v1_log_reconstructs_next_to_a_v3_log(tmp_path):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    shutil.copy(FIXTURE, store_dir / "evidence-00.log")
    # a current-format sibling log with a session + policy decision
    v3 = EvidenceStore(store_dir / "evidence-01.log", KEY)
    verdict = SessionVerdict(
        device_id="aux-0", profile=DeviceProfile("fibcall"),
        accepted=False, authenticated=False, lossless=False,
        violations=(), reason="bad MAC", reports=1, records=4,
        path_len=4, path_digest="ab" * 16, records_digest="cd" * 16)
    session = v3.append(verdict, b"\x5c" * 32)
    engine = PolicyEngine()
    v3.append_decision(engine.observe(session)[0])
    v3.close()

    snapshot = reconstruct_control_plane(store_dir, SEED)
    assert snapshot.logs_verified == 2
    assert snapshot.session_records == 7
    assert snapshot.policy_records == 1
    assert len(snapshot.heads) == 7
    # the v1 half folds too: its rejected sessions are judged
    # retroactively (the fold is format-agnostic), the v3 half's
    # persisted decision replays exactly
    assert snapshot.states()["aux-0"] == "SUSPECT"


def test_policy_control_plane_refuses_to_write_into_v1_logs(tmp_path):
    """Enabling the policy engine over a legacy store is an explicit
    refusal (the repair append would corrupt v1 auditors), not silent
    corruption."""
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    shutil.copy(FIXTURE, store_dir / "evidence-00.log")
    with pytest.raises(EvidenceError, match="version 3"):
        ShardedFleetService(shards=1, store_dir=store_dir, seed=SEED,
                            idle_timeout=5.0, resume=True, policy=True,
                            key_lookup=device_key)


def test_v3_record_with_cache_hit_bit_still_decodes_and_audits(
        tmp_path, capsys):
    """Flag bit 3 (``cache_hit``) is written 0 now, but logs written
    before the replay cache left the evidence set it; such a record
    must still decode, audit and restore."""
    verdict = SessionVerdict(
        device_id="old-0", profile=DeviceProfile("fibcall"),
        accepted=True, authenticated=True, lossless=True,
        violations=(), reason="", reports=3, records=9,
        path_len=40, path_digest="ef" * 32, records_digest="12" * 32)
    challenge = b"\x07" * 16
    body = bytearray(_encode_body(verdict, challenge, b"\x5c" * 32,
                                  expired=False, seq=0, version=3))
    # the flags byte follows kind, the four lp fields, the chain
    # digest and the epoch
    flags_at = 1 + sum(4 + len(field) for field in (
        b"old-0", b"fibcall", b"rap-track", challenge)) + 32 + 4
    assert body[flags_at] == 0b111  # accepted, authenticated, lossless
    body[flags_at] |= 1 << 3
    body = bytes(body)
    mac = hmac.new(KEY, GENESIS + body, hashlib.sha256).digest()
    frame = GENESIS + mac + body
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    log = store_dir / "evidence-00.log"
    log.write_bytes(b"EVD1\x03" + struct.pack("<I", len(frame)) + frame)

    (record,) = verify_evidence_trail(log, KEY)
    assert record.cache_hit
    assert record.to_verdict() == verdict
    assert main(["audit", str(store_dir)]) == 0
    assert "1 records across 1 devices OK" in capsys.readouterr().out
    service = ShardedFleetService(shards=1, store_dir=store_dir,
                                  seed=SEED, idle_timeout=5.0,
                                  resume=True)
    assert service.verdicts == {"old-0": verdict}
    service.close()
