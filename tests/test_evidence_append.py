"""``EvidenceStore.append`` returns exactly the record it wrote.

The store builds the returned record from the values it just encoded
instead of parsing its own frame back. These tests pin that the two
agree: every returned record is ``==`` what ``_decode_body`` reads
from the frame on disk, on fresh v3 logs and on reopened legacy v1/v2
logs (each keeps its native format), for expired and healing sessions,
violation addresses outside u32, empty reasons and policy records. The
log still audits and a ``resume=True`` reopen gives the same heads.
"""

import shutil
import struct
from pathlib import Path

import pytest

from repro.cfa.fleet import audit_key, verify_evidence_trail
from repro.cfa.fleet.store import (
    EVIDENCE_MAGIC,
    EvidenceStore,
    _decode_body,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyDecision

FIXTURE = Path(__file__).parent / "data" / "evidence-v1.log"
KEY = audit_key(b"fleet-vrf")
PROFILE = DeviceProfile("fibcall")


def last_frame_record(store: EvidenceStore):
    """``_decode_body`` of the last frame in the store's file."""
    store._fh.flush()
    data = store.path.read_bytes()
    pos, last = 5, None
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        last = data[pos + 4:pos + 4 + length]
        pos += 4 + length
    return _decode_body(last[64:], last[:32], last[32:64], data[4])


def verdicts():
    """Session verdicts covering every field rule of the encoder."""
    yield SessionVerdict(
        device_id="prv-0", profile=PROFILE, accepted=True,
        authenticated=True, lossless=True, reports=3, records=66,
        path_len=120, path_digest="ab" * 32, records_digest="cd" * 32)
    yield SessionVerdict(
        device_id="prv-1", profile=PROFILE, accepted=False,
        authenticated=True, lossless=True, reason="",
        violations=(("ret", 1 << 31, "shadow stack"),
                    ("ijump", -4, "negative address"),
                    ("call", 0xFFFFFFFF, "")),
        reports=1, records=2, path_len=3, path_digest="",
        records_digest="ef" * 32)
    yield SessionVerdict(
        device_id="prv-2", profile=DeviceProfile("prime", "traces"),
        accepted=False, reason="idle timeout after 2 attempt(s)")
    yield SessionVerdict(
        device_id="prv-0", profile=PROFILE, accepted=False,
        authenticated=False, reason="bad MAC on report #0 — ünïcode")


APPENDS = [
    # (verdict index, expired, epoch, measurement, healing)
    (0, False, 3, b"\x11" * 32, False),
    (1, False, 0, b"", False),
    (2, True, 0, b"", False),
    (3, False, 7, b"\x22" * 32, True),
    (0, False, 0, b"\x33" * 32, True),
]


def decision(device_id="prv-0", to_state=3, reason=""):
    return PolicyDecision(
        device_id=device_id, workload="fibcall", method="rap-track",
        from_state=1, to_state=to_state, action="quarantine",
        reason=reason, score=2, heal_attempt=1, policy_epoch=4,
        measurement=b"\x44" * 32)


def append_all(store, epochs=True):
    """Append every case; each return must equal its decoded frame."""
    all_verdicts = list(verdicts())
    for index, expired, epoch, measurement, healing in APPENDS:
        record = store.append(
            all_verdicts[index], chain=bytes([index]) * 32,
            challenge=b"nonce-%d" % index, expired=expired,
            epoch=epoch if epochs else 0, measurement=measurement,
            healing=healing)
        assert record == last_frame_record(store)
        assert not record.cache_hit
        assert store.head(record.device_id) == record.digest


def check_reopen(path: Path):
    """Audit the log, then reopen it: same records, same heads."""
    audited = verify_evidence_trail(path, KEY)
    with EvidenceStore(path, KEY, fsync=False) as reopened:
        assert reopened.recovered == audited
        heads = reopened.heads()
    assert heads == {r.device_id: r.digest for r in audited}
    return audited


def test_fresh_v3_sessions_and_policy_records(tmp_path):
    path = tmp_path / "evidence.log"
    with EvidenceStore(path, KEY, fsync=False) as store:
        append_all(store)
        for case in (decision(), decision("prv-9", 0, "rejoined ✓")):
            record = store.append_decision(case)
            assert record == last_frame_record(store)
            assert record.is_policy
        heads = store.heads()
    audited = check_reopen(path)
    assert len(audited) == len(APPENDS) + 2
    assert {r.device_id: r.digest for r in audited} == heads
    # the v3 field rules: measurement and healing survive
    assert audited[3].healing and audited[3].measurement == b"\x22" * 32
    assert audited[1].violations[1] == ("ijump", (-4) & 0xFFFFFFFF,
                                        "negative address")


@pytest.mark.parametrize("version", [1, 2])
def test_reopened_legacy_logs_keep_their_field_rules(tmp_path, version):
    path = tmp_path / "evidence.log"
    if version == 1:
        shutil.copy(FIXTURE, path)
    else:
        path.write_bytes(EVIDENCE_MAGIC + bytes([version]))
    with EvidenceStore(path, KEY, fsync=False) as store:
        assert store.version == version
        before = len(store.recovered)
        # v1 cannot record an epoch; v2 records it but drops
        # measurement and healing (healing on a v2 log included)
        append_all(store, epochs=version >= 2)
    audited = check_reopen(path)
    appended = audited[before:]
    assert len(appended) == len(APPENDS)
    for record in appended:
        assert record.measurement == b"" and not record.healing
        if version == 1:
            assert record.epoch == 0 and record.records_digest == ""
    if version == 2:
        assert appended[0].epoch == 3
        assert appended[0].records_digest == "cd" * 32
