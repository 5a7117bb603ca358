"""One canonical encoding of every byte format, built from fixed inputs.

Shared by the golden-digest pins (``test_golden_bytes.py``) and the
decoder battery (``test_codec.py``). Each :class:`Sample` carries the
encoding, the strict decoder that reads it back, the typed error that
decoder raises on damage, and the byte offsets of the fields the
battery corrupts: the first byte of every string field, and every
length prefix or count.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Callable, Dict, NamedTuple, Tuple, Type

from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.fleet.store import (
    GENESIS,
    EvidenceError,
    _decode_body,
    _encode_body,
    _encode_policy_body,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyDecision
from repro.cfa.policy.registry import PolicyError, pack_policy, unpack_policy
from repro.cfa.report import Report
from repro.cfa.speccfa import SpecRecord, pack_dictionary, unpack_dictionary
from repro.cfa.wire import (
    SHARD_KIND_REPORT,
    WireError,
    decode_dack_frame,
    decode_dict_frame,
    decode_heal_frame,
    decode_policy_frame,
    decode_result,
    decode_shard_frame,
    encode_dack_frame,
    encode_dict_frame,
    encode_heal_frame,
    encode_policy_frame,
    encode_report,
    encode_shard_frame,
)
from repro.core.analysis.certificate import (
    BoundsCertificate,
    bounds_key,
    decode_certificate,
    sign_certificate,
)

KEY = hashlib.sha256(b"golden-key").digest()
DIGEST = hashlib.sha256(b"golden-digest").digest()
MEASUREMENT = hashlib.sha256(b"golden-measurement").digest()
NONCE = bytes(range(16))
MAC = hmac.new(KEY, b"golden-mac", hashlib.sha256).digest()
PROFILE = DeviceProfile("golden-workload", "rap-track")
DEVICE = "device-0042"

DICTIONARY = {
    1: (BranchRecord(0x100, 0x200), LoopRecord(0x104, 9)),
    7: (AddressRecord(0x108, 0x30C),),
}


class Sample(NamedTuple):
    blob: bytes
    decode: Callable[[bytes], object]
    error: Type[Exception]
    #: offsets of the first byte of each UTF-8 string field
    strings: Tuple[int, ...]
    #: offsets of each u32 length prefix or count
    u32s: Tuple[int, ...]
    #: offsets of each u16 length prefix or count
    u16s: Tuple[int, ...] = ()


def _at(blob: bytes, field: bytes) -> int:
    """Offset of ``field``, which must occur exactly once in ``blob``."""
    pos = blob.find(field)
    assert pos >= 0 and blob.find(field, pos + 1) < 0, field
    return pos


def _strings(blob: bytes, *values: str) -> Tuple[int, ...]:
    return tuple(_at(blob, v.encode()) for v in values)


def _prefixes(blob: bytes, *values: bytes) -> Tuple[int, ...]:
    """Offsets of the u32 length prefixes in front of ``values``."""
    return tuple(_at(blob, struct.pack("<I", len(v)) + v) for v in values)


def _report() -> Sample:
    report = Report(
        device_id=b"device-0042", method="rap-track", challenge=NONCE,
        h_mem=MEASUREMENT, seq=3, final=True,
        cflog=CFLog([BranchRecord(0x100, 0x200), AddressRecord(0x104, 0x2),
                     LoopRecord(0x108, 7), SpecRecord(1, 5)]),
        mac=MAC)
    blob = encode_report(report)
    return Sample(
        blob, decode_result, WireError,
        strings=_strings(blob, "rap-track"),
        u32s=(5,) + _prefixes(blob, b"device-0042", b"rap-track", NONCE,
                              MEASUREMENT, MAC)
        + (_at(blob, struct.pack("<IBI", 3, 1, 4)) + 5,))


def _rshd() -> Sample:
    payload = b"payload-bytes"
    blob = encode_shard_frame(7, DEVICE, payload, SHARD_KIND_REPORT)
    return Sample(blob, decode_shard_frame, WireError,
                  strings=_strings(blob, DEVICE),
                  u32s=_prefixes(blob, DEVICE.encode(), payload))


def _dict() -> Sample:
    payload = pack_dictionary(DICTIONARY)
    blob = encode_dict_frame(PROFILE.workload, PROFILE.method, 2, DIGEST,
                             payload)
    return Sample(blob, decode_dict_frame, WireError,
                  strings=_strings(blob, PROFILE.workload, PROFILE.method),
                  u32s=_prefixes(blob, PROFILE.workload.encode(),
                                 PROFILE.method.encode(), payload))


def _dack() -> Sample:
    blob = encode_dack_frame(DEVICE, 2, DIGEST, MAC)
    return Sample(blob, decode_dack_frame, WireError,
                  strings=_strings(blob, DEVICE),
                  u32s=_prefixes(blob, DEVICE.encode(), MAC))


def _plcy() -> Sample:
    blob = encode_policy_frame(DEVICE, "QUARANTINED", "bad edge at 0x1c4",
                               3, MAC)
    return Sample(blob, decode_policy_frame, WireError,
                  strings=_strings(blob, DEVICE, "QUARANTINED",
                                   "bad edge at 0x1c4"),
                  u32s=_prefixes(blob, DEVICE.encode(), b"QUARANTINED",
                                 b"bad edge at 0x1c4", MAC))


def _heal() -> Sample:
    blob = encode_heal_frame(DEVICE, 1, 3, MEASUREMENT, NONCE, MAC)
    return Sample(blob, decode_heal_frame, WireError,
                  strings=_strings(blob, DEVICE),
                  u32s=_prefixes(blob, DEVICE.encode(), MEASUREMENT, NONCE,
                                 MAC))


def _spd1() -> Sample:
    blob = pack_dictionary(DICTIONARY)
    return Sample(blob, unpack_dictionary, ValueError, strings=(),
                  u32s=(4,), u16s=(12, 36))


def _fwp1() -> Sample:
    other = hashlib.sha256(b"golden-other").digest()
    revoked = hashlib.sha256(b"golden-revoked").digest()
    blob = pack_policy(PROFILE, 2, MEASUREMENT, (other,), (revoked,))
    counts = tuple(_at(blob, b"\x01\x00" + struct.pack("<I", 32) + m)
                   for m in (other, revoked))
    return Sample(blob, unpack_policy, PolicyError,
                  strings=_strings(blob, PROFILE.workload, PROFILE.method),
                  u32s=_prefixes(blob, PROFILE.workload.encode(),
                                 PROFILE.method.encode(), MEASUREMENT,
                                 other, revoked),
                  u16s=counts)


CERTIFICATE = BoundsCertificate(
    workload="golden-workload", method="rap-track",
    image_digest=MEASUREMENT, max_stack_depth=3, max_log_records=None,
    max_log_bytes=4096, recursion_cycles=(("fib", "fib_helper"),),
    depth_exact=True, call_keys=(0x104, 0x200), return_keys=(0x1F0,))


def _bnds1() -> Sample:
    blob = sign_certificate(CERTIFICATE, bounds_key(b"golden"))
    keys = struct.pack("<III", 2, 0x104, 0x200)
    return Sample(
        blob, decode_certificate, ValueError,
        strings=_strings(blob, "golden-workload", "rap-track", "fib_helper")
        + (_at(blob, b"\x03\x00fib\x0a") + 2,),
        u32s=(_at(blob, keys), _at(blob, keys) + 12),
        u16s=tuple(_at(blob, struct.pack("<H", len(v)) + v) for v in (
            b"golden-workload", b"rap-track", MEASUREMENT, b"fib_helper"))
        + (len(blob) - 34,))


VERDICT = SessionVerdict(
    device_id=DEVICE, profile=PROFILE, accepted=False, authenticated=True,
    lossless=True,
    violations=(("bad-edge", 0x1C4, "jump to 0x2000 not in the CFG"),),
    reason="control-flow violation", reports=2, records=17, path_len=41,
    path_digest="a1b2c3d4", records_digest="e5f60718")


def _evidence() -> Sample:
    blob = _encode_body(VERDICT, NONCE, DIGEST, expired=False, seq=5,
                        epoch=2, measurement=MEASUREMENT, healing=True)
    strings = (DEVICE, PROFILE.workload, "rap-track", "control-flow "
               "violation", "a1b2c3d4", "e5f60718", "bad-edge",
               "jump to 0x2000 not in the CFG")
    return Sample(
        blob, lambda body: _decode_body(body, GENESIS, MAC), EvidenceError,
        strings=_strings(blob, *strings),
        u32s=_prefixes(blob, *(s.encode() for s in strings), NONCE,
                       MEASUREMENT),
        u16s=(_at(blob, b"\x01\x00" + struct.pack("<I", 8) + b"bad-edge"),))


DECISION = PolicyDecision(
    device_id=DEVICE, workload=PROFILE.workload, method=PROFILE.method,
    from_state=1, to_state=2, action="quarantine",
    reason="failure score 2 >= 2", score=2, heal_attempt=0,
    policy_epoch=3, measurement=MEASUREMENT)


def _evidence_policy() -> Sample:
    blob = _encode_policy_body(DECISION, seq=6)
    strings = (DEVICE, PROFILE.workload, "rap-track", "quarantine",
               "failure score 2 >= 2")
    return Sample(
        blob, lambda body: _decode_body(body, GENESIS, MAC), EvidenceError,
        strings=_strings(blob, *strings),
        u32s=_prefixes(blob, *(s.encode() for s in strings), MEASUREMENT))


def samples() -> Dict[str, Sample]:
    """Every format's canonical sample, by format name."""
    return {
        "report": _report(),
        "RSHD": _rshd(),
        "DICT": _dict(),
        "DACK": _dack(),
        "PLCY": _plcy(),
        "HEAL": _heal(),
        "SPD1": _spd1(),
        "FWP1": _fwp1(),
        "BNDS1": _bnds1(),
        "evidence-session": _evidence(),
        "evidence-policy": _evidence_policy(),
    }
