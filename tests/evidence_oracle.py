"""The reference evidence-body decoder: one :class:`~repro.codec.Reader`
call per field.

This is the per-field decoder the store used before its bodies were
read through one compiled :class:`~repro.codec.Layout`. The production
``repro.cfa.fleet.store._decode_body`` must return a record ``==`` to
what :func:`decode_body` returns, or raise the same error type with the
same message (``tests/test_evidence_decode.py``,
``benchmarks/bench_recovery.py``).
"""

from __future__ import annotations

import hashlib
from typing import Union

from repro.cfa.fleet.store import (
    EVIDENCE_VERSION,
    KIND_POLICY,
    KIND_SESSION,
    EvidenceError,
    EvidenceRecord,
    PolicyRecord,
)
from repro.codec import Reader

_NON_UTF8 = "non-UTF-8 evidence field"
_DIGEST_LEN = 32


def decode_body(body: bytes, prev_digest: bytes, mac: bytes,
                version: int = EVIDENCE_VERSION
                ) -> Union[EvidenceRecord, PolicyRecord]:
    reader = Reader(body, EvidenceError, "evidence body")
    if version >= 3:
        kind = reader.u8()
        if kind == KIND_POLICY:
            return _decode_policy_body(reader, body, prev_digest, mac)
        if kind != KIND_SESSION:
            raise EvidenceError(f"unknown evidence record kind {kind}")
    device_id = reader.lp_str(_NON_UTF8)
    workload = reader.lp_str(_NON_UTF8)
    method = reader.lp_str(_NON_UTF8)
    challenge = reader.lp()
    chain = reader.take(_DIGEST_LEN)
    epoch = reader.u32() if version >= 2 else 0
    flags = reader.u8()
    reason = reader.lp_str(_NON_UTF8)
    reports, records, path_len = reader.unpack("<III")
    path_digest = reader.lp_str(_NON_UTF8)
    records_digest = reader.lp_str(_NON_UTF8) if version >= 2 else ""
    violations = []
    for _ in range(reader.u16()):
        kind = reader.lp_str(_NON_UTF8)
        address = reader.u32()
        detail = reader.lp_str(_NON_UTF8)
        violations.append((kind, address, detail))
    measurement = reader.lp() if version >= 3 else b""
    seq = reader.u32()
    reader.end("trailing bytes inside evidence body")
    return EvidenceRecord(
        device_id=device_id, workload=workload, method=method,
        challenge=challenge, chain_digest=chain, epoch=epoch,
        accepted=bool(flags & 1 << 0),
        authenticated=bool(flags & 1 << 1),
        lossless=bool(flags & 1 << 2),
        cache_hit=bool(flags & 1 << 3),
        expired=bool(flags & 1 << 4),
        reason=reason, reports=reports, records=records,
        path_len=path_len, path_digest=path_digest,
        records_digest=records_digest,
        violations=tuple(violations), seq=seq,
        prev_digest=prev_digest, mac=mac,
        digest=hashlib.sha256(prev_digest + body + mac).digest(),
        measurement=measurement,
        healing=bool(flags & 1 << 5),
    )


def _decode_policy_body(reader: Reader, body: bytes,
                        prev_digest: bytes, mac: bytes) -> PolicyRecord:
    device_id = reader.lp_str(_NON_UTF8)
    workload = reader.lp_str(_NON_UTF8)
    method = reader.lp_str(_NON_UTF8)
    from_state, to_state = reader.unpack("<BB")
    action = reader.lp_str(_NON_UTF8)
    reason = reader.lp_str(_NON_UTF8)
    score, heal_attempt, policy_epoch = reader.unpack("<III")
    measurement = reader.lp()
    seq = reader.u32()
    reader.end("trailing bytes inside policy record body")
    return PolicyRecord(
        device_id=device_id, workload=workload, method=method,
        from_state=from_state, to_state=to_state, action=action,
        reason=reason, score=score, heal_attempt=heal_attempt,
        policy_epoch=policy_epoch, measurement=measurement, seq=seq,
        prev_digest=prev_digest, mac=mac,
        digest=hashlib.sha256(prev_digest + body + mac).digest(),
    )
