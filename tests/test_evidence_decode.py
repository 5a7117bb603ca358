"""Differential: the one-pass evidence-body decoder against the oracle.

``repro.cfa.fleet.store._decode_body`` reads a body through one
compiled :class:`~repro.codec.Layout`; ``tests/evidence_oracle.py``
reads it one :class:`~repro.codec.Reader` call per field. On every
input both must return ``==`` records of the same type, or raise
:class:`EvidenceError` with the same message. The inputs: the
``byte_samples`` evidence samples and their damaged variants, every
frame of the committed v1 fixture, v2 and v3 logs written through the
store (expired, healing and violating sessions, empty strings, policy
records), and hypothesis mutations of those bodies.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evidence_oracle
from byte_samples import samples
from repro.cfa.fleet import audit_key
from repro.cfa.fleet.store import (
    EVIDENCE_MAGIC,
    EvidenceError,
    EvidenceStore,
    _decode_body,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyDecision

FIXTURE = Path(__file__).parent / "data" / "evidence-v1.log"
KEY = audit_key(b"fleet-vrf")
SAMPLES = {name: sample for name, sample in samples().items()
           if name.startswith("evidence")}
#: (body, prev_digest, mac, version)
Frame = Tuple[bytes, bytes, bytes, int]


def outcome(decode, body: bytes, prev: bytes, mac: bytes, version: int,
            **kwargs):
    try:
        return "record", decode(body, prev, mac, version, **kwargs)
    except EvidenceError as exc:
        return "error", str(exc)


def agree(body: bytes, prev: bytes = b"p" * 32, mac: bytes = b"m" * 32,
          version: int = 3) -> None:
    want = outcome(evidence_oracle.decode_body, body, prev, mac, version)
    memo: dict = {}
    for _ in range(2):  # a cold, then a warm text memo
        got = outcome(_decode_body, body, prev, mac, version, memo=memo)
        assert got == want
        assert type(got[1]) is type(want[1])


def frames(data: bytes) -> List[Frame]:
    out = []
    pos = 5
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        frame = data[pos + 4:pos + 4 + length]
        out.append((frame[64:], frame[:32], frame[32:64], data[4]))
        pos += 4 + length
    return out


PROFILE = DeviceProfile("fibcall")


def write_log(path: Path, version: int) -> bytes:
    """A log of ``version`` holding every field rule of the encoder."""
    if version < 3:
        path.write_bytes(EVIDENCE_MAGIC + bytes([version]))
    verdicts = [
        SessionVerdict(
            device_id="prv-0", profile=PROFILE, accepted=True,
            authenticated=True, lossless=True, reports=3, records=66,
            path_len=120, path_digest="ab" * 32,
            records_digest="cd" * 32),
        SessionVerdict(
            device_id="prv-1", profile=DeviceProfile("gps", "traces"),
            accepted=False, authenticated=True, lossless=True,
            reason="control-flow violation",
            violations=(("ret", 1 << 31, "shadow stack"),
                        ("ijump", 0xFFFFFFFF, ""), ("", 0, "")),
            reports=1, records=2, path_len=3, path_digest="",
            records_digest="ef" * 32),
        SessionVerdict(device_id="prv-2", profile=PROFILE,
                       accepted=False,
                       reason="idle timeout after 2 attempt(s)"),
        SessionVerdict(device_id="", profile=DeviceProfile("", ""),
                       accepted=False, reason="ünïcode — ✓"),
    ]
    with EvidenceStore(path, KEY, fsync=False) as store:
        for index, verdict in enumerate(verdicts * 2):
            store.append(verdict, chain=bytes([index]) * 32,
                         challenge=b"nonce-%d" % index if index else b"",
                         expired=index == 2, epoch=index if version >= 2
                         else 0, measurement=b"\x11" * 32 * (index % 2),
                         healing=index == 5)
        if version >= 3:
            for device_id, reason in (("prv-1", "violation"),
                                      ("prv-2", "")):
                store.append_decision(PolicyDecision(
                    device_id=device_id, workload="fibcall",
                    method="rap-track", from_state=1, to_state=2,
                    action="quarantine", reason=reason, score=2,
                    heal_attempt=1, policy_epoch=4,
                    measurement=b"\x44" * 32 if reason else b""))
    return path.read_bytes()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> List[Frame]:
    """Every frame of the v1 fixture and of fresh v2 and v3 logs."""
    root = tmp_path_factory.mktemp("logs")
    out = frames(FIXTURE.read_bytes())
    for version in (2, 3):
        out += frames(write_log(root / f"v{version}.log", version))
    return out


# -- the fixed inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_samples_and_their_damage_agree(name):
    sample = SAMPLES[name]
    blob = sample.blob
    agree(blob)
    for cut in range(len(blob)):
        agree(blob[:cut])
    agree(blob + b"\x00")
    for pos in sample.strings:
        agree(blob[:pos] + b"\xff" + blob[pos + 1:])
    for pos, ones in ([(p, b"\xff" * 4) for p in sample.u32s]
                      + [(p, b"\xff" * 2) for p in sample.u16s]):
        agree(blob[:pos] + ones + blob[pos + len(ones):])


def test_every_logged_frame_agrees(corpus):
    versions = {version for *_, version in corpus}
    assert versions == {1, 2, 3}
    kinds = set()
    for body, prev, mac, version in corpus:
        agree(body, prev, mac, version)
        record = _decode_body(body, prev, mac, version)
        kinds.add((version, record.is_policy))
    assert (3, True) in kinds and (2, False) in kinds


def test_bodies_read_under_another_version_agree(corpus):
    for body, prev, mac, version in corpus:
        for other in {1, 2, 3} - {version}:
            agree(body, prev, mac, other)


def test_unknown_record_kind(corpus):
    body, prev, mac, _ = next(f for f in corpus if f[3] == 3)
    for kind in (2, 0x7F, 0xFF):
        agree(bytes([kind]) + body[1:], prev, mac)
        with pytest.raises(EvidenceError,
                           match=f"unknown evidence record kind {kind}"):
            _decode_body(bytes([kind]) + body[1:], prev, mac)


def test_empty_body():
    for version in (1, 2, 3):
        agree(b"", version=version)


# -- hypothesis mutations -----------------------------------------------------


@st.composite
def mutated(draw, corpus: List[Frame]) -> Frame:
    body, prev, mac, version = draw(st.sampled_from(corpus))
    how = draw(st.sampled_from(["cut", "extend", "flip", "ones",
                                "non-utf8"]))
    if how == "cut":
        body = body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    elif how == "extend":
        body += draw(st.binary(min_size=1, max_size=12))
    elif body:
        at = draw(st.integers(0, len(body) - 1))
        if how == "flip":
            mask = draw(st.integers(1, 255))
            body = body[:at] + bytes([body[at] ^ mask]) + body[at + 1:]
        elif how == "ones":
            body = body[:at] + b"\xff" * 4 + body[at + 4:]
        else:  # a byte no UTF-8 string may hold
            body = body[:at] + draw(st.sampled_from(
                [b"\xff", b"\xc0", b"\x80"])) + body[at + 1:]
    return body, prev, mac, version


def test_mutated_bodies_agree(corpus):
    @settings(max_examples=400, deadline=None, database=None)
    @given(mutated(corpus))
    def check(frame: Frame) -> None:
        agree(*frame)

    check()


def test_0xff_at_every_offset_agrees(corpus):
    # inside a string field this is invalid UTF-8; elsewhere it damages
    # a length prefix, a count or a fixed field
    for body, prev, mac, version in corpus:
        for at in range(len(body)):
            damaged = body[:at] + b"\xff" + body[at + 1:]
            agree(damaged, prev, mac, version)
