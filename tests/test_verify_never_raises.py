"""``verify_session_chain`` never raises, and a cache never moves a verdict.

The fleet verifies inline: no catch-all wraps the call, so a chain that
made it raise would take the submitting thread down with it. This
property drives honest sessions of rap-track, traces and naive-mtb,
plain and speculation-compressed, through two kinds of damage:

* **bytes**: flip a bit, truncate or extend one chunk; drop, duplicate
  or swap chunks;
* **records**: drop, duplicate or swap records, or change a ``dst`` or
  a loop value, then re-sign the report under the device key, so every
  MAC still verifies and the damage reaches replay.

Every mutant must come back as a :class:`SessionVerdict`, the same one
uncached, on a cold cache and on a warm cache, and, when every chunk
decodes, the same again from the decoded twins the service passes.
Token counts are never forged here: a huge forged count is the bounds
screen's case (``tests/test_admission_bounds.py``).
"""

import functools
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.cfa.cflog import CFLog, LoopRecord
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictionaryRegistry,
    ReplayCache,
    SessionVerdict,
    device_key,
    verify_session_chain,
)
from repro.cfa.speccfa import mine_subpaths
from repro.cfa.wire import WireError, decode_report, encode_report, read_report

DEVICE = "prv-mutant"
NONCE = b"\x5a" * 16

#: (workload, method, compressed): loop records, branch and address
#: records, and speculation tokens all reach replay
CASES = (
    ("ultrasonic", "rap-track", False),
    ("ultrasonic", "traces", False),
    ("temperature", "naive-mtb", False),
    ("prime", "rap-track", False),
    ("temperature", "rap-track", True),
    ("prime", "traces", True),
    ("temperature", "naive-mtb", True),
)

BYTE_OPS = ("flip", "truncate", "extend", "drop", "dup", "swap")
RECORD_OPS = ("drop", "dup", "swap", "dst", "loop")


@functools.lru_cache(maxsize=None)
def _factory() -> ChainFactory:
    return ChainFactory(watermark=128)


@functools.lru_cache(maxsize=None)
def honest_session(workload, method, compressed):
    """``(profile, bound challenge, chunks, dict epoch)`` of one honest
    session; compressed sessions use a dictionary mined from the plain
    stream itself."""
    profile = DeviceProfile(workload, method)
    spec = DeviceSpec(DEVICE, profile)
    chunks = _factory().chain(spec, NONCE)
    if not compressed:
        return profile, NONCE, tuple(chunks), None
    records = [r for chunk in chunks
               for r in decode_report(chunk)[0].cflog.records]
    entry = DictionaryRegistry().publish(profile, mine_subpaths(records))
    assert not entry.is_empty
    chunks = _factory().chain(spec, NONCE, entry)
    challenge = decode_report(chunks[0])[0].challenge
    return profile, challenge, tuple(chunks), entry


def damage_bytes(chunks, op, data):
    chunks = list(chunks)
    index = data.draw(st.integers(0, len(chunks) - 1), label="chunk")
    chunk = chunks[index]
    if op == "flip":
        body = bytearray(chunk)
        body[data.draw(st.integers(0, len(body) - 1))] ^= \
            1 << data.draw(st.integers(0, 7))
        chunks[index] = bytes(body)
    elif op == "truncate":
        chunks[index] = chunk[:data.draw(st.integers(0, len(chunk) - 1))]
    elif op == "extend":
        chunks[index] = chunk + data.draw(st.binary(min_size=1,
                                                    max_size=16))
    elif op == "drop":
        del chunks[index]
    elif op == "dup":
        chunks.insert(index, chunk)
    else:
        other = data.draw(st.integers(0, len(chunks) - 1), label="other")
        chunks[index], chunks[other] = chunks[other], chunks[index]
    return chunks


def damage_records(chunks, op, data):
    """Mutate one report's records and re-sign it under the device key."""
    reports = [decode_report(chunk)[0] for chunk in chunks]
    index = data.draw(st.integers(0, len(reports) - 1), label="report")
    report = reports[index]
    records = list(report.cflog.records)
    if op == "dst":
        sites = [i for i, r in enumerate(records) if hasattr(r, "dst")]
        if sites:
            at = data.draw(st.sampled_from(sites), label="record")
            dsts = sorted({r.dst for r in records if hasattr(r, "dst")})
            dst = data.draw(st.one_of(
                st.sampled_from(dsts),
                st.sampled_from(dsts).map(lambda d: (d + 2) & 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF)), label="dst")
            records[at] = replace(records[at], dst=dst)
    elif op == "loop":
        sites = [i for i, r in enumerate(records)
                 if isinstance(r, LoopRecord)]
        if sites:
            at = data.draw(st.sampled_from(sites), label="record")
            value = data.draw(st.integers(0, 64), label="value")
            records[at] = replace(records[at], value=value)
    elif records:
        at = data.draw(st.integers(0, len(records) - 1), label="record")
        if op == "drop":
            del records[at]
        elif op == "dup":
            records.insert(at, records[at])
        else:
            other = data.draw(st.integers(0, len(records) - 1),
                              label="other")
            records[at], records[other] = records[other], records[at]
    report.cflog = CFLog(records)
    report.sign(device_key(DEVICE))
    chunks = list(chunks)
    chunks[index] = encode_report(report)
    return chunks


def decoded_twins(chunks):
    """The reports the service would pass along, or None when a chunk
    does not decode exactly (ingest rejects those before verifying)."""
    reports = []
    for chunk in chunks:
        try:
            report, consumed = read_report(chunk)
        except WireError:
            return None
        if consumed != len(chunk):
            return None
        reports.append(report)
    return reports


def assert_never_raises(case, chunks):
    profile, challenge, _, entry = honest_session(*case)
    key = device_key(DEVICE)

    def verify(cache=None, reports=None):
        verdict = verify_session_chain(
            DEVICE, profile, key, challenge, chunks, cache=cache,
            reports=reports, dict_epoch=entry)
        assert isinstance(verdict, SessionVerdict)
        return verdict

    uncached = verify()
    cache = ReplayCache()
    assert verify(cache) == uncached  # cold: replays, then stores
    assert verify(cache) == uncached  # warm: a hit when authenticated
    reports = decoded_twins(chunks)
    if reports is not None:
        assert verify(cache, reports) == uncached
    return uncached


MUTANT_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def test_honest_sessions_verify():
    for case in CASES:
        verdict = assert_never_raises(case, honest_session(*case)[2])
        assert verdict.accepted, (case, verdict.reason)


@MUTANT_SETTINGS
@given(case=st.sampled_from(CASES), op=st.sampled_from(BYTE_OPS),
       data=st.data())
def test_damaged_bytes_never_raise(case, op, data):
    chunks = damage_bytes(honest_session(*case)[2], op, data)
    assert_never_raises(case, chunks)


@MUTANT_SETTINGS
@given(case=st.sampled_from(CASES), op=st.sampled_from(RECORD_OPS),
       data=st.data())
def test_resigned_record_mutants_never_raise(case, op, data):
    chunks = damage_records(honest_session(*case)[2], op, data)
    verdict = assert_never_raises(case, chunks)
    # the MACs still verify, so the damage reached expansion or replay
    assert verdict.authenticated or "expansion" in verdict.reason
