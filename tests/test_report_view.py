"""The report view: the Vrf's one report parser, pinned to the decoder.

* :func:`read_report` against :func:`decode_report` and the per-record
  reference decoder (``test_ingest.ref_decode_report``) over the
  canonical report sample, every single-bit flip, cut and extension of
  it, and hypothesis mutations: the same fields (the records as their
  packed span) or the same ``WireError`` message;
* :meth:`ReportView.verify` against :meth:`Report.verify` of the
  decoded report, under the right and a wrong key, for re-signed
  record mutants, an empty CFLog, zero-length fields and a non-ASCII
  method;
* a fleet round verifies without building a record: a replay-cache
  hit decodes none, and neither does a miss.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cfa.speccfa as speccfa
import repro.cfa.wire as wire
from byte_samples import samples
from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetSimulator,
    ReplayCache,
    device_key,
    verify_session_chain,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.report import Report
from repro.cfa.speccfa import SpecRecord, mine_subpaths
from repro.cfa.wire import (
    WireError,
    decode_report,
    encode_report,
    read_report,
)
from repro.codec import lp
from test_ingest import outcome, ref_decode_report, reports

KEY = b"\x11" * 32
SAMPLE = samples()["report"].blob


def packed(records) -> bytes:
    return b"".join(record.pack() for record in records)


def view_outcome(data: bytes):
    """What :func:`read_report` makes of ``data``, in the shape of
    ``test_ingest.outcome``: the records as the span that packs them."""
    try:
        view, consumed = read_report(data)
    except WireError as exc:
        return ("error", str(exc))
    return ("report", consumed, view.device_id, view.method,
            view.challenge, view.h_mem, view.seq, view.final, view.span,
            view.mac)


def decoded_outcome(decoder, data: bytes):
    got = outcome(decoder, data)
    if got[0] == "error":
        return got
    return got[:8] + (packed(got[8]),) + got[9:]


def assert_agree(data: bytes) -> None:
    got = view_outcome(data)
    assert got == decoded_outcome(decode_report, data)
    assert got == decoded_outcome(ref_decode_report, data)
    if got[0] == "report":
        view = read_report(data)[0]
        assert view.head == b"".join(map(lp, (
            view.device_id, view.method.encode(), view.challenge,
            view.h_mem)))


# -- the differential ---------------------------------------------------------


class TestReadDifferential:
    def test_the_sample_reads_like_the_decoder(self):
        assert view_outcome(SAMPLE)[0] == "report"
        assert_agree(SAMPLE)

    def test_every_bit_flip(self):
        for at in range(len(SAMPLE)):
            for bit in range(8):
                damaged = bytearray(SAMPLE)
                damaged[at] ^= 1 << bit
                assert_agree(bytes(damaged))

    def test_every_cut_and_extension(self):
        for cut in range(len(SAMPLE)):
            assert_agree(SAMPLE[:cut])
        for tail in (b"\x00", b"\xff", b"RAPT\x01", SAMPLE):
            assert_agree(SAMPLE + tail)

    def test_trailing_bytes_inside_the_body(self):
        (length,) = struct.unpack_from("<I", SAMPLE, 5)
        grown = SAMPLE[:5] + struct.pack("<I", length + 1) + SAMPLE[9:]
        assert view_outcome(grown + b"\x00") == (
            "error", "trailing bytes inside report body")
        assert_agree(grown + b"\x00")

    @pytest.mark.parametrize("tag", [0, 5, 9, 0xFF])
    def test_unknown_tag_is_named_in_stream_order(self, tag):
        records = [BranchRecord(1, 2), LoopRecord(3, 4), AddressRecord(5, 6)]
        data = bytearray(encode_report(Report(
            device_id=b"d", method="rap-track", challenge=b"c", h_mem=b"h",
            seq=0, final=True, cflog=CFLog(records), mac=b"m" * 32)))
        first = len(data) - 4 - 32 - 9 * len(records)
        data[first + 9] = tag
        data[first + 18] = 0xFE
        assert view_outcome(bytes(data)) == (
            "error", f"unknown record tag {tag}")
        assert_agree(bytes(data))

    @given(reports, st.data())
    @settings(deadline=None, max_examples=400)
    def test_mutated_reports_read_or_fail_identically(self, report, data):
        encoded = bytearray(encode_report(report))
        assert_agree(bytes(encoded))
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, len(encoded) - 1))
            encoded[index] ^= data.draw(st.integers(1, 255))
        cut = data.draw(st.integers(0, len(encoded)))
        tail = data.draw(st.binary(max_size=12))
        assert_agree(bytes(encoded[:cut]) + tail)

    @given(st.binary(max_size=80))
    @settings(deadline=None, max_examples=200)
    def test_arbitrary_bytes_fail_identically(self, blob):
        for data in (blob, b"RAPT\x01" + blob):
            assert_agree(data)


# -- the MAC ------------------------------------------------------------------


def assert_same_verdicts(report: Report) -> None:
    data = encode_report(report)
    view, decoded = read_report(data)[0], decode_report(data)[0]
    for key in (KEY, KEY[:-1] + b"\x12", b""):
        assert view.verify(key) == decoded.verify(key)
    assert view.verify(KEY) == (report.mac == Report(
        report.device_id, report.method, report.challenge, report.h_mem,
        report.seq, report.final, report.cflog).sign(KEY).mac)


def signed(**fields) -> Report:
    base = dict(device_id=b"prv-7", method="rap-track", challenge=b"c" * 16,
                h_mem=b"h" * 32, seq=2, final=False,
                cflog=CFLog([BranchRecord(0x100, 0x200), LoopRecord(4, 9),
                             SpecRecord(1, 3), AddressRecord(8, 12)]))
    base.update(fields)
    return Report(**base).sign(KEY)


class TestViewMac:
    def test_right_and_wrong_key(self):
        report = signed()
        assert read_report(encode_report(report))[0].verify(KEY)
        assert_same_verdicts(report)

    def test_empty_cflog_and_zero_length_fields(self):
        assert_same_verdicts(signed(cflog=CFLog()))
        assert_same_verdicts(signed(device_id=b"", method="", challenge=b"",
                                    h_mem=b"", cflog=CFLog()))
        assert_same_verdicts(signed(final=True, seq=0xFFFFFFFF))

    def test_non_ascii_method(self):
        report = signed(method="rap-träck-☃")
        assert read_report(encode_report(report))[0].verify(KEY)
        assert_same_verdicts(report)

    def test_a_report_signed_over_other_fields_fails(self):
        report = signed()
        for field, value in (("seq", 3), ("final", True),
                             ("challenge", b"d" * 16), ("h_mem", b"x"),
                             ("cflog", CFLog([BranchRecord(0x100, 0x200)]))):
            forged = replace(report, **{field: value})
            assert not read_report(encode_report(forged))[0].verify(KEY)
            assert_same_verdicts(forged)

    def test_resigned_record_mutants(self):
        records = list(signed().cflog.records)
        mutants = [records[:-1], records + records[:1], records[::-1],
                   [replace(records[0], dst=0x204)] + records[1:],
                   records[:1] + [LoopRecord(4, 10)] + records[2:]]
        for mutant in mutants:
            report = signed(cflog=CFLog(mutant))
            assert read_report(encode_report(report))[0].verify(KEY)
            assert_same_verdicts(report)
            stale = replace(report, mac=signed().mac)
            assert not read_report(encode_report(stale))[0].verify(KEY)
            assert_same_verdicts(stale)

    @given(reports, st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_any_report(self, report, sign):
        assert_same_verdicts(report.sign(KEY) if sign else report)


# -- the verification path builds no record -----------------------------------


FIBCALL = DeviceProfile("fibcall")
VULNERABLE = DeviceProfile("vulnerable")


def test_the_verification_path_builds_no_record(monkeypatch):
    """A fleet verifies from the packed wire records alone: with
    ``decode_records`` and ``expand`` raising in every module that
    imports them, a sampler-off service reaches the same verdicts over
    replay-cache misses and hits, a ROP attack and compressed
    sessions."""
    factory = ChainFactory()
    specs = ([DeviceSpec(f"prv-{i}", FIBCALL) for i in range(3)]
             + [DeviceSpec("prv-v", VULNERABLE),
                DeviceSpec("prv-evil", VULNERABLE, behavior="attack")])
    # the device side decodes its MTB readout: every execution is
    # attested, and the dictionary mined, while the decoders still work
    for spec in specs:
        factory.chain(spec, b"n" * 16)
    dictionary = mine_subpaths([
        r for log in factory._templates[(FIBCALL, False)].cflogs
        for r in log.records], FIBCALL.method)
    assert dictionary

    def fleet_round():
        simulator = FleetSimulator(specs, seed=5, factory=factory)
        with FleetService() as service:
            plain = simulator.run(service)
            service.registry.publish(FIBCALL, dictionary)
            assert simulator.handshake(service) == 3
            compressed = simulator.run(service)
            cache = service._cache
        assert plain.ok and compressed.ok
        return (plain.verdicts, compressed.verdicts,
                (cache.hits, cache.misses))

    want = fleet_round()

    def refuse(*_args):
        raise AssertionError("the verification path built a record")

    for module in list(sys.modules.values()):
        for name, real in (("decode_records", wire.decode_records),
                           ("expand", speccfa.expand)):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, refuse)
    got = fleet_round()
    assert got == want
    hits, misses = got[2]
    assert hits and misses


@pytest.fixture
def decodes(monkeypatch):
    """Count the record decodes of every module that imports
    ``decode_records``."""
    calls = []
    real = wire.decode_records
    for module in list(sys.modules.values()):
        if getattr(module, "decode_records", None) is real:
            monkeypatch.setattr(
                module, "decode_records",
                lambda span: calls.append(span) or real(span))
    return calls


class TestDecodeOnMiss:
    def test_a_cache_hit_decodes_no_record(self, decodes):
        factory = ChainFactory()
        cache = ReplayCache()
        for device in ("prv-1", "prv-2"):
            chunks = factory.chain(DeviceSpec(device, FIBCALL), b"n" * 16)
            before = len(decodes)
            verdict = verify_session_chain(
                device, FIBCALL, device_key(device), b"n" * 16, chunks,
                cache=cache)
            assert verdict.accepted
            # the miss replays the packed log, so it decodes none either
            assert len(decodes) == before
        assert cache.hits == 1 and cache.misses == 1

    def test_a_fleet_round_decodes_only_its_misses(self, decodes):
        specs = [DeviceSpec(f"prv-{i}", FIBCALL) for i in range(4)]
        factory = ChainFactory()
        for spec in specs:
            factory.chain(spec, b"n" * 16)
        before = len(decodes)
        simulator = FleetSimulator(specs, seed=5, factory=factory)
        with FleetService() as service:
            assert simulator.run(service).ok
            cache = service._cache
        assert cache.misses == 1 and cache.hits == len(specs) - 1
        # a miss replays the packed log: the round decodes no record
        assert len(decodes) == before
