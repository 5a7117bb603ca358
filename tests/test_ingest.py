"""The bytes-first fleet ingest path, pinned to what it replaced.

* the one-pass interned decoder against a verbatim copy of the
  per-record decoder it replaced (valid and mutated bytes: records,
  consumed length and ``WireError`` messages all equal), and its
  intern table staying within ``INTERN_CAP`` under any traffic;
* the replay-cache key hashed from the received record bytes against
  the digest of the expanded, re-packed records;
* one dictionary parse per epoch however many sessions pin it;
* a decoded report whose log is changed no longer verifies;
* the bounded :class:`ReplayCache` (verdicts unchanged, evictions
  counted, the durable cache re-reading evicted entries from disk);
* the traffic sampler expanding a stream only when it keeps it.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.cfa.fleet.dictver as dictver
import repro.cfa.fleet.service as service_mod
import repro.cfa.fleet.verify as verify_mod
import repro.cfa.speccfa as speccfa
import repro.cfa.wire as wire
from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictEpoch,
    DurableReplayCache,
    FleetSimulator,
    ReplayCache,
    TrafficSampler,
    device_key,
    learn_dictionaries,
    verify_session_chain,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.verify import _ReplaySummary, build_verifier
from repro.cfa.report import Report
from repro.cfa.speccfa import (
    PackedExpander,
    SpecRecord,
    compress,
    expand,
    pack_dictionary,
)
from repro.cfa.wire import WireError, decode_report, encode_report, read_report

FIBCALL = DeviceProfile("fibcall")


# -- the per-record decoder the one-pass decoder replaced (reference) ---------


class _RefReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WireError("truncated wire data")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def lp_bytes(self) -> bytes:
        return self.take(self.u32())

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _ref_decode_record(reader: _RefReader):
    tag = reader.u8()
    a = reader.u32()
    b = reader.u32()
    if tag == 1:
        return BranchRecord(a, b)
    if tag == 2:
        return AddressRecord(a, b)
    if tag == 3:
        return LoopRecord(a, b)
    if tag == 4:
        return SpecRecord(a, b)
    raise WireError(f"unknown record tag {tag}")


def ref_decode_report(data: bytes):
    reader = _RefReader(data)
    if reader.take(4) != b"RAPT":
        raise WireError("bad magic")
    version = reader.u8()
    if version != 1:
        raise WireError(f"unsupported version {version}")
    body = _RefReader(reader.lp_bytes())
    device_id = body.lp_bytes()
    try:
        method = body.lp_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"method field is not valid UTF-8: {exc}") from None
    challenge = body.lp_bytes()
    h_mem = body.lp_bytes()
    seq, final = struct.unpack("<IB", body.take(5))
    if final not in (0, 1):
        raise WireError(f"final flag must be 0 or 1, got {final}")
    count = body.u32()
    if count * 9 > len(body.data) - body.pos:
        raise WireError(
            f"record count {count} exceeds the remaining body")
    records = [_ref_decode_record(body) for _ in range(count)]
    mac = body.lp_bytes()
    if not body.exhausted:
        raise WireError("trailing bytes inside report body")
    report = Report(
        device_id=device_id, method=method, challenge=challenge,
        h_mem=h_mem, seq=seq, final=bool(final), cflog=CFLog(records),
        mac=mac,
    )
    return report, reader.pos


def outcome(decoder, data: bytes):
    """What a decoder makes of ``data``: its fields or its error."""
    try:
        report, consumed = decoder(data)
    except WireError as exc:
        return ("error", str(exc))
    return ("report", consumed, report.device_id, report.method,
            report.challenge, report.h_mem, report.seq, report.final,
            report.cflog.records, report.mac)


u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
small = st.integers(min_value=0, max_value=40)
any_record = st.one_of(
    st.builds(BranchRecord, u32, u32),
    st.builds(AddressRecord, small, small),
    st.builds(LoopRecord, small, u32),
    st.builds(SpecRecord, small, small),
)
reports = st.builds(
    Report,
    device_id=st.binary(max_size=12),
    method=st.text(max_size=10),
    challenge=st.binary(max_size=20),
    h_mem=st.binary(max_size=32),
    seq=u32,
    final=st.booleans(),
    cflog=st.builds(CFLog, st.lists(any_record, max_size=30)),
    mac=st.binary(max_size=32),
)


class TestDecoderDifferential:
    @given(reports)
    @settings(deadline=None, max_examples=200)
    def test_valid_reports_decode_identically(self, report):
        data = encode_report(report)
        assert outcome(decode_report, data) == outcome(
            ref_decode_report, data)
        assert outcome(decode_report, data)[0] == "report"

    @given(reports, st.data())
    @settings(deadline=None, max_examples=400)
    def test_mutated_bytes_decode_or_fail_identically(self, report, data):
        encoded = bytearray(encode_report(report))
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, len(encoded) - 1))
            encoded[index] ^= data.draw(st.integers(1, 255))
        cut = data.draw(st.integers(0, len(encoded)))
        tail = data.draw(st.binary(max_size=12))
        mutated = bytes(encoded[:cut]) + tail
        assert outcome(decode_report, mutated) == outcome(
            ref_decode_report, mutated)

    @given(st.lists(any_record, min_size=1, max_size=20), st.data())
    @settings(deadline=None, max_examples=200)
    def test_unknown_record_tags_fail_identically(self, records, data):
        report = Report(device_id=b"d", method="rap-track", challenge=b"c",
                        h_mem=b"h", seq=0, final=True,
                        cflog=CFLog(records), mac=b"m" * 32)
        encoded = bytearray(encode_report(report))
        first = len(encoded) - 4 - 32 - 9 * len(records)
        assert encoded[first:first + 9] == records[0].pack()
        for index in data.draw(st.sets(st.integers(0, len(records) - 1),
                                       min_size=1, max_size=3)):
            encoded[first + 9 * index] = data.draw(
                st.sampled_from([0, 5, 9, 0xFF]))
        got = outcome(decode_report, bytes(encoded))
        assert got == outcome(ref_decode_report, bytes(encoded))
        assert got[0] == "error" and got[1].startswith(
            "unknown record tag")

    @given(st.binary(max_size=80))
    @settings(deadline=None, max_examples=200)
    def test_arbitrary_bytes_fail_identically(self, blob):
        for data in (blob, b"RAPT\x01" + blob):
            assert outcome(decode_report, data) == outcome(
                ref_decode_report, data)

    def test_equal_records_share_one_value(self):
        log = [BranchRecord(7, 9), LoopRecord(3, 4), BranchRecord(7, 9)]
        report = Report(device_id=b"d", method="m", challenge=b"c",
                        h_mem=b"h", seq=0, final=True, cflog=CFLog(log),
                        mac=b"")
        first, _ = decode_report(encode_report(report))
        second, _ = decode_report(encode_report(report))
        a, b = first.cflog.records, second.cflog.records
        assert a[0] is a[2] is b[0] and a[1] is b[1]


def _distinct_reports(start: int, count: int, per_report: int = 100):
    """Encoded reports carrying ``count`` distinct records in total."""
    out = []
    for base in range(start, start + count, per_report):
        records = [BranchRecord(i, i + 1)
                   for i in range(base, min(base + per_report,
                                            start + count))]
        out.append(encode_report(Report(
            device_id=b"d", method="m", challenge=b"c", h_mem=b"h",
            seq=0, final=True, cflog=CFLog(records), mac=b"")))
    return out


class TestInternBound:
    @pytest.fixture
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(wire, "INTERN_CAP", 64)
        monkeypatch.setattr(wire, "_interned", {})
        return 64

    def test_table_stays_within_the_cap(self, small_cap):
        for data in _distinct_reports(0, 1000):
            assert outcome(decode_report, data) == outcome(
                ref_decode_report, data)
            assert len(wire._interned) <= small_cap

    def test_table_stays_within_the_cap_across_threads(self, small_cap):
        blobs = _distinct_reports(0, 3000, per_report=30) * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda d: outcome(decode_report, d),
                                    blobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [outcome(ref_decode_report, d) for d in blobs]
        assert len(wire._interned) <= small_cap

    def test_default_cap_holds(self):
        blobs = _distinct_reports(1 << 20, wire.INTERN_CAP + 500)
        for data in blobs:
            assert outcome(decode_report, data) == outcome(
                ref_decode_report, data)
        assert len(wire._interned) <= wire.INTERN_CAP


# -- the replay-cache key from the wire bytes ---------------------------------


def _reference_key(records, dictionary) -> bytes:
    expanded = expand(records, dictionary)
    return hashlib.sha256(b"".join(r.pack() for r in expanded)).digest()


def _epoch(dictionary) -> DictEpoch:
    payload = pack_dictionary(dictionary)
    return DictEpoch(FIBCALL, 1, hashlib.sha256(payload).digest(), payload)


def _wire_key(records, cuts, epoch):
    """Split ``records`` into reports at ``cuts``, send them over the
    wire, and key the received bytes."""
    bounds = [0] + sorted(set(cuts)) + [len(records)]
    chunks = [encode_report(Report(
        device_id=b"d", method="rap-track", challenge=b"c", h_mem=b"h",
        seq=seq, final=False, cflog=CFLog(records[lo:hi]), mac=b"k" * 32))
        for seq, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    return ReplayCache.key([read_report(chunk)[0].span for chunk in chunks],
                           epoch.expander if epoch else None)


plain_record = st.one_of(
    st.builds(BranchRecord, small, small),
    st.builds(AddressRecord, small, small),
    st.builds(LoopRecord, small, u32),
)
patterns = st.lists(plain_record, min_size=1, max_size=5)


class TestKeyDifferential:
    @given(st.lists(plain_record, max_size=60),
           st.lists(st.integers(0, 60), max_size=4))
    @settings(deadline=None, max_examples=150)
    def test_plain_chains(self, records, cuts):
        cuts = [c for c in cuts if c <= len(records)]
        assert _wire_key(records, cuts, None) == _reference_key(
            records, {})
        assert _wire_key(records, cuts, _epoch({0: (BranchRecord(1, 2),)})
                         ) == _reference_key(records, {})

    @given(st.lists(patterns, min_size=1, max_size=4),
           st.lists(st.integers(0, 12), min_size=1, max_size=30),
           st.lists(st.integers(0, 60), max_size=4))
    @settings(deadline=None, max_examples=150)
    def test_compressed_chains(self, pats, picks, cuts):
        dictionary = {i: tuple(p) for i, p in enumerate(pats)}
        # a stream of whole patterns and loose records, then compressed
        stream = []
        for pick in picks:
            if pick < len(pats):
                stream.extend(pats[pick] * (1 + pick % 3))
            else:
                stream.append(BranchRecord(100 + pick, pick))
        records = compress(stream, dictionary)
        cuts = [c for c in cuts if c <= len(records)]
        key = _wire_key(records, cuts, _epoch(dictionary))
        assert key == _reference_key(records, dictionary)
        assert key == _reference_key(stream, {})

    def test_unknown_path_id_fails_like_expand(self):
        dictionary = {0: (BranchRecord(1, 2),)}
        records = [BranchRecord(5, 6), SpecRecord(0, 2), SpecRecord(7, 1)]
        with pytest.raises(ValueError) as want:
            expand(records, dictionary)
        with pytest.raises(ValueError) as got:
            _wire_key(records, [2], _epoch(dictionary))
        assert str(got.value) == str(want.value)

    def test_expander_memo_stays_within_its_budget(self, monkeypatch):
        monkeypatch.setattr(speccfa, "EXPANSION_MEMO_BYTES", 200)
        dictionary = {0: (BranchRecord(1, 2), LoopRecord(3, 4))}
        expander = PackedExpander(dictionary)
        for count in list(range(1, 40)) * 2:
            records = [SpecRecord(0, count), BranchRecord(count, 0)]
            assert expander.expand_span(CFLog(records).pack()) == b"".join(
                r.pack() for r in expand(records, dictionary))
            assert expander._memo_bytes == sum(
                map(len, expander._memo.values())) <= 200

    def test_token_without_dictionary_fails_like_expand(self):
        records = [BranchRecord(5, 6), SpecRecord(3, 1)]
        with pytest.raises(ValueError) as want:
            expand(records, {})
        with pytest.raises(ValueError) as got:
            _wire_key(records, [], None)
        assert str(got.value) == str(want.value)


def _signed_chain(device_id, profile, records_per_report, challenge=b"c"):
    key = device_key(device_id)
    h_mem = build_verifier(profile, key).expected_h_mem
    last = len(records_per_report) - 1
    return [encode_report(Report(
        device_id=device_id.encode(), method=profile.method,
        challenge=challenge, h_mem=h_mem, seq=seq, final=seq == last,
        cflog=CFLog(records)).sign(key))
        for seq, records in enumerate(records_per_report)]


class TestSessionKey:
    def test_unknown_path_id_rejects_with_the_expansion_reason(self):
        dictionary = {0: (BranchRecord(1, 2),)}
        chunks = _signed_chain("prv-0", FIBCALL,
                               [[SpecRecord(0, 1)], [SpecRecord(9, 1)]])
        for epoch in (_epoch(dictionary), None):
            verdict = verify_session_chain(
                "prv-0", FIBCALL, device_key("prv-0"), b"c", chunks,
                cache=ReplayCache(), dict_epoch=epoch)
            assert not verdict.accepted and verdict.authenticated is False
            assert verdict.reason == (
                "speculation expansion failed: unknown speculated sub-path "
                f"id {0 if epoch is None else 9}")

    def test_decoded_twins_and_bytes_agree(self):
        factory = ChainFactory()
        chunks = factory.chain(DeviceSpec("prv-1", FIBCALL), b"n" * 16)
        twins = [read_report(chunk)[0] for chunk in chunks]
        args = ("prv-1", FIBCALL, device_key("prv-1"), b"n" * 16, chunks)
        assert verify_session_chain(*args) == verify_session_chain(
            *args, reports=twins)


# -- one parse per dictionary epoch -------------------------------------------


class TestOneParsePerEpoch:
    def test_sessions_share_their_epoch_parse(self, monkeypatch):
        specs = [DeviceSpec(f"prv-{i}", FIBCALL) for i in range(6)]
        factory = ChainFactory()
        simulator = FleetSimulator(specs, seed=3, factory=factory)
        with FleetService(sampler=True) as service:
            assert simulator.run(service).ok
            published = learn_dictionaries(service)
            assert FIBCALL in published
            assert simulator.handshake(service) == len(specs)
            # every device adopted the one pushed epoch object
            assert len({id(e) for e in
                        simulator.device_epochs.values()}) == 1
            parses = []
            real = dictver.unpack_dictionary
            monkeypatch.setattr(dictver, "unpack_dictionary",
                                lambda payload: parses.append(1)
                                or real(payload))
            for _ in range(3):
                report = simulator.run(service)
                assert report.ok, report.mismatches
            assert len(parses) == 1  # the service's epoch, once
            assert service.registry.get(FIBCALL, 0) is \
                service.registry.get(FIBCALL, 0)


# -- a decoded report's MAC covers its log as it stands -----------------------


class TestDecodedLogMutation:
    KEY = b"k" * 32

    def decoded(self):
        report = Report(device_id=b"d", method="rap-track", challenge=b"c",
                        h_mem=b"h", seq=0, final=True,
                        cflog=CFLog([BranchRecord(1, 2), SpecRecord(0, 3),
                                     LoopRecord(4, 5)])).sign(self.KEY)
        out, _ = decode_report(encode_report(report))
        assert out.verify(self.KEY)
        return out

    def test_append(self):
        report = self.decoded()
        report.cflog.append(BranchRecord(1, 2))
        assert not report.verify(self.KEY)
        report = self.decoded()
        report.cflog.records.append(BranchRecord(1, 2))
        assert not report.verify(self.KEY)

    def test_item_replacement(self):
        report = self.decoded()
        report.cflog.records[1] = SpecRecord(0, 4)
        assert not report.verify(self.KEY)
        report.cflog.records[1] = SpecRecord(0, 3)  # an equal value
        assert report.verify(self.KEY)

    def test_reassigning_the_log(self):
        report = self.decoded()
        report.cflog = CFLog([BranchRecord(1, 2)])
        assert not report.verify(self.KEY)
        report = self.decoded()
        report.cflog.records = report.cflog.records[:2]
        assert not report.verify(self.KEY)
        report = self.decoded()
        report.cflog = CFLog(report.cflog.records)  # same values, no bytes
        assert report.verify(self.KEY)


# -- the bounded replay cache -------------------------------------------------


def _hostile_chains(count: int):
    """Authenticated chains, each a distinct stream replay rejects."""
    return [_signed_chain("prv-h", FIBCALL,
                          [[BranchRecord(0x1000 + i, 0x2000 + i)]])
            for i in range(count)]


class TestReplayCacheBound:
    def settle(self, cache, chains):
        return [verify_session_chain("prv-h", FIBCALL, device_key("prv-h"),
                                     b"c", chunks, cache=cache)
                for chunks in chains]

    def test_hostile_streams_plateau_with_verdicts_unchanged(
            self, monkeypatch):
        chains = _hostile_chains(40)
        uncapped = self.settle(ReplayCache(), chains + chains[:5])
        monkeypatch.setattr(verify_mod, "REPLAY_CACHE_ENTRIES", 8)
        cache = ReplayCache()
        sizes = []
        verdicts = []
        for chunks in chains + chains[:5]:
            verdicts += self.settle(cache, [chunks])
            sizes.append(len(cache._entries))
        assert verdicts == uncapped == self.settle(None, chains + chains[:5])
        assert not any(v.accepted for v in verdicts)
        assert max(sizes) == 8 and sizes[-1] == 8
        # the five repeats were evicted long ago: replayed again
        assert cache.evictions == 45 - 8 and cache.hits == 0

    def test_eviction_is_oldest_first(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "REPLAY_CACHE_ENTRIES", 2)
        cache = ReplayCache()
        entry = _ReplaySummary(True, (), "", 1, 1, "00")
        for key in (b"a", b"b", b"c"):
            cache.store(FIBCALL, key, entry)
        assert cache.lookup(FIBCALL, b"a") is None
        assert cache.lookup(FIBCALL, b"b") == cache.lookup(FIBCALL, b"c")
        assert cache.evictions == 1

    def test_durable_cache_rereads_evicted_entries(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setattr(verify_mod, "REPLAY_CACHE_ENTRIES", 2)
        cache = DurableReplayCache(tmp_path)
        entries = {key: _ReplaySummary(True, (), "", n, n, "00")
                   for n, key in enumerate((b"a", b"b", b"c"))}
        for key, entry in entries.items():
            cache.store(FIBCALL, key, entry)
        assert len(cache._entries) == 2 and cache.evictions == 1
        assert cache.lookup(FIBCALL, b"a") == entries[b"a"]
        assert cache.disk_hits == 1 and len(cache._entries) == 2
        memory_only = DurableReplayCache(None)
        for key, entry in entries.items():
            memory_only.store(FIBCALL, key, entry)
        assert memory_only.lookup(FIBCALL, b"a") is None


# -- the sampler expands only streams it keeps --------------------------------


class TestSamplerExpansion:
    def test_stream_built_only_when_kept(self):
        sampler = TrafficSampler(max_streams=1)
        calls = []

        def stream(records):
            return lambda: calls.append(1) or records

        hot = [BranchRecord(1, 2), LoopRecord(3, 4)]
        cold = [AddressRecord(5, 6)]
        for records in (hot, hot, cold, hot):
            digest = ReplayCache.key((CFLog(records).pack(),))
            sampler.observe(FIBCALL, stream(records), digest=digest,
                            size_bytes=CFLog(records).size_bytes)
        assert len(calls) == 1  # hot, once; cold never fit
        reference = TrafficSampler(max_streams=1)
        for records in (hot, hot, cold, hot):
            reference.observe(FIBCALL, records)
        assert sampler.sample(FIBCALL) == reference.sample(FIBCALL)
        assert (sampler._profiles[FIBCALL].bytes_observed
                == reference._profiles[FIBCALL].bytes_observed)

    def test_service_expands_each_kept_stream_once(self, monkeypatch):
        specs = [DeviceSpec(f"prv-{i}", FIBCALL) for i in range(5)]
        simulator = FleetSimulator(specs, seed=4, factory=ChainFactory())
        with FleetService(sampler=True) as service:
            assert simulator.run(service).ok
            learn_dictionaries(service)
            simulator.handshake(service)
            expansions = []
            real = service_mod.expand
            monkeypatch.setattr(service_mod, "expand",
                                lambda records, dictionary: expansions.append(
                                    1) or real(records, dictionary))
            before = service.sampler.sample(FIBCALL)
            assert simulator.run(service).ok
            after = service.sampler.sample(FIBCALL)
        # the compressed round repeats the plain round's one execution:
        # its stream is already kept, so nothing is expanded for it
        assert [s for s, _ in after] == [s for s, _ in before]
        assert [w for _, w in after] == [2 * w for _, w in before]
        assert expansions == []
