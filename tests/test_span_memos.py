"""Per-span memos on a dictionary epoch's ``PackedExpander``.

Devices that run one firmware send the same record spans in every
session. So a session's admission claim (its expanded size, counted
before any MAC is checked) and its replay-cache key (hashed after the
MACs verify) are memoized per span on the epoch's expander. These
tests pin what the memos must keep doing under hostile traffic: stay
within their module-constant bounds, hold no span without a token,
give an unknown path id a ``None`` claim and replay's rejection, and
agree with the cold per-record arithmetic on every firmware of the
fleet-shared benchmark.
"""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cfa import speccfa
from repro.cfa.cflog import (
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    tag_sizes,
)
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictionaryRegistry,
    ReplayCache,
    device_key,
    verify_session_chain,
)
from repro.cfa.fleet.dictver import DictEpoch
from repro.cfa.fleet.session import QUEUED, SessionManager
from repro.cfa.fleet.verify import build_verifier
from repro.cfa.report import Report
from repro.cfa.speccfa import (
    PackedExpander,
    SpecRecord,
    expand,
    mine_subpaths,
    pack_dictionary,
    span_claim,
)
from repro.cfa.wire import decode_records, decode_report, encode_report

DICTIONARY = {0: (BranchRecord(1, 2), LoopRecord(3, 4)),
              1: (AddressRecord(5, 6),)}

#: the firmware the fleet-shared benchmark runs
FLEET_SHARED = ("fibcall", "prime", "bitcount", "dijkstra", "gps",
                "temperature", "vulnerable")


def cold_claim(records, dictionary, method="rap-track"):
    """The per-record claim arithmetic the memo must reproduce."""
    sizes = tag_sizes(method)
    count = len(records)
    size = sum(sizes[r.tag] for r in records)
    if dictionary:
        for token in records:
            if not isinstance(token, SpecRecord):
                continue
            pattern = dictionary.get(token.path_id)
            if pattern is None:
                return None
            count += len(pattern) * token.count - 1
            size += (sum(sizes[r.tag] for r in pattern) * token.count
                     - sizes[token.tag])
    return count, size


def packed(records):
    return CFLog(records).pack()


def assert_within_bounds(expander):
    claims, spans = expander._claims, expander._spans
    assert len(claims) <= speccfa.SPAN_MEMO_ENTRIES
    assert expander._claim_bytes == sum(map(len, claims))
    assert expander._claim_bytes <= speccfa.CLAIM_MEMO_BYTES
    assert len(spans) <= speccfa.SPAN_MEMO_ENTRIES
    assert expander._span_bytes == sum(
        len(span) + len(out) for span, out in spans.items())
    assert expander._memo_bytes == sum(map(len, expander._memo.values()))
    assert (expander._memo_bytes + expander._span_bytes
            <= speccfa.EXPANSION_MEMO_BYTES)


class TestBounds:
    # (span entries, claim key bytes, expansion bytes): the entry bound
    # binds first, then the byte budgets do
    @pytest.mark.parametrize("entries, claim_bytes, expansion_bytes", [
        (16, 1 << 20, 1 << 20),
        (1 << 20, 400, 2048),
    ])
    def test_distinct_token_spans_stay_within_every_bound(
            self, monkeypatch, entries, claim_bytes, expansion_bytes):
        monkeypatch.setattr(speccfa, "SPAN_MEMO_ENTRIES", entries)
        monkeypatch.setattr(speccfa, "CLAIM_MEMO_BYTES", claim_bytes)
        monkeypatch.setattr(speccfa, "EXPANSION_MEMO_BYTES",
                            expansion_bytes)
        expander = PackedExpander(DICTIONARY)
        for i in range(200):  # far past every bound
            records = [SpecRecord(i % 2, 1 + i % 37), BranchRecord(i, 0)]
            span = packed(records)
            assert expander.claim(span) == cold_claim(records, DICTIONARY)
            assert expander.expand_span(span) == packed(
                expand(records, DICTIONARY))
            # a second sighting answers from the memo, unchanged
            assert expander.claim(span) == cold_claim(records, DICTIONARY)
            assert_within_bounds(expander)
        assert expander._claims and expander._spans

    def test_oversized_spans_are_never_held(self, monkeypatch):
        monkeypatch.setattr(speccfa, "CLAIM_MEMO_BYTES", 64)
        monkeypatch.setattr(speccfa, "EXPANSION_MEMO_BYTES", 64)
        expander = PackedExpander(DICTIONARY)
        records = [SpecRecord(0, 40)] + [BranchRecord(7, 7)] * 10
        span = packed(records)
        assert expander.claim(span) == cold_claim(records, DICTIONARY)
        assert expander.expand_span(span) == packed(
            expand(records, DICTIONARY))
        assert not expander._claims and not expander._spans
        assert_within_bounds(expander)

    def test_spans_without_tokens_are_counted_not_held(self):
        expander = PackedExpander(DICTIONARY)
        for i in range(50):
            records = [BranchRecord(i, 1), AddressRecord(i, 2),
                       LoopRecord(i, 3)]
            span = packed(records)
            assert expander.claim(span) == span_claim(span) == cold_claim(
                records, {})
            assert expander.expand_span(span) is span
        assert not expander._claims and not expander._spans


def test_threads_sharing_one_expander_keep_the_books(monkeypatch):
    """Thread-pool workers share an epoch's expander: under contention
    every answer is right and the byte counts match the memos."""
    monkeypatch.setattr(speccfa, "SPAN_MEMO_ENTRIES", 8)
    monkeypatch.setattr(speccfa, "CLAIM_MEMO_BYTES", 256)
    monkeypatch.setattr(speccfa, "EXPANSION_MEMO_BYTES", 1024)
    expander = PackedExpander(DICTIONARY)
    cases = []
    for i in range(64):
        records = [SpecRecord(i % 2, 1 + i % 9), BranchRecord(i, 0)]
        cases.append((packed(records), cold_claim(records, DICTIONARY),
                      packed(expand(records, DICTIONARY))))

    def hammer(offset):
        for round_ in range(40):
            span, claim, expanded = cases[(offset + round_) % len(cases)]
            if expander.claim(span) != claim:
                return False
            if expander.expand_span(span) != expanded:
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(hammer, range(0, 64, 4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(results) and len(results) == 16
    assert_within_bounds(expander)


class _MissTogether(dict):
    """A span memo whose misses wait for each other, so two threads
    both miss one span before either of them memoizes it."""

    def __init__(self, barrier):
        super().__init__()
        self.barrier = barrier

    def __getitem__(self, span):
        try:
            return super().__getitem__(span)
        except KeyError:
            self.barrier.wait(timeout=10)
            raise

    def get(self, span, default=None):
        if span in self:
            return super().get(span)
        self.barrier.wait(timeout=10)
        return default


def test_two_threads_missing_one_span_count_it_once():
    """The span-memo race, made deterministic: both threads miss the
    same span, then each inserts it under the lock. Only the first
    insert may add the span's bytes to the memo's budget."""
    expander = PackedExpander(DICTIONARY)
    records = [SpecRecord(0, 3), BranchRecord(7, 8)]
    span = packed(records)
    barrier = threading.Barrier(2)
    expander._claims = _MissTogether(barrier)
    expander._spans = _MissTogether(barrier)

    def settle(_):
        return expander.claim(span), expander.expand_span(span)

    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = list(pool.map(settle, range(2), timeout=30))
    expected = (cold_claim(records, DICTIONARY),
                packed(expand(records, DICTIONARY)))
    assert answers == [expected, expected]
    assert len(expander._claims) == len(expander._spans) == 1
    assert_within_bounds(expander)


class TestUnknownPathId:
    RECORDS = [BranchRecord(5, 6), SpecRecord(0, 2), SpecRecord(99, 1)]

    def test_claim_is_none_cold_and_warm(self):
        expander = PackedExpander(DICTIONARY)
        span = packed(self.RECORDS)
        assert cold_claim(self.RECORDS, DICTIONARY) is None
        assert expander.claim(span) is None
        assert expander.claim(span) is None  # memoized as None

    def test_replay_rejects_with_the_expansion_reason(self):
        profile = DeviceProfile("fibcall")
        payload = pack_dictionary(DICTIONARY)
        epoch = DictEpoch(profile, 1, hashlib.sha256(payload).digest(),
                          payload)
        key = device_key("prv-0")
        chunk = encode_report(Report(
            device_id=b"prv-0", method=profile.method, challenge=b"c",
            h_mem=build_verifier(profile, key).expected_h_mem,
            seq=0, final=True, cflog=CFLog(self.RECORDS)).sign(key))
        assert epoch.expander.claim(
            decode_report(chunk)[0].cflog.pack()) is None
        for _ in range(2):  # the claim memo is warm the second time
            verdict = verify_session_chain(
                "prv-0", profile, key, b"c", [chunk], cache=ReplayCache(),
                dict_epoch=epoch)
            assert not verdict.accepted
            assert verdict.reason == ("speculation expansion failed: "
                                      "unknown speculated sub-path id 99")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


@pytest.mark.parametrize("workload", FLEET_SHARED)
def test_memoized_claims_equal_cold_claims(factory, workload):
    """Over a compressed session of each fleet-shared firmware, the
    memoized claim equals the cold arithmetic, session after session."""
    profile = DeviceProfile(workload)
    plain = factory.chain(DeviceSpec("miner", profile), b"\x00" * 16)
    records = [r for chunk in plain
               for r in decode_report(chunk)[0].cflog.records]
    dictionary = mine_subpaths(records, profile.method)
    registry = DictionaryRegistry()
    entry = registry.publish(profile, dictionary)
    manager = SessionManager()
    claims = []
    for device_id in ("prv-a", "prv-b", "prv-c"):
        session = manager.open(device_id, profile, device_key(device_id),
                               dict_epoch=entry)
        for chunk in factory.chain(DeviceSpec(device_id, profile),
                                   session.challenge.nonce, entry):
            manager.ingest(device_id, chunk, 0.0)
        assert session.state == QUEUED
        received = [r for report in session.reports
                    for r in decode_records(report.span)]
        want = cold_claim(received, entry.dictionary or {})
        assert want is not None
        assert session.admission_claim() == want
        claims.append(want)
    # identical executions claim alike, from the memo after the first
    assert len(set(claims)) == 1
    if dictionary:
        assert entry.expander._claims
    # plain chains claim their own size
    assert span_claim(b"".join(
        decode_report(chunk)[0].cflog.pack() for chunk in plain)) == \
        cold_claim(records, {})
