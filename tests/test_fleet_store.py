"""Evidence-store battery: unforgeability, auditability, durability.

The chain property under test: record *i* of a device's evidence log
commits ``H(record_{i-1} || body_i || MAC_i)`` where the body carries
the verdict and a digest of the exact wire bytes the device sent — so
an honestly-produced log always verifies end-to-end from disk, and
*any* single-byte mutation of the persisted bytes (header, framing,
links, MACs, bodies) breaks verification. Cache-served verdicts are a
regression focus: a replay-cache hit must still append an evidence
record, never skip one, and that record's bytes must not depend on the
cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DurableReplayCache,
    EvidenceError,
    EvidenceStore,
    FleetService,
    ReplayCache,
    SessionVerdict,
    chain_digest,
    device_key,
    verify_evidence_trail,
)
from repro.cfa.fleet.verify import _ReplaySummary

AUDIT_KEY = b"\x17" * 32
FIBCALL = DeviceProfile("fibcall")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def drive_session(service, factory, device_id, profile=FIBCALL,
                  behavior="honest", tamper=None):
    """Open one session and deliver its chain (optionally damaged)."""
    challenge = service.open_session(
        device_id, profile, device_key(device_id))
    chunks = factory.chain(
        DeviceSpec(device_id, profile, behavior), challenge.nonce)
    if tamper is not None:
        chunks = tamper(list(chunks))
    for chunk in chunks:
        service.submit(device_id, chunk)
    return chunks


def make_store(path):
    return EvidenceStore(path, AUDIT_KEY)


class TestHonestTrailsVerify:
    """Every honestly-produced log verifies, across workloads and
    honest/attack devices (the accept half of the property)."""

    @pytest.mark.parametrize("workload,behavior", [
        ("fibcall", "honest"),
        ("prime", "honest"),
        ("vulnerable", "attack"),
        ("fibcall", "tamper"),
    ])
    def test_trail_verifies_and_reconstructs(self, factory, tmp_path,
                                             workload, behavior):
        store = make_store(tmp_path / "evidence.log")
        service = FleetService(workers=0, store=store)
        profile = DeviceProfile(workload)
        tamper = None
        if behavior == "tamper":
            def tamper(chunks):
                body = bytearray(chunks[-1])
                body[-1] ^= 0xFF  # break the MAC
                chunks[-1] = bytes(body)
                return chunks
        chunks = drive_session(service, factory, "prv-0", profile,
                               behavior, tamper)
        service.close()
        records = verify_evidence_trail(store.path, AUDIT_KEY)
        assert len(records) == 1
        record = records[0]
        # the record reconstructs the released verdict exactly
        assert record.to_verdict() == service.verdicts["prv-0"]
        assert record.accepted == (behavior in ("honest",))
        # ... and commits to the exact bytes received
        assert record.chain_digest == chain_digest(chunks)
        assert store.head("prv-0") == record.digest

    def test_chain_links_across_device_rounds(self, factory, tmp_path):
        """Multiple sessions of one device form one linked chain."""
        store = make_store(tmp_path / "evidence.log")
        service = FleetService(workers=0, store=store,
                               nonce_scope="device")
        drive_session(service, factory, "prv-0")
        drive_session(service, factory, "prv-1")
        drive_session(service, factory, "prv-0")  # second round
        service.close()
        records = verify_evidence_trail(store.path, AUDIT_KEY)
        mine = [r for r in records if r.device_id == "prv-0"]
        assert [r.seq for r in mine] == [0, 1]
        assert mine[0].prev_digest == b"\x00" * 32
        assert mine[1].prev_digest == mine[0].digest
        # interleaved devices don't cross-link
        other = [r for r in records if r.device_id == "prv-1"]
        assert other[0].prev_digest == b"\x00" * 32

    def test_chain_continues_across_reopen(self, factory, tmp_path):
        path = tmp_path / "evidence.log"
        store = make_store(path)
        service = FleetService(workers=0, store=store,
                               nonce_scope="device")
        drive_session(service, factory, "prv-0")
        service.close()
        head_before = store.head("prv-0")
        # a fresh process opens the same log and appends
        store2 = make_store(path)
        assert store2.head("prv-0") == head_before
        service2 = FleetService(workers=0, store=store2,
                                nonce_scope="device")
        service2.restore(store2.recovered)
        drive_session(service2, factory, "prv-0")
        service2.close()
        records = verify_evidence_trail(path, AUDIT_KEY)
        assert [r.seq for r in records if r.device_id == "prv-0"] == [0, 1]


@pytest.fixture(scope="module")
def trail_bytes(factory, tmp_path_factory):
    """One honest multi-record log, as raw bytes, for mutation tests."""
    path = tmp_path_factory.mktemp("trail") / "evidence.log"
    store = make_store(path)
    service = FleetService(workers=0, store=store, nonce_scope="device")
    drive_session(service, factory, "prv-0")
    drive_session(service, factory, "prv-1")
    drive_session(service, factory, "prv-0")
    service.close()
    data = path.read_bytes()
    assert len(verify_evidence_trail(path, AUDIT_KEY)) == 3
    return data


class TestUnforgeability:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_any_single_byte_mutation_breaks_verification(
            self, tmp_path_factory, trail_bytes, data):
        offset = data.draw(
            st.integers(min_value=0, max_value=len(trail_bytes) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(trail_bytes)
        mutated[offset] ^= 1 << bit
        path = tmp_path_factory.mktemp("mut") / "evidence.log"
        path.write_bytes(bytes(mutated))
        with pytest.raises(EvidenceError):
            verify_evidence_trail(path, AUDIT_KEY)

    def test_truncation_detected(self, tmp_path, trail_bytes):
        path = tmp_path / "evidence.log"
        path.write_bytes(trail_bytes[:-7])
        with pytest.raises(EvidenceError):
            verify_evidence_trail(path, AUDIT_KEY)

    def test_record_deletion_detected(self, tmp_path, trail_bytes):
        """Splicing a whole frame out breaks the per-device links."""
        import struct

        header, pos, frames = trail_bytes[:5], 5, []
        while pos < len(trail_bytes):
            (n,) = struct.unpack("<I", trail_bytes[pos:pos + 4])
            frames.append(trail_bytes[pos:pos + 4 + n])
            pos += 4 + n
        assert len(frames) == 3
        path = tmp_path / "evidence.log"
        # drop prv-0's first record; its second no longer links
        path.write_bytes(header + frames[1] + frames[2])
        with pytest.raises(EvidenceError):
            verify_evidence_trail(path, AUDIT_KEY)

    def test_wrong_audit_key_rejected(self, tmp_path, trail_bytes):
        path = tmp_path / "evidence.log"
        path.write_bytes(trail_bytes)
        with pytest.raises(EvidenceError):
            verify_evidence_trail(path, b"\x18" * 32)


class TestCacheHitCoherence:
    """Regression: a replay-cache hit must still append evidence."""

    def test_cache_hit_still_appends_record(self, factory, tmp_path):
        store = make_store(tmp_path / "evidence.log")
        service = FleetService(workers=0, store=store,
                               replay_cache=True)
        drive_session(service, factory, "prv-0")
        drive_session(service, factory, "prv-1")  # identical firmware
        metrics = service.close()
        assert metrics.replay_cache_hits == 1
        records = verify_evidence_trail(store.path, AUDIT_KEY)
        # one record per verdict — the cache hit did not skip one
        assert len(records) == 2
        assert metrics.evidence_records == 2
        by_device = {r.device_id: r for r in records}
        assert not by_device["prv-0"].cache_hit
        # the same sessions with no cache: the cache-hit record's
        # bytes (flag bit 3 written 0) equal the uncached run's
        uncached_store = make_store(tmp_path / "evidence-uncached.log")
        uncached = FleetService(workers=0, store=uncached_store,
                                replay_cache=False)
        drive_session(uncached, factory, "prv-0")
        drive_session(uncached, factory, "prv-1")
        uncached.close()
        uncached_records = {
            r.device_id: r
            for r in verify_evidence_trail(uncached_store.path, AUDIT_KEY)}
        assert by_device["prv-1"] == uncached_records["prv-1"]
        assert not by_device["prv-1"].cache_hit
        assert (store.path.read_bytes()
                == uncached_store.path.read_bytes())
        # annotation only: the verdicts themselves are identical
        assert (by_device["prv-0"].to_verdict()
                == service.verdicts["prv-0"])
        v0, v1 = service.verdicts["prv-0"], service.verdicts["prv-1"]
        assert (v0.path_digest, v0.accepted) == (v1.path_digest, True)

    def test_cached_and_uncached_verdicts_equal(self, factory, tmp_path):
        verdicts = []
        for cache in (True, False):
            store = make_store(tmp_path / f"evidence-{cache}.log")
            service = FleetService(workers=0, store=store,
                                   replay_cache=cache,
                                   nonce_scope="device")
            drive_session(service, factory, "prv-0")
            drive_session(service, factory, "prv-1")
            service.close()
            verdicts.append(dict(service.verdicts))
        assert verdicts[0] == verdicts[1]


class TestCrashTolerance:
    def test_torn_tail_truncated_on_reopen(self, tmp_path, trail_bytes):
        path = tmp_path / "evidence.log"
        path.write_bytes(trail_bytes[:-9])  # mid-frame crash image
        with pytest.raises(EvidenceError):
            verify_evidence_trail(path, AUDIT_KEY)  # strict audit: no
        store = make_store(path)                    # recovery: truncate
        assert store.truncated_tail
        assert len(store.recovered) == 2
        store.close()
        # the truncated file now audits cleanly
        assert len(verify_evidence_trail(path, AUDIT_KEY)) == 2

    def test_pre_tail_damage_is_tamper_not_crash(self, tmp_path,
                                                 trail_bytes):
        mutated = bytearray(trail_bytes)
        mutated[20] ^= 0x01  # inside the first frame, not the tail
        path = tmp_path / "evidence.log"
        path.write_bytes(bytes(mutated))
        with pytest.raises(EvidenceError):
            make_store(path)

    def test_failed_append_withholds_verdict(self, factory, tmp_path):
        """fsync failure => no release; the store stays appendable."""
        calls = []

        def flaky_fsync(fd):
            calls.append(fd)
            if len(calls) == 2:  # header sync is call #1
                raise OSError("injected fsync fault")

        store = EvidenceStore(tmp_path / "evidence.log", AUDIT_KEY,
                              fsync_fn=flaky_fsync)
        service = FleetService(workers=0, store=store)
        with pytest.raises(OSError):
            drive_session(service, factory, "prv-0")
        assert "prv-0" not in service.verdicts  # withheld, not lost
        # the rewound store keeps working for the next session
        drive_session(service, factory, "prv-1")
        service.close()
        records = verify_evidence_trail(store.path, AUDIT_KEY)
        assert [r.device_id for r in records] == ["prv-1"]


class TestDurableReplayCache:
    PROFILE = FIBCALL
    KEY = b"\xabcd-records-digest\xab" + b"\x00" * 12
    ENTRY = _ReplaySummary(lossless=True, violations=(), error="",
                           consumed=7, path_len=9, path_digest="ff" * 32)

    def test_rewarming_from_disk(self, tmp_path):
        first = DurableReplayCache(tmp_path)
        assert first.lookup(self.PROFILE, self.KEY) is None
        first.store(self.PROFILE, self.KEY, self.ENTRY)
        # a restarted service's cache re-warms from the CAS files
        second = DurableReplayCache(tmp_path)
        assert second.lookup(self.PROFILE, self.KEY) == self.ENTRY
        assert second.disk_hits == 1 and second.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DurableReplayCache(tmp_path)
        cache.store(self.PROFILE, self.KEY, self.ENTRY)
        cas_file = tmp_path / (
            DurableReplayCache.cas_key(self.PROFILE, self.KEY) + ".pkl")
        cas_file.write_bytes(b"not a pickle")
        fresh = DurableReplayCache(tmp_path)
        assert fresh.lookup(self.PROFILE, self.KEY) is None

    def test_memory_only_without_root(self):
        cache = DurableReplayCache(None)
        cache.store(self.PROFILE, self.KEY, self.ENTRY)
        assert cache.lookup(self.PROFILE, self.KEY) == self.ENTRY
        assert DurableReplayCache(None).lookup(
            self.PROFILE, self.KEY) is None

    def test_verdict_preserving_inside_service(self, tmp_path):
        """The durable cache slots into the service like the plain one."""
        factory = ChainFactory(watermark=256)
        runs = []
        for cache in (DurableReplayCache(tmp_path / "cas"),
                      ReplayCache(), False):
            service = FleetService(workers=0, replay_cache=cache,
                                   nonce_scope="device")
            drive_session(service, factory, "prv-0")
            drive_session(service, factory, "prv-1")
            service.close()
            runs.append(dict(service.verdicts))
        assert runs[0] == runs[1] == runs[2]


class TestEncodingTotality:
    def test_violations_and_reasons_roundtrip(self, tmp_path):
        verdict = SessionVerdict(
            device_id="prv-9", profile=DeviceProfile("gps", "traces"),
            accepted=False, authenticated=True, lossless=False,
            violations=(("cfi", 0x1234, "ret to 0x5678"),
                        ("loop", 0xFFFFFFFF, "ünïcode détail")),
            reason="replay diverged", reports=3, records=41,
            path_len=120, path_digest="ab" * 32)
        store = make_store(tmp_path / "evidence.log")
        store.append(verdict, chain=b"\x05" * 32, challenge=b"\x01" * 16,
                     expired=True)
        store.close()
        (record,) = verify_evidence_trail(store.path, AUDIT_KEY)
        assert record.to_verdict() == verdict
        assert record.expired and not record.cache_hit
        assert record.challenge == b"\x01" * 16
