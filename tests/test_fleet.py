"""Unit tests for the fleet service's session protocol.

One module-scoped :class:`ChainFactory` attests the fibcall template
once; every test re-signs it against a fresh service's challenges, so
the suite exercises the whole session lifecycle — replay protection,
reorder windows, duplicates, equivocation, expiry/retry, overload —
without re-running the Prv each time.
"""

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetOverloadError,
    FleetService,
    ShardedFleetService,
    device_key,
)
from repro.cfa.fleet import session as session_mod
from repro.cfa.fleet import verify as verify_mod
from repro.cfa.fleet.session import MAX_SESSION_BYTES, MAX_SESSION_REPORTS
from repro.cfa.wire import decode_report, encode_report
from repro.trace.mtb import PACKET_BYTES

FIBCALL = DeviceProfile("fibcall")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def open_with_chain(service, factory, device_id="prv-0", profile=FIBCALL,
                    behavior="honest", now=0.0):
    """Open a session and build the honest chain answering it."""
    challenge = service.open_session(
        device_id, profile, device_key(device_id), now)
    spec = DeviceSpec(device_id, profile, behavior)
    return factory.chain(spec, challenge.nonce)


class TestHonestLifecycle:
    def test_in_order_chain_accepted(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        assert len(chunks) >= 3  # watermark=256 forces partials
        for chunk in chunks:
            service.submit("prv-0", chunk)
        metrics = service.close()
        verdict = service.verdicts["prv-0"]
        assert verdict.accepted and verdict.authenticated
        assert verdict.lossless and not verdict.violations
        assert verdict.reports == len(chunks)
        assert verdict.path_len > 0 and verdict.path_digest
        assert metrics.sessions_verified == 1
        assert metrics.reports_ingested == len(chunks)
        assert metrics.bytes_ingested == sum(len(c) for c in chunks)

    def test_byte_identical_duplicate_dropped(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[0])  # retransmission
        for chunk in chunks[1:]:
            service.submit("prv-0", chunk)
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.duplicates_dropped == 1

    def test_reorder_within_window_accepted(self, factory):
        service = FleetService(workers=0, reorder_window=4)
        chunks = open_with_chain(service, factory)
        swapped = list(chunks)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        for chunk in swapped:
            service.submit("prv-0", chunk)
        service.close()
        assert service.verdicts["prv-0"].accepted

    def test_verdict_independent_of_arrival_order(self, factory):
        verdicts = []
        for order in ([0, 1, 2], [0, 2, 1]):
            service = FleetService(workers=0, reorder_window=4)
            chunks = open_with_chain(service, factory)
            head = [chunks[i] for i in order]
            for chunk in head + chunks[3:]:
                service.submit("prv-0", chunk)
            service.close()
            verdicts.append(service.verdicts["prv-0"])
        assert verdicts[0] == verdicts[1]


class TestProtocolRejections:
    def test_reorder_outside_window_rejected(self, factory):
        service = FleetService(workers=0, reorder_window=1)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[3])  # gap of 3 > window of 1
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "reorder window" in verdict.reason

    def test_truncated_report_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0][:-5])
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "malformed" in verdict.reason

    def test_tampered_mac_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        report, _ = decode_report(chunks[-1])
        report.mac = bytes(32)
        for chunk in chunks[:-1]:
            service.submit("prv-0", chunk)
        service.submit("prv-0", encode_report(report))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "bad MAC" in verdict.reason

    def test_equivocating_duplicate_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        conflicting = bytearray(chunks[0])
        conflicting[-1] ^= 0xFF
        service.submit("prv-0", bytes(conflicting))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "conflicting duplicate" in verdict.reason

    def test_report_past_final_rejected(self, factory):
        service = FleetService(workers=0, reorder_window=1000)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[-1])  # final, buffered out of order
        stray, _ = decode_report(chunks[1])
        stray.seq = len(chunks)  # claims traffic past the final
        service.submit("prv-0", encode_report(stray))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "past the final" in verdict.reason

    def test_report_after_settled_ignored(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        service.submit("prv-0", chunks[-1])  # session already settled
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.reports_ignored == 1

    def test_wrong_device_id_rejected(self, factory):
        service = FleetService(workers=0)
        chunks_a = open_with_chain(service, factory, "prv-a")
        service.open_session("prv-b", FIBCALL, device_key("prv-b"))
        service.submit("prv-b", chunks_a[0])  # a's report on b's session
        service.close()
        verdict = service.verdicts["prv-b"]
        assert not verdict.accepted
        assert "device id" in verdict.reason

    def test_replayed_chain_rejected(self, factory):
        """A chain answering an old nonce dies at ingest."""
        service = FleetService(workers=0)
        stale = open_with_chain(service, factory)
        # Vrf re-challenges (e.g. after an outage); old chain arrives late
        now = service.manager.idle_timeout + 1.0
        rechallenged = service.tick(now)
        assert [d for d, _ in rechallenged] == ["prv-0"]
        service.submit("prv-0", stale[0], now)
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "challenge" in verdict.reason

    def test_unknown_device_ignored(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-ghost", chunks[0])
        metrics = service.close()
        assert metrics.reports_ignored == 1
        assert "prv-ghost" not in service.verdicts


class TestExpiryAndRetry:
    def test_stalled_session_rechallenged_then_accepted(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0, max_attempts=2)
        chunks = open_with_chain(service, factory)
        for chunk in chunks[:-1]:  # withhold the final report
            service.submit("prv-0", chunk)
        rechallenged = service.tick(11.0)
        assert len(rechallenged) == 1
        device_id, challenge = rechallenged[0]
        fresh = factory.chain(DeviceSpec(device_id, FIBCALL),
                              challenge.nonce)
        for chunk in fresh:
            service.submit(device_id, chunk, 11.0)
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.sessions_retried == 1

    def test_session_expires_after_last_attempt(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0, max_attempts=2)
        open_with_chain(service, factory)
        assert service.tick(11.0)       # attempt 2 issued
        assert not service.tick(22.0)   # out of attempts
        metrics = service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "idle timeout" in verdict.reason
        assert metrics.sessions_expired == 1
        assert metrics.sessions_retried == 1

    def test_queued_sessions_never_expire(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        assert not service.tick(1e9)
        assert service.verdicts["prv-0"].accepted


class TestAdmissionControl:
    def test_overload_refuses_new_sessions(self, factory):
        service = FleetService(workers=0, max_sessions=2)
        service.open_session("prv-0", FIBCALL, device_key("prv-0"))
        service.open_session("prv-1", FIBCALL, device_key("prv-1"))
        with pytest.raises(FleetOverloadError):
            service.open_session("prv-2", FIBCALL, device_key("prv-2"))
        metrics = service.close()
        assert metrics.sessions_refused == 1
        assert metrics.sessions_opened == 2

    def test_settled_sessions_free_slots(self, factory):
        service = FleetService(workers=0, max_sessions=1)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        # prv-0 settled, so the slot is free again
        service.open_session("prv-1", FIBCALL, device_key("prv-1"))

    def test_duplicate_active_session_refused(self, factory):
        service = FleetService(workers=0)
        service.open_session("prv-0", FIBCALL, device_key("prv-0"))
        with pytest.raises(ValueError, match="active session"):
            service.open_session("prv-0", FIBCALL, device_key("prv-0"))


class TestAttackDetection:
    def test_rop_attack_rejected(self, factory):
        service = FleetService(workers=0)
        profile = DeviceProfile("vulnerable")
        chunks = open_with_chain(
            service, factory, profile=profile, behavior="attack")
        for chunk in chunks:
            service.submit("prv-0", chunk)
        service.close()
        verdict = service.verdicts["prv-0"]
        assert verdict.authenticated  # the compromised device signs fine
        assert not verdict.accepted   # ...but its path betrays it
        assert verdict.violations or not verdict.lossless


class TestSessionBounds:
    """No MAC is checked before a chain completes, so an unbounded
    stream of non-final reports must not grow a session forever."""

    @staticmethod
    def flood(chunk, count):
        """``count`` non-final reports cloned from ``chunk``, seq 0.."""
        report, _ = decode_report(chunk)
        report.final = False
        for seq in range(count):
            report.seq = seq
            yield encode_report(report)

    def test_flood_rejected_at_the_cap_beside_honest_sessions(
            self, factory):
        verdicts = {}
        for flooded in (False, True):
            service = FleetService(workers=0)
            honest = {device_id: open_with_chain(service, factory,
                                                 device_id)
                      for device_id in ("prv-0", "prv-1")}
            flood_chain = open_with_chain(service, factory, "flooder")
            if flooded:
                for index, chunk in enumerate(
                        self.flood(flood_chain[0], 50_000)):
                    service.submit("flooder", chunk)
                    if index == 20_000:  # honest traffic mid-flood
                        for chunk in honest["prv-0"]:
                            service.submit("prv-0", chunk)
            else:
                for chunk in honest["prv-0"]:
                    service.submit("prv-0", chunk)
            for chunk in honest["prv-1"]:
                service.submit("prv-1", chunk)
            metrics = service.close()
            verdicts[flooded] = {d: service.verdicts[d] for d in honest}
        session = service.manager.sessions["flooder"]
        assert len(session.chunks) + len(session.buffered) \
            <= MAX_SESSION_REPORTS
        assert session.held_bytes <= MAX_SESSION_BYTES
        # one ~370-byte report at a time: the byte cap trips first
        assert session.held_bytes + len(flood_chain[0]) > MAX_SESSION_BYTES
        verdict = service.verdicts["flooder"]
        assert not verdict.accepted
        assert verdict.reason == (
            f"session exceeds {MAX_SESSION_BYTES} bytes")
        assert metrics.reports_ignored == 50_000 - len(session.chunks) - 1
        assert verdicts[True] == verdicts[False]
        assert all(v.accepted for v in verdicts[True].values())

    def test_report_cap_counts_buffered_reports(self, factory,
                                                monkeypatch):
        monkeypatch.setattr(session_mod, "MAX_SESSION_REPORTS", 4)
        service = FleetService(workers=0)
        chunk = open_with_chain(service, factory)[0]
        reports = list(self.flood(chunk, 6))
        # seq 0-1 accepted, seq 3-4 held in the reorder window: four
        # reports held, so the fifth is one too many
        for seq in (0, 1, 3, 4, 5):
            service.submit("prv-0", reports[seq])
        service.close()
        session = service.manager.sessions["prv-0"]
        assert (len(session.chunks), len(session.buffered)) == (2, 2)
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert verdict.reason == "session exceeds 4 reports"

    def test_largest_honest_chain_fits_four_times(self):
        # geiger under naive-mtb at a 2-packet watermark is the largest
        # honest chain of every workload and method (see the caps)
        spec = DeviceSpec("prv-0", DeviceProfile("geiger", "naive-mtb"))
        chunks = ChainFactory(watermark=2 * PACKET_BYTES).chain(
            spec, b"\x00" * 16)
        assert (len(chunks), sum(map(len, chunks))) == (7527, 1_129_032)
        assert 4 * len(chunks) <= MAX_SESSION_REPORTS
        assert 4 * sum(map(len, chunks)) <= MAX_SESSION_BYTES


class TestReplayCache:
    def test_cache_preserves_verdicts(self, factory):
        verdicts = {}
        for cached in (False, True):
            service = FleetService(workers=0, replay_cache=cached)
            for device_id in ("prv-0", "prv-1", "prv-2"):
                chunks = open_with_chain(service, factory, device_id)
                for chunk in chunks:
                    service.submit(device_id, chunk)
            metrics = service.close()
            if cached:
                assert metrics.replay_cache_hits == 2  # 3 identical chains
            else:
                assert metrics.replay_cache_hits == 0
            verdicts[cached] = dict(service.verdicts)
        assert verdicts[False] == verdicts[True]

    def test_evictions_merge_across_shards(self, factory, monkeypatch):
        monkeypatch.setattr(verify_mod, "REPLAY_CACHE_ENTRIES", 1)
        service = ShardedFleetService(shards=2, idle_timeout=5.0)
        devices = [f"prv-{index}" for index in range(64)]
        for shard in (0, 1):
            # four devices per shard, alternating two firmwares
            owned = [d for d in devices if service.shard_of(d) == shard]
            for index, device_id in enumerate(owned[:4]):
                profile = DeviceProfile(("fibcall", "prime")[index % 2])
                for chunk in open_with_chain(service, factory, device_id,
                                             profile):
                    service.submit(device_id, chunk)
        metrics = service.close()
        per_shard = [shard.metrics.replay_cache_evictions
                     for shard in service.shards]
        assert per_shard == [3, 3]
        assert metrics.replay_cache_evictions == sum(per_shard)
        assert f"({sum(per_shard)} evicted)" in metrics.summary()


class TestMetrics:
    def test_summary_mentions_the_essentials(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        metrics = service.close()
        assert metrics.wall_s > 0
        assert metrics.reports_per_second > 0
        pct = metrics.latency_percentiles()
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
        summary = metrics.summary()
        assert "1/1 sessions" in summary
        assert "rps" in summary and "p50" in summary
