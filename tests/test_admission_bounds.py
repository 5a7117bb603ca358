"""The `BNDS1` admission screen on compressed chains, before any MAC.

A speculation token claims ``count`` repetitions of a dictionary
sub-path, and its count is a 32-bit field the screen reads before any
report MAC is checked. The screen must judge the claimed size by
arithmetic: a forged count of 2^22 or 2^31 is rejected with the
certificate's record bound, fast, without expanding a single token
and without raising out of ``submit``.
"""

import resource
import time
from unittest import mock

import pytest

from repro.cfa.cflog import CFLog, LoopRecord, tag_sizes
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictionaryRegistry,
    FleetSimulator,
    ShardedFleetService,
    dack_mac,
    device_key,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet import session as session_mod
from repro.cfa.fleet.session import SessionManager
from repro.cfa.speccfa import PackedExpander, SpecRecord, mine_subpaths
from repro.cfa.wire import decode_report, encode_dack_frame, encode_report
from repro.core.analysis.certificate import BoundsRegistry, certify_workload

#: a firmware with a bounded rap-track certificate and a loop to mine
PROFILE = DeviceProfile("temperature")
DEVICE = "prv-forger"


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


@pytest.fixture(scope="module")
def registry():
    bounds = BoundsRegistry()
    bounds.add(certify_workload(PROFILE.workload, PROFILE.method))
    return bounds


def pinned_service(factory, registry):
    """A service with a mined dictionary the device has ACKed, plus the
    epoch the device's next session is pinned to."""
    factory.chain(DeviceSpec("miner", PROFILE), b"\x00" * 16)
    template = factory._templates[(PROFILE, False)]
    dictionary = mine_subpaths(
        [r for log in template.cflogs for r in log.records], PROFILE.method)
    assert dictionary
    service = FleetService(bounds=registry)
    entry = service.registry.publish(PROFILE, dictionary)
    challenge = service.open_session(DEVICE, PROFILE, device_key(DEVICE))
    for chunk in factory.chain(DeviceSpec(DEVICE, PROFILE), challenge.nonce):
        service.submit(DEVICE, chunk)
    assert service.verdicts[DEVICE].accepted
    assert service.ingest_dack(DEVICE, encode_dack_frame(
        DEVICE, entry.epoch, entry.digest,
        dack_mac(device_key(DEVICE), DEVICE, entry.epoch, entry.digest)))
    return service, entry


def forge_count(chunks, count):
    """The chain with its first token's repeat count replaced (the MAC
    is left as it was, so it no longer verifies)."""
    forged, done = [], False
    for chunk in chunks:
        report, _ = decode_report(chunk)
        records = list(report.cflog.records)
        for index, record in enumerate(records):
            if not done and isinstance(record, SpecRecord):
                records[index] = SpecRecord(record.path_id, count)
                done = True
        report.cflog = CFLog(records)
        forged.append(encode_report(report))
    assert done
    return forged


@pytest.mark.parametrize("count", [1 << 22, 1 << 31])
def test_forged_repeat_count_rejected_without_expansion(
        factory, registry, count):
    service, entry = pinned_service(factory, registry)
    cert = registry.get(PROFILE.workload, PROFILE.method)
    assert cert.max_log_records is not None
    challenge = service.open_session(DEVICE, PROFILE, device_key(DEVICE))
    chunks = forge_count(factory.chain(
        DeviceSpec(DEVICE, PROFILE), challenge.nonce, entry), count)
    start = time.perf_counter()
    with mock.patch.object(session_mod, "expand",
                           side_effect=AssertionError("expanded")), \
            mock.patch.object(PackedExpander, "expand_span",
                              side_effect=AssertionError("expanded")):
        for chunk in chunks:
            service.submit(DEVICE, chunk)
    elapsed = time.perf_counter() - start
    verdict = service.verdicts[DEVICE]
    service.close()
    assert elapsed < 1.0
    assert not verdict.accepted
    assert verdict.reason.startswith("bounds: ")
    assert verdict.reason.endswith(
        f"records exceed the certified maximum {cert.max_log_records}")


def test_forged_count_rejected_alike_with_a_warm_memo(factory, registry):
    """The epoch's span memos warmed by honest sessions change nothing:
    a forged 2^31 count is still counted, never expanded, and rejected
    with the same verdict, fast and without growing the heap."""
    service, entry = pinned_service(factory, registry)
    cert = registry.get(PROFILE.workload, PROFILE.method)
    for _ in range(2):  # honest compressed sessions warm both memos
        challenge = service.open_session(DEVICE, PROFILE, device_key(DEVICE))
        for chunk in factory.chain(DeviceSpec(DEVICE, PROFILE),
                                   challenge.nonce, entry):
            service.submit(DEVICE, chunk)
        assert service.verdicts[DEVICE].accepted
    assert entry.expander._claims and entry.expander._spans
    verdicts, settle_s = [], []
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with mock.patch.object(session_mod, "expand",
                           side_effect=AssertionError("expanded")), \
            mock.patch.object(PackedExpander, "expand_span",
                              side_effect=AssertionError("expanded")):
        for _ in range(3):  # the forged span itself is memoized after one
            challenge = service.open_session(
                DEVICE, PROFILE, device_key(DEVICE))
            chunks = forge_count(factory.chain(
                DeviceSpec(DEVICE, PROFILE), challenge.nonce, entry), 1 << 31)
            for chunk in chunks[:-1]:
                service.submit(DEVICE, chunk)
            start = time.perf_counter()
            service.submit(DEVICE, chunks[-1])  # completes: the screen runs
            settle_s.append(time.perf_counter() - start)
            verdicts.append(service.verdicts[DEVICE])
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    service.close()
    assert min(settle_s) <= 1e-3
    assert rss_after - rss_before < 8 * 1024  # KiB: no expansion happened
    assert len(set(verdicts)) == 1
    assert not verdicts[0].accepted
    assert verdicts[0].reason.endswith(
        f"records exceed the certified maximum {cert.max_log_records}")



def test_honest_traces_chain_fits_the_certified_bytes():
    """TRACES logs a loop condition as one 4-byte word, and the screen
    charges each record by the method that logged it: an honest
    ultrasonic device under TRACES (132 log bytes, 160 certified) is
    admitted beside a RAP-Track one, and each chain claims exactly the
    bytes its engine logged (RAP-Track's 8-byte loop records as
    before)."""
    profiles = (DeviceProfile("ultrasonic", "traces"),
                DeviceProfile("ultrasonic"))
    bounds = BoundsRegistry()
    for profile in profiles:
        bounds.add(certify_workload(profile.workload, profile.method))
    factory = ChainFactory(watermark=64)
    specs = [DeviceSpec(f"prv-{p.method}", p) for p in profiles]
    with ShardedFleetService(bounds=bounds) as service:
        report = FleetSimulator(specs, seed=1, factory=factory).run(service)
    assert report.ok, report.mismatches
    for profile in profiles:
        logged = [r for log in factory._templates[(profile, False)].cflogs
                  for r in log.records]
        # plain, then compressed: the expander counts the loop records
        # left beside the token
        first = next(i for i, r in enumerate(logged)
                     if not isinstance(r, LoopRecord))
        registry = DictionaryRegistry()
        for entry in (None, registry.publish(
                profile, {0: tuple(logged[first:first + 2])})):
            manager = SessionManager()
            session = manager.open("prv", profile, device_key("prv"),
                                   dict_epoch=entry)
            for chunk in factory.chain(DeviceSpec("prv", profile),
                                       session.challenge.nonce, entry):
                manager.ingest("prv", chunk, 0.0)
            tokens = sum(r.span[::9].count(4) for r in session.reports)
            assert (tokens > 0) == (entry is not None)
            claim = session.admission_claim()
            assert claim == (len(logged),
                             sum(tag_sizes(profile.method)[r.tag]
                                 for r in logged))
            cert = bounds.get(profile.workload, profile.method)
            assert claim[1] <= cert.max_log_bytes


def test_a_token_in_a_plain_chain_is_rejected_not_raised():
    """A chain with no dictionary that carries a speculation token
    cannot be expanded: the depth screen of a ``depth_exact``
    certificate passes it on, and replay rejects it by name."""
    profile = DeviceProfile("crc32", "naive-mtb")
    bounds = BoundsRegistry()
    bounds.add(certify_workload(profile.workload, profile.method))
    assert bounds.get(profile.workload, profile.method).depth_exact
    service = FleetService(bounds=bounds)
    key = device_key(DEVICE)
    challenge = service.open_session(DEVICE, profile, key)
    chunks = ChainFactory().chain(DeviceSpec(DEVICE, profile),
                                  challenge.nonce)
    report, _ = decode_report(chunks[-1])
    report.cflog = CFLog(list(report.cflog.records) + [SpecRecord(7, 1)])
    for chunk in chunks[:-1] + [encode_report(report.sign(key))]:
        service.submit(DEVICE, chunk)
    verdict = service.verdicts[DEVICE]
    service.close()
    assert not verdict.accepted
    assert verdict.reason == ("speculation expansion failed: unknown "
                              "speculated sub-path id 7")
