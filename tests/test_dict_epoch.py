"""The dictionary-epoch handshake, end to end.

The security property under test: a session attests under **exactly
one** pinned dictionary epoch, cryptographically — the epoch and
content digest are folded into the challenge the report MACs cover —
so a chain compressed under any other epoch is rejected at ingest,
*before* any expansion is attempted. Around that core:

* the registry's monotone, content-addressed, persistent epoch chain;
* DACK authentication (a network adversary cannot re-pin a device);
* a push landing mid-session changes nothing until the next session;
* a device that never ACKs keeps attesting under epoch 0 forever.
"""

import pytest

from repro.cfa.cflog import BranchRecord
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DictEpoch,
    DictionaryRegistry,
    dack_mac,
    device_key,
    spec_challenge,
    verify_dack,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.speccfa import EMPTY_DICTIONARY_DIGEST, mine_subpaths
from repro.cfa.wire import encode_dack_frame

FIBCALL = DeviceProfile("fibcall")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


@pytest.fixture(scope="module")
def fibcall_dictionary(factory):
    """A real dictionary mined from fibcall's own execution."""
    chunks = factory.chain(DeviceSpec("miner", FIBCALL), b"\x00" * 16)
    template = factory._templates[(FIBCALL, False)]
    records = [r for log in template.cflogs for r in log.records]
    dictionary = mine_subpaths(records, FIBCALL.method)
    assert dictionary  # fibcall loops: the tandem miner finds paths
    return dictionary


def ack(service, device_id, epoch):
    """Sign and ingest the DACK a real device would send."""
    entry = service.registry.get(FIBCALL, epoch)
    return service.ingest_dack(device_id, encode_dack_frame(
        device_id, entry.epoch, entry.digest,
        dack_mac(device_key(device_id), device_id, entry.epoch,
                 entry.digest)))


def run_session(service, factory, device_id, chain_epoch=None, now=0.0):
    """Open a session; transmit a chain compressed under
    ``chain_epoch`` (None = whatever the device last ACKed is *not*
    simulated here — the chain matches the given epoch exactly)."""
    challenge = service.open_session(
        device_id, FIBCALL, device_key(device_id), now)
    dict_epoch = (service.registry.get(FIBCALL, chain_epoch)
                  if chain_epoch else None)
    spec = DeviceSpec(device_id, FIBCALL)
    for chunk in factory.chain(spec, challenge.nonce, dict_epoch):
        service.submit(device_id, chunk, now)
    service.drain()
    return service.verdicts[device_id]


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_epochs_are_monotone_and_content_addressed(self):
        registry = DictionaryRegistry()
        d1 = {0: (BranchRecord(4, 8), BranchRecord(8, 4))}
        d2 = {0: (BranchRecord(4, 8), BranchRecord(8, 12))}
        e1 = registry.publish(FIBCALL, d1)
        e2 = registry.publish(FIBCALL, d2)
        assert (e1.epoch, e2.epoch) == (1, 2)
        assert e1.digest != e2.digest
        # republishing identical content is idempotent, not a new epoch
        assert registry.publish(FIBCALL, d2) is e2
        assert registry.latest_epoch(FIBCALL) == 2
        # old epochs stay resolvable forever (evidence re-expansion)
        assert registry.get(FIBCALL, 1).dictionary == d1

    def test_epoch_zero_always_resolves(self):
        registry = DictionaryRegistry()
        entry = registry.get(FIBCALL, 0)
        assert entry.is_empty and entry.dictionary == {}
        assert entry.digest == EMPTY_DICTIONARY_DIGEST
        with pytest.raises(KeyError):
            registry.get(FIBCALL, 1)  # nothing published yet

    def test_registry_persists_across_restart(self, tmp_path):
        d1 = {0: (BranchRecord(4, 8), BranchRecord(8, 4))}
        registry = DictionaryRegistry(tmp_path / "dicts")
        e1 = registry.publish(FIBCALL, d1)
        reloaded = DictionaryRegistry(tmp_path / "dicts")
        assert reloaded.latest(FIBCALL).digest == e1.digest
        assert reloaded.get(FIBCALL, 1).dictionary == d1

    def test_registry_refuses_gapped_store(self, tmp_path):
        store = tmp_path / "dicts"
        registry = DictionaryRegistry(store)
        registry.publish(FIBCALL, {0: (BranchRecord(4, 8),
                                       BranchRecord(8, 4))})
        registry.publish(FIBCALL, {0: (BranchRecord(4, 8),
                                       BranchRecord(8, 12))})
        next(store.glob("*__000001.dict")).unlink()  # punch a hole
        with pytest.raises(ValueError, match="gap"):
            DictionaryRegistry(store)


# -- the cryptographic pin --------------------------------------------------


class TestSpecChallenge:
    def test_epoch_zero_is_the_bare_nonce(self):
        nonce = b"n" * 16
        assert spec_challenge(nonce, 0, b"") == nonce
        assert spec_challenge(nonce, 0, EMPTY_DICTIONARY_DIGEST) == nonce

    def test_epoch_and_digest_both_bind(self):
        nonce, digest = b"n" * 16, b"d" * 32
        bound = spec_challenge(nonce, 1, digest)
        assert bound != nonce
        assert bound != spec_challenge(nonce, 2, digest)
        assert bound != spec_challenge(nonce, 1, b"e" * 32)
        assert bound != spec_challenge(b"m" * 16, 1, digest)

    def test_dack_requires_the_device_key(self):
        registry = DictionaryRegistry()
        entry = registry.publish(
            FIBCALL, {0: (BranchRecord(4, 8), BranchRecord(8, 4))})
        key = device_key("prv-0")
        good = dack_mac(key, "prv-0", entry.epoch, entry.digest)
        assert verify_dack(registry, FIBCALL, key, "prv-0",
                           entry.epoch, entry.digest, good) is entry
        # forged MAC, wrong epoch, wrong profile: all refused
        assert verify_dack(registry, FIBCALL, key, "prv-0",
                           entry.epoch, entry.digest,
                           b"\x00" * 32) is None
        assert verify_dack(registry, FIBCALL, key, "prv-0",
                           entry.epoch + 1, entry.digest, good) is None
        assert verify_dack(registry, DeviceProfile("prime"), key,
                           "prv-0", entry.epoch, entry.digest,
                           good) is None


# -- the session state machine ----------------------------------------------


class TestEpochStateMachine:
    def test_never_acked_device_stays_on_epoch_zero(
            self, factory, fibcall_dictionary):
        service = FleetService()
        service.registry.publish(FIBCALL, fibcall_dictionary)
        # the push is *offered* but the device never answers it
        verdict = run_session(service, factory, "prv-0")
        assert verdict.accepted
        assert service.acked_epoch("prv-0", FIBCALL) == 0
        assert service.dictionary_pushes()  # still being offered
        verdict = run_session(service, factory, "prv-0")
        assert verdict.accepted  # plain logs keep verifying forever
        service.close()

    def test_acked_device_attests_compressed(
            self, factory, fibcall_dictionary):
        service = FleetService()
        entry = service.registry.publish(FIBCALL, fibcall_dictionary)
        plain = run_session(service, factory, "prv-0")
        assert ack(service, "prv-0", entry.epoch)
        assert service.acked_epoch("prv-0", FIBCALL) == entry.epoch
        compressed = run_session(service, factory, "prv-0",
                                 chain_epoch=entry.epoch)
        assert compressed.accepted
        # same execution: expansion reconstructed the identical stream
        assert compressed.records_digest == plain.records_digest
        assert compressed.path_digest == plain.path_digest
        service.close()

    def test_stale_epoch_chain_is_rejected_by_name(
            self, factory, fibcall_dictionary):
        """A device pinned to epoch 1 transmitting an epoch-0 (plain)
        chain fails the bound challenge — and the reject reason names
        the stale epoch instead of guessing at a replay."""
        service = FleetService()
        entry = service.registry.publish(FIBCALL, fibcall_dictionary)
        run_session(service, factory, "prv-0")
        assert ack(service, "prv-0", entry.epoch)
        verdict = run_session(service, factory, "prv-0", chain_epoch=0)
        assert not verdict.accepted
        assert "stale-epoch" in verdict.reason
        assert f"pinned to epoch {entry.epoch}" in verdict.reason
        service.close()

    def test_unpinned_compressed_chain_is_rejected(
            self, factory, fibcall_dictionary):
        """The reverse direction: a device that never ACKed (pinned to
        0) transmitting a compressed epoch-1 chain is refused before
        any expansion is attempted."""
        service = FleetService()
        entry = service.registry.publish(FIBCALL, fibcall_dictionary)
        verdict = run_session(service, factory, "prv-0",
                              chain_epoch=entry.epoch)
        assert not verdict.accepted
        assert "stale-epoch" in verdict.reason
        assert "pinned to epoch 0" in verdict.reason
        service.close()

    def test_mid_session_push_pins_the_open_session(
            self, factory, fibcall_dictionary):
        """A push+ACK landing *mid-session* must not change the open
        session's epoch: the in-flight plain chain still verifies, and
        only the next session opens compressed."""
        service = FleetService()
        challenge = service.open_session("prv-0", FIBCALL,
                                         device_key("prv-0"))
        chunks = factory.chain(DeviceSpec("prv-0", FIBCALL),
                               challenge.nonce)
        service.submit("prv-0", chunks[0])
        # dictionary published + ACKed while the chain is in flight
        entry = service.registry.publish(FIBCALL, fibcall_dictionary)
        assert ack(service, "prv-0", entry.epoch)
        for chunk in chunks[1:]:
            service.submit("prv-0", chunk)
        service.drain()
        assert service.verdicts["prv-0"].accepted  # pinned at epoch 0
        # the *next* session opens under the acknowledged epoch
        verdict = run_session(service, factory, "prv-0",
                              chain_epoch=entry.epoch)
        assert verdict.accepted
        service.close()

    def test_replayed_older_ack_cannot_roll_back(
            self, factory, fibcall_dictionary):
        service = FleetService()
        e1 = service.registry.publish(FIBCALL, fibcall_dictionary)
        bigger = dict(fibcall_dictionary)
        bigger[max(bigger) + 1] = (BranchRecord(4, 8), BranchRecord(8, 4))
        e2 = service.registry.publish(FIBCALL, bigger)
        run_session(service, factory, "prv-0")
        assert ack(service, "prv-0", e2.epoch)
        assert ack(service, "prv-0", e1.epoch)  # replay: absorbed...
        assert service.acked_epoch("prv-0", FIBCALL) == e2.epoch  # ...inert
        service.close()

    def test_forged_dack_is_counted_and_dropped(
            self, factory, fibcall_dictionary):
        service = FleetService()
        entry = service.registry.publish(FIBCALL, fibcall_dictionary)
        run_session(service, factory, "prv-0")
        forged = encode_dack_frame(
            "prv-0", entry.epoch, entry.digest,
            dack_mac(b"not-the-device-key", "prv-0", entry.epoch,
                     entry.digest))
        assert not service.ingest_dack("prv-0", forged)
        assert service.acked_epoch("prv-0", FIBCALL) == 0
        assert service.metrics.dict_acks_rejected == 1
        assert not service.ingest_dack("prv-0", b"garbage")
        service.close()
