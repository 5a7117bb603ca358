"""One policy read per session record, on the live fold and on reopen.

A decision's ``policy_epoch`` and its firmware judgement must come from
the same policy document. The registry stub below moves forward one
epoch on every read, as if a publish landed between any two reads, and
the measurement under test is allowed at epoch 1 and revoked at epoch
2. A fold that read the registry twice per record (once for the epoch,
once to judge) would stamp epoch 1 on a judgement made under epoch 2.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from repro.cfa.epochs import DeviceProfile
from repro.cfa.policy.engine import QUARANTINED, PolicyEngine
from repro.cfa.policy.registry import (
    REVOKED_FW,
    PolicyRegistry,
    policy_key,
)

PROFILE = DeviceProfile("gps", "rap-track")
PINNED = b"\x01" * 32
MEASUREMENT = b"\x02" * 32


def publish_both(registry: PolicyRegistry) -> None:
    """Epoch 1 allows the measurement; epoch 2 revokes it."""
    registry.publish(PROFILE, PINNED, allowed=(MEASUREMENT,))
    registry.publish(PROFILE, PINNED, revoked=(MEASUREMENT,))


class AdvancingRegistry(PolicyRegistry):
    """A policy registry whose latest document moves forward one epoch
    on every read (and then stays at the newest)."""

    def __init__(self) -> None:
        super().__init__(policy_key(b"one-read"))
        publish_both(self)
        self.reads = 0

    def latest(self, profile):
        self.reads += 1
        newest = len(self._epochs.get(profile, []))
        return self.get(profile, min(self.reads, newest))

    def latest_epoch(self, profile):
        return self.latest(profile).epoch


def session(seq: int) -> SimpleNamespace:
    return SimpleNamespace(
        is_policy=False, device_id="prv-0", seq=seq, profile=PROFILE,
        accepted=True, reason="", violations=(), measurement=MEASUREMENT,
        healing=False)


def assert_judged_under_its_epoch(registry, decision) -> None:
    doc = registry.get(PROFILE, decision.policy_epoch)
    revoked = doc.judge(decision.measurement) == REVOKED_FW
    assert revoked == ("revoked by policy" in decision.reason), decision


def test_live_observation_reads_the_registry_once():
    registry = AdvancingRegistry()
    engine = PolicyEngine(registry=registry)
    # epoch 1 allows the measurement: nothing to decide
    assert engine.observe(session(0)) == []
    assert registry.reads == 1
    # epoch 2 revokes it: quarantined, stamped with epoch 2
    (decision,) = engine.observe(session(1))
    assert registry.reads == 2
    assert decision.policy_epoch == 2
    assert decision.to_state == QUARANTINED
    assert_judged_under_its_epoch(registry, decision)


def test_restore_reads_the_registry_once_per_session_record():
    # the logged revocation, decided under a registry at epoch 2
    settled = PolicyRegistry(policy_key(b"one-read"))
    publish_both(settled)
    (decision,) = PolicyEngine(registry=settled).observe(session(1))
    policy_record = SimpleNamespace(is_policy=True, seq=2,
                                    **dataclasses.asdict(decision))
    registry = AdvancingRegistry()
    engine = PolicyEngine(registry=registry)
    replayed, repaired = engine.restore(
        [session(0), session(1), policy_record])
    assert (replayed, repaired) == (1, 0)
    assert engine.state_of("prv-0") == QUARANTINED
    # one read per session record, plus one for the lifecycle notice
    # of the one device left outside HEALTHY
    assert registry.reads == 2 + 1
    (epoch,) = [epoch for _, _, _, epoch in engine.take_notices()]
    assert epoch == 2
