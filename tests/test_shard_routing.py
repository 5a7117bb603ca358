"""The router's owner map: one ring lookup per device, not per call.

``ShardedFleetService`` records a device's shard when the device opens
a session and reads that map on every later call. These tests pin
that the map never changes an answer the ring would give, that ids
which never opened a session are routed without being stored (so
hostile traffic cannot grow the map), and that a restarted service
routes every device as before.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfa.fleet import (
    DeviceProfile,
    FleetSimulator,
    ShardedFleetService,
    build_fleet_specs,
    device_key,
)

PROFILE = DeviceProfile("fibcall")


@given(st.lists(st.text(max_size=24), max_size=12), st.text(max_size=24))
@settings(deadline=None, max_examples=150)
def test_shard_of_is_the_rings_answer(opened, probe):
    service = ShardedFleetService(shards=5)
    for device_id in opened:
        if service.shard_of(device_id) != service.ring.route(device_id):
            raise AssertionError(device_id)
        try:
            service.open_session(device_id, PROFILE, b"k" * 32)
        except ValueError:  # the id repeats: its session is active
            pass
    for device_id in opened + [probe]:
        assert service.shard_of(device_id) == service.ring.route(device_id)
    assert len(service._owners) == len(set(opened))


def test_unknown_ids_are_routed_not_stored():
    service = ShardedFleetService(shards=3)
    service.open_session("prv-known", PROFILE, b"k" * 32)
    owners = dict(service._owners)
    before = service.metrics.reports_ignored
    for index in range(10_000):
        service.submit(f"hostile-{index:05d}", b"RAPT\x01junk")
    assert service._owners == owners
    assert service.metrics.reports_ignored - before == 10_000


def test_devices_route_as_before_after_resume(tmp_path):
    specs = build_fleet_specs(16, attack_fraction=0.25, seed=2)
    with ShardedFleetService(shards=3, store_dir=tmp_path) as service:
        FleetSimulator(specs, seed=2).run(service)
        owners = {spec.device_id: service.shard_of(spec.device_id)
                  for spec in specs}
        assert owners == {d: service.ring.route(d) for d in owners}
        assert set(service._owners) == set(owners)
    with ShardedFleetService(shards=3, store_dir=tmp_path,
                             resume=True) as resumed:
        assert resumed.recovered_verdicts == len(specs)
        for device_id, shard in owners.items():
            assert resumed.shard_of(device_id) == shard
            # the shard the router picks is the one holding its verdict
            assert device_id in resumed.shards[shard].verdicts
        # a new session lands on the same shard and is recorded there
        device_id = specs[0].device_id
        resumed.open_session(device_id, specs[0].profile,
                             device_key(device_id))
        assert resumed._owners == {device_id: owners[device_id]}
