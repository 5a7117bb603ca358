"""A TRACES learning round that mines, pushes and compresses loop records.

TRACES logs a loop as one-word ``LoopRecord``s, which the fibcall and
prime fleets of the CLI smoke never log. An ultrasonic fleet does: its
learning round must publish sub-paths holding loop records, every
device must ACK the SPD1 push, and the compressed round must settle
exactly as the plain one did while carrying fewer bytes per session.
"""

from __future__ import annotations

from repro.cfa.cflog import LoopRecord
from repro.cfa.fleet import (
    DeviceProfile,
    FleetSimulator,
    ShardedFleetService,
    build_fleet_specs,
    learn_dictionaries,
)

PROFILE = DeviceProfile("ultrasonic", "traces")


def test_traces_learn_round_mines_loop_records():
    specs = build_fleet_specs(24, workloads=("ultrasonic",),
                              attack_fraction=0.0, method="traces", seed=3)
    with ShardedFleetService(shards=1, sampler=True) as service:
        simulator = FleetSimulator(specs, seed=3)
        first = simulator.run(service)
        assert first.ok, first.mismatches
        metrics = service.metrics
        plain_bps = metrics.bytes_ingested / metrics.sessions_settled

        published = learn_dictionaries(service)
        assert set(published) == {PROFILE}
        dictionary = published[PROFILE].dictionary
        assert any(isinstance(record, LoopRecord)
                   for path in dictionary.values() for record in path)
        assert simulator.handshake(service) == len(specs)

        second = simulator.run(service)
        assert second.ok, second.mismatches
        assert {d: v.accepted for d, v in second.verdicts.items()} == \
            {d: v.accepted for d, v in first.verdicts.items()}
        after = service.metrics
        compressed_bps = ((after.bytes_ingested - metrics.bytes_ingested)
                          / (after.sessions_settled
                             - metrics.sessions_settled))
        assert compressed_bps < plain_bps
