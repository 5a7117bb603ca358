"""Fleet-learned speculation: adaptive dictionaries vs the static miner.

ROADMAP item 3: the static tandem miner (``mine_subpaths``) recovers
10.1x on bubblesort but a flat 1.0x on insertsort — its dictionary
only catches back-to-back repeats. The fleet tier's adaptive loop
(sample live traffic -> mine n-grams by measured profit -> version the
dictionary -> push/ACK the epoch) must beat that baseline on CFLog
bytes/session for at least 3 of the 15 workloads *including*
insertsort, while verdicts stay byte-identical: compression is only
allowed to move bytes, never the verdict.

Two tables go to ``benchmarks/results/speccfa_fleet.txt``:

* per-workload wire bytes under no / static / adaptive dictionaries
  (mined from the same sampled traffic);
* a heterogeneous fleet driven through the full protocol — epoch-0
  round, one learning round (mine + push + ACK), epoch-1 round — with
  bytes/session and verifier reports/sec before and after learning.

``SPECCFA_FLEET_DEVICES`` scales the fleet half (default 300 keeps the
suite quick; the committed table was produced with 10000).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cfa.cflog import tag_sizes
from repro.cfa.fleet import (
    DeviceProfile,
    DeviceSpec,
    FleetSimulator,
    ShardedFleetService,
    learn_dictionaries,
    mine_fleet_dictionary,
)
from repro.cfa.speccfa import compress, expand, mine_subpaths
from repro.eval.figures import EVAL_WORKLOADS, format_table
from conftest import save_table

FLEET_DEVICES = int(os.environ.get("SPECCFA_FLEET_DEVICES", "300"))
SEED = 11


#: every probe device runs the default (RAP-Track) profile
METHOD = DeviceProfile("fibcall").method


def _bytes(records) -> int:
    sizes = tag_sizes(METHOD)
    return sum(sizes[r.tag] for r in records)


@pytest.fixture(scope="module")
def sampled_streams(artifact_cache):
    """Expanded traffic samples for every workload, tapped from a probe
    fleet that ran the real wire protocol (one honest device each)."""
    specs = [DeviceSpec(f"probe-{name}", DeviceProfile(name))
             for name in EVAL_WORKLOADS]
    with ShardedFleetService(shards=1, sampler=True) as service:
        report = FleetSimulator(
            specs, seed=SEED,
            cache=artifact_cache).run(service)
        assert report.ok, report.mismatches
        return service.traffic_samples()


def test_adaptive_vs_static_table(sampled_streams, results_dir):
    rows = []
    adaptive_wins = []
    for name in EVAL_WORKLOADS:
        streams = sampled_streams.get(DeviceProfile(name), [])
        records = list(streams[0][0]) if streams else []
        plain = _bytes(records)
        static_dict = mine_subpaths(records, METHOD)
        adaptive_dict = mine_fleet_dictionary(streams, METHOD)
        static_b = _bytes(compress(records, static_dict))
        adaptive_b = _bytes(compress(list(records), adaptive_dict))
        # compression must stay lossless before it counts for anything
        assert expand(compress(list(records), adaptive_dict),
                      adaptive_dict) == records
        rows.append({
            "workload": name,
            "plain_B": plain,
            "static_B": static_b,
            "adaptive_B": adaptive_b,
            "static_x": plain / static_b if static_b else 1.0,
            "adaptive_x": plain / adaptive_b if adaptive_b else 1.0,
            "subpaths": len(adaptive_dict),
        })
        assert adaptive_b <= plain, name  # never expands
        if adaptive_b < static_b:
            adaptive_wins.append(name)
    table = format_table(
        rows, "Fleet-learned speculation: wire bytes per dictionary")
    # the static miner's flat spot is the one the adaptive loop must fix
    insertsort = next(r for r in rows if r["workload"] == "insertsort")
    assert insertsort["adaptive_x"] > 1.0
    assert len(adaptive_wins) >= 3, adaptive_wins
    test_adaptive_vs_static_table.table = table


def test_fleet_learning_round_trip(artifact_cache, results_dir):
    """Epoch-0 round -> learn -> epoch-1 round on one mixed fleet."""
    specs = [DeviceSpec(f"prv-{i:05d}",
                        DeviceProfile(EVAL_WORKLOADS[i % len(EVAL_WORKLOADS)]))
             for i in range(FLEET_DEVICES)]
    rows = []
    with ShardedFleetService(shards=1, sampler=True) as service:
        simulator = FleetSimulator(specs, seed=SEED, cache=artifact_cache)
        for spec in specs:  # attest templates outside the timed rounds
            simulator.factory.chain(spec, b"\x00" * 16)

        def run_round(label):
            m = service.metrics
            bytes0, reports0 = m.bytes_ingested, m.reports_ingested
            sessions0 = m.sessions_settled
            t0 = time.perf_counter()
            report = simulator.run(service)
            wall = time.perf_counter() - t0
            assert report.ok, report.mismatches[:3]
            m = service.metrics
            sessions = m.sessions_settled - sessions0
            rows.append({
                "round": label,
                "sessions": sessions,
                "bytes_per_session":
                    (m.bytes_ingested - bytes0) / max(1, sessions),
                "reports_per_s":
                    (m.reports_ingested - reports0) / wall,
            })
            return {d: v for d, v in service.verdicts.items()}

        before = run_round("epoch 0 (plain)")
        published = learn_dictionaries(service)
        assert published, "mining found nothing to publish"
        acked = simulator.handshake(service)
        # every device whose profile earned a dictionary ACKs; profiles
        # whose logs are empty (crc32, matmult) mine nothing and their
        # devices rightly stay on epoch 0
        assert acked == sum(1 for s in specs if s.profile in published)
        after = run_round("epoch 1 (learned)")
        # compression moved bytes, never the verdict: same devices,
        # same executions -> same expanded-stream digests and verdicts
        for device_id, verdict in after.items():
            assert verdict.accepted
            assert (verdict.records_digest
                    == before[device_id].records_digest), device_id
        assert (rows[1]["bytes_per_session"]
                < rows[0]["bytes_per_session"])
    fleet_table = format_table(
        rows, f"Heterogeneous {FLEET_DEVICES}-device fleet: "
              f"before/after one learning round")
    table = getattr(test_adaptive_vs_static_table, "table", "")
    save_table(results_dir, "speccfa_fleet",
               (table + "\n\n" + fleet_table) if table else fleet_table)
