"""The fleet's latency sample is a fixed window, per shard and fleet-wide.

A long-lived service keeps only the newest ``LATENCY_WINDOW``
verification latencies, and the router's aggregate (what every
``drain()`` returns) is bounded by the same window, so neither memory
nor the cost of reading the metrics grows with the sessions served.
"""

from dataclasses import fields

from repro.cfa.cflog import BranchRecord
from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    FleetSimulator,
    ShardedFleetService,
    TrafficSampler,
    build_fleet_specs,
)
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet import metrics as metrics_mod
from repro.cfa.fleet.metrics import FleetMetrics, aggregate_metrics

WINDOW = 5


def run_fleet(service, devices=16):
    specs = build_fleet_specs(devices, workloads=("fibcall",), seed=3)
    result = FleetSimulator(specs, seed=7,
                            factory=ChainFactory(watermark=256)).run(service)
    assert result.ok
    return service.drain()


def test_a_service_keeps_the_newest_window(monkeypatch):
    monkeypatch.setattr(metrics_mod, "LATENCY_WINDOW", WINDOW)
    with FleetService() as service:
        metrics = run_fleet(service)
    assert metrics.sessions_settled > WINDOW
    assert len(metrics.verify_latencies_s) == WINDOW
    pct = metrics.latency_percentiles()
    assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
    assert "verify p50/p95/p99" in metrics.summary()


def test_the_fleet_wide_aggregate_has_the_same_bound(monkeypatch):
    monkeypatch.setattr(metrics_mod, "LATENCY_WINDOW", WINDOW)
    with ShardedFleetService(shards=2) as service:
        metrics = run_fleet(service)
        per_shard = [s.metrics.verify_latencies_s for s in service.shards]
    assert all(len(window) == WINDOW for window in per_shard)
    assert len(metrics.verify_latencies_s) == WINDOW
    # the aggregate is the concatenation's newest window
    assert list(metrics.verify_latencies_s) == [
        t for window in per_shard for t in window][-WINDOW:]
    assert metrics.latency_percentiles()["p99"] > 0


def test_the_window_slides():
    shard = FleetMetrics()
    total = metrics_mod.LATENCY_WINDOW + 10
    shard.verify_latencies_s.extend(float(i) for i in range(total))
    assert list(shard.verify_latencies_s) == [
        float(i) for i in range(10, total)]
    merged = aggregate_metrics([shard, FleetMetrics()])
    assert len(merged.verify_latencies_s) == metrics_mod.LATENCY_WINDOW


def test_every_counter_sums_over_shards():
    counters = [f.name for f in fields(FleetMetrics)
                if type(getattr(FleetMetrics(), f.name)) is int
                and f.name != "shards"]
    first, second = FleetMetrics(), FleetMetrics()
    for value, name in enumerate(counters, 1):
        setattr(first, name, value)
        setattr(second, name, 100 * value)
    total = aggregate_metrics([first, second])
    assert [getattr(total, name) for name in counters] == [
        101 * value for value in range(1, len(counters) + 1)]
    assert total.shards == 2


def test_sampler_evictions_reach_the_metrics():
    sampler = TrafficSampler(max_streams=1, max_digests=1)
    # a stream no fibcall device sends holds the sampler's one slot, so
    # the first accepted fibcall session evicts it
    sampler.observe(DeviceProfile("fibcall"), [BranchRecord(1, 2)])
    with FleetService(sampler=sampler) as service:
        metrics = run_fleet(service, devices=4)
    assert sampler.evictions >= 1
    assert metrics.sampler_evictions == sampler.evictions
