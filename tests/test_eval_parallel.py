"""The paper's evaluation grid, differentially tested.

``repro.eval.figures.collect_all`` runs every (workload, method) cell
in one process, one ``run_method`` call per cell. Whatever the
offline-artifact cache holds (cold, or warm from disk), every
``MethodRun`` it returns must be field-for-field identical to a direct
``run_method`` call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.cache import ArtifactCache, CacheStats
from repro.eval.figures import collect_all
from repro.eval.runner import METHODS, MethodRun, run_method

BEEBS = ("prime", "crc32", "bubblesort", "fibcall", "matmult",
         "bitcount", "insertsort", "strsearch", "dijkstra", "fir")


class TestDifferentialSerialVsParallel:
    """All BEEBS workloads × all four methods: direct ``run_method``
    calls against the grid, on a cold and then a warm cache."""

    @pytest.fixture(scope="class")
    def serial_runs(self):
        return {name: {method: run_method(name, method)
                       for method in METHODS}
                for name in BEEBS}

    @pytest.fixture(scope="class")
    def parallel_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("offline-cache")
        cold = collect_all(BEEBS, cache=ArtifactCache(root))
        warm_cache = ArtifactCache(root)  # a new process's view: disk only
        warm = collect_all(BEEBS, cache=warm_cache)
        assert warm_cache.stats.misses == 0
        return {"cold": cold, "warm": warm}

    def test_every_cell_field_for_field_identical(self, serial_runs,
                                                  parallel_runs):
        for label, runs in parallel_runs.items():
            for name in BEEBS:
                for method in METHODS:
                    assert dataclasses.asdict(runs[name][method]) == \
                        dataclasses.asdict(serial_runs[name][method]), \
                        (label, name, method)

    def test_grid_is_complete(self, parallel_runs):
        for runs in parallel_runs.values():
            assert list(runs) == list(BEEBS)
            for name in BEEBS:
                assert list(runs[name]) == list(METHODS)


class TestRunCell:
    def test_cell_counts_cache_traffic(self, tmp_path):
        """Per cell, read through the progress callback: baseline and
        naive-mtb share one offline artifact, so a cold grid misses on
        every method but naive-mtb, and a warm one hits on all four."""
        cache = ArtifactCache(tmp_path)
        traffic = []

        def cold_progress(done, total, run):
            traffic.append((run.method, cache.stats.hits,
                            cache.stats.misses))

        cold = collect_all(["fibcall"], cache=cache, progress=cold_progress)
        assert traffic == [("baseline", 0, 1), ("naive-mtb", 1, 1),
                           ("rap-track", 1, 2), ("traces", 1, 3)]
        cache = ArtifactCache(tmp_path)
        warm = collect_all(["fibcall"], cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (4, 0)
        assert dataclasses.asdict(cold["fibcall"]["traces"]) == \
            dataclasses.asdict(warm["fibcall"]["traces"])


class TestRunCellsSerial:
    def test_progress_stream_and_metrics(self, tmp_path):
        events = []
        cache = ArtifactCache(tmp_path)
        runs = collect_all(["fibcall", "crc32"], cache=cache,
                           progress=lambda *event: events.append(event))
        assert [(done, total, run.workload, run.method)
                for done, total, run in events] == [
            (i + 1, 8, name, method)
            for i, (name, method) in enumerate(
                (n, m) for n in ("fibcall", "crc32") for m in METHODS)]
        assert [run for _, _, run in events] == [
            runs[name][method] for name in runs for method in runs[name]]
        assert cache.stats.lookups == 8
        assert cache.stats.offline_s > 0


class TestEvaluateGrid:
    def test_strict_raises_on_failure(self, monkeypatch):
        """The first failing cell stops the grid, named with its error."""
        from repro.cfa import verifier as verifier_mod

        monkeypatch.setattr(verifier_mod.Verifier, "authenticate",
                            lambda self, result, challenge: False)
        done = []
        with pytest.raises(RuntimeError,
                           match="cell fibcall×rap-track failed: "
                                 "RuntimeError: rap-track verification "
                                 "failed on fibcall"):
            collect_all(["fibcall", "crc32"],
                        progress=lambda d, t, run: done.append(run.method))
        assert done == ["baseline", "naive-mtb"]

    def test_metrics_hit_rate(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        collect_all(["fibcall"], cache=cache)
        assert cache.stats.hit_rate == pytest.approx(0.25)
        cache = ArtifactCache(tmp_path)
        collect_all(["fibcall"], cache=cache)
        assert cache.stats.hit_rate == 1.0
        assert CacheStats().hit_rate == 0.0

    def test_progress_event_shape(self):
        events = []
        collect_all(["fibcall"], progress=lambda *e: events.append(e))
        assert len(events) == len(METHODS)
        for done, total, run in events:
            assert isinstance(done, int) and total == len(METHODS)
            assert isinstance(run, MethodRun) and run.verified
