"""The attest-sweep workload: ``run_method`` over workloads x methods.

This is what ``repro figures`` runs with a cold artifact cache: for
every one of the 15 evaluation workloads under baseline, naive-mtb,
rap-track and traces, the offline pipeline builds the image, the
simulated MCU (JIT on) runs it with MTB/DWT tracing and the TrustZone
gateway, and the verifier authenticates and replays the reports. It
is the only workload whose timed window runs the machine, its JIT,
the trace units, the gateway and the offline pipeline, so fleet-only
changes should leave it unchanged.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import random
import zlib
from pathlib import Path
from typing import Dict, List, Optional

from repro.eval import runner
from repro.eval.cache import ArtifactCache, offline_key
from repro.eval.figures import EVAL_WORKLOADS
from repro.workloads import load_workload

from common import (
    SETUP_REPEATS,
    Caller,
    HostClock,
    median,
    peak_rss_mb,
    percentile,
)
from tracer import Tracer

#: ``recovery_s`` samples taken after each sweep (one reload takes
#: ~20 ms, so a median needs many)
RELOADS = 6


def paper_metrics(runs: Dict[str, Dict[str, runner.MethodRun]]
                  ) -> Dict[str, float]:
    """The paper's per-component costs, averaged over ``runs``:
    RAP-Track runtime overhead over the unmodified baseline (Fig. 8),
    CFLog bytes (Fig. 9) and code growth (Fig. 10)."""
    overhead, cflog, growth = [], [], []
    for methods in runs.values():
        base, rap = methods["baseline"], methods["rap-track"]
        overhead.append(100.0 * rap.overhead_vs(base))
        cflog.append(rap.cflog_bytes)
        growth.append(100.0 * (rap.code_size - base.code_size)
                      / base.code_size)
    count = len(runs)
    return {
        "rap_overhead_pct": sum(overhead) / count,
        "rap_cflog_bytes": sum(cflog) / count,
        "rap_code_growth_pct": sum(growth) / count,
    }


class Sweep:
    """Repeated sweeps over every (workload, method) cell."""

    name = "attest-sweep"
    #: wall seconds one sweep takes on the 2-core reference host
    nominal_sweep_s = 2.7

    def __init__(self, seed: int, seconds: int, root: Path,
                 clock: HostClock):
        self.seed = seed
        self.clock = clock
        self.root = root
        self.sweeps = max(2, round(seconds / self.nominal_sweep_s))
        self.cells = [(name, method) for name in EVAL_WORKLOADS
                      for method in runner.METHODS]
        self.failures: List[str] = []

    def build_store(self, part: int, caller: Caller) -> Path:
        """Set-up: persist every cell's offline artifact to disk."""
        store = self.root / f"artifacts-{part}"
        cache = ArtifactCache(store)
        for name in EVAL_WORKLOADS:
            workload = load_workload(name)
            for method in runner.METHODS:
                caller.call(runner.prepare, workload, method, None, cache)
        return store

    def reload(self, store: Path, caller: Caller) -> float:
        """One ``recovery_s`` sample: reload every artifact from the
        store into a cold cache (the offline-artifact cache's read
        path)."""
        keys = sorted({offline_key(load_workload(name).source, method)
                       for name, method in self.cells})

        def reload() -> None:
            cache = ArtifactCache(store)
            if any(cache.get(key) is None for key in keys):
                self.failures.append("artifact store lost an entry")

        gc.collect()
        caller.call(reload)
        return caller.last_s

    def measure(self, caller: Caller, sweeps: int,
                store: Optional[Path] = None) -> dict:
        """Run ``sweeps`` sweeps, each in a seeded cell order. The rates
        are medians over sweeps, so a slow spell of the host moves one
        sweep rather than the whole figure. With ``store``, the store is
        reloaded ``RELOADS`` times after each sweep (``recovery_s``
        samples spread over the window, like the host's phases)."""
        reloads: List[float] = []
        reload_caller = Caller(self.clock)
        attest = functools.partial(runner.run_method, enable_jit=True)
        latencies: List[float] = []
        first: Dict[tuple, runner.MethodRun] = {}
        busy0, raw0 = caller.busy_s, caller.raw_busy_s
        attempted = 0
        cell_rates, cycle_rates = [], []
        for sweep in range(sweeps):
            sweep_busy, cells0, cycles = caller.busy_s, len(latencies), 0
            order = list(self.cells)
            random.Random(zlib.crc32(
                f"{self.name}:{self.seed}:{sweep}".encode())).shuffle(order)
            for cell in order:
                attempted += 1
                try:
                    run = caller.call(attest, *cell)
                except (AssertionError, RuntimeError) as exc:
                    self.failures.append(f"{cell}: {exc}")
                    continue
                latencies.append(caller.last_s)
                cycles += run.cycles
                if not run.verified:
                    self.failures.append(f"{cell}: not verified")
                if first.setdefault(cell, run) != run:
                    self.failures.append(f"{cell}: sweeps disagree")
            sweep_busy = caller.busy_s - sweep_busy
            cell_rates.append((len(latencies) - cells0) / sweep_busy)
            cycle_rates.append(cycles / sweep_busy)
            if store is not None:
                reloads += [self.reload(store, reload_caller)
                            for _ in range(RELOADS)]
        busy = caller.busy_s - busy0
        attested = [run for (_, method), run in first.items()
                    if method != "baseline"]
        runs: Dict[str, Dict[str, runner.MethodRun]] = {}
        for (name, method), run in first.items():
            runs.setdefault(name, {})[method] = run
        fingerprint = hashlib.sha256()
        for cell in sorted(first):
            fingerprint.update(f"{cell}|{first[cell]!r}\n".encode())
        return {
            "busy_s": busy,
            "raw_busy_s": caller.raw_busy_s - raw0,
            "attempted": attempted,
            "cells": len(latencies),
            "reloads": reloads,
            "fingerprint": fingerprint.hexdigest(),
            "e2e": {
                "sessions_per_s": median(cell_rates),
                "session_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
                "session_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
                "wire_bytes_per_session":
                    sum(r.cflog_bytes for r in attested) / len(attested),
                "sim_cycles_per_s": median(cycle_rates),
                **paper_metrics(runs),
            },
        }

    def untraced(self) -> dict:
        setups = []
        for part in range(SETUP_REPEATS):
            gc.collect()  # every set-up starts from a collected heap
            t0 = self.clock.now()
            store = self.build_store(part, Caller(self.clock))
            setups.append(self.clock.now() - t0)
        window = self.measure(Caller(self.clock), self.sweeps, store)
        metrics = {
            "setup_s": median(setups),
            "recovery_s": median(window["reloads"]),
            **window["e2e"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return {"metrics": metrics, "window": window}

    def traced(self) -> dict:
        """Untraced then traced sweeps; the per-layer numbers are per
        sweep of the traced pass."""
        sweeps = max(2, self.sweeps // 2)
        plain = self.measure(Caller(self.clock), sweeps)
        with Tracer() as tracer:
            traced = self.measure(Caller(self.clock, tracer), sweeps)
            window = tracer.take()
        if plain["fingerprint"] != traced["fingerprint"]:
            self.failures.append("traced sweep diverged from the untraced")
        return {"window": traced, "plain": plain, "layers": window,
                "units": sweeps}
