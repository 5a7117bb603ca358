"""Stepping vs. compiled replay: per-replay time and a differential.

Attests seeded executions (each device reads its own sensor, as in a
fleet of distinct devices) under RAP-Track, TRACES and naive MTB, and
replays every CFLog twice: its records with the stepping oracle
(``tests/replay_oracle.py``), and its packed bytes (``CFLog.pack``, the
form the wire carries) with the compiled program every verifier runs
(``verifier.program``: :class:`ReplayProgram` /
:class:`NaiveReplayProgram`). The two must agree on every field the
fleet records (lossless, violations, error, consumed, shadow-stack
high-water mark, path length and digest), and the verifier's
``replay`` must return the oracle's whole result, path included; any
divergence is a hard failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py            # full
    PYTHONPATH=src python benchmarks/bench_replay.py --smoke    # CI gate

Full mode covers the four sensor firmwares over several seeds plus
every other workload's default execution, under all three methods, and
writes the table to ``benchmarks/results/replay.txt``. Smoke mode (the
CI gate) replays a few seeded temperature, ultrasonic, fir and geiger
executions under all three methods and also fails (exit 1) if the
compiled replay is less than ``MIN_SPEEDUP`` (5x) faster on geiger,
fir or ultrasonic under the trampoline methods, or less than
``MIN_NAIVE_SPEEDUP`` (2x) faster on geiger or ultrasonic under naive
MTB (which logs, and so steps, every taken branch).

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import statistics
import sys
import time
from typing import List, Optional

RESULTS = pathlib.Path(__file__).parent / "results" / "replay.txt"
#: the stepping oracle lives with the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tests"))

#: the firmwares whose CFLogs differ per device (their sensor's seed)
SENSOR_WORKLOADS = ["temperature", "ultrasonic", "fir", "geiger"]
METHODS = ("rap-track", "traces", "naive-mtb")
#: smoke-mode speedup floor applies to these (temperature's replay is
#: short enough that fixed per-call costs dominate both paths)
GATED = ("ultrasonic", "fir", "geiger")
#: smoke-mode floor for stepping/compiled time on the GATED firmwares
MIN_SPEEDUP = 5.0
#: naive MTB: its floor applies to these, whose loops dominate the path
NAIVE_GATED = ("ultrasonic", "geiger")
#: smoke-mode floor for naive MTB on NAIVE_GATED
MIN_NAIVE_SPEEDUP = 2.0


def seeded_workload(name: str, seed: Optional[int]):
    """``name`` with its sensor on ``seed`` (None: the default one)."""
    from repro.workloads import load_workload
    from repro.workloads.base import (
        ADC_BASE,
        GEIGER_BASE,
        GPIO_BASE,
        ULTRASONIC_BASE,
    )
    from repro.workloads.peripherals import (
        ADCDevice,
        GeigerTube,
        GPIOPort,
        UltrasonicRanger,
    )

    workload = load_workload(name)
    if seed is None or name not in SENSOR_WORKLOADS:
        return workload
    if name == "geiger":
        base, sensor, label = GEIGER_BASE, GeigerTube(seed=seed), "geiger"
    elif name == "ultrasonic":
        base, sensor, label = (ULTRASONIC_BASE, UltrasonicRanger(seed=seed),
                               "sonar")
    elif name == "fir":
        base, sensor, label = (ADC_BASE, ADCDevice(
            seed=seed, base_value=300, spread=200), "adc")
    else:
        base, sensor, label = ADC_BASE, ADCDevice(seed=seed), "adc"
    gpio = GPIOPort()

    def devices():
        sensor.reset()
        gpio.reset()
        return [(base, sensor, label), (GPIO_BASE, gpio, "gpio")]

    return dataclasses.replace(workload, devices=devices)


def _timed(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def floor(name: str, method: str) -> Optional[float]:
    """The smoke-mode speedup floor of a (workload, method) row."""
    if method == "naive-mtb":
        return MIN_NAIVE_SPEEDUP if name in NAIVE_GATED else None
    return MIN_SPEEDUP if name in GATED else None


def bench_workload(name: str, method: str, seeds: List[Optional[int]],
                   repeats: int):
    import replay_oracle
    from repro.baselines.naive_mtb import NaiveMtbEngine
    from repro.baselines.traces import TracesEngine
    from repro.cfa.engine import EngineConfig, RapTrackEngine
    from repro.cfa.verifier import NaiveVerifier, Verifier
    from repro.eval.runner import prepare
    from repro.tz.keystore import KeyStore
    from repro.workloads.base import make_mcu

    engines = {"rap-track": RapTrackEngine, "traces": TracesEngine,
               "naive-mtb": NaiveMtbEngine}
    image, bound = prepare(seeded_workload(name, None), method)
    maps = () if bound is None else (bound,)
    verifier = (NaiveVerifier(image, b"bench") if bound is None
                else Verifier(image, bound, b"bench"))
    t0 = time.perf_counter()
    program = verifier.program
    compile_s = time.perf_counter() - t0
    ref_s, out_s, path_len, mismatches = [], [], [], []
    for seed in seeds:
        mcu = make_mcu(image, seeded_workload(name, seed))
        cflog = engines[method](mcu, KeyStore.provision(), *maps,
                                EngineConfig()).attest(b"b").cflog
        records, log = cflog.records, cflog.pack()
        ref = replay_oracle.replay(verifier, records)
        if replay_oracle.digest(ref) != program.run(log):
            mismatches.append(f"seed {seed}: compiled != stepping")
        if verifier.replay(log) != ref:
            mismatches.append(f"seed {seed}: replay result != stepping")
        ref_s.append(_timed(lambda: replay_oracle.replay(verifier, records),
                            repeats))
        out_s.append(_timed(lambda: program.run(log), 5 * repeats))
        path_len.append(len(ref.path))
    ref_ms = 1e3 * statistics.mean(ref_s)
    out_ms = 1e3 * statistics.mean(out_s)
    return {
        "workload": name,
        "method": method,
        "runs": len(seeds),
        "path": statistics.mean(path_len),
        "ref_ms": ref_ms,
        "out_ms": out_ms,
        "speedup": ref_ms / out_ms,
        "compile_ms": 1e3 * compile_s,
        "mismatches": mismatches,
    }


def format_rows(rows) -> str:
    lines = [
        "Stepping vs. compiled replay — ms per replay",
        "(sensor firmwares: mean over seeded executions; others: the",
        "default execution; compile = program build, once per firmware)",
        "",
        f"{'workload':12s} {'method':10s} {'runs':>4s} {'path len':>9s} "
        f"{'stepping':>9s} {'compiled':>9s} {'speedup':>8s} "
        f"{'compile':>8s}",
        "-" * 77,
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:12s} {row['method']:10s} {row['runs']:>4d} "
            f"{row['path']:>9.0f} {row['ref_ms']:>9.3f} "
            f"{row['out_ms']:>9.3f} {row['speedup']:>7.1f}x "
            f"{row['compile_ms']:>8.3f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: seeded sensor firmwares only, fail "
                             f"under {MIN_SPEEDUP:g}x on {', '.join(GATED)} "
                             f"(naive-mtb: {MIN_NAIVE_SPEEDUP:g}x on "
                             f"{', '.join(NAIVE_GATED)})")
    args = parser.parse_args(argv)

    from repro.workloads import WORKLOADS

    if args.smoke:
        plan = [(name, [1, 2, 3]) for name in SENSOR_WORKLOADS]
        repeats = 3
    else:
        plan = [(name, list(range(1, 9))) for name in SENSOR_WORKLOADS]
        plan += [(name, [None]) for name in sorted(WORKLOADS)
                 if name not in SENSOR_WORKLOADS]
        repeats = 5

    rows, failures = [], []
    for name, seeds in plan:
        for method in METHODS:
            row = bench_workload(name, method, seeds, repeats)
            rows.append(row)
            cell = f"{name}/{method}"
            status = f"{row['speedup']:6.1f}x"
            minimum = floor(name, method)
            if row["mismatches"]:
                failures += [f"{cell}: DIFFERENTIAL: {m}"
                             for m in row["mismatches"]]
                status += "  DIFFERENTIAL MISMATCH"
            elif (args.smoke and minimum is not None
                  and row["speedup"] < minimum):
                failures.append(f"{cell}: speedup {row['speedup']:.1f}x "
                                f"< floor {minimum:.1f}x")
                status += "  BELOW FLOOR"
            print(f"  {cell:22s} {status}", file=sys.stderr)

    table = format_rows(rows)
    print(table)
    if not args.smoke:
        RESULTS.parent.mkdir(parents=True, exist_ok=True)
        RESULTS.write_text(table + "\n")
        print(f"\nwrote {RESULTS}", file=sys.stderr)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
