"""Interpreter vs. superblock-JIT throughput benchmark.

Runs every workload's unmodified (baseline) binary twice — pure
interpreter tier and superblock JIT tier — and reports simulated
cycles per wall-clock second for each, plus the speedup.  Both runs
must agree exactly on cycles, instructions, exit reason, and the full
ground-truth retire stream; any divergence is a hard failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_interp.py            # full
    PYTHONPATH=src python benchmarks/bench_interp.py --smoke    # CI gate

Full mode benchmarks all workloads (sustained throughput: one warm
MCU, reset+rerun for ``--min-time`` seconds per tier) and writes the
table to ``benchmarks/results/interp.txt``.  Smoke mode
(the CI gate) runs a five-workload subset with the differential check
on and fails (exit 1) if the JIT is less than ``--min-speedup`` (2x)
over the interpreter on any of them.

Both modes end each workload with a warm pass: the workload is linked
again into a separate image and run once under the JIT.  The JIT's
block cache is keyed by image content, so that run must reuse the
blocks the timed pass compiled — zero fresh compiles — and still match
the interpreter exactly.

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

from repro.asm import link

RESULTS = pathlib.Path(__file__).parent / "results" / "interp.txt"

SMOKE_WORKLOADS = ["prime", "crc32", "temperature", "geiger", "ultrasonic"]

#: Interpreter throughput of the pre-JIT tree (cycles/sec, measured on
#: the CI container with this script's sustained-throughput loop; the
#: acceptance target is >= 5x these rates).
SEED_RATES = {
    "bitcount": 232_684, "bubblesort": 219_148, "crc32": 226_027,
    "dijkstra": 258_793, "fibcall": 270_174, "fir": 220_067,
    "geiger": 227_597, "gps": 210_866, "insertsort": 221_178,
    "matmult": 227_047, "prime": 250_073, "strsearch": 235_683,
    "syringe": 187_042, "temperature": 216_001, "ultrasonic": 220_983,
}


def _first_run(mcu, trace: bool):
    """Run ``mcu`` once from reset, optionally recording the ground-truth
    retire stream; returns ``(run, retire pcs or None, final regs)``."""
    from repro.trace.groundtruth import GroundTruthTracer

    tracer = None
    if trace:
        tracer = GroundTruthTracer(record_all=True)
        mcu.cpu.retire_hooks.append(tracer.on_retire)
    run = mcu.run()
    if tracer:
        mcu.cpu.retire_hooks.remove(tracer.on_retire)
    return run, (list(tracer.pcs) if tracer else None), list(mcu.cpu.regs)


def _measure(image, workload, enable_jit: bool, min_time: float,
             trace: bool = False):
    """Sustained throughput: warm run, then reset+rerun for ``min_time``.

    The first (cold) run is returned for the differential check — it is
    the canonical execution, traced from reset.  The timed loop then
    measures steady-state simulated-cycles-per-second with the tracer
    detached, which is the figure the results table reports.
    """
    from repro.workloads.base import make_mcu

    mcu = make_mcu(image, workload, enable_jit=enable_jit)
    first = _first_run(mcu, trace)
    total_cycles = 0
    elapsed = 0.0
    t0 = time.perf_counter()
    while elapsed < min_time:
        mcu.reset()
        total_cycles += mcu.run().cycles
        elapsed = time.perf_counter() - t0
    return total_cycles / elapsed, first


def _mismatches(expected, actual) -> List[str]:
    """Differences between two ``_first_run`` outcomes."""
    (run0, pcs0, regs0), (run1, pcs1, regs1) = expected, actual
    out = []
    for field in ("cycles", "instructions", "exit_reason"):
        a, b = getattr(run0, field), getattr(run1, field)
        if a != b:
            out.append(f"{field}: interp={a} jit={b}")
    if pcs0 != pcs1:
        out.append("ground-truth retire streams differ")
    if regs0 != regs1:
        out.append("final registers differ")
    return out


def bench_workload(name: str, min_time: float, trace: bool):
    from repro.workloads import load_workload
    from repro.workloads.base import make_mcu

    workload = load_workload(name)
    image = link(workload.module())
    interp_rate, interp = _measure(image, workload, False, min_time, trace)
    jit_rate, jit = _measure(image, workload, True, min_time, trace)
    mismatches = _mismatches(interp, jit)
    # warm pass: a separately linked copy reuses the timed pass's blocks
    warm_mcu = make_mcu(link(workload.module()), workload, enable_jit=True)
    warm = _first_run(warm_mcu, trace)
    mismatches += [f"warm re-link: {m}" for m in _mismatches(interp, warm)]
    if warm_mcu.jit.compiles:
        mismatches.append(f"warm re-link: {warm_mcu.jit.compiles} fresh "
                          "compiles (expected 0)")
    return {
        "workload": name,
        "interp": interp_rate,
        "jit": jit_rate,
        "speedup": jit_rate / interp_rate,
        "cycles": interp[0].cycles,
        "mismatches": mismatches,
    }


def format_rows(rows) -> str:
    lines = [
        "Interpreter vs. superblock JIT — simulated cycles per second",
        "(baseline binaries, sustained reset+rerun throughput; "
        "JIT default is ON)",
        "",
        f"{'workload':12s} {'cycles':>9s} {'interp c/s':>12s} "
        f"{'jit c/s':>12s} {'speedup':>8s} {'vs seed':>8s}",
        "-" * 66,
    ]
    for row in rows:
        seed = SEED_RATES.get(row["workload"])
        vs_seed = f"{row['jit'] / seed:6.1f}x" if seed else "      -"
        lines.append(
            f"{row['workload']:12s} {row['cycles']:>9d} "
            f"{row['interp']:>12,.0f} {row['jit']:>12,.0f} "
            f"{row['speedup']:>7.2f}x {vs_seed:>8s}")
    lines += [
        "",
        "'vs seed' compares the JIT rate against the pre-JIT tree's",
        "interpreter (SEED_RATES above, measured on the same host);",
        "the current interpreter column already includes this PR's",
        "dispatch-table/memory-cache satellites, so 'speedup' is the",
        "tier-vs-tier ratio within one tree.",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: subset of workloads, differential "
                             "check, fail under --min-speedup")
    parser.add_argument("--min-time", type=float, default=None,
                        metavar="SEC",
                        help="timed-loop length per tier per workload "
                             "(default: 0.4; smoke: 0.15)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="smoke-mode floor for jit/interp (default: 2)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset to benchmark")
    parser.add_argument("--out", default=None,
                        help="results file (default: results/interp.txt; "
                             "'-' to skip)")
    args = parser.parse_args(argv)

    from repro.workloads import WORKLOADS

    if args.workloads:
        names = args.workloads
    elif args.smoke:
        names = SMOKE_WORKLOADS
    else:
        names = sorted(WORKLOADS)
    min_time = args.min_time
    if min_time is None:
        min_time = 0.15 if args.smoke else 0.4

    rows = []
    failures = []
    for name in names:
        row = bench_workload(name, min_time, trace=True)
        rows.append(row)
        status = f"{row['speedup']:5.2f}x"
        if row["mismatches"]:
            failures.append(f"{name}: DIFFERENTIAL: "
                            + "; ".join(row["mismatches"]))
            status += "  DIFFERENTIAL MISMATCH"
        elif args.smoke and row["speedup"] < args.min_speedup:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x "
                f"< floor {args.min_speedup:.1f}x")
            status += "  BELOW FLOOR"
        print(f"  {name:12s} {status}", file=sys.stderr)

    table = format_rows(rows)
    print(table)
    if not args.smoke and args.out != "-":
        out = pathlib.Path(args.out) if args.out else RESULTS
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n")
        print(f"\nwrote {out}", file=sys.stderr)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
