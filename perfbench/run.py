"""The repo benchmark: fleet-shared, fleet-distinct and attest-sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-shared --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the window untraced and then traced, checks the two
agree on verdicts, evidence heads, wire bytes and simulated metrics,
and reports the per-layer breakdown (see README.md). Progress and a
summary go to standard error; the last line of standard output is the
result as one JSON object.

Scratch state (evidence stores, artifact stores) lives under
``.perfbench/`` in the checkout and is removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "fleet-shared": ("fleet", "SharedFleet"),
    "fleet-distinct": ("fleet", "DistinctFleet"),
    "attest-sweep": ("sweep", "Sweep"),
}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _result(values: dict, names: dict, attempted: int, failures) -> dict:
    for failure in failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)) if failures else 0,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in names.items()},
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool,
        scratch: Path) -> dict:
    from common import HostClock, layer_metrics

    module_name, class_name = WORKLOADS[workload_name]
    module = importlib.import_module(module_name)
    workload = getattr(module, class_name)(seed, seconds, scratch,
                                           HostClock())
    if not trace:
        out = workload.untraced()
        window = out["window"]
        print(f"perfbench: {workload_name} seed {seed}: "
              f"{window['attempted']} attempted, busy {window['busy_s']:.2f} "
              f"host-s ({window['raw_busy_s']:.2f} wall-s), fingerprint "
              f"{window['fingerprint'][:16]}", file=sys.stderr)
        return _result(out["metrics"], metric_units("end_to_end"),
                       window["attempted"], workload.failures)

    out = workload.traced()
    window = out["window"]
    scale = window["busy_s"] / window["raw_busy_s"]
    values = layer_metrics(
        out["layers"], out["units"], scale,
        out.get("device", out["layers"]),
        out.get("device_units", out["units"]),
        out.get("device_scale", scale))
    per_layer = metric_units("per_layer")
    for name in per_layer:
        values.setdefault(name, 0.0)
    values.update(out.get("extra", {}))
    plain = out["plain"]["e2e"]["sessions_per_s"]
    traced = out["window"]["e2e"]["sessions_per_s"]
    values["trace.overhead_pct"] = 100.0 * (plain - traced) / plain
    print(f"perfbench: {workload_name} seed {seed} traced: fingerprint "
          f"{out['window']['fingerprint'][:16]} "
          f"(untraced {out['plain']['fingerprint'][:16]})", file=sys.stderr)
    return _result(values, per_layer, out["window"]["attempted"],
                   workload.failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # keep every artifact cache inside the checkout
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "offline-cache")
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
