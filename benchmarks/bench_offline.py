"""The offline phase, stage by stage, over every evaluation cell.

Runs the offline pipeline of ``runner.offline_artifact`` for the 15
evaluation workloads x 4 methods (the 60 cells attest-sweep builds
each sweep) with each stage timed on its own:

* **parse** — ``parse_source`` (via ``Workload.module``);
* **classify** — ``classify_module`` (rap-track and traces), the
  CFG plus the value-set and LR-validity dataflow;
* **rewrite** — ``rewrite_for_rap_track`` / ``rewrite_for_traces``;
* **link** — ``link``.

Every cell's artifact (instruction text by address, data bytes and
section ranges, rewrite map, dataflow facts) is digested and compared
with ``tests/data/offline_identity.json``; any difference is a hard
failure (exit 1), whatever the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_offline.py            # 10 rounds
    PYTHONPATH=src python benchmarks/bench_offline.py --smoke    # CI gate

Per-stage figures are the median, over rounds, of the stage's total
milliseconds across the 60 cells. Smoke mode runs 3 rounds.

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from offline_identity import (  # noqa: E402
    CELLS,
    artifact_digests,
    cell_key,
    load_fixture,
)
from repro.asm import link  # noqa: E402
from repro.baselines.traces import rewrite_for_traces  # noqa: E402
from repro.core.classify import classify_module  # noqa: E402
from repro.core.pipeline import RapTrackConfig  # noqa: E402
from repro.core.rewriter import rewrite_for_rap_track  # noqa: E402
from repro.workloads import load_workload  # noqa: E402

STAGES = ("parse", "classify", "rewrite", "link")
ROUNDS = 10
SMOKE_ROUNDS = 3


def run_cell(name: str, method: str, times: Dict[str, float]):
    """Build one cell stage by stage, adding each stage's seconds to
    ``times``; returns the cell's artifact digests."""
    workload = load_workload(name)
    clock = time.perf_counter
    t0 = clock()
    module = workload.module()
    t1 = clock()
    times["parse"] += t1 - t0
    rmap = facts = None
    if method in ("rap-track", "traces"):
        # the default RapTrackConfig runs every analysis, as traces does
        classification = classify_module(module)
        t2 = clock()
        times["classify"] += t2 - t1
        if method == "rap-track":
            module, rmap = rewrite_for_rap_track(
                module, classification, RapTrackConfig().rewriter())
        else:
            module, rmap = rewrite_for_traces(module, classification)
        t1 = clock()
        times["rewrite"] += t1 - t2
        facts = classification.dataflow
    image = link(module)
    times["link"] += clock() - t1
    return artifact_digests(image, rmap, facts)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ROUNDS} rounds (the CI gate)")
    args = parser.parse_args(argv)
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS

    expected = load_fixture()
    per_round: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    failures: List[str] = []
    for round_no in range(rounds):
        times = {stage: 0.0 for stage in STAGES}
        for name, method in CELLS:
            digests = run_cell(name, method, times)
            key = cell_key(name, method)
            want = expected.get(key, {})
            if round_no == 0 and digests != want:
                changed = [part for part in digests
                           if digests[part] != want.get(part)]
                failures.append(f"{key}: {', '.join(changed)} differ")
        for stage in STAGES:
            per_round[stage].append(times[stage] * 1000)

    print(f"offline phase over {len(CELLS)} cells, median of {rounds} "
          f"round(s), ms per round:")
    total = 0.0
    for stage in STAGES:
        ms = statistics.median(per_round[stage])
        total += ms
        print(f"  {stage:<9} {ms:8.1f}")
    print(f"  {'total':<9} {total:8.1f}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"identity: {len(CELLS) - len(failures)}/{len(CELLS)} cells "
          f"match tests/data/offline_identity.json")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
