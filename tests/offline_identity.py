"""Canonical digests of every evaluation cell's offline artifact.

The offline phase (parse, classify, rewrite, link) is pure, so a cell's
output is pinned by four digests:

* ``text`` — every instruction's canonical text at its final address,
  plus the symbol table, entry symbol and equates (instruction text,
  not ``code_bytes``, so an encoding change does not churn it);
* ``data`` — the linked data bytes and the section ranges;
* ``rmap`` — every rewrite-map entry, in emission order;
* ``facts`` — the classifier's ``DataflowFacts.value_in`` and
  ``lr_valid`` (rap-track and traces; the plain methods classify
  nothing).

``tests/data/offline_identity.json`` holds the digests for the 15
evaluation workloads x 4 methods; ``tests/test_offline_identity.py``
and ``benchmarks/bench_offline.py --smoke`` compare against it.
Regenerate it only for a deliberate change to the offline output::

    PYTHONPATH=src python tests/offline_identity.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, Iterable, Optional

from repro.eval.figures import EVAL_WORKLOADS
from repro.eval.runner import METHODS

FIXTURE = pathlib.Path(__file__).parent / "data" / "offline_identity.json"

CELLS = [(name, method) for name in EVAL_WORKLOADS for method in METHODS]


def _sha(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _text_lines(image) -> Iterable[str]:
    yield f"entry {image.entry_symbol}"
    for addr in sorted(image.instr_at):
        yield f"{addr:08x} {image.instr_at[addr]}"
    for name, addr in sorted(image.symbols.items()):
        yield f"sym {name} {addr:08x}"
    for name, value in sorted(image.equates.items()):
        yield f"equ {name} {value}"


def _data_lines(image) -> Iterable[str]:
    for name, (base, end) in sorted(image.section_ranges.items()):
        yield f"section {name} {base:08x} {end:08x}"
    for addr, byte in sorted(image.data_bytes.items()):
        yield f"{addr:08x} {byte:02x}"


def _rmap_lines(rmap) -> Iterable[str]:
    if rmap is None:
        return
    yield f"method {rmap.method}"
    for field in ("cond_sites", "indirect_sites", "loop_sites",
                  "fixed_loops"):
        for entry in getattr(rmap, field):
            yield f"{field} {entry!r}"
    for label in sorted(rmap.address_taken):
        yield f"address_taken {label}"
    for label in sorted(rmap.function_entries):
        yield f"function_entry {label}"


def _facts_lines(facts) -> Iterable[str]:
    if facts is None:
        return
    for index in sorted(facts.value_in):
        state = facts.value_in[index]
        regs = " ".join(f"r{reg}={state[reg]}" for reg in sorted(state))
        yield f"{index} {regs}"
    yield "lr_valid " + " ".join(str(i) for i in sorted(facts.lr_valid))


def artifact_digests(image, rmap, facts) -> Dict[str, str]:
    """The four digests of one linked image, its (unbound) rewrite map
    and the dataflow facts its classification produced."""
    return {
        "text": _sha(_text_lines(image)),
        "data": _sha(_data_lines(image)),
        "rmap": _sha(_rmap_lines(rmap)),
        "facts": _sha(_facts_lines(facts)),
    }


def cell_digests(name: str, method: str) -> Dict[str, str]:
    """The digests of one (workload, method) cell, built cold through
    the production offline phase (``runner.offline_artifact``)."""
    from repro.core.classify import classify_module
    from repro.eval.runner import offline_artifact
    from repro.workloads import load_workload

    workload = load_workload(name)
    image, rmap = offline_artifact(workload, method)
    facts = None
    if method in ("rap-track", "traces"):
        # both classify with every analysis on (the default RapTrackConfig)
        facts = classify_module(workload.module()).dataflow
    return artifact_digests(image, rmap, facts)


def load_fixture() -> Dict[str, Dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def cell_key(name: str, method: str) -> str:
    return f"{name}/{method}"


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    table = {cell_key(n, m): cell_digests(n, m) for n, m in CELLS}
    if "--write" in argv:
        FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n")
        print(f"wrote {len(table)} cells to {FIXTURE}")
        return 0
    expected = load_fixture()
    bad = [key for key in table if table[key] != expected.get(key)]
    for key in bad:
        print(f"DIFF {key}")
    print(f"{len(table) - len(bad)}/{len(table)} cells identical")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
