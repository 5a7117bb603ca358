"""SpecCFA-style sub-path speculation: CFLog compression (extension).

The paper cites sub-path speculation as the answer to the CFLog
transmission bottleneck (section V-B, [57]). Measures compression
ratios over the suite with a per-workload mined dictionary.
"""

from repro.asm import link
from repro.cfa.engine import RapTrackEngine
from repro.cfa.speccfa import (
    SpeculativeVerifier,
    compress,
    mine_subpaths,
    speculate_result,
)
from repro.cfa.verifier import Verifier
from repro.core.pipeline import transform
from repro.eval.figures import format_table
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu
from conftest import save_table

LOOPY = ("bubblesort", "prime", "geiger", "fibcall", "gps", "insertsort")


def _rap_setup(workload, keystore):
    offline = transform(workload.module())
    image = link(offline.module)
    bound = offline.rmap.bind(image)
    mcu = make_mcu(image, workload)
    engine = RapTrackEngine(mcu, keystore, bound)
    verifier = Verifier(image, bound, keystore.attestation_key)
    return engine, verifier


def _speculated(name, keystore):
    workload = load_workload(name)
    engine, verifier = _rap_setup(workload, keystore)
    profile = engine.attest(b"profiling")
    dictionary = mine_subpaths(profile.cflog.records, engine.method)
    attested = engine.attest(b"real")
    compressed = speculate_result(attested, dictionary,
                                  keystore.attestation_key)
    spec = SpeculativeVerifier(verifier, dictionary)
    outcome = spec.verify(compressed, b"real")
    assert outcome.authenticated and outcome.lossless
    return attested, compressed, dictionary


def test_speccfa_compression_table(results_dir):
    keystore = KeyStore.provision()
    rows = []
    for name in LOOPY:
        plain, compressed, dictionary = _speculated(name, keystore)
        rows.append({
            "workload": name,
            "plain_B": plain.cflog_bytes,
            "speculated_B": compressed.cflog_bytes,
            "ratio": (plain.cflog_bytes / compressed.cflog_bytes
                      if compressed.cflog_bytes else float("inf")),
            "subpaths": len(dictionary),
        })
    save_table(results_dir, "speccfa",
               format_table(rows, "Extension: SpecCFA sub-path speculation"))
    assert all(r["speculated_B"] <= r["plain_B"] for r in rows)
    assert any(r["ratio"] > 3 for r in rows)


def test_bench_compress(benchmark):
    keystore = KeyStore.provision()
    workload = load_workload("bubblesort")
    engine, _ = _rap_setup(workload, keystore)
    records = engine.attest(b"profiling").cflog.records
    dictionary = mine_subpaths(records, engine.method)
    compressed = benchmark.pedantic(
        lambda: compress(records, dictionary), rounds=5, iterations=1)
    assert len(compressed) < len(records)
