"""Static path-bound tightness: certified worst case vs honest maxima.

For every workload under every bounded method the `BNDS1` certificate
is built (and its signature verified end to end), one honest attested
run is measured, and the observed CFLog records/bytes and shadow-stack
high-water mark are compared against the certified bounds. The table
lands in ``benchmarks/results/bounds.txt`` for EXPERIMENTS.md.

The assertions are the analyzer's soundness gate in CI: an observation
above its bound means the static analysis under-approximated a real
execution, which would make the fleet's admission screen reject honest
devices. Tightness (observed/bound) is reported, not asserted — the
bounds are worst cases over *all* paths, the honest run drives one.
"""

from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import CFLog
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.core.analysis import certify_workload, screen_records
from repro.core.analysis.bounds import BOUNDED_METHODS
from repro.eval.figures import format_table
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import WORKLOADS, load_workload
from repro.workloads.base import make_mcu
from conftest import save_table


def observe_honest_run(name, method, cache):
    """One attested execution: (records, bytes, shadow high-water)."""
    workload = load_workload(name)
    image, bound = prepare(workload, method, cache=cache)
    mcu = make_mcu(image, workload)
    keystore = KeyStore.provision()
    config = EngineConfig()
    if method == "naive-mtb":
        engine = NaiveMtbEngine(mcu, keystore, config)
        verifier = NaiveVerifier(image, keystore.attestation_key)
    elif method == "rap-track":
        engine = RapTrackEngine(mcu, keystore, bound, config)
        verifier = Verifier(image, bound, keystore.attestation_key)
    else:
        engine = TracesEngine(mcu, keystore, bound, config)
        verifier = Verifier(image, bound, keystore.attestation_key)
    result = engine.attest(b"bench-bounds")
    outcome = verifier.verify(result, b"bench-bounds")
    assert outcome.ok, f"{name}/{method} honest run failed verification"
    records = [r for rep in result.reports for r in rep.cflog.records]
    return records, result.cflog_bytes, outcome.max_shadow_depth


def fmt_bound(value):
    return "unbounded" if value is None else value


def test_bound_tightness(results_dir, artifact_cache):
    rows = []
    bounded_cells = violations = 0
    for name in sorted(WORKLOADS):
        for method in BOUNDED_METHODS:
            cert = certify_workload(name, method, cache=artifact_cache)
            records, obs_bytes, obs_depth = observe_honest_run(
                name, method, artifact_cache)
            # the admission screen must wave every honest chain through
            assert screen_records(cert, CFLog(records).pack()) is None, (
                name, method)
            if cert.max_log_records is not None:
                bounded_cells += 1
                if len(records) > cert.max_log_records:
                    violations += 1
            if cert.max_stack_depth is not None \
                    and obs_depth > cert.max_stack_depth:
                violations += 1
            tightness = ""
            if cert.max_log_records:
                tightness = f"{len(records) / cert.max_log_records:.2f}"
            rows.append({
                "workload": name,
                "method": method,
                "cert_depth": fmt_bound(cert.max_stack_depth),
                "obs_depth": obs_depth,
                "cert_records": fmt_bound(cert.max_log_records),
                "obs_records": len(records),
                "cert_bytes": fmt_bound(cert.max_log_bytes),
                "obs_bytes": obs_bytes,
                "tightness": tightness,
            })
    save_table(results_dir, "bounds",
               format_table(rows, "Static path bounds vs honest maxima"))

    # soundness: zero honest observations above their certified bound
    assert violations == 0
    # the certification is not vacuous: a solid block of the matrix is
    # finitely bounded (loop-optimized and straight-line workloads)
    assert bounded_cells >= 15
