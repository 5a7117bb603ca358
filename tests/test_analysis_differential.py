"""Differential battery: every honest trace respects its certificate.

For every registry workload under every bounded method, one attested
execution is verified and its observables — record count, log bytes,
and the replay shadow stack's high-water mark — are checked against
the statically certified `BNDS1` bounds. Any violation here means the
static analysis under-approximated a real execution: the admission
screen would start rejecting honest devices, so this battery is the
analyzer's soundness gate.
"""

import pytest

from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import tag_sizes
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.core.analysis import certify_workload, screen_records
from repro.core.analysis.bounds import BOUNDED_METHODS
from repro.tz.keystore import KeyStore
from repro.workloads import WORKLOADS, load_workload
from repro.workloads.base import make_mcu

CELLS = [(name, method)
         for name in sorted(WORKLOADS)
         for method in BOUNDED_METHODS]


def attest_and_verify(name, method):
    """One honest attested run; returns (attestation, verification)."""
    from repro.eval.runner import prepare

    workload = load_workload(name)
    image, bound = prepare(workload, method)
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
    result = engine.attest(b"bounds-battery")
    outcome = verifier.verify(result, b"bounds-battery")
    assert outcome.ok, f"{name}/{method} honest run failed verification"
    return result, outcome


@pytest.mark.parametrize("name,method", CELLS,
                         ids=[f"{n}-{m}" for n, m in CELLS])
def test_honest_run_respects_certificate(name, method):
    cert = certify_workload(name, method)
    result, outcome = attest_and_verify(name, method)
    records = [r for report in result.reports for r in report.cflog.records]

    # the admission screen must wave the honest chain through
    assert screen_records(cert, result.cflog.pack()) is None

    observed_bytes = sum(tag_sizes(method)[r.tag] for r in records)
    if cert.max_log_records is not None:
        assert len(records) <= cert.max_log_records, (
            f"{name}/{method}: {len(records)} records > certified "
            f"{cert.max_log_records}")
    if cert.max_log_bytes is not None:
        assert observed_bytes <= cert.max_log_bytes
    if cert.max_stack_depth is not None:
        assert outcome.max_shadow_depth <= cert.max_stack_depth, (
            f"{name}/{method}: shadow depth {outcome.max_shadow_depth} "
            f"> certified {cert.max_stack_depth}")


def test_depth_tracking_observes_real_calls():
    # fibcall recurses: the shadow stack demonstrably grows past one
    # frame, so the new high-water tracking is not vacuous
    _, outcome = attest_and_verify("fibcall", "naive-mtb")
    assert outcome.max_shadow_depth >= 2


def test_certificates_are_deterministic():
    a = certify_workload("temperature", "rap-track")
    b = certify_workload("temperature", "rap-track")
    assert a == b
