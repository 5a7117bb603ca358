"""Differential battery: superblock JIT ≡ interpreter, end to end.

The JIT's whole claim is that it is an *invisible* performance tier:
for every workload, method, and honest/attacked execution, attesting
with the JIT enabled must produce byte-identical report chains (the
KeyStore provisioning is deterministic, so even the MACs must match),
identical cycle/instruction counts, identical ground-truth retire
streams, and identical verifier verdicts — violations included.

Tier selection goes through the ``REPRO_JIT`` process default so the
conftest pipelines are exercised unmodified, exactly as a user flipping
the environment variable would run them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from repro.cfa.engine import EngineConfig
from repro.cfa.wire import encode_report
from repro.eval.figures import EVAL_WORKLOADS
from repro.eval.runner import run_method
from repro.asm import link
from repro.machine.jit import NOJIT
from repro.machine.jit.runtime import shared_cache_for
from repro.workloads import load_workload, vulnerable
from repro.workloads.base import make_mcu
from conftest import naive_setup, rap_setup, traces_setup

CHALLENGE = b"jit-diff-chal"
SETUPS = {"rap-track": rap_setup, "traces": traces_setup,
          "naive-mtb": naive_setup}
WORKLOADS = list(EVAL_WORKLOADS)


@contextmanager
def jit_env(enabled: bool):
    """Select the execution tier via the process-wide default."""
    old = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = old


def attest_once(workload_name, method, enabled, attacked=False,
                watermark=512):
    """One full pipeline run under the chosen tier.

    Returns (mcu, tracer, result, outcome) — everything the
    equivalence assertions need.
    """
    with jit_env(enabled):
        workload = (vulnerable.make() if workload_name == "vulnerable"
                    else load_workload(workload_name))
        image, _, mcu, engine, verifier, tracer = SETUPS[method](
            workload, engine_config=EngineConfig(watermark=watermark))
        if attacked:
            mcu.mmio.device("uart").set_feed(vulnerable.attack_feed(image))
        result = engine.attest(CHALLENGE)
    outcome = verifier.verify(result, CHALLENGE)
    return mcu, tracer, result, outcome


def assert_identical_attestations(workload, method, attacked=False):
    m0, t0, r0, o0 = attest_once(workload, method, False, attacked)
    m1, t1, r1, o1 = attest_once(workload, method, True, attacked)

    assert m0.jit is None and m1.jit is not None

    # device-side: execution and evidence
    assert r0.cycles == r1.cycles
    assert r0.instructions == r1.instructions
    assert r0.cflog_bytes == r1.cflog_bytes
    assert list(r0.cflog) == list(r1.cflog)
    assert len(r0.reports) == len(r1.reports)
    for a, b in zip(r0.reports, r1.reports):
        assert encode_report(a) == encode_report(b)  # MACs included

    # oracle-side: the complete retire stream
    assert t0.pcs == t1.pcs
    assert t0.transfers == t1.transfers

    # verifier-side: verdict, violations, reconstructed path
    assert o0.authenticated == o1.authenticated
    assert o0.lossless == o1.lossless
    assert o0.error == o1.error
    assert ([(v.kind, v.address, v.detail) for v in o0.violations]
            == [(v.kind, v.address, v.detail) for v in o1.violations])
    assert o0.path == o1.path
    return m1, o1


class TestHonestEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("method", sorted(SETUPS))
    def test_grid(self, workload, method):
        mcu, outcome = assert_identical_attestations(workload, method)
        assert outcome.authenticated
        assert not outcome.violations


class TestAttackEquivalence:
    @pytest.mark.parametrize("method", ["rap-track", "traces"])
    def test_rop_attack_detected_identically(self, method):
        mcu, outcome = assert_identical_attestations(
            "vulnerable", method, attacked=True)
        assert outcome.authenticated  # genuine device, genuine MACs
        assert outcome.violations or not outcome.lossless


class TestTierEngagement:
    def test_jit_actually_compiles_on_the_grid(self):
        """Guards the battery against vacuity: the JIT tier must have
        compiled and dispatched blocks on a representative run."""
        mcu, _, result, _ = attest_once("prime", "rap-track", True)
        assert mcu.jit is not None
        assert mcu.jit.compiles > 0 or mcu.jit.blocks
        assert result.instructions > 0

    @pytest.mark.parametrize("method", sorted(SETUPS))
    def test_geiger_delay_loop_is_loop_resident(self, method):
        """geiger's register-only delay loop must compile to a
        loop-resident block under every method, so the grid above
        covers loop mode (naive-mtb's partial reports included)."""
        mcu, _, _, _ = attest_once("geiger", method, True)
        assert any(b is not NOJIT and b.loop is not None
                   for b in mcu.jit.blocks.values())

    @pytest.mark.parametrize("workload,label", [("geiger", "delay_loop"),
                                                ("ultrasonic", "echo_wait")])
    @pytest.mark.parametrize("method", ["baseline"] + sorted(SETUPS))
    def test_counted_loops_take_the_closed_form(self, workload, label,
                                                method):
        """geiger's delay loop and ultrasonic's echo_wait are counted
        loops: under every method their loop-resident block advances in
        closed-form chunks, so the grid above covers that path (the
        naive-MTB partial reports included)."""
        def run():
            if method == "baseline":
                wl = load_workload(workload)
                with jit_env(True):
                    mcu = make_mcu(link(wl.module()), wl)
                mcu.run()
                return mcu
            return attest_once(workload, method, True)[0]

        image = run().image  # compiles the block into the shared table
        blk = shared_cache_for(image).blocks[image.addr_of(label)]
        assert blk is not NOJIT and blk.loop is not None
        chunks = []

        def spy(*args, _inner=blk.loop):
            chunks.append(_inner(*args))
            return chunks[-1]

        blk.loop, inner = spy, blk.loop
        try:
            mcu = run()
        finally:
            blk.loop = inner
        assert sum(chunks) > 0
        assert mcu.jit.closed_form_chunks >= sum(chunks)

    def test_interpreter_tier_has_no_runtime(self):
        mcu, _, _, _ = attest_once("prime", "rap-track", False)
        assert mcu.jit is None


class TestEvalRunnerEquivalence:
    @pytest.mark.parametrize("method",
                             ["baseline", "naive-mtb", "rap-track", "traces"])
    def test_method_runs_match(self, method):
        """The eval runner's metrics — the paper's figures — must be
        tier-independent (explicit kwarg path, no env var)."""
        off = run_method("prime", method, enable_jit=False)
        on = run_method("prime", method, enable_jit=True)
        assert off == on

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_baseline_runs_match(self, workload):
        """The unattested baseline (no hooks at all, so loop-resident
        blocks exit only on fall-through or the limit) on every
        workload."""
        off = run_method(workload, "baseline", enable_jit=False)
        on = run_method(workload, "baseline", enable_jit=True)
        assert off == on
