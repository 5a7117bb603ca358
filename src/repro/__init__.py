"""RAP-Track reproduction: Control Flow Attestation via parallel
MTB/DWT tracking on a simulated ARMv8-M MCU.

Reproduces *RAP-Track: Efficient Control Flow Attestation via Parallel
Tracking in Commodity MCUs* (DAC 2025) as a pure-Python system: the
full platform substrate (ISA, CPU, MTB, DWT, TrustZone), the paper's
offline static-analysis/rewriting phase, the Secure-World CFA engine
with partial reports, the naive-MTB and TRACES-style baselines, a
lossless path-reconstruction Verifier, and the ten evaluation
workloads. See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-vs-measured results.

Quickstart::

    from repro import attest_rap_track
    outcome = attest_rap_track("ultrasonic")
    assert outcome.verification.ok
"""

from dataclasses import dataclass
from typing import Optional

from repro.asm import assemble, link
from repro.asm.program import Image, Module
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.report import AttestationResult
from repro.cfa.verifier import NaiveVerifier, VerificationResult, Verifier
from repro.core.pipeline import RapTrackConfig, RapTrackResult, transform
from repro.eval.figures import collect_all
from repro.eval.runner import METHODS, run_method
from repro.machine.mcu import MCU
from repro.tz.keystore import KeyStore
from repro.workloads import WORKLOADS, load_workload
from repro.workloads.base import make_mcu

__version__ = "1.0.0"


@dataclass
class AttestationOutcome:
    """Everything one end-to-end RAP-Track attestation produced."""

    image: Image
    result: AttestationResult
    verification: VerificationResult
    mcu: MCU


def attest_rap_track(workload_name: str,
                     config: Optional[EngineConfig] = None,
                     rap_config: Optional[RapTrackConfig] = None
                     ) -> AttestationOutcome:
    """One-call demo: transform, run, attest, and verify a workload."""
    workload = load_workload(workload_name)
    result = transform(workload.module(), rap_config)
    image = link(result.module)
    bound = result.rmap.bind(image)
    mcu = make_mcu(image, workload)
    keystore = KeyStore.provision()
    engine = RapTrackEngine(mcu, keystore, bound, config)
    attestation = engine.attest(b"quickstart-challenge")
    verifier = Verifier(image, bound, keystore.attestation_key)
    verification = verifier.verify(attestation, b"quickstart-challenge")
    return AttestationOutcome(image, attestation, verification, mcu)


__all__ = [
    "__version__",
    "assemble",
    "link",
    "Module",
    "Image",
    "MCU",
    "transform",
    "RapTrackConfig",
    "RapTrackResult",
    "EngineConfig",
    "RapTrackEngine",
    "Verifier",
    "NaiveVerifier",
    "VerificationResult",
    "AttestationResult",
    "KeyStore",
    "WORKLOADS",
    "load_workload",
    "make_mcu",
    "METHODS",
    "run_method",
    "collect_all",
    "attest_rap_track",
    "AttestationOutcome",
]
