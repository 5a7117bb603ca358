"""Run one workload under one CFA method, end to end, with verification.

This is the machinery behind every figure: build the (possibly
rewritten) binary, attach the workload's peripherals, attest, verify
losslessly, and collect the metrics the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.asm import link
from repro.asm.program import Image
from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine, rewrite_for_traces
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.core.classify import classify_module
from repro.core.pipeline import RapTrackConfig, transform
from repro.core.rewrite_map import RewriteMap
from repro.eval.cache import ArtifactCache, offline_key
from repro.tz.keystore import KeyStore
from repro.workloads import Workload, load_workload
from repro.workloads.base import make_mcu

#: the four systems of the paper's evaluation
METHODS = ("baseline", "naive-mtb", "rap-track", "traces")


@dataclass
class MethodRun:
    """Metrics from one attested execution."""

    workload: str
    method: str
    cycles: int
    instructions: int
    cflog_bytes: int
    cflog_records: int
    code_size: int
    partial_reports: int
    gateway_calls: int
    report_cycles: int
    verified: bool

    def overhead_vs(self, base: "MethodRun") -> float:
        """Runtime overhead fraction relative to another run."""
        if base.cycles == 0:
            return 0.0
        return (self.cycles - base.cycles) / base.cycles


def offline_artifact(workload: Workload, method: str,
                     rap_config: Optional[RapTrackConfig] = None
                     ) -> Tuple[Image, Optional[RewriteMap]]:
    """Run the offline phase: classify/transform/link one workload.

    Returns the linked image plus the (unbound) rewrite map — exactly
    what the artifact cache persists for a (source, method, config) key.
    """
    module = workload.module()
    if method in ("baseline", "naive-mtb"):
        return link(module), None
    if method == "rap-track":
        result = transform(module, rap_config)
        return link(result.module), result.rmap
    if method == "traces":
        classification = classify_module(module)
        rewritten, rmap = rewrite_for_traces(module, classification)
        return link(rewritten), rmap
    raise ValueError(f"unknown method {method!r}")


def prepare(workload: Workload, method: str,
            rap_config: Optional[RapTrackConfig] = None,
            cache: Optional[ArtifactCache] = None
            ) -> Tuple[Image, Optional[object]]:
    """Build the image (and bound rewrite map) for a method.

    With a ``cache``, the offline phase is memoized on
    :func:`~repro.eval.cache.offline_key`; the cached and freshly-built
    paths produce identical artifacts.
    """
    if cache is not None:
        key = offline_key(workload.source, method, rap_config)
        image, rmap = cache.get_or_build(
            key, lambda: offline_artifact(workload, method, rap_config))
    else:
        image, rmap = offline_artifact(workload, method, rap_config)
    return image, (rmap.bind(image) if rmap is not None else None)


def run_method(name: str, method: str,
               config: Optional[EngineConfig] = None,
               rap_config: Optional[RapTrackConfig] = None,
               verify: bool = True,
               check: bool = True,
               cache: Optional[ArtifactCache] = None,
               enable_jit: Optional[bool] = None) -> MethodRun:
    """Run one workload under one method; verify and sanity-check.

    ``enable_jit`` selects the superblock JIT tier for the simulated
    device (``None`` = process default); metrics are identical either
    way, only wall-clock time changes.
    """
    workload = load_workload(name)
    image, bound = prepare(workload, method, rap_config, cache)
    mcu = make_mcu(image, workload, enable_jit=enable_jit)
    keystore = KeyStore.provision()
    config = config or EngineConfig()

    if method == "baseline":
        run = mcu.run()
        if check and workload.check:
            workload.check(mcu)
        return MethodRun(name, method, run.cycles, run.instructions,
                         0, 0, image.code_size(), 0, 0, 0, True)

    if method == "naive-mtb":
        engine = NaiveMtbEngine(mcu, keystore, config)
        verifier = NaiveVerifier(image, keystore.attestation_key)
    elif method == "rap-track":
        engine = RapTrackEngine(mcu, keystore, bound, config)
        verifier = Verifier(image, bound, keystore.attestation_key)
    elif method == "traces":
        engine = TracesEngine(mcu, keystore, bound, config)
        verifier = Verifier(image, bound, keystore.attestation_key)
    else:
        raise ValueError(f"unknown method {method!r}")

    result = engine.attest(b"eval-challenge")
    if check and workload.check:
        workload.check(mcu)
    verified = True
    if verify:
        outcome = verifier.program.run(result.span, verifier.max_steps)
        verified = (verifier.authenticate(result, b"eval-challenge")
                    and outcome.lossless and not outcome.violations)
        if not verified:
            raise RuntimeError(
                f"{method} verification failed on {name}: "
                f"{outcome.error or outcome.violations[:3]}"
            )
    return MethodRun(
        workload=name,
        method=method,
        cycles=result.cycles,
        instructions=result.instructions,
        cflog_bytes=result.cflog_bytes,
        cflog_records=sum(len(r.cflog) for r in result.reports),
        code_size=image.code_size(),
        partial_reports=result.partial_report_count,
        gateway_calls=result.gateway_calls,
        report_cycles=result.report_cycles,
        verified=verified,
    )


def run_all_methods(name: str,
                    config: Optional[EngineConfig] = None,
                    verify: bool = True,
                    cache: Optional[ArtifactCache] = None) -> dict:
    """Run a workload under all four methods; returns method -> run."""
    return {method: run_method(name, method, config, verify=verify,
                               cache=cache)
            for method in METHODS}
