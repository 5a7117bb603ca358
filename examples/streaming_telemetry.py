#!/usr/bin/env python3
"""Operational demo: streamed partial reports + sub-path speculation.

Models a constrained deployment end to end: the Prover's MTB is given a
small watermark, so the CFLog streams to the Verifier as a chain of
signed partial reports over the wire codec; the Verifier authenticates
each partial the moment it arrives and replays once the final report
lands. A second pass adds SpecCFA-style sub-path speculation mined from
a profiling run, shrinking the bytes on the wire.
"""

from repro.asm import link
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.speccfa import (
    SpeculativeVerifier,
    mine_subpaths,
    speculate_result,
)
from repro.cfa.streaming import StreamingVerifier
from repro.cfa.verifier import Verifier
from repro.cfa.wire import encode_report
from repro.core.pipeline import transform
from repro.trace.mtb import PACKET_BYTES
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu


def build(name, watermark):
    workload = load_workload(name)
    offline = transform(workload.module())
    image = link(offline.module)
    bound = offline.rmap.bind(image)
    mcu = make_mcu(image, workload)
    keystore = KeyStore.provision()
    engine = RapTrackEngine(mcu, keystore, bound,
                            EngineConfig(watermark=watermark))
    verifier = Verifier(image, bound, keystore.attestation_key)
    return engine, verifier, keystore


def main() -> None:
    name = "bubblesort"
    engine, verifier, keystore = build(name, watermark=64 * PACKET_BYTES)

    print(f"Streaming attestation of {name!r} "
          f"(watermark {64 * PACKET_BYTES} B):")
    result = engine.attest(b"telemetry-chal")
    stream = StreamingVerifier(verifier, b"telemetry-chal")
    total_wire = 0
    for report in result.reports:
        wire = encode_report(report)
        total_wire += len(wire)
        stream.feed_bytes(wire)
        kind = "final" if report.final else "partial"
        print(f"  received {kind} report #{report.seq}: "
              f"{len(report.cflog)} records, {len(wire)} wire bytes "
              f"-> accepted")
    outcome = stream.finish()
    print(f"  replay: lossless={outcome.lossless}, "
          f"{len(outcome.path)} instructions reconstructed")
    print(f"  total transmitted: {total_wire} B\n")

    print("Second pass with SpecCFA sub-path speculation:")
    dictionary = mine_subpaths(result.cflog.records, engine.method)
    print(f"  mined {len(dictionary)} speculated sub-paths from profiling")
    attested = engine.attest(b"telemetry-chal-2")
    compressed = speculate_result(attested, dictionary,
                                  keystore.attestation_key)
    spec = SpeculativeVerifier(verifier, dictionary)
    outcome = spec.verify(compressed, b"telemetry-chal-2")
    print(f"  CFLog: {attested.cflog_bytes} B -> "
          f"{compressed.cflog_bytes} B on the wire "
          f"({attested.cflog_bytes / max(1, compressed.cflog_bytes):.1f}x)")
    print(f"  verification: authenticated={outcome.authenticated}, "
          f"lossless={outcome.lossless}")
    assert outcome.authenticated and outcome.lossless


if __name__ == "__main__":
    main()
