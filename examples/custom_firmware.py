#!/usr/bin/env python3
"""Bring your own firmware: attest custom assembly with RAP-Track.

Shows the library as a downstream user would adopt it: write a small
firmware in the assembly dialect, run the offline phase, inspect the
rewritten layout, attest, and stream partial reports through a small
MTB watermark.
"""

from repro.asm import assemble, link
from repro.cfa.cflog import span_claim
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.verifier import Verifier
from repro.core.pipeline import transform
from repro.machine.mcu import MCU
from repro.trace.mtb import PACKET_BYTES
from repro.tz.keystore import KeyStore

FIRMWARE = """
; A tiny duty-cycle controller: compute an on-time from a sensor
; word, then pulse an actuator that many times.
.equ GPIO, 0x40000500

.entry main
main:
    push {r4, r5, lr}
    mov r4, #0                ; pulse counter

    ; derive a duty value (stand-in for a sensor read)
    mov32 r0, #0x1234
    and r5, r0, #31
    add r5, r5, #1

    ; data-dependent pulse loop (simple: loop-opt candidate)
duty_loop:
    add r4, r4, #1
    sub r5, r5, #1
    cmp r5, #0
    bgt duty_loop

    ; classify the result (if/else chain)
    cmp r4, #16
    blt low_duty
    bl report_high
    b finish
low_duty:
    bl report_low
finish:
    pop {r4, r5, pc}

report_high:
    push {lr}
    mov r0, #2
    pop {pc}

report_low:
    push {lr}
    mov r0, #1
    pop {pc}
"""


def main() -> None:
    module = assemble(FIRMWARE)
    offline = transform(module)
    image = link(offline.module)
    bound = offline.rmap.bind(image)

    print("Rewritten MTBDR (text) section:")
    print(image.disassemble("text"))
    print("\nMTBAR trampoline stubs:")
    print(image.disassemble("mtbar"))

    # a deliberately tiny watermark to demonstrate partial reports
    config = EngineConfig(watermark=4 * PACKET_BYTES)
    mcu = MCU(image)
    keystore = KeyStore.provision()
    engine = RapTrackEngine(mcu, keystore, bound, config)
    result = engine.attest(b"custom-firmware-challenge")

    print(f"\nAttestation: {result.cycles} cycles, "
          f"{len(result.reports)} reports "
          f"({result.partial_report_count} partial under the "
          f"{config.watermark}-byte watermark)")
    for report in result.reports:
        kind = "final  " if report.final else "partial"
        print(f"  report #{report.seq} ({kind}): "
              f"{len(report.cflog)} records, "
              f"{span_claim(report.span, report.method)[1]} B, "
              f"mac={report.mac.hex()[:16]}…")

    verifier = Verifier(image, bound, keystore.attestation_key)
    outcome = verifier.verify(result, b"custom-firmware-challenge")
    print(f"\nVerification: authenticated={outcome.authenticated} "
          f"lossless={outcome.lossless} violations={len(outcome.violations)}")
    assert outcome.ok
    print(f"Reconstructed the full {len(outcome.path)}-instruction path.")


if __name__ == "__main__":
    main()
