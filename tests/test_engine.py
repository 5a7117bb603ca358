"""Unit tests: the CFA engines (RAP-Track, naive MTB, TRACES)."""

import pytest

from repro.cfa.cflog import BranchRecord, LoopRecord, tag_sizes
from repro.cfa.engine import EngineConfig
from repro.machine.faults import MemFault
from conftest import naive_setup, rap_setup, traces_setup

SIMPLE = """
.entry main
main:
    mov r0, #0
    cmp r0, #0
    beq over
    nop
over:
    bkpt
"""

LOOPY = """
.entry main
main:
    lsr r4, r0, #1
    add r4, r4, #6
top:
    nop
    sub r4, r4, #1
    cmp r4, #0
    bgt top
    bkpt
"""


class TestRapEngineLifecycle:
    def test_report_structure(self, keystore):
        _, _, _, engine, _, _ = rap_setup(SIMPLE, keystore=keystore)
        result = engine.attest(b"ch-1")
        assert len(result.reports) == 1
        report = result.final_report
        assert report.final and report.seq == 0
        assert report.method == "rap-track"
        assert report.challenge == b"ch-1"
        assert report.verify(keystore.attestation_key)

    def test_h_mem_matches_image_measurement(self, keystore):
        from repro.crypto.hashing import measure_image

        image, _, _, engine, _, _ = rap_setup(SIMPLE, keystore=keystore)
        result = engine.attest(b"x")
        assert result.final_report.h_mem == measure_image(image)

    def test_code_locked_during_run_and_unlocked_after(self):
        image, _, mcu, engine, _, _ = rap_setup(SIMPLE)
        locked_states = []
        original_hook = mcu.cpu.pre_hooks
        mcu.cpu.pre_hooks = original_hook + [
            lambda pc: locked_states.append(
                mcu.memmap.is_write_locked("ns_text"))
        ]
        engine.attest(b"x")
        assert locked_states and all(locked_states)
        assert not mcu.memmap.is_write_locked("ns_text")

    def test_attack_write_to_code_faults_while_attesting(self):
        source = """
.entry main
main:
    adr r0, main
    mov r1, #0
    str r1, [r0]
    bkpt
"""
        _, _, _, engine, _, _ = rap_setup(source)
        with pytest.raises(MemFault):
            engine.attest(b"x")

    def test_interrupts_disabled_during_attestation(self):
        _, _, mcu, engine, _, _ = rap_setup(SIMPLE)
        states = []
        mcu.cpu.pre_hooks.append(
            lambda pc: states.append(engine.ns_interrupts_enabled))
        engine.attest(b"x")
        assert states and not any(states)
        assert engine.ns_interrupts_enabled

    def test_re_attestation_is_clean(self, keystore):
        _, _, _, engine, verifier, _ = rap_setup(LOOPY, keystore=keystore)
        first = engine.attest(b"c1")
        second = engine.attest(b"c2")
        assert len(first.cflog) == len(second.cflog)
        assert verifier.verify(second, b"c2").ok

    def test_loop_records_merged_in_order(self):
        _, _, _, engine, _, _ = rap_setup(LOOPY)
        result = engine.attest(b"x")
        kinds = [type(r).__name__ for r in result.cflog.records]
        # loop condition must come before any of that loop's packets
        assert kinds[0] == "LoopRecord"

    def test_loop_record_value_is_counter(self):
        _, _, _, engine, _, _ = rap_setup(LOOPY)
        result = engine.attest(b"x")
        loop = [r for r in result.cflog if isinstance(r, LoopRecord)]
        assert len(loop) == 1
        assert loop[0].value == 6  # lsr(0)>>1 + 6

    def test_gateway_accounting(self):
        _, _, _, engine, _, _ = rap_setup(LOOPY)
        result = engine.attest(b"x")
        assert result.gateway_calls == 1  # just the loop condition
        assert result.gateway_cycles > 0

    def test_mtb_runs_in_parallel_zero_cycles(self):
        # the MTB itself charges nothing: total cycles are exactly the
        # executed instructions plus the two taken-branch refills
        # (beq -> stub, stub -> over); no logging cost appears
        _, _, _, engine, _, _ = rap_setup(SIMPLE)
        result = engine.attest(b"x")
        assert result.mtb_packets == 1
        assert result.gateway_calls == 0
        assert result.cycles == result.instructions + 2


class TestNaiveEngine:
    def test_no_gateway_calls(self):
        _, _, _, engine, _, _ = naive_setup(LOOPY)
        result = engine.attest(b"x")
        assert result.gateway_calls == 0

    def test_runtime_equals_unmodified(self):
        from repro.asm.assembler import assemble_and_link
        from repro.machine.mcu import MCU

        plain = MCU(assemble_and_link(LOOPY))
        baseline = plain.run()
        _, _, _, engine, _, _ = naive_setup(LOOPY)
        result = engine.attest(b"x")
        assert result.cycles == baseline.cycles

    def test_logs_every_nonsequential_transfer(self):
        _, _, _, engine, _, _ = naive_setup(LOOPY)
        result = engine.attest(b"x")
        # 6 loop iterations -> 5 taken latches
        assert len(result.cflog) == 5
        assert all(isinstance(r, BranchRecord) for r in result.cflog)

    def test_method_tag(self):
        _, _, _, engine, _, _ = naive_setup(SIMPLE)
        assert engine.attest(b"x").final_report.method == "naive-mtb"


class TestTracesEngine:
    def test_every_event_pays_world_switch(self):
        _, _, _, engine, _, _ = traces_setup(LOOPY)
        result = engine.attest(b"x")
        assert result.gateway_calls == len(result.cflog) == 1

    def test_entries_are_wire_small(self):
        _, _, _, engine, _, _ = traces_setup(LOOPY)
        result = engine.attest(b"x")
        sizes = tag_sizes(result.final_report.method)
        assert all(sizes[r.tag] == 4 for r in result.cflog)

    def test_runtime_exceeds_rap(self, keystore):
        source = """
.entry main
main:
    mov r4, #0
    mov r5, #9
top:
    add r4, r4, #1
    cmp r4, r5
    blt top
    bkpt
"""
        _, _, _, rap_engine, _, _ = rap_setup(source, keystore=keystore)
        _, _, _, tr_engine, _, _ = traces_setup(source, keystore=keystore)
        rap = rap_engine.attest(b"x")
        traces = tr_engine.attest(b"x")
        assert traces.cycles > rap.cycles
        assert len(traces.cflog) == len(rap.cflog)


class TestEngineConfigKnobs:
    def test_gateway_cost_scales_traces_runtime(self):
        from repro.tz.gateway import GatewayCosts

        cheap = EngineConfig(gateway=GatewayCosts(entry=1, exit=1))
        costly = EngineConfig(gateway=GatewayCosts(entry=500, exit=500))
        _, _, _, engine_cheap, _, _ = traces_setup(LOOPY, cheap)
        _, _, _, engine_costly, _, _ = traces_setup(LOOPY, costly)
        assert (engine_costly.attest(b"x").cycles
                > engine_cheap.attest(b"x").cycles)

    def test_setup_cycles_tracks_code_size(self):
        _, _, _, engine, _, _ = rap_setup(SIMPLE)
        engine.attest(b"x")
        assert engine.setup_cycles == len(engine.image.code_bytes()) * 4
