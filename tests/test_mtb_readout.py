"""Bytes-first MTB readout: trace SRAM bytes straight to a packed log.

``MTB.drain_bytes`` reads the buffer in one pass and the engines build
each report's packed CFLog from those bytes (``pack_branch_packets``,
plus ``LoopRecord.pack`` spliced in by RAP-Track), then decode the
records from that packing. Every case here holds the result to the
per-packet reference path it replaced: ``MTB.drain`` into
``BranchRecord``s, packed one record at a time, with loop records
merged by global packet index.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfa.cflog import BranchRecord, LoopRecord
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.report import ChainCheck
from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.cfa.wire import decode_records, pack_branch_packets
from repro.crypto.hashing import measure_image
from repro.eval.runner import prepare
from repro.isa.instructions import make_instr
from repro.machine.cpu import RetireEvent
from repro.machine.memory import Memory
from repro.trace.mtb import MTB, MTBPacket
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu

_NOP = make_instr("nop")
word = st.integers(0, 0xFFFFFFFF)


def _reference_records(packets):
    return [BranchRecord(p.src, p.dst) for p in packets]


def _reference_packed(records):
    return b"".join(record.pack() for record in records)


def _check_readout(raw: bytes, packets) -> None:
    """``raw`` (from ``drain_bytes``) carries exactly ``packets`` (from
    ``drain`` on a twin buffer), as packed bytes and as records."""
    reference = _reference_records(packets)
    packed = pack_branch_packets(raw)
    assert packed == _reference_packed(reference)
    assert decode_records(packed) == reference


def _twins(**kw):
    return MTB(Memory(), **kw), MTB(Memory(), **kw)


#: one step fed to both twins: a retire, a drain, or a start/stop
step = st.one_of(
    st.tuples(st.just("retire"), word, word, st.booleans()),
    st.tuples(st.just("drain")),
    st.tuples(st.just("start")),
    st.tuples(st.just("stop")),
)


class TestDrainBytes:
    def test_empty_buffer(self):
        mtb = MTB(Memory())
        assert mtb.drain_bytes() == b""
        assert pack_branch_packets(b"") == b""
        assert decode_records(b"") == []

    def test_bytes_are_the_trace_sram(self):
        mtb = MTB(Memory(), activation_latency=0)
        mtb.start()
        mtb.on_retire(RetireEvent(0x11223344, 0x55667788, False, _NOP))
        mtb.on_retire(RetireEvent(0x100, 0x200, False, _NOP))
        raw = mtb.memory.peek_bytes(mtb.base, mtb.position)
        assert raw == struct.pack("<IIII", 0x11223344, 0x55667788,
                                  0x100, 0x200)
        assert mtb.drain_bytes() == raw
        assert mtb.position == 0 and mtb.drain_bytes() == b""

    def test_drain_is_drain_bytes_unpacked(self):
        mtb = MTB(Memory(), activation_latency=0)
        mtb.start()
        for src in range(5):
            mtb.on_retire(RetireEvent(src, src + 0x1000, False, _NOP))
        assert mtb.drain() == [MTBPacket(s, s + 0x1000) for s in range(5)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(step, max_size=60), st.integers(0, 3),
           st.sampled_from([16, 64, 4096]))
    def test_mid_stream_drains_latency_and_wrap(self, steps, latency,
                                                buffer_size):
        """Any interleaving of retires, drains and start/stop events,
        with activation latency and a buffer small enough to wrap:
        every drain yields the reference packets, as bytes and records."""
        by_bytes, by_packets = _twins(activation_latency=latency,
                                      buffer_size=buffer_size)
        for op in steps + [("drain",)]:
            if op[0] == "retire":
                event = RetireEvent(op[1], op[2], op[3], _NOP)
                by_bytes.on_retire(event)
                by_packets.on_retire(event)
            elif op[0] == "drain":
                assert by_bytes.wrapped == by_packets.wrapped
                _check_readout(by_bytes.drain_bytes(), by_packets.drain())
            else:
                getattr(by_bytes, op[0])()
                getattr(by_packets, op[0])()
            assert by_bytes.total_packets == by_packets.total_packets

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(word, word), max_size=40),
           st.integers(1, 6))
    def test_watermark_drains(self, packets, every):
        """A watermark handler that drains mid-stream sees exactly the
        packets since its last drain."""
        seen_bytes, seen_packets = [], []
        by_bytes, by_packets = _twins(activation_latency=0)
        by_bytes.configure(watermark=8 * every,
                           watermark_handler=lambda m: seen_bytes.append(
                               m.drain_bytes()))
        by_packets.configure(watermark=8 * every,
                             watermark_handler=lambda m: seen_packets.append(
                                 m.drain()))
        by_bytes.start()
        by_packets.start()
        for src, dst in packets:
            event = RetireEvent(src, dst, False, _NOP)
            by_bytes.on_retire(event)
            by_packets.on_retire(event)
        seen_bytes.append(by_bytes.drain_bytes())
        seen_packets.append(by_packets.drain())
        assert len(seen_bytes) == len(seen_packets) == len(packets) // every + 1
        for raw, drained in zip(seen_bytes, seen_packets):
            assert len(drained) <= every
            _check_readout(raw, drained)

    def test_wrap_keeps_the_packets_after_the_wrap(self):
        by_bytes, by_packets = _twins(activation_latency=0, buffer_size=16)
        for mtb in (by_bytes, by_packets):
            mtb.start()
            for src in range(3):
                mtb.on_retire(RetireEvent(src, src + 1, False, _NOP))
            assert mtb.wrapped
        packets = by_packets.drain()
        assert packets == [MTBPacket(2, 3)]
        _check_readout(by_bytes.drain_bytes(), packets)


# -- the engines against the per-packet reference ---------------------------

def _reference_merge(packets, loop_records, first):
    """RAP-Track's interleave, record by record: every loop record goes
    before the first packet whose global index reaches its tag."""
    merged, cursor = [], 0
    for index, packet in enumerate(packets, start=first):
        while cursor < len(loop_records) and loop_records[cursor][0] <= index:
            merged.append(loop_records[cursor][1])
            cursor += 1
        merged.append(BranchRecord(packet.src, packet.dst))
    merged.extend(record for _, record in loop_records[cursor:])
    return merged


def _buffered_packets(mtb):
    raw = mtb.memory.peek_bytes(mtb.base, mtb.position)
    return [MTBPacket(s, d) for s, d in struct.iter_unpack("<II", raw)]


class _CheckedRapTrack(RapTrackEngine):
    logs = 0

    def _merged_log(self):
        expected = _reference_merge(_buffered_packets(self.mtb),
                                    list(self._loop_records),
                                    self._drained_packets)
        log = super()._merged_log()
        assert log.records == expected
        assert log.pack() == _reference_packed(expected)
        self.logs += 1
        return log


class _CheckedNaive(NaiveMtbEngine):
    logs = 0

    def _log(self):
        expected = _reference_records(_buffered_packets(self.mtb))
        log = super()._log()
        assert log.records == expected
        assert log.pack() == _reference_packed(expected)
        self.logs += 1
        return log


def _attest(engine_cls, name, method, buffer_size, jit):
    workload = load_workload(name)
    image, bound = prepare(workload, method)
    mcu = make_mcu(image, workload, enable_jit=jit)
    keystore = KeyStore.provision()
    config = EngineConfig(mtb_buffer_size=buffer_size)
    args = (bound,) if method == "rap-track" else ()
    engine = engine_cls(mcu, keystore, *args, config)
    result = engine.attest(b"readout")
    assert ChainCheck(keystore.attestation_key, b"readout",
                      measure_image(image)).admit_all(result.reports)
    return engine, result


class TestEngines:
    def test_rap_track_splices_loop_records_across_partial_reports(self):
        """Two-packet buffers force a report every other packet, with
        loop-condition records landing between and at drain points."""
        for name in ("ultrasonic", "syringe"):
            for jit in (False, True):
                engine, result = _attest(_CheckedRapTrack, name,
                                         "rap-track", 16, jit)
                assert engine.logs == len(result.reports) > 2
                assert any(isinstance(r, LoopRecord)
                           for r in result.cflog.records)

    def test_naive_mtb_reports_match_the_reference(self):
        for buffer_size in (16, 4096):
            engine, result = _attest(_CheckedNaive, "fibcall", "naive-mtb",
                                     buffer_size, True)
            assert engine.logs == len(result.reports)
            assert result.mtb_packets == len(result.cflog)
