"""Wire-format tests: roundtrip, tamper handling, fuzz robustness."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.report import ChainCheck, Report
from repro.cfa.speccfa import SpecRecord
from repro.cfa.verifier import Verifier
from repro.cfa.wire import (
    WireError,
    decode_report,
    decode_result,
    encode_report,
    encode_result,
)
from conftest import rap_setup


def sample_report(key, records=None, seq=0, final=True):
    return Report(
        device_id=b"prv-0", method="rap-track", challenge=b"chal-123",
        h_mem=b"h" * 32, seq=seq, final=final,
        cflog=CFLog(records if records is not None
                    else [BranchRecord(0x200010, 0x200020)]),
    ).sign(key)


class TestRoundtrip:
    def test_single_report(self, keystore):
        key = keystore.attestation_key
        report = sample_report(key)
        decoded, consumed = decode_report(encode_report(report))
        assert consumed == len(encode_report(report))
        assert decoded.device_id == report.device_id
        assert decoded.challenge == report.challenge
        assert decoded.cflog.records == report.cflog.records
        assert decoded.verify(key)

    def test_all_record_types(self, keystore):
        key = keystore.attestation_key
        records = [BranchRecord(1, 2), AddressRecord(3, 4),
                   LoopRecord(5, 6), SpecRecord(0, 9)]
        decoded, _ = decode_report(encode_report(sample_report(key, records)))
        assert decoded.cflog.records == records

    def test_chain_roundtrip(self, keystore):
        key = keystore.attestation_key
        from repro.cfa.report import AttestationResult

        chain = AttestationResult(reports=[
            sample_report(key, seq=0, final=False),
            sample_report(key, seq=1, final=True),
        ])
        decoded = decode_result(encode_result(chain))
        assert len(decoded.reports) == 2
        assert ChainCheck(key, b"chal-123", b"h" * 32).admit_all(
            decoded.reports)

    def test_end_to_end_over_the_wire(self, keystore):
        image, bound, _, engine, verifier, _ = rap_setup("""
.entry main
main:
    mov r0, #0
    cmp r0, #0
    beq over
    nop
over:
    bkpt
""", keystore=keystore)
        result = engine.attest(b"wire-chal")
        transmitted = encode_result(result)
        received = decode_result(transmitted)
        outcome = verifier.verify(received, b"wire-chal")
        assert outcome.ok


class TestTampering:
    def test_bad_magic(self, keystore):
        data = encode_report(sample_report(keystore.attestation_key))
        with pytest.raises(WireError):
            decode_report(b"XXXX" + data[4:])

    def test_bad_version(self, keystore):
        data = bytearray(encode_report(sample_report(keystore.attestation_key)))
        data[4] = 0xFF
        with pytest.raises(WireError):
            decode_report(bytes(data))

    def test_truncation(self, keystore):
        data = encode_report(sample_report(keystore.attestation_key))
        with pytest.raises(WireError):
            decode_report(data[: len(data) // 2])

    def test_payload_bitflip_breaks_mac(self, keystore):
        key = keystore.attestation_key
        data = bytearray(encode_report(sample_report(key)))
        data[30] ^= 0x40  # somewhere inside the body
        try:
            decoded, _ = decode_report(bytes(data))
        except WireError:
            return  # structural damage is also a fine outcome
        assert not decoded.verify(key)

    def test_empty_chain(self):
        with pytest.raises(WireError):
            decode_result(b"")


class TestFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @settings(deadline=None, max_examples=200)
    def test_decoder_never_crashes_unexpectedly(self, blob):
        try:
            decode_result(blob)
        except WireError:
            pass  # the only acceptable failure mode

    @given(st.binary(min_size=1, max_size=64))
    @settings(deadline=None)
    def test_valid_prefix_plus_noise(self, noise):
        from repro.tz.keystore import KeyStore

        key = KeyStore.provision().attestation_key
        data = encode_report(sample_report(key))
        try:
            decode_result(data + noise)
        except WireError:
            pass


class TestDictionaryFrames:
    """The epoch handshake's two frames: DICT (Vrf -> Prv) and DACK
    (Prv -> Vrf). Both must round-trip exactly and refuse damage with
    a WireError, never a partial parse."""

    DIGEST = bytes(range(32))

    def test_dict_frame_roundtrip(self):
        from repro.cfa.speccfa import pack_dictionary
        from repro.cfa.wire import decode_dict_frame, encode_dict_frame

        payload = pack_dictionary(
            {0: (BranchRecord(4, 8), BranchRecord(8, 4))})
        frame = encode_dict_frame(
            "fibcall", "rap-track", 3, self.DIGEST, payload)
        assert decode_dict_frame(frame) == (
            "fibcall", "rap-track", 3, self.DIGEST, payload)

    def test_dict_frame_rejects_damage(self):
        from repro.cfa.wire import decode_dict_frame, encode_dict_frame

        frame = encode_dict_frame("fibcall", "rap-track", 3,
                                  self.DIGEST, b"payload")
        for blob in (b"", b"XXXX" + frame[4:],       # bad magic
                     frame[:4] + b"\xff" + frame[5:],  # bad version
                     frame[:-1], frame + b"\x00"):   # truncated/trailing
            with pytest.raises(WireError):
                decode_dict_frame(blob)
        with pytest.raises(WireError):
            encode_dict_frame("w", "m", 1, b"short", b"")
        with pytest.raises(WireError):
            encode_dict_frame("w", "m", 1 << 32, self.DIGEST, b"")

    def test_dack_frame_roundtrip(self):
        from repro.cfa.wire import decode_dack_frame, encode_dack_frame

        frame = encode_dack_frame("prv-07", 9, self.DIGEST, b"m" * 32)
        assert decode_dack_frame(frame) == (
            "prv-07", 9, self.DIGEST, b"m" * 32)

    def test_dack_frame_rejects_damage(self):
        from repro.cfa.wire import decode_dack_frame, encode_dack_frame

        frame = encode_dack_frame("prv-07", 9, self.DIGEST, b"m" * 32)
        for blob in (b"", b"XXXX" + frame[4:],
                     frame[:4] + b"\xff" + frame[5:],
                     frame[:-1], frame + b"\x00"):
            with pytest.raises(WireError):
                decode_dack_frame(blob)
        with pytest.raises(WireError):
            encode_dack_frame("prv-07", -1, self.DIGEST, b"m" * 32)

    @given(st.binary(min_size=0, max_size=120))
    @settings(deadline=None, max_examples=120)
    def test_frame_decoders_never_crash_unexpectedly(self, blob):
        from repro.cfa.wire import decode_dack_frame, decode_dict_frame

        for decode in (decode_dict_frame, decode_dack_frame):
            try:
                decode(blob)
            except WireError:
                pass  # the only acceptable failure mode

    def test_compressed_report_expands_after_the_wire(self, keystore):
        """A chain compressed under a dictionary survives the report
        codec and expands back to the exact original stream — the wire
        never needs to know what the SpecRecords mean."""
        from repro.cfa.speccfa import compress, expand, mine_subpaths

        key = keystore.attestation_key
        records = [BranchRecord(4, 8), BranchRecord(8, 4)] * 6
        dictionary = mine_subpaths(records, "rap-track")
        compressed = compress(records, dictionary)
        assert any(isinstance(r, SpecRecord) for r in compressed)
        decoded, _ = decode_report(
            encode_report(sample_report(key, compressed)))
        assert decoded.verify(key)
        assert decoded.cflog.records == compressed
        assert expand(decoded.cflog.records, dictionary) == records
