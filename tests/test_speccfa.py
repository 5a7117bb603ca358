"""SpecCFA-style sub-path speculation tests."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfa.cflog import BranchRecord, LoopRecord, tag_sizes
from repro.cfa.speccfa import (
    SpecRecord,
    SpeculativeVerifier,
    compress,
    expand,
    mine_subpaths,
    speculate_result,
)
from repro.workloads import load_workload
from conftest import rap_setup


def B(n):
    return BranchRecord(n, n + 1)


class TestCompressExpand:
    def test_roundtrip_simple(self):
        dictionary = {0: (B(1), B(2))}
        records = [B(0), B(1), B(2), B(1), B(2), B(3)]
        compressed = compress(records, dictionary)
        assert compressed == [B(0), SpecRecord(0, 2), B(3)]
        assert expand(compressed, dictionary) == records

    def test_no_match_passthrough(self):
        dictionary = {0: (B(7), B(8))}
        records = [B(0), B(1)]
        assert compress(records, dictionary) == records

    def test_longer_patterns_preferred(self):
        dictionary = {0: (B(1),), 1: (B(1), B(2))}
        records = [B(1), B(2)]
        compressed = compress(records, dictionary)
        assert compressed == [SpecRecord(1, 1)]

    def test_wire_savings(self):
        dictionary = {0: (B(1), B(2))}
        records = [B(1), B(2)] * 50
        compressed = compress(records, dictionary)
        sizes = tag_sizes("rap-track")
        original = sum(sizes[r.tag] for r in records)
        packed = sum(sizes[r.tag] for r in compressed)
        assert packed == 4  # one token
        assert original == 800

    def test_expand_unknown_id_raises(self):
        with pytest.raises(ValueError):
            expand([SpecRecord(99, 1)], {})

    def test_spec_record_pack(self):
        assert SpecRecord(1, 2).pack() != SpecRecord(1, 3).pack()
        assert tag_sizes("rap-track")[SpecRecord.tag] == 4

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=0,
                    max_size=60))
    @settings(deadline=None)
    def test_roundtrip_property(self, keys):
        records = [B(k) for k in keys]
        dictionary = mine_subpaths(records, "rap-track")
        compressed = compress(records, dictionary)
        assert expand(compressed, dictionary) == records


class TestMining:
    def test_tandem_repeat_found(self):
        records = [B(9)] + [B(1), B(2)] * 20 + [B(8)]
        dictionary = mine_subpaths(records, "rap-track")
        assert any(set(p) == {B(1), B(2)} and len(p) == 2
                   for p in dictionary.values())

    def test_unique_stream_yields_nothing(self):
        records = [B(i) for i in range(20)]
        assert mine_subpaths(records, "rap-track") == {}

    def test_min_gain_threshold(self):
        records = [B(1), B(1)]  # saving 2*8-4 = 12 < 16
        assert mine_subpaths(records, "rap-track", min_gain_bytes=16) == {}


class TestEndToEndSpeculation:
    @pytest.mark.parametrize("name", ["bubblesort", "prime", "geiger"])
    def test_speculated_attestation_verifies(self, name, keystore):
        # profiling run mines the dictionary (Vrf side, offline)
        workload = load_workload(name)
        image, bound, mcu, engine, verifier, tracer = rap_setup(
            workload, keystore=keystore)
        profile = engine.attest(b"profiling")
        dictionary = mine_subpaths(profile.cflog.records, "rap-track")

        # attested run, transmitted compressed
        attested = engine.attest(b"real-chal")
        compressed = speculate_result(attested, dictionary,
                                      keystore.attestation_key)
        spec_verifier = SpeculativeVerifier(verifier, dictionary)
        outcome = spec_verifier.verify(compressed, b"real-chal")
        assert outcome.authenticated
        assert outcome.lossless
        assert not outcome.violations

    def test_compression_shrinks_loopy_logs(self, keystore):
        workload = load_workload("bubblesort")
        _, _, _, engine, _, _ = rap_setup(workload, keystore=keystore)
        profile = engine.attest(b"profiling")
        dictionary = mine_subpaths(profile.cflog.records, "rap-track")
        attested = engine.attest(b"real")
        compressed = speculate_result(attested, dictionary,
                                      keystore.attestation_key)
        assert compressed.cflog_bytes < attested.cflog_bytes / 2

    def test_tampered_compressed_chain_rejected(self, keystore):
        workload = load_workload("prime")
        _, _, _, engine, verifier, _ = rap_setup(workload,
                                                 keystore=keystore)
        profile = engine.attest(b"profiling")
        dictionary = mine_subpaths(profile.cflog.records, "rap-track")
        attested = engine.attest(b"real")
        compressed = speculate_result(attested, dictionary,
                                      keystore.attestation_key)
        compressed.final_report.mac = b"\x00" * 32
        outcome = SpeculativeVerifier(verifier, dictionary).verify(
            compressed, b"real")
        assert not outcome.authenticated

    def test_wrong_dictionary_detected(self, keystore):
        # expansion with a mismatched dictionary desyncs the replay
        workload = load_workload("bubblesort")
        _, _, _, engine, verifier, _ = rap_setup(workload,
                                                 keystore=keystore)
        profile = engine.attest(b"profiling")
        dictionary = mine_subpaths(profile.cflog.records, "rap-track")
        if not dictionary:
            pytest.skip("nothing mined")
        attested = engine.attest(b"real")
        compressed = speculate_result(attested, dictionary,
                                      keystore.attestation_key)
        wrong = {k: v + (B(0xDEAD),) for k, v in dictionary.items()}
        outcome = SpeculativeVerifier(verifier, wrong).verify(
            compressed, b"real")
        assert not outcome.lossless
