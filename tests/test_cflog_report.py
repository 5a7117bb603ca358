"""Unit tests: CFLog records, wire sizes, reports."""

from unittest import mock

import pytest

from repro.cfa.cflog import (
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    span_claim,
    tag_sizes,
)
from repro.cfa.report import AttestationResult, ChainCheck, Report
from repro.tz.keystore import KeyStore


def authentic(result, key):
    """The chain check over the challenge and H_MEM the chains carry."""
    return ChainCheck(key, b"c", b"h").admit_all(result.reports)


class TestRecords:
    def test_wire_sizes(self):
        rap, traces = tag_sizes("rap-track"), tag_sizes("traces")
        assert rap[BranchRecord.tag] == 8  # MTB packet
        assert traces[AddressRecord.tag] == 4  # TRACES entry
        assert rap[LoopRecord.tag] == 8
        assert traces[LoopRecord.tag] == 4

    def test_pack_distinguishes_types(self):
        assert BranchRecord(1, 2).pack() != AddressRecord(1, 2).pack()
        assert AddressRecord(1, 2).pack() != LoopRecord(1, 2).pack()

    def test_pack_sensitive_to_fields(self):
        assert BranchRecord(1, 2).pack() != BranchRecord(1, 3).pack()
        assert BranchRecord(1, 2).pack() != BranchRecord(2, 2).pack()


class TestCFLog:
    def test_size_accumulates(self):
        log = CFLog([BranchRecord(1, 2), AddressRecord(3, 4)])
        assert span_claim(log.pack()) == (2, 12)
        log.append(LoopRecord(5, 6))
        assert span_claim(log.pack()) == (3, 20)
        assert len(log) == 3

    def test_iteration_and_indexing(self):
        records = [BranchRecord(i, i + 1) for i in range(3)]
        log = CFLog(records)
        assert list(log) == records
        assert log[1] == records[1]

    def test_pack_order_sensitive(self):
        a = CFLog([BranchRecord(1, 2), BranchRecord(3, 4)])
        b = CFLog([BranchRecord(3, 4), BranchRecord(1, 2)])
        assert a.pack() != b.pack()

    def test_str(self):
        assert "2 records" in str(CFLog([BranchRecord(1, 2),
                                         BranchRecord(3, 4)]))


class TestReport:
    def _report(self, **kw):
        defaults = dict(
            device_id=b"dev", method="rap-track", challenge=b"ch",
            h_mem=b"h" * 32, seq=0, final=True,
            cflog=CFLog([BranchRecord(1, 2)]),
        )
        defaults.update(kw)
        return Report(**defaults)

    def test_sign_verify_roundtrip(self):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        assert report.verify(key)

    @pytest.mark.parametrize("field,value", [
        ("challenge", b"other"),
        ("h_mem", b"x" * 32),
        ("seq", 1),
        ("final", False),
        ("method", "traces"),
        ("device_id", b"dev2"),
    ])
    def test_any_field_change_breaks_mac(self, field, value):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        setattr(report, field, value)
        assert not report.verify(key)

    def test_log_change_breaks_mac(self):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        report.cflog.append(BranchRecord(9, 9))
        assert not report.verify(key)


class TestAttestationResult:
    def _chain(self, key, count=3):
        reports = []
        for seq in range(count):
            reports.append(Report(
                device_id=b"d", method="m", challenge=b"c", h_mem=b"h",
                seq=seq, final=seq == count - 1,
                cflog=CFLog([BranchRecord(seq, seq + 1)]),
            ).sign(key))
        return AttestationResult(reports=reports)

    def test_chain_verifies(self):
        key = KeyStore.provision().attestation_key
        assert authentic(self._chain(key), key)

    def test_merged_cflog_order(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        assert [r.key for r in result.cflog] == [0, 1, 2]
        assert result.partial_report_count == 2

    @pytest.mark.parametrize("method", ["rap-track", "traces", "naive-mtb"])
    def test_merged_cflog_packs_as_the_joined_reports(self, method):
        """The merged log carries the join of the reports' packed logs
        (what their MACs cover and the verifier replays): equal to
        packing its records, and read back without packing them again
        where the device kept its readout's bytes."""
        from repro.baselines.naive_mtb import NaiveMtbEngine
        from repro.baselines.traces import TracesEngine
        from repro.cfa.engine import EngineConfig, RapTrackEngine
        from repro.eval.runner import prepare
        from repro.workloads import load_workload
        from repro.workloads.base import make_mcu

        workload = load_workload("fibcall")
        image, bound = prepare(workload, method)
        engine_type = {"rap-track": RapTrackEngine, "traces": TracesEngine,
                       "naive-mtb": NaiveMtbEngine}[method]
        maps = () if bound is None else (bound,)
        result = engine_type(make_mcu(image, workload),
                             KeyStore.provision(), *maps,
                             EngineConfig(watermark=32)).attest(b"c")
        assert result.partial_report_count > 0
        merged = result.cflog
        joined = b"".join(r.cflog.pack() for r in result.reports)
        assert merged.pack() == joined
        assert joined == b"".join(r.pack() for r in merged.records)
        assert merged.records == [r for report in result.reports
                                  for r in report.cflog.records]
        if method != "traces":  # its engine keeps records, not bytes
            repacked = AssertionError("re-packed")
            with mock.patch.object(BranchRecord, "pack",
                                   side_effect=repacked), \
                    mock.patch.object(LoopRecord, "pack",
                                      side_effect=repacked):
                assert result.cflog.pack() == joined

    def test_empty_chain_fails(self):
        key = KeyStore.provision().attestation_key
        assert not authentic(AttestationResult(reports=[]), key)

    def test_gap_in_sequence_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        del result.reports[1]
        assert not authentic(result, key)

    def test_nonfinal_tail_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        result.reports[-1].final = False
        result.reports[-1].sign(key)
        assert not authentic(result, key)

    def test_mixed_challenge_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        result.reports[1].challenge = b"other"
        result.reports[1].sign(key)
        assert not authentic(result, key)
