"""Unit tests: measurement hashing, report MACs, keystore, gateway."""

import hmac

import pytest

from repro.asm.assembler import assemble_and_link
from repro.cfa.cflog import BranchRecord, CFLog
from repro.cfa.report import Report
from repro.crypto.hashing import hash_bytes, measure_image
from repro.crypto.mac import report_head, report_mac
from repro.machine.faults import UndefinedInstruction
from repro.machine.mcu import MCU
from repro.tz.gateway import GatewayCosts, SecureGateway
from repro.tz.keystore import KeyStore


class TestMeasurement:
    def test_same_code_same_measurement(self):
        a = assemble_and_link(".entry m\nm: mov r0, #1\n    bkpt\n")
        b = assemble_and_link(".entry m\nm: mov r0, #1\n    bkpt\n")
        assert measure_image(a) == measure_image(b)

    def test_instruction_change_changes_measurement(self):
        a = assemble_and_link(".entry m\nm: mov r0, #1\n    bkpt\n")
        b = assemble_and_link(".entry m\nm: mov r0, #2\n    bkpt\n")
        assert measure_image(a) != measure_image(b)

    def test_reordering_changes_measurement(self):
        a = assemble_and_link(".entry m\nm: nop\n    mov r0, #1\n    bkpt\n")
        b = assemble_and_link(".entry m\nm: mov r0, #1\n    nop\n    bkpt\n")
        assert measure_image(a) != measure_image(b)

    def test_mtbar_included_in_measurement(self):
        a = assemble_and_link(".entry m\nm: bkpt\n.mtbar\ns: nop\n")
        b = assemble_and_link(".entry m\nm: bkpt\n.mtbar\ns: b m\n")
        assert measure_image(a) != measure_image(b)

    def test_hash_bytes_is_sha256(self):
        import hashlib

        assert hash_bytes(b"x") == hashlib.sha256(b"x").digest()


class TestMac:
    KEY = b"k" * 32
    SPAN = bytes(range(18))  # two packed records

    def mac(self, device_id=b"dev", method="rap-track", challenge=b"chal",
            h_mem=b"hmem", seq=3, final=True, span=SPAN, key=KEY):
        head = report_head(device_id, method, challenge, h_mem)
        return report_mac(key, head, seq, final, span)

    def test_roundtrip(self):
        # the MAC input is every field length-prefixed, in order
        fields = (b"dev", b"rap-track", b"chal", b"hmem",
                  (3).to_bytes(4, "little"), b"\x01", self.SPAN)
        folded = b"".join(len(f).to_bytes(4, "little") + f for f in fields)
        assert self.mac() == hmac.digest(self.KEY, folded, "sha256")

    def test_field_splicing_rejected(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert (self.mac(device_id=b"ab", method="c")
                != self.mac(device_id=b"a", method="bc"))
        # nor may H_MEM's tail pass for the records' head
        assert (self.mac(h_mem=b"hmem" + self.SPAN[:9], span=self.SPAN[9:])
                != self.mac())

    def test_wrong_key_rejected(self):
        assert self.mac(key=b"j" * 32) != self.mac()

    def test_tampered_tag_rejected(self):
        report = Report(b"dev", "rap-track", b"chal", b"hmem", 3, True,
                        CFLog([BranchRecord(1, 2)])).sign(self.KEY)
        assert report.verify(self.KEY)
        tag = bytearray(report.mac)
        tag[0] ^= 1
        report.mac = bytes(tag)
        assert not report.verify(self.KEY)
        # every field the MAC covers is bound by it
        assert self.mac(seq=4) != self.mac()
        assert self.mac(final=False) != self.mac()
        span = bytearray(self.SPAN)
        span[5] ^= 1
        assert self.mac(span=bytes(span)) != self.mac()


class TestKeyStore:
    def test_deterministic_provisioning(self):
        a = KeyStore.provision("dev-1", b"s")
        b = KeyStore.provision("dev-1", b"s")
        assert a.attestation_key == b.attestation_key

    def test_distinct_devices_distinct_keys(self):
        a = KeyStore.provision("dev-1")
        b = KeyStore.provision("dev-2")
        assert a.attestation_key != b.attestation_key

    def test_key_length(self):
        assert len(KeyStore.provision().attestation_key) == 32


class TestGateway:
    def _mcu(self):
        return MCU(assemble_and_link(".entry m\nm: svc #7\n    bkpt\n"))

    def test_dispatch_and_cycle_tax(self):
        mcu = self._mcu()
        gateway = SecureGateway(GatewayCosts(entry=40, exit=20))
        calls = []
        gateway.register(7, lambda cpu: calls.append(1) or 15)
        gateway.install(mcu.cpu)
        mcu.run()
        assert calls == [1]
        assert gateway.calls == 1
        assert gateway.cycles_charged == 40 + 20 + 15
        # svc(1) + bkpt(1) + gateway tax
        assert mcu.cpu.cycles == 2 + 75

    def test_unregistered_service_faults(self):
        mcu = self._mcu()
        gateway = SecureGateway()
        gateway.install(mcu.cpu)
        with pytest.raises(UndefinedInstruction):
            mcu.run()

    def test_duplicate_registration_rejected(self):
        gateway = SecureGateway()
        gateway.register(1, lambda cpu: 0)
        with pytest.raises(ValueError):
            gateway.register(1, lambda cpu: 0)

    def test_round_trip_cost(self):
        assert GatewayCosts(entry=45, exit=30).round_trip == 75
