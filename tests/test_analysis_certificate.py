"""Tests: `BNDS1` certificates — codec, signing, store, admission screen."""

import pytest

from repro.cfa.cflog import BranchRecord, CFLog
from repro.core.analysis import (
    BoundsCertificate,
    BoundsRegistry,
    bounds_key,
    certificate_path,
    certify_workload,
    decode_certificate,
    load_certificate,
    screen_records,
    sign_certificate,
    store_certificate,
    verify_certificate,
)

KEY = bounds_key(b"test-seed")


def make_cert(**overrides):
    base = dict(
        workload="demo", method="rap-track",
        image_digest=bytes(range(32)),
        max_stack_depth=3, max_log_records=100, max_log_bytes=800,
        recursion_cycles=(("even", "odd"), ("fib",)),
        depth_exact=False,
        call_keys=(0x200010, 0x200020), return_keys=(0x200030,),
    )
    base.update(overrides)
    return BoundsCertificate(**base)


class TestCodec:
    def test_round_trip(self):
        cert = make_cert()
        blob = sign_certificate(cert, KEY)
        assert verify_certificate(blob, KEY) == cert

    def test_unbounded_sentinel_round_trips(self):
        cert = make_cert(max_stack_depth=None, max_log_records=None,
                         max_log_bytes=None)
        back = verify_certificate(sign_certificate(cert, KEY), KEY)
        assert back.max_stack_depth is None
        assert back.max_log_records is None
        assert not back.bounded

    def test_tampering_anywhere_fails_verification(self):
        blob = bytearray(sign_certificate(make_cert(), KEY))
        for pos in range(len(blob)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x41
            with pytest.raises(ValueError):
                verify_certificate(bytes(mutated), KEY)

    def test_wrong_key_rejected(self):
        blob = sign_certificate(make_cert(), KEY)
        with pytest.raises(ValueError, match="MAC"):
            verify_certificate(blob, bounds_key(b"other-seed"))

    def test_truncation_rejected(self):
        blob = sign_certificate(make_cert(), KEY)
        for cut in (4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                decode_certificate(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = sign_certificate(make_cert(), KEY)
        with pytest.raises(ValueError, match="trailing"):
            decode_certificate(blob + b"\x00")

    def test_encoder_canonicalizes_key_order(self):
        # the in-memory tuple order does not leak into the wire: one
        # certificate has exactly one byte representation
        a = sign_certificate(make_cert(call_keys=(0x200020, 0x200010)), KEY)
        b = sign_certificate(make_cert(call_keys=(0x200010, 0x200020)), KEY)
        assert a == b

    def test_unsorted_frame_keys_rejected_on_the_wire(self):
        # swap the two (adjacent, little-endian u32) call keys inside
        # the signed blob: the decoder must refuse the non-canonical
        # byte order before any MAC work
        blob = sign_certificate(make_cert(), KEY)
        lo = (0x200010).to_bytes(4, "little")
        hi = (0x200020).to_bytes(4, "little")
        swapped = blob.replace(lo + hi, hi + lo)
        assert swapped != blob
        with pytest.raises(ValueError, match="sorted"):
            decode_certificate(swapped)


class TestStore:
    def test_content_addressed_round_trip(self, tmp_path):
        cert = make_cert()
        path = store_certificate(str(tmp_path), cert, KEY)
        assert path == certificate_path(str(tmp_path), cert.image_digest,
                                        cert.method)
        assert load_certificate(str(tmp_path), cert.image_digest,
                                cert.method, KEY) == cert

    def test_certify_workload_pins_image_digest(self, tmp_path):
        from repro.crypto.hashing import measure_image
        from repro.eval.runner import prepare
        from repro.workloads import load_workload

        cert = certify_workload("crc32", "rap-track",
                                store_root=str(tmp_path))
        image, _ = prepare(load_workload("crc32"), "rap-track")
        assert cert.image_digest == measure_image(image)
        from repro.core.analysis import DEFAULT_BOUNDS_SEED
        assert load_certificate(str(tmp_path), cert.image_digest,
                                "rap-track",
                                bounds_key(DEFAULT_BOUNDS_SEED)) == cert


class TestRegistry:
    def test_admit_blob_verifies(self):
        registry = BoundsRegistry(key=KEY)
        cert = make_cert()
        registry.admit_blob(sign_certificate(cert, KEY))
        assert registry.get("demo", "rap-track") == cert
        assert registry.get("demo", "traces") is None
        assert len(registry) == 1

    def test_admit_blob_rejects_forgery(self):
        registry = BoundsRegistry(key=KEY)
        blob = sign_certificate(make_cert(), bounds_key(b"attacker"))
        with pytest.raises(ValueError):
            registry.admit_blob(blob)
        assert len(registry) == 0


class TestScreen:
    def records(self, n, key=0x100):
        return CFLog(BranchRecord(key, 0x200000 + 4 * i)
                     for i in range(n)).pack()

    def test_within_bounds_passes(self):
        cert = make_cert(max_log_records=10, max_log_bytes=80)
        assert screen_records(cert, self.records(10)) is None

    def test_record_flood_rejected(self):
        cert = make_cert(max_log_records=10, max_log_bytes=10_000)
        reason = screen_records(cert, self.records(11))
        assert reason is not None and reason.startswith("bounds:")
        assert "11 records" in reason

    def test_byte_flood_rejected(self):
        cert = make_cert(max_log_records=None, max_log_bytes=80)
        reason = screen_records(cert, self.records(11))
        assert reason is not None and "log bytes" in reason

    def test_unbounded_certificate_screens_nothing(self):
        cert = make_cert(max_stack_depth=None, max_log_records=None,
                         max_log_bytes=None)
        assert screen_records(cert, self.records(10_000)) is None

    def test_depth_inference_only_when_exact(self):
        call, ret = 0x200010, 0x200030
        flood = CFLog([BranchRecord(ret, 0x200000)] * 5).pack()  # depth >= 5
        exact = make_cert(depth_exact=True, max_stack_depth=2,
                          max_log_records=None, max_log_bytes=None)
        inexact = make_cert(depth_exact=False, max_stack_depth=2,
                            max_log_records=None, max_log_bytes=None)
        reason = screen_records(exact, flood)
        assert reason is not None and "stack depth 5" in reason
        assert screen_records(inexact, flood) is None

    def test_balanced_call_return_stream_passes(self):
        call, ret = 0x200010, 0x200030
        cert = make_cert(depth_exact=True, max_stack_depth=1,
                         max_log_records=None, max_log_bytes=None)
        balanced = CFLog([BranchRecord(call, 0x1),
                          BranchRecord(ret, 0x2)] * 5).pack()
        assert screen_records(cert, balanced) is None

    def test_call_flood_also_rejected(self):
        call = 0x200010
        cert = make_cert(depth_exact=True, max_stack_depth=2,
                         max_log_records=None, max_log_bytes=None)
        flood = CFLog([BranchRecord(call, 0x1)] * 6).pack()
        reason = screen_records(cert, flood)
        assert reason is not None and "stack depth 6" in reason
