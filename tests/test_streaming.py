"""Streaming-verification tests (incremental partial-report handling)."""

import pytest

from repro.cfa.engine import EngineConfig
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.wire import encode_report
from repro.trace.mtb import PACKET_BYTES
from conftest import rap_setup, text_path

LOOPY = """
.entry main
main:
    mov r4, #0
    mov r5, #25
top:
    add r4, r4, #1
    cmp r4, r5
    blt top
    bkpt
"""


def attested(keystore, watermark=6 * PACKET_BYTES):
    config = EngineConfig(watermark=watermark)
    image, _, _, engine, verifier, tracer = rap_setup(
        LOOPY, engine_config=config, keystore=keystore)
    result = engine.attest(b"stream-chal")
    return image, result, verifier, tracer


class TestStreaming:
    def test_full_stream_verifies(self, keystore):
        image, result, verifier, tracer = attested(keystore)
        assert result.partial_report_count >= 2
        stream = StreamingVerifier(verifier, b"stream-chal")
        for report in result.reports:
            stream.feed(report)
        outcome = stream.finish()
        assert outcome.authenticated and outcome.lossless
        assert outcome.path == text_path(image, tracer)

    def test_wire_encoded_stream(self, keystore):
        image, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        for report in result.reports:
            stream.feed_bytes(encode_report(report))
        assert stream.finish().lossless

    def test_out_of_order_rejected_immediately(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        with pytest.raises(StreamError, match="out-of-order"):
            stream.feed(result.reports[1])

    def test_tampered_partial_rejected_early(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        result.reports[0].mac = b"\x00" * 32
        with pytest.raises(StreamError, match="bad MAC"):
            stream.feed(result.reports[0])
        # once rejected, the stream stays rejected
        with pytest.raises(StreamError):
            stream.feed(result.reports[1])

    def test_wrong_challenge_rejected(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"another-chal")
        with pytest.raises(StreamError, match="challenge"):
            stream.feed(result.reports[0])

    def test_finish_before_final_raises(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        stream.feed(result.reports[0])
        with pytest.raises(StreamError, match="final report"):
            stream.finish()

    def test_feeding_after_final_raises(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        for report in result.reports:
            stream.feed(report)
        with pytest.raises(StreamError, match="finished"):
            stream.feed(result.reports[-1])

    def test_dropped_middle_partial_detected(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        stream.feed(result.reports[0])
        with pytest.raises(StreamError, match="out-of-order"):
            stream.feed(result.reports[2])

    def test_partials_accepted_counter(self, keystore):
        _, result, verifier, _ = attested(keystore)
        stream = StreamingVerifier(verifier, b"stream-chal")
        for i, report in enumerate(result.reports, start=1):
            stream.feed(report)
            assert stream.partials_accepted == i
