"""One chain rule at every entry point.

A report chain is authentic when every report passes the chain check
(MAC, challenge, ``H_MEM``, sequence number) in order and it ends at
its one final report. ``Verifier.authenticate`` (the whole chain at
once) and ``StreamingVerifier`` (report by report, as decoded reports
or as views read off the wire) must reach the same answer on honest
chains and on every mutant, under rap-track, traces and naive-mtb;
and a view's MAC check must agree with the decoded report's.
"""

import copy

import pytest

from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.report import AttestationResult
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.cfa.wire import decode_report, encode_report, read_report
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu

CHALLENGE = b"chain-check"
#: watermarks that cut ultrasonic into a handful of partial reports
WATERMARKS = {"rap-track": 32, "traces": 32, "naive-mtb": 2048}


@pytest.fixture(scope="module", params=sorted(WATERMARKS))
def honest(request):
    """``(verifier, key, reports)``: one honest chain of ``method``."""
    method = request.param
    workload = load_workload("ultrasonic")
    image, bound = prepare(workload, method)
    keystore = KeyStore.provision()
    key = keystore.attestation_key
    config = EngineConfig(watermark=WATERMARKS[method])
    mcu = make_mcu(image, workload)
    if method == "naive-mtb":
        engine = NaiveMtbEngine(mcu, keystore, config)
        verifier = NaiveVerifier(image, key)
    else:
        engine_type = (RapTrackEngine if method == "rap-track"
                       else TracesEngine)
        engine = engine_type(mcu, keystore, bound, config)
        verifier = Verifier(image, bound, key)
    reports = engine.attest(CHALLENGE).reports
    assert len(reports) >= 3
    return verifier, key, reports


def _resigned(key, report, **fields):
    report = copy.deepcopy(report)
    for name, value in fields.items():
        setattr(report, name, value)
    return report.sign(key)


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _flip_record(chunk):
    """Flip a key byte of the report's first record, MAC unchanged."""
    span = read_report(chunk)[0].span
    return _flip(chunk, chunk.index(span) + 1)


def _flip_mac(chunk):
    return _flip(chunk, len(chunk) - 1)


def mutants(key, reports):
    """Every way the battery breaks a chain: name -> (wire chunks, the
    reason the stream rejects it with)."""
    chunks = [encode_report(r) for r in reports]
    first, second, last = reports[0], reports[1], len(reports) - 1

    def replacing(index, report):
        return (chunks[:index] + [encode_report(report)]
                + chunks[index + 1:])

    finished = "stream already finished"
    unfinished = "final report not yet received"
    return {
        "empty chain": ([], unfinished),
        "no final report": (chunks[:-1], unfinished),
        "final report mid-chain": (replacing(
            0, _resigned(key, first, final=True)), finished),
        "two final reports": (replacing(
            last - 1, _resigned(key, reports[-2], final=True)), finished),
        "a report after the final": (chunks + chunks[-1:], finished),
        "swapped seq": ([chunks[1], chunks[0]] + chunks[2:],
                        "out-of-order report #1, expected #0"),
        "skipped seq": (replacing(1, _resigned(key, second, seq=2)),
                        "out-of-order report #2, expected #1"),
        "challenge changed": (replacing(1, _resigned(
            key, second, challenge=b"another")),
            "challenge mismatch on report #1"),
        "H_MEM changed": (replacing(1, _resigned(
            key, second, h_mem=b"\x00" * 32)),
            "H_MEM mismatch on report #1"),
        "MAC byte flipped": (
            chunks[:1] + [_flip_mac(chunks[1])] + chunks[2:],
            "bad MAC on report #1"),
        "record byte flipped": (
            chunks[:1] + [_flip_record(chunks[1])] + chunks[2:],
            "bad MAC on report #1"),
    }


def streamed(verifier, reports):
    """Why feeding every report, then finishing, rejects; ``None``
    when the stream accepts."""
    stream = StreamingVerifier(verifier, CHALLENGE)
    try:
        for report in reports:
            stream.feed(report)
        stream.final_spans()
    except StreamError as exc:
        return str(exc)
    return None


def verdicts(verifier, chunks):
    """``(authenticate, streamed decoded reports, streamed views)``."""
    decoded = [decode_report(chunk)[0] for chunk in chunks]
    views = [read_report(chunk)[0] for chunk in chunks]
    return (verifier.authenticate(AttestationResult(reports=decoded),
                                  CHALLENGE),
            streamed(verifier, decoded), streamed(verifier, views))


def test_an_honest_chain_passes_every_entry_point(honest):
    verifier, _, reports = honest
    chunks = [encode_report(r) for r in reports]
    assert verdicts(verifier, chunks) == (True, None, None)


def test_every_mutant_fails_every_entry_point(honest):
    verifier, key, reports = honest
    for name, (chunks, reason) in mutants(key, reports).items():
        assert verdicts(verifier, chunks) == (False, reason, reason), name


def test_a_view_verifies_as_its_report_does(honest):
    _, key, reports = honest
    chunks = [encode_report(r) for r in reports]
    chunks += [_flip_mac(chunks[0]), _flip_record(chunks[-1])]
    for chunk in chunks:
        report, view = decode_report(chunk)[0], read_report(chunk)[0]
        for candidate in (key, b"\x00" * 32):
            assert view.verify(candidate) == report.verify(candidate)
