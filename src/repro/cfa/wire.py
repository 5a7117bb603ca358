"""Wire format: serialize/parse report chains for transmission.

The in-memory objects model the protocol; this codec is what actually
crosses the Prv->Vrf link (and what a fuzzer would attack). The format
is length-delimited and self-describing:

``report  := header fields cflog mac``, all little-endian, with each
variable-length field length-prefixed. Records reuse the 9-byte tagged
encoding of :meth:`Record.pack`. The Vrf reads a report as a
:class:`ReportView` (:func:`read_report`): header fields, MAC and the
records still packed, which is all authentication, the admission
screens and the replay-cache key need. :func:`decode_records` turns a
packed span into shared, interned record values in one pass, when a
replay runs.
"""

from __future__ import annotations

import hmac
import struct
import threading
from typing import Dict, List, NamedTuple, Tuple

from repro.cfa.cflog import (
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    Record,
)
from repro.cfa.report import AttestationResult, Report
from repro.cfa.speccfa import SpecRecord
from repro.codec import BLOB, STR, Layout, Reader, lp

MAGIC = b"RAPT"
VERSION = 1

#: every record crosses the wire as the 9-byte tagged ``Record.pack``
_RECORD = struct.Struct("<BII")
RECORD_BYTES = _RECORD.size

#: record tag (the first byte of ``Record.pack``) -> record class
_RECORD_TYPES: Dict[int, type] = {
    1: BranchRecord,
    2: AddressRecord,
    3: LoopRecord,
    4: SpecRecord,
}

#: record class -> its tag byte
_RECORD_TAGS: Dict[type, bytes] = {
    cls: bytes([tag]) for tag, cls in _RECORD_TYPES.items()}

#: every tag byte a record may carry
_KNOWN_TAGS = bytes(_RECORD_TYPES)

#: the MAC input after a report's ``head``: ``lp(seq4) lp(final1)``
#: and the records' length prefix (see :func:`repro.crypto.mac._fold`)
_MAC_TAIL = struct.Struct("<IIIBI")

#: most distinct records the decoder keeps interned. The table is
#: shared by the verifier's report decoding and the device engines'
#: MTB readout in the same process. A fleet's firmware emits a few
#: hundred (77 on a shared fleet, 198 on distinct sensor fleets), and
#: one attest-sweep sweep of the 15 evaluation workloads adds 183 (109
#: naive-MTB branches, 74 RAP-Track branch and loop records), so the
#: cap holds both with room; hostile traffic past it only restarts the
#: table
INTERN_CAP = 4096

#: ``(tag, a, b)`` -- the record's 9 wire bytes, unpacked -> its one
#: shared frozen record value
_interned: Dict[Tuple[int, ...], Record] = {}
_intern_lock = threading.Lock()


class WireError(Exception):
    """Malformed or truncated wire data."""


#: a report body up to its record count: the four length-prefixed
#: fields the MAC input opens with, then ``seq`` and ``final``
_REPORT_HEAD = Layout((BLOB, STR, BLOB, BLOB, "IB"), WireError,
                      "wire data", "", "method field is not valid UTF-8")
#: a report body's last field, which must end the body
_REPORT_MAC = Layout((BLOB,), WireError, "wire data",
                     "trailing bytes inside report body", "")
_U32 = struct.Struct("<I")


def _reader(data: bytes) -> Reader:
    return Reader(data, WireError, "wire data")


def _intern(fields: Tuple[int, ...]) -> Record:
    """The shared record for one unpacked wire triple (slow path)."""
    with _intern_lock:
        record = _interned.get(fields)
        if record is None:
            cls = _RECORD_TYPES.get(fields[0])
            if cls is None:
                raise WireError(f"unknown record tag {fields[0]}")
            record = cls(fields[1], fields[2])
            if len(_interned) >= INTERN_CAP:
                _interned.clear()
            _interned[fields] = record
        return record


def decode_records(span: bytes) -> List[Record]:
    """Decode a run of packed records in one pass.

    Equal records decode to one shared frozen value. Once the fleet's
    records are interned a report costs one C-level sweep; any record
    not yet in the table sends the span down the per-record path,
    which raises on the first unknown tag in stream order.
    """
    try:
        return list(map(_interned.__getitem__, _RECORD.iter_unpack(span)))
    except KeyError:
        return [_intern(t) for t in _RECORD.iter_unpack(span)]


def pack_branch_packets(raw: bytes) -> bytes:
    """Raw MTB packets (little-endian ``(source, destination)`` word
    pairs) as the packed :class:`BranchRecord` log they make: the tag
    byte interleaved before every packet, one slice copy per lane."""
    width = RECORD_BYTES - 1  # one packet: the record without its tag
    count = len(raw) // width
    packed = bytearray(RECORD_BYTES * count)
    packed[0::RECORD_BYTES] = _RECORD_TAGS[BranchRecord] * count
    for lane in range(width):
        packed[1 + lane::RECORD_BYTES] = raw[lane::width]
    return bytes(packed)


def encode_report(report: Report) -> bytes:
    body = b"".join([
        lp(report.device_id),
        lp(report.method.encode()),
        lp(report.challenge),
        lp(report.h_mem),
        struct.pack("<IB", report.seq, 1 if report.final else 0),
        struct.pack("<I", len(report.cflog)),
        report.cflog.pack(),
        lp(report.mac),
    ])
    return MAGIC + struct.pack("<B", VERSION) + lp(body)


class ReportView(NamedTuple):
    """One report as it crossed the wire, its records left packed.

    Everything the Vrf checks before replay reads from here: the
    header fields, the packed record ``span`` (the bounds claim and the
    replay-cache key read it as it arrived) and the MAC. ``head`` is
    the body's first four length-prefixed fields, byte-identical to the
    start of the MAC input, so :meth:`verify` authenticates the report
    without rebuilding its fields. Records are decoded from ``span``
    (:func:`decode_records`) only when a replay runs.
    """

    device_id: bytes
    method: str
    challenge: bytes
    h_mem: bytes
    seq: int
    final: bool
    span: bytes
    mac: bytes
    head: bytes

    def verify(self, key: bytes) -> bool:
        """The report's MAC, over the same bytes :meth:`Report.verify`
        folds: ``head``, then ``lp(seq4) lp(final1) lp(span)``."""
        tail = _MAC_TAIL.pack(4, self.seq, 1, self.final, len(self.span))
        return hmac.compare_digest(self.mac, hmac.digest(
            key, b"".join((self.head, tail, self.span)), "sha256"))


def read_report(data: bytes) -> Tuple[ReportView, int]:
    """Parse one report's envelope; returns ``(view, bytes_consumed)``.

    Every check of :func:`decode_report` runs here, in the same order
    and with the same message, but the records stay packed: their tag
    bytes are screened in one C-level pass, and only a span holding an
    unknown tag is walked record by record to name it.
    """
    reader = _reader(data)
    reader.header(MAGIC, "", VERSION)
    body = reader.lp()
    fields, pos = _REPORT_HEAD.scan(body)
    device_id, method, challenge, h_mem, seq, final = fields
    head = body[:pos - 5]  # the MAC input's first four fields
    if final > 1:
        raise WireError(f"final flag must be 0 or 1, got {final}")
    if pos + 4 > len(body):
        raise WireError("truncated wire data")
    (count,) = _U32.unpack_from(body, pos)
    pos += 4
    # each record is exactly RECORD_BYTES; reject absurd counts before
    # slicing so a mutated length cannot drive a long decode spin
    stop = pos + count * RECORD_BYTES
    if stop > len(body):
        raise WireError(
            f"record count {count} exceeds the remaining body")
    span = body[pos:stop]
    if span[::RECORD_BYTES].translate(None, _KNOWN_TAGS):
        decode_records(span)  # raises on the first unknown tag
    mac = _REPORT_MAC.read(body, stop)[0]
    view = ReportView(device_id, method, challenge, h_mem, seq,
                      bool(final), span, mac, head)
    return view, reader.pos


def decode_report(data: bytes) -> Tuple[Report, int]:
    """Parse one report, records decoded; returns
    ``(report, bytes_consumed)``."""
    view, consumed = read_report(data)
    report = Report(
        device_id=view.device_id, method=view.method,
        challenge=view.challenge, h_mem=view.h_mem, seq=view.seq,
        final=view.final,
        cflog=CFLog(decode_records(view.span), packed=view.span),
        mac=view.mac,
    )
    return report, consumed


# -- shard handoff framing --------------------------------------------------
#
# A shard in another process (or on another host) receives device
# traffic in this envelope, so it still gets exactly the bytes the
# device transmitted, attributed to the right session. The in-process
# router calls its shards directly and frames nothing.

SHARD_MAGIC = b"RSHD"
SHARD_VERSION = 1

#: frame kinds: a device report inbound to a shard, a challenge
#: outbound from a shard (re-challenge fan-in at the router), a
#: dictionary push outbound, a dictionary ACK inbound, a policy
#: notice outbound, or a healing order outbound — policy traffic
#: crosses the shard boundary exactly like session traffic
SHARD_KIND_REPORT = 1
SHARD_KIND_CHALLENGE = 2
SHARD_KIND_DICT = 3
SHARD_KIND_DACK = 4
SHARD_KIND_PLCY = 5
SHARD_KIND_HEAL = 6
_SHARD_KINDS = (SHARD_KIND_REPORT, SHARD_KIND_CHALLENGE,
                SHARD_KIND_DICT, SHARD_KIND_DACK,
                SHARD_KIND_PLCY, SHARD_KIND_HEAL)


def encode_shard_frame(shard_id: int, device_id: str, payload: bytes,
                       kind: int = SHARD_KIND_REPORT) -> bytes:
    """Envelope one device payload for handoff to ``shard_id``."""
    if kind not in _SHARD_KINDS:
        raise WireError(f"unknown shard frame kind {kind}")
    if not 0 <= shard_id <= 0xFFFFFFFF:
        raise WireError(f"shard id {shard_id} out of range")
    return (SHARD_MAGIC
            + struct.pack("<BBI", SHARD_VERSION, kind, shard_id)
            + lp(device_id.encode())
            + lp(payload))


def decode_shard_frame(data: bytes) -> Tuple[int, str, int, bytes]:
    """Parse a shard handoff frame.

    Returns ``(shard_id, device_id, kind, payload)``; raises
    :class:`WireError` on damage (bad magic/version/kind, non-UTF-8
    device id, trailing bytes) — the shard boundary is as hostile a
    surface as the device link and gets the same strictness.
    """
    reader = _reader(data)
    reader.header(SHARD_MAGIC, "shard frame", SHARD_VERSION)
    kind, shard_id = reader.unpack("<BI")
    if kind not in _SHARD_KINDS:
        raise WireError(f"unknown shard frame kind {kind}")
    device_id = reader.lp_str("device id is not valid UTF-8")
    payload = reader.lp()
    reader.end("trailing bytes after shard frame")
    return shard_id, device_id, kind, payload


# -- dictionary distribution framing ----------------------------------------
#
# The fleet Vrf mines speculation dictionaries from live traffic and
# pushes them to devices; a device acknowledges the epoch it installed.
# Both directions are framed here so the epoch handshake is a wire
# protocol, not an in-process convention:
#
# ``DICT`` (Vrf -> Prv): the dictionary itself, named by its profile,
# monotone epoch number, and content digest (the receiver re-hashes the
# payload and refuses a frame whose digest lies).
#
# ``DACK`` (Prv -> Vrf): the device's signed acknowledgement that it
# installed (epoch, digest); the MAC is computed under the device's
# attestation key (see ``repro.cfa.fleet.dictver.dack_mac``) so a
# spoofed ACK cannot silently re-pin a device.

DICT_MAGIC = b"DICT"
DICT_VERSION = 1
DACK_MAGIC = b"DACK"
DACK_VERSION = 1
_DIGEST_LEN = 32


def encode_dict_frame(workload: str, method: str, epoch: int,
                      digest: bytes, payload: bytes) -> bytes:
    """Frame one dictionary push for a device."""
    if len(digest) != _DIGEST_LEN:
        raise WireError("dictionary digest must be 32 bytes")
    if not 0 <= epoch <= 0xFFFFFFFF:
        raise WireError(f"epoch {epoch} out of range")
    return (DICT_MAGIC
            + struct.pack("<BI", DICT_VERSION, epoch)
            + digest
            + lp(workload.encode())
            + lp(method.encode())
            + lp(payload))


def decode_dict_frame(data: bytes) -> Tuple[str, str, int, bytes, bytes]:
    """Parse a dictionary push; returns
    ``(workload, method, epoch, digest, payload)``."""
    reader = _reader(data)
    reader.header(DICT_MAGIC, "dictionary frame", DICT_VERSION)
    epoch = reader.u32()
    digest = reader.take(_DIGEST_LEN)
    workload = reader.lp_str("non-UTF-8 profile field")
    method = reader.lp_str("non-UTF-8 profile field")
    payload = reader.lp()
    reader.end("trailing bytes after dictionary frame")
    return workload, method, epoch, digest, payload


def encode_dack_frame(device_id: str, epoch: int, digest: bytes,
                      mac: bytes) -> bytes:
    """Frame one device's dictionary acknowledgement."""
    if len(digest) != _DIGEST_LEN:
        raise WireError("dictionary digest must be 32 bytes")
    if not 0 <= epoch <= 0xFFFFFFFF:
        raise WireError(f"epoch {epoch} out of range")
    return (DACK_MAGIC
            + struct.pack("<BI", DACK_VERSION, epoch)
            + digest
            + lp(device_id.encode())
            + lp(mac))


def decode_dack_frame(data: bytes) -> Tuple[str, int, bytes, bytes]:
    """Parse an ACK; returns ``(device_id, epoch, digest, mac)``."""
    reader = _reader(data)
    reader.header(DACK_MAGIC, "dictionary ACK", DACK_VERSION)
    epoch = reader.u32()
    digest = reader.take(_DIGEST_LEN)
    device_id = reader.lp_str("device id is not valid UTF-8")
    mac = reader.lp()
    reader.end("trailing bytes after dictionary ACK")
    return device_id, epoch, digest, mac


# -- policy control-plane framing --------------------------------------------
#
# The policy engine notifies devices of lifecycle transitions and
# drives the guaranteed-healing protocol over its own frames:
#
# ``PLCY`` (Vrf -> Prv): a policy notice — the device's new lifecycle
# state, the reason, and the policy epoch it was decided under. MAC'd
# under the device's attestation key so a network adversary cannot
# fake a quarantine (or a rejoin) notice.
#
# ``HEAL`` (Vrf -> Prv): a healing order — the pinned firmware
# measurement the device must re-provision, the healing attempt
# number, and the fresh challenge nonce its post-heal chain must
# answer. MAC'd under the device's attestation key so only the real
# Vrf can force a re-provision.

PLCY_MAGIC = b"PLCY"
PLCY_VERSION = 1
HEAL_MAGIC = b"HEAL"
HEAL_VERSION = 1


def encode_policy_frame(device_id: str, state: str, reason: str,
                        policy_epoch: int, mac: bytes) -> bytes:
    """Frame one policy notice for a device."""
    if not 0 <= policy_epoch <= 0xFFFFFFFF:
        raise WireError(f"policy epoch {policy_epoch} out of range")
    return (PLCY_MAGIC
            + struct.pack("<BI", PLCY_VERSION, policy_epoch)
            + lp(device_id.encode())
            + lp(state.encode())
            + lp(reason.encode())
            + lp(mac))


def decode_policy_frame(data: bytes) -> Tuple[str, str, str, int, bytes]:
    """Parse a policy notice; returns
    ``(device_id, state, reason, policy_epoch, mac)``."""
    reader = _reader(data)
    reader.header(PLCY_MAGIC, "policy frame", PLCY_VERSION)
    policy_epoch = reader.u32()
    device_id, state, reason = (
        reader.lp_str("non-UTF-8 policy field") for _ in range(3))
    mac = reader.lp()
    reader.end("trailing bytes after policy frame")
    return device_id, state, reason, policy_epoch, mac


def encode_heal_frame(device_id: str, attempt: int, policy_epoch: int,
                      measurement: bytes, nonce: bytes,
                      mac: bytes) -> bytes:
    """Frame one healing order for a quarantined device."""
    if not 1 <= attempt <= 0xFFFFFFFF:
        raise WireError(f"healing attempt {attempt} out of range")
    if not 0 <= policy_epoch <= 0xFFFFFFFF:
        raise WireError(f"policy epoch {policy_epoch} out of range")
    return (HEAL_MAGIC
            + struct.pack("<BII", HEAL_VERSION, attempt, policy_epoch)
            + lp(device_id.encode())
            + lp(measurement)
            + lp(nonce)
            + lp(mac))


def decode_heal_frame(
        data: bytes) -> Tuple[str, int, int, bytes, bytes, bytes]:
    """Parse a healing order; returns
    ``(device_id, attempt, policy_epoch, measurement, nonce, mac)``."""
    reader = _reader(data)
    reader.header(HEAL_MAGIC, "healing frame", HEAL_VERSION)
    attempt, policy_epoch = reader.unpack("<II")
    if attempt < 1:
        raise WireError("healing attempt must be >= 1")
    device_id = reader.lp_str("device id is not valid UTF-8")
    measurement, nonce, mac = reader.lp(), reader.lp(), reader.lp()
    reader.end("trailing bytes after healing frame")
    return device_id, attempt, policy_epoch, measurement, nonce, mac


def encode_result(result: AttestationResult) -> bytes:
    """Serialize a whole report chain."""
    return b"".join(encode_report(r) for r in result.reports)


def decode_result(data: bytes) -> AttestationResult:
    """Parse a report chain back into an :class:`AttestationResult`.

    Only the authenticated protocol surface survives the wire — runtime
    telemetry (cycles etc.) is measurement-side and not transmitted.
    """
    reports = []
    pos = 0
    while pos < len(data):
        report, consumed = decode_report(data[pos:])
        reports.append(report)
        pos += consumed
    if not reports:
        raise WireError("empty chain")
    return AttestationResult(reports=reports)
