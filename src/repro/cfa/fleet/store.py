"""Durable, hash-chained evidence for every fleet verdict.

Two pieces of persistence live here, unifying the content-addressed
idiom of :mod:`repro.eval.cache` with the fleet tier:

* :class:`EvidenceStore` — an append-only log in which every settled
  session becomes one :class:`EvidenceRecord`. Records for a device
  form a hash chain: record *i* carries the digest of record *i-1*
  (32 zero bytes for the genesis record), a MAC under the Vrf's audit
  key, and commits to the verdict *and* to a digest of the exact wire
  bytes the device transmitted, so the full verdict history is
  externally auditable and any single-byte mutation of the persisted
  bytes is detectable. The record is flushed and ``fsync``'d before
  the verdict is released to anyone — a verdict that exists outside
  the service is, by construction, already on disk.

* :class:`DurableReplayCache` — a replay cache backed by the
  content-addressed file idiom the offline artifacts use
  (:func:`~repro.eval.cache.atomic_pickle`). The fleet service no
  longer builds one: each shard keeps a bounded in-memory
  :class:`~repro.cfa.fleet.verify.ReplayCache`, since the evidence no
  longer records cache state that would need a shared, durable cache
  to stay invariant.

**Byte layout** (all little-endian; ``lp x`` = ``u32 len(x) || x``)::

    file    := b"EVD1" u8 version (frame)*
    frame   := u32 frame_len prev_digest[32] mac[32] body
    body    := u8 kind session | u8 kind policy          (version 3)
    session := lp device_id lp workload lp method lp challenge
               chain_digest[32] u32 epoch u8 flags lp reason
               u32 reports u32 records u32 path_len lp path_digest
               lp records_digest
               u16 n_violations (lp kind u32 address lp detail)*
               lp measurement u32 seq
    policy  := lp device_id lp workload lp method
               u8 from_state u8 to_state lp action lp reason
               u32 score u32 heal_attempt u32 policy_epoch
               lp measurement u32 seq

Three format versions coexist. Version 1 predates dictionary epochs
(no ``epoch``/``records_digest``) and version 2 predates the policy
control plane (no ``kind`` byte, no ``measurement``): both still load,
audit, and restore — the parser dispatches on the file's version byte,
and a store opened on a legacy file keeps appending session records in
that file's native version so its chains stay verifiable end to end.
Policy-decision records (``kind`` 1, the transitions of
:mod:`repro.cfa.policy.engine`) thread through the *same* per-device
hash chain as the device's session records — one chain per device
commits its verdicts and its lifecycle, interleaved in decision order.

``flags`` bits: 0 accepted, 1 authenticated, 2 lossless, 3 reserved,
4 expired, 5 healing (the session was opened by the healing
protocol). Bit 3 is always written 0. Logs written before the replay
cache left the evidence set it on sessions whose replay came from the
cache; readers still decode it (:attr:`EvidenceRecord.cache_hit`), so
those logs load, audit and restore unchanged. Evidence records the
verdict, never which cache served it, so the bytes do not depend on
the cache, the shard count, or a restart. **Hash schedule**::

    mac_i    = HMAC-SHA256(K_audit, prev_digest_i || body_i)
    digest_i = SHA256(prev_digest_i || body_i || mac_i)

so the head digest of a device's chain commits every verdict, every
chain digest, and every MAC before it. Verification
(:func:`verify_evidence_trail`) is strict: torn or trailing bytes are
a failure. Recovery (:meth:`EvidenceStore` opening an existing file)
is crash-tolerant: a torn *tail* — the one partial frame an
interrupted write or fsync can leave — is truncated away; any damage
before the tail is tamper and raises :class:`EvidenceError`. So is a
length prefix that runs past the end of the file over a complete,
MAC-valid frame: the writer finished that frame, so it is no tear.
Bodies are read by one compiled :class:`~repro.codec.Layout` per
record kind and format version.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import struct
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.cfa.fleet.verify import (
    DeviceProfile,
    ReplayCache,
    SessionVerdict,
    _ReplaySummary,
)
from repro.codec import BLOB, STR, TEXT, Absent, Layout, Repeat, lp
from repro.eval.cache import atomic_pickle

EVIDENCE_MAGIC = b"EVD1"
EVIDENCE_VERSION = 3
#: every version this parser can load (new files are always written
#: at EVIDENCE_VERSION; legacy files keep their own)
SUPPORTED_VERSIONS = (1, 2, 3)
#: genesis link: the "previous digest" of a device's first record
GENESIS = b"\x00" * 32
_HEADER_LEN = 5
_DIGEST_LEN = 32
_U32 = struct.Struct("<I")
#: a frame is at least prev_digest + mac + the fixed body fields
_MIN_FRAME = 2 * _DIGEST_LEN

#: record kinds (version >= 3; earlier versions are all-session)
KIND_SESSION = 0
KIND_POLICY = 1

_FLAG_ACCEPTED = 1 << 0
_FLAG_AUTHENTICATED = 1 << 1
_FLAG_LOSSLESS = 1 << 2
_FLAG_CACHE_HIT = 1 << 3
_FLAG_EXPIRED = 1 << 4
_FLAG_HEALING = 1 << 5


class EvidenceError(Exception):
    """The evidence trail failed verification (tamper or corruption)."""


def chain_digest(chunks: Sequence[bytes]) -> bytes:
    """Digest of a session's exact wire bytes, length-prefixed so
    report boundaries cannot be shifted without changing the digest."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(lp(chunk))
    return h.digest()


def audit_key(seed: bytes) -> bytes:
    """The Vrf-side evidence-MAC key derived from the service seed."""
    return hashlib.sha256(b"evidence-audit|" + seed).digest()


#: what a non-UTF-8 string field in an evidence body raises
_NON_UTF8 = "non-UTF-8 evidence field"


class EvidenceRecord(NamedTuple):
    """One settled session, as persisted in the evidence log."""

    device_id: str
    workload: str
    method: str
    challenge: bytes      # the nonce this session's chain answered
    chain_digest: bytes   # digest of the exact wire bytes received
    epoch: int            # dictionary epoch the session was pinned to
    accepted: bool
    authenticated: bool
    lossless: bool
    #: flag bit 3: set only in logs written before the replay cache
    #: left the evidence (the replay half came from the cache)
    cache_hit: bool
    expired: bool
    reason: str
    reports: int
    records: int
    path_len: int
    path_digest: str
    records_digest: str
    violations: Tuple[Tuple[str, int, str], ...]
    seq: int              # per-device index in the chain, from 0
    prev_digest: bytes
    mac: bytes
    digest: bytes
    #: firmware measurement (``H_MEM``) the session attested, for the
    #: policy registry to judge (b"" on pre-v3 records and on sessions
    #: rejected before any report landed)
    measurement: bytes = b""
    #: the session was opened by the healing protocol
    healing: bool = False

    @property
    def is_policy(self) -> bool:
        """Discriminator shared with :class:`PolicyRecord`."""
        return False

    @property
    def profile(self) -> DeviceProfile:
        return DeviceProfile(self.workload, self.method)

    def to_verdict(self) -> SessionVerdict:
        """Reconstruct the exact :class:`SessionVerdict` this record
        persisted (cache_hit/expired are evidence annotations, not
        verdict fields, so recovery is caching-agnostic)."""
        return SessionVerdict(
            device_id=self.device_id,
            profile=self.profile,
            accepted=self.accepted,
            authenticated=self.authenticated,
            lossless=self.lossless,
            violations=self.violations,
            reason=self.reason,
            reports=self.reports,
            records=self.records,
            path_len=self.path_len,
            path_digest=self.path_digest,
            records_digest=self.records_digest,
        )


class PolicyRecord(NamedTuple):
    """One policy-engine decision, as persisted in the evidence log.

    Field-for-field the
    :class:`~repro.cfa.policy.engine.PolicyDecision` that produced it,
    plus the chain bookkeeping every record carries. Policy records
    share their device's hash chain with its session records, so the
    chain head commits the device's lifecycle as well as its verdicts.
    """

    device_id: str
    workload: str
    method: str
    from_state: int
    to_state: int
    action: str
    reason: str
    score: int
    heal_attempt: int
    policy_epoch: int
    measurement: bytes
    seq: int
    prev_digest: bytes
    mac: bytes
    digest: bytes

    @property
    def is_policy(self) -> bool:
        return True

    @property
    def profile(self) -> DeviceProfile:
        return DeviceProfile(self.workload, self.method)


def _encode_body(verdict: SessionVerdict, challenge: bytes,
                 chain: bytes, expired: bool,
                 seq: int, epoch: int = 0,
                 version: int = EVIDENCE_VERSION,
                 measurement: bytes = b"",
                 healing: bool = False) -> bytes:
    flags = ((_FLAG_ACCEPTED if verdict.accepted else 0)
             | (_FLAG_AUTHENTICATED if verdict.authenticated else 0)
             | (_FLAG_LOSSLESS if verdict.lossless else 0)
             | (_FLAG_EXPIRED if expired else 0)
             | (_FLAG_HEALING if healing and version >= 3 else 0))
    if len(chain) != _DIGEST_LEN:
        raise ValueError("chain digest must be 32 bytes")
    if version == 1 and epoch:
        raise EvidenceError(
            "version-1 evidence logs cannot record dictionary epochs; "
            "migrate to a fresh store")
    parts = []
    if version >= 3:
        parts.append(struct.pack("<B", KIND_SESSION))
    parts += [
        lp(verdict.device_id.encode()),
        lp(verdict.profile.workload.encode()),
        lp(verdict.profile.method.encode()),
        lp(challenge),
        chain,
    ]
    if version >= 2:
        parts.append(struct.pack("<I", epoch))
    parts += [
        struct.pack("<B", flags),
        lp(verdict.reason.encode()),
        struct.pack("<III", verdict.reports, verdict.records,
                    verdict.path_len),
        lp(verdict.path_digest.encode()),
    ]
    if version >= 2:
        parts.append(lp(verdict.records_digest.encode()))
    parts.append(struct.pack("<H", len(verdict.violations)))
    for kind, address, detail in verdict.violations:
        parts.append(lp(kind.encode()))
        parts.append(struct.pack("<I", address & 0xFFFFFFFF))
        parts.append(lp(detail.encode()))
    if version >= 3:
        parts.append(lp(measurement))
    parts.append(struct.pack("<I", seq))
    return b"".join(parts)


def _encode_policy_body(decision, seq: int) -> bytes:
    """Serialize one policy decision (duck-typed: any object carrying
    the :class:`~repro.cfa.policy.engine.PolicyDecision` fields)."""
    return b"".join([
        struct.pack("<B", KIND_POLICY),
        lp(decision.device_id.encode()),
        lp(decision.workload.encode()),
        lp(decision.method.encode()),
        struct.pack("<BB", decision.from_state, decision.to_state),
        lp(decision.action.encode()),
        lp(decision.reason.encode()),
        struct.pack("<III", decision.score, decision.heal_attempt,
                    decision.policy_epoch),
        lp(decision.measurement),
        struct.pack("<I", seq),
    ])


def _session_layout(version: int) -> Layout:
    """A session body of one format version; the fields a version
    lacks read as their defaults."""
    return Layout((
        TEXT, TEXT, TEXT,                       # device_id, workload, method
        BLOB, f"{_DIGEST_LEN}s",                # challenge, chain_digest
        "I" if version >= 2 else Absent(0),     # epoch
        "B", TEXT, "III", STR,                  # flags .. path_digest
        STR if version >= 2 else Absent(""),    # records_digest
        Repeat((TEXT, "I", TEXT)),              # violations
        BLOB if version >= 3 else Absent(b""),  # measurement
        "I",                                    # seq
    ), EvidenceError, "evidence body",
        "trailing bytes inside evidence body", _NON_UTF8)


_SESSION_LAYOUTS = {version: _session_layout(version)
                    for version in SUPPORTED_VERSIONS}
#: a policy body's fields are the first twelve of a PolicyRecord
_POLICY_LAYOUT = Layout(
    (TEXT, TEXT, TEXT, "BB", TEXT, TEXT, "III", BLOB, "I"),
    EvidenceError, "evidence body",
    "trailing bytes inside policy record body", _NON_UTF8)


def _body_layout(data: bytes, pos: int, version: int
                 ) -> Tuple[Layout, int]:
    """The layout of the body at ``data[pos:]`` and where its fields
    start (after the v3 kind byte)."""
    if version < 3:
        return _SESSION_LAYOUTS[version], pos
    if pos >= len(data):
        raise EvidenceError("truncated evidence body")
    kind = data[pos]
    if kind == KIND_SESSION:
        return _SESSION_LAYOUTS[version], pos + 1
    if kind == KIND_POLICY:
        return _POLICY_LAYOUT, pos + 1
    raise EvidenceError(f"unknown evidence record kind {kind}")


def _decode_body(body: bytes, prev_digest: bytes, mac: bytes,
                 version: int = EVIDENCE_VERSION,
                 memo: Optional[Dict[bytes, str]] = None
                 ) -> Union[EvidenceRecord, PolicyRecord]:
    """One frame's record; ``memo`` shares repeated strings across the
    records of one log."""
    layout, pos = _body_layout(body, 0, version)
    fields = layout.read(body, pos, memo)
    digest = hashlib.sha256(prev_digest + body + mac).digest()
    if layout is _POLICY_LAYOUT:
        return PolicyRecord(*fields, prev_digest, mac, digest)
    (device_id, workload, method, challenge, chain, epoch, flags, reason,
     reports, records, path_len, path_digest, records_digest, violations,
     measurement, seq) = fields
    return EvidenceRecord(
        device_id, workload, method, challenge, chain, epoch,
        bool(flags & _FLAG_ACCEPTED), bool(flags & _FLAG_AUTHENTICATED),
        bool(flags & _FLAG_LOSSLESS), bool(flags & _FLAG_CACHE_HIT),
        bool(flags & _FLAG_EXPIRED), reason, reports, records, path_len,
        path_digest, records_digest, violations, seq, prev_digest, mac,
        digest, measurement, bool(flags & _FLAG_HEALING))


def _record_mac(key: bytes, prev_digest: bytes, body: bytes) -> bytes:
    return hmac.digest(key, prev_digest + body, "sha256")


def _parse(data: bytes, key: bytes
           ) -> Tuple[List[Union[EvidenceRecord, PolicyRecord]], int,
                      Optional[str]]:
    """Parse and verify an evidence file image.

    Returns ``(records, valid_length, torn_reason)``: every verified
    record, the byte offset up to which the file is intact, and — when
    the file ends in one incomplete frame — why the tail is torn
    (``None`` for a clean end). Anything *other* than a torn tail
    (bad header, MAC mismatch, chain break, oversized frame) raises
    :class:`EvidenceError`: crash damage is confined to the tail, so
    damage anywhere else is tamper. A length prefix that runs past the
    end of the file over a *complete* frame is damage too, not a tear.
    """
    if len(data) < _HEADER_LEN:
        if not data:
            return [], 0, None
        return [], 0, "torn file header"
    if data[:4] != EVIDENCE_MAGIC:
        raise EvidenceError("bad evidence magic")
    version = data[4]
    if version not in SUPPORTED_VERSIONS:
        raise EvidenceError(f"unsupported evidence version {version}")
    pos = _HEADER_LEN
    size = len(data)
    heads: Dict[str, Tuple[int, bytes]] = {}
    records: List[Union[EvidenceRecord, PolicyRecord]] = []
    memo: Dict[bytes, str] = {}
    while pos < size:
        if pos + 4 > size:
            return records, pos, "torn frame length"
        start = pos + 4
        end = start + _U32.unpack_from(data, pos)[0]
        if end - start < _MIN_FRAME:
            raise EvidenceError(
                f"frame at {pos} too short ({end - start} B)")
        if end > size:
            if _holds_frame(data, start, key, version):
                raise EvidenceError(
                    f"frame at {pos} claims {end - start} B, past the "
                    f"end of the file, but a complete frame follows "
                    f"its length prefix")
            return records, pos, (
                f"torn frame at {pos} ({size - start}/"
                f"{end - start} B present)")
        prev_digest = data[start:start + _DIGEST_LEN]
        mac = data[start + _DIGEST_LEN:start + 2 * _DIGEST_LEN]
        body = data[start + 2 * _DIGEST_LEN:end]
        if not hmac.compare_digest(mac, _record_mac(key, prev_digest, body)):
            raise EvidenceError(f"MAC mismatch on frame at {pos}")
        record = _decode_body(body, prev_digest, mac, version, memo)
        seq, expected_prev = heads.get(record.device_id, (0, GENESIS))
        if record.seq != seq:
            raise EvidenceError(
                f"device {record.device_id!r}: evidence seq {record.seq}, "
                f"expected {seq}")
        if prev_digest != expected_prev:
            raise EvidenceError(
                f"device {record.device_id!r}: chain break at record "
                f"#{record.seq}")
        heads[record.device_id] = (seq + 1, record.digest)
        records.append(record)
        pos = end
    return records, pos, None


def _holds_frame(data: bytes, start: int, key: bytes,
                 version: int) -> bool:
    """Whether ``data[start:]`` opens with a complete frame: a body
    that decodes to its natural length and a MAC that verifies. A
    crash tears at most the one frame being written, so the bytes after
    a torn frame's length prefix never hold one."""
    body_start = start + 2 * _DIGEST_LEN
    try:
        layout, pos = _body_layout(data, body_start, version)
        _, body_end = layout.scan(data, pos)
    except EvidenceError:
        return False
    mac = data[start + _DIGEST_LEN:body_start]
    return hmac.compare_digest(mac, _record_mac(
        key, data[start:start + _DIGEST_LEN], data[body_start:body_end]))


def verify_evidence_trail(path: Union[str, os.PathLike],
                          key: bytes
                          ) -> List[Union[EvidenceRecord, PolicyRecord]]:
    """Strictly verify an evidence log from disk.

    Every frame must parse, MAC under ``key``, and extend its device's
    hash chain in order; any torn or trailing byte is a failure. This
    is the external-auditor entry point: it shares no state with the
    store that wrote the file.
    """
    data = Path(path).read_bytes()
    records, consumed, torn = _parse(data, key)
    if torn is not None:
        raise EvidenceError(torn)
    if consumed != len(data):
        raise EvidenceError("trailing bytes after last frame")
    return records


def evidence_logs(store_dir: Union[str, os.PathLike],
                  shards: Optional[int] = None) -> List[Path]:
    """The evidence logs of a store directory, in file order.

    A sharded store keeps one ``evidence-NN.log`` per shard; a store
    written before sharding holds one ``evidence.log``, read when no
    shard log exists. With ``shards``, the paths those shards write,
    whether or not they exist yet.
    """
    store_dir = Path(store_dir)
    if shards is not None:
        return [store_dir / f"evidence-{i:02d}.log" for i in range(shards)]
    logs = sorted(store_dir.glob("evidence-*.log"))
    legacy = store_dir / "evidence.log"
    return logs or ([legacy] if legacy.exists() else [])


def recorded_count(path: Union[str, os.PathLike], key: bytes) -> int:
    """How many intact records the evidence log at ``path`` holds (0
    when there is none), read without changing the file."""
    path = Path(path)
    return len(_parse(path.read_bytes(), key)[0]) if path.exists() else 0


class EvidenceStore:
    """Append-only, fsync-before-release evidence log (one file).

    Opening an existing file *recovers* it: all intact records are
    verified and loaded (exposed as :attr:`recovered` until
    :meth:`take_recovered` hands them over), a torn tail is
    truncated away, and per-device chain heads resume exactly where
    the previous process stopped — so chains continue across restarts
    with no seam. ``fsync_fn`` is injectable for fault testing.
    """

    def __init__(self, path: Union[str, os.PathLike], key: bytes,
                 fsync: bool = True, fsync_fn=None):
        self.path = Path(path)
        self.key = key
        self.fsync_enabled = fsync
        self._fsync = fsync_fn or os.fsync
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.truncated_tail = ""  # recovery note: torn bytes dropped
        self._heads: Dict[str, Tuple[int, bytes]] = {}
        self.recovered: List[Union[EvidenceRecord, PolicyRecord]] = []
        #: how many records the reopen recovered; kept after
        #: :meth:`take_recovered` releases the records themselves
        self.recovered_count = 0
        #: the format this file is written in — a reopened legacy log
        #: keeps its native version so its chains stay verifiable
        self.version = EVIDENCE_VERSION
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.read_bytes() if self.path.exists() else b""
        if existing:
            self.recovered, good, torn = _parse(existing, key)
            self.recovered_count = len(self.recovered)
            if len(existing) >= _HEADER_LEN:
                self.version = existing[4]
            for record in self.recovered:
                self._heads[record.device_id] = (
                    record.seq + 1, record.digest)
            if torn is not None:
                self.truncated_tail = torn
                with open(self.path, "r+b") as fh:
                    fh.truncate(good)
        self._fh = open(self.path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(
                EVIDENCE_MAGIC + struct.pack("<B", self.version))
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
        self._good_offset = self._fh.tell()

    def take_recovered(self) -> List[Union[EvidenceRecord, PolicyRecord]]:
        """Hand the recovered records over once and release them: after
        a restore nothing reads them again, and a long log would
        otherwise stay decoded in memory for the life of the store."""
        records, self.recovered = self.recovered, []
        return records

    # -- writing ------------------------------------------------------------

    def append(self, verdict: SessionVerdict, chain: bytes,
               challenge: bytes = b"", expired: bool = False,
               epoch: int = 0, measurement: bytes = b"",
               healing: bool = False) -> EvidenceRecord:
        """Persist one verdict; durable before this method returns.

        The in-memory chain head only advances after the bytes are on
        disk, so a failed append leaves the store consistent with the
        file (modulo a torn tail, which the next open truncates — the
        same discipline a crash relies on). Callers must not release
        the verdict if this raises.
        """
        device_id = verdict.device_id
        seq, prev_digest = self._heads.get(device_id, (0, GENESIS))
        version = self.version
        body = _encode_body(verdict, challenge, chain, expired, seq,
                            epoch=epoch, version=version,
                            measurement=measurement, healing=healing)
        mac, digest = self._append_frame(device_id, seq, prev_digest, body)
        # what _decode_body would read back from these bytes, built from
        # the values just encoded under this file's version
        return EvidenceRecord(
            device_id=device_id, workload=verdict.profile.workload,
            method=verdict.profile.method, challenge=bytes(challenge),
            chain_digest=bytes(chain),
            epoch=epoch if version >= 2 else 0,
            accepted=bool(verdict.accepted),
            authenticated=bool(verdict.authenticated),
            lossless=bool(verdict.lossless), cache_hit=False,
            expired=bool(expired), reason=verdict.reason,
            reports=verdict.reports, records=verdict.records,
            path_len=verdict.path_len, path_digest=verdict.path_digest,
            records_digest=verdict.records_digest if version >= 2 else "",
            violations=tuple((kind, address & 0xFFFFFFFF, detail)
                             for kind, address, detail
                             in verdict.violations),
            seq=seq, prev_digest=prev_digest, mac=mac, digest=digest,
            measurement=bytes(measurement) if version >= 3 else b"",
            healing=bool(healing) and version >= 3,
        )

    def append_decision(self, decision) -> PolicyRecord:
        """Persist one policy decision into its device's hash chain.

        ``decision`` carries the
        :class:`~repro.cfa.policy.engine.PolicyDecision` fields. Same
        durability contract as :meth:`append`: the caller must not act
        on the transition (admission, healing, notices) if this raises.
        Policy records require the current format; appending one to a
        legacy (v1/v2) log is refused rather than silently corrupting
        old auditors.
        """
        if self.version < 3:
            raise EvidenceError(
                f"evidence log {self.path} is format version "
                f"{self.version}; policy records need version 3 "
                f"(use a fresh store for the policy control plane)")
        device_id = decision.device_id
        seq, prev_digest = self._heads.get(device_id, (0, GENESIS))
        body = _encode_policy_body(decision, seq)
        mac, digest = self._append_frame(device_id, seq, prev_digest, body)
        return PolicyRecord(
            device_id=device_id, workload=decision.workload,
            method=decision.method, from_state=decision.from_state,
            to_state=decision.to_state, action=decision.action,
            reason=decision.reason, score=decision.score,
            heal_attempt=decision.heal_attempt,
            policy_epoch=decision.policy_epoch,
            measurement=bytes(decision.measurement), seq=seq,
            prev_digest=prev_digest, mac=mac, digest=digest)

    def _append_frame(self, device_id: str, seq: int, prev_digest: bytes,
                      body: bytes) -> Tuple[bytes, bytes]:
        """Write one frame durably; returns its ``(mac, digest)``."""
        mac = _record_mac(self.key, prev_digest, body)
        frame = prev_digest + mac + body
        try:
            self._fh.write(lp(frame))
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
                self.fsyncs += 1
        except BaseException:
            # best-effort rewind so a *surviving* process can continue;
            # a dead one leaves the torn tail for recovery to truncate
            try:
                self._fh.truncate(self._good_offset)
                self._fh.seek(self._good_offset)
            except OSError:
                pass
            raise
        self._good_offset = self._fh.tell()
        digest = hashlib.sha256(prev_digest + body + mac).digest()
        self._heads[device_id] = (seq + 1, digest)
        self.records_appended += 1
        self.bytes_appended += 4 + len(frame)
        return mac, digest

    # -- reading ------------------------------------------------------------

    def head(self, device_id: str) -> Optional[bytes]:
        """Current chain-head digest for a device (None if no records)."""
        entry = self._heads.get(device_id)
        return entry[1] if entry else None

    def heads(self) -> Dict[str, bytes]:
        """device id -> chain-head digest, for every recorded device."""
        return {device: digest for device, (_, digest)
                in self._heads.items()}

    @property
    def device_count(self) -> int:
        return len(self._heads)

    def records(self) -> Iterator[EvidenceRecord]:
        """Re-read and strictly verify every record from disk."""
        self._fh.flush()
        return iter(verify_evidence_trail(self.path, self.key))

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "EvidenceStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class DurableReplayCache(ReplayCache):
    """A replay cache persisted content-addressed on disk.

    Entries are pickled one file per key (atomic rename, the
    :func:`~repro.eval.cache.atomic_pickle` idiom the offline-artifact
    cache uses), keyed by a digest of ``(profile, record-stream
    digest)``. Memory holds only the bounded :class:`ReplayCache` map:
    an entry evicted from it is read back from its file on the next
    lookup. A corrupt or unreadable file is a miss and gets rebuilt,
    exactly like an offline artifact; and as with the in-memory cache,
    only the pure replay half of a verdict is ever stored, so the disk
    image cannot launder authentication. Without a ``root`` the cache
    is memory-only.

    The fleet service does not use it: a pickle per miss cost more
    than a replay on fleets whose logs differ, and the evidence no
    longer depends on the cache. The benchmark tracer still names the
    class, so it stays until the tracer drops it.
    """

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None):
        super().__init__()
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.disk_hits = 0

    @staticmethod
    def cas_key(profile: DeviceProfile, key: bytes) -> str:
        payload = b"|".join([
            b"fleet-replay-v1",
            profile.workload.encode(),
            profile.method.encode(),
            key,
        ])
        return hashlib.sha256(payload).hexdigest()

    def lookup(self, profile: DeviceProfile,
               key: bytes) -> Optional[_ReplaySummary]:
        with self._lock:
            entry = self._entries.get((profile, key))
            root = self.root
            if entry is None and root is not None:
                # evicted from memory, or never seen by this process
                path = root / f"{self.cas_key(profile, key)}.pkl"
                try:
                    with open(path, "rb") as fh:
                        entry = pickle.load(fh)
                except Exception:  # absent or corrupt: rebuilt
                    entry = None
                if entry is not None:
                    self._remember((profile, key), entry)
                    self.disk_hits += 1
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def store(self, profile: DeviceProfile, key: bytes,
              entry: _ReplaySummary) -> None:
        with self._lock:
            self._remember((profile, key), entry)
            root = self.root
            if root is not None:
                atomic_pickle(root / f"{self.cas_key(profile, key)}.pkl",
                              entry)
