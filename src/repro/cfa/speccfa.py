"""SpecCFA-style sub-path speculation (optional extension).

The paper points at CFLog transmission as the system's bottleneck and
cites SpecCFA (Caulfield et al., ACSAC 2024) for application-aware
sub-path speculation: Vrf and Prv agree on common record sub-sequences
("speculated sub-paths"); at runtime the Prv replaces each run of
matches with one compact token, shrinking the transmitted CFLog without
losing information (the Verifier expands tokens before replay).

This module implements the core of that idea over our record streams:

* :func:`mine_subpaths` — Vrf-side, offline: mine the most profitable
  tandem-repeating sub-sequences from a profiling run's CFLog;
* :func:`compress` / :func:`expand` — the lossless transform;
* :func:`speculate_result` — Prv-side: rewrite an attestation's report
  chain with compressed logs (re-signed, so authentication covers what
  is actually transmitted);
* :class:`SpeculativeVerifier` — authenticates the compressed chain,
  expands its packed log, and delegates to the lossless Verifier.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfa.cflog import (
    PACKED_RECORD,
    RECORD_TYPES,
    CFLog,
    Record,
    SpecRecord,
    span_claim,
    tag_sizes,
)
from repro.cfa.report import AttestationResult, Report
from repro.cfa.verifier import VerificationResult, Verifier
from repro.codec import Reader


#: a dictionary of speculated sub-paths: id -> record tuple
SubPathDict = Dict[int, Tuple[Record, ...]]

# -- dictionary serialization ------------------------------------------------
#
# A speculation dictionary crosses the wire (the fleet Vrf pushes mined
# dictionaries to devices), so it has a canonical byte layout::
#
#     payload := b"SPD1" u32 n_paths
#                ( u32 path_id u16 n_records (record)* )*
#     record  := u8 tag u32 a u32 b        # Record.pack, tags 1/2/3
#
# entries sorted by path id, so identical dictionaries serialize to
# identical bytes and :func:`dictionary_digest` is content-addressed.

DICTIONARY_MAGIC = b"SPD1"


def pack_dictionary(dictionary: SubPathDict) -> bytes:
    """Canonical serialization of a speculation dictionary."""
    parts = [DICTIONARY_MAGIC, struct.pack("<I", len(dictionary))]
    for path_id in sorted(dictionary):
        pattern = dictionary[path_id]
        if not pattern:
            raise ValueError(f"sub-path {path_id} is empty")
        parts.append(struct.pack("<IH", path_id, len(pattern)))
        for record in pattern:
            if isinstance(record, SpecRecord):
                raise ValueError("sub-paths cannot nest speculation tokens")
            parts.append(record.pack())
    return b"".join(parts)


def unpack_dictionary(payload: bytes) -> SubPathDict:
    """Invert :func:`pack_dictionary`; strict (raises ``ValueError``)."""
    reader = Reader(payload, ValueError, "dictionary")
    reader.header(DICTIONARY_MAGIC, "dictionary")
    dictionary: SubPathDict = {}
    for _ in range(reader.u32()):
        path_id, n_records = reader.unpack("<IH")
        if path_id in dictionary:
            raise ValueError(f"duplicate sub-path id {path_id}")
        if n_records == 0:
            raise ValueError(f"sub-path {path_id} is empty")
        pattern = []
        for _ in range(n_records):
            tag, a, b = PACKED_RECORD.unpack(reader.take(PACKED_RECORD.size))
            cls = RECORD_TYPES.get(tag)
            if cls is None or cls is SpecRecord:
                raise ValueError(f"unknown sub-path record tag {tag}")
            pattern.append(cls(a, b))
        dictionary[path_id] = tuple(pattern)
    reader.end("trailing bytes after dictionary")
    return dictionary


def dictionary_digest(dictionary: SubPathDict) -> bytes:
    """Content digest of a dictionary (its canonical serialization)."""
    return hashlib.sha256(pack_dictionary(dictionary)).digest()


#: the digest every Prv and Vrf agree on before any mining has happened
EMPTY_DICTIONARY_DIGEST = dictionary_digest({})


def mine_subpaths(records: Sequence[Record], method: str, *,
                  max_len: int = 8, top_k: int = 8,
                  min_gain_bytes: int = 16) -> SubPathDict:
    """Mine profitable sub-paths from a profiling CFLog (Vrf side).

    Scans for sub-sequences that repeat back-to-back (tandem repeats —
    the shape loops produce) and keeps the ``top_k`` by total byte
    savings, each record costing the bytes ``method`` logs it in.
    Deterministic given the input.
    """
    sizes = tag_sizes(method)
    gains: Counter = Counter()
    n = len(records)
    for length in range(1, max_len + 1):
        i = 0
        while i + length <= n:
            candidate = tuple(records[i:i + length])
            repeats = 1
            j = i + length
            while (j + length <= n
                   and tuple(records[j:j + length]) == candidate):
                repeats += 1
                j += length
            if repeats >= 2:
                saved = (sum(sizes[r.tag] for r in candidate) * repeats
                         - sizes[SpecRecord.tag])
                gains[candidate] += saved
                i = j
            else:
                i += 1
    chosen = [
        candidate for candidate, gain in gains.most_common()
        if gain >= min_gain_bytes
    ][:top_k]
    # longer sub-paths first so greedy compression prefers them
    chosen.sort(key=len, reverse=True)
    return {path_id: candidate for path_id, candidate in enumerate(chosen)}


def compress(records: Sequence[Record],
             dictionary: SubPathDict) -> List[Record]:
    """Greedy left-to-right sub-path substitution (Prv side)."""
    ordered = sorted(dictionary.items(), key=lambda kv: len(kv[1]),
                     reverse=True)
    out: List[Record] = []
    i = 0
    n = len(records)
    while i < n:
        matched = False
        for path_id, pattern in ordered:
            length = len(pattern)
            if tuple(records[i:i + length]) != pattern:
                continue
            count = 1
            j = i + length
            while tuple(records[j:j + length]) == pattern:
                count += 1
                j += length
            out.append(SpecRecord(path_id, count))
            i = j
            matched = True
            break
        if not matched:
            out.append(records[i])
            i += 1
    return out


def expand(records: Sequence[Record],
           dictionary: SubPathDict) -> List[Record]:
    """Invert :func:`compress` (Vrf side, after authentication)."""
    out: List[Record] = []
    for record in records:
        if isinstance(record, SpecRecord):
            try:
                pattern = dictionary[record.path_id]
            except KeyError:
                raise ValueError(
                    f"unknown speculated sub-path id {record.path_id}"
                ) from None
            out.extend(pattern * record.count)
        else:
            out.append(record)
    return out


#: byte budget of one :class:`PackedExpander`'s record and span
#: expansion memos together; past it both restart, so hostile repeat
#: counts cannot pin memory
EXPANSION_MEMO_BYTES = 1 << 20
#: most record spans each of a :class:`PackedExpander`'s span memos
#: (claims, expansions) keeps before it restarts
SPAN_MEMO_ENTRIES = 4096
#: byte budget of the span keys one claim memo holds
CLAIM_MEMO_BYTES = 1 << 20


class PackedExpander:
    """:func:`expand` over packed records: wire bytes in, bytes out.

    ``expand_span(span)`` is ``b"".join(r.pack() for r in expand(...))``
    for a run of packed records, computed without building a record:
    each 9-byte record maps to its expansion (itself, or ``count``
    packed copies of a token's sub-path) through a memo keyed by the
    unpacked record, so a span of known records expands in one
    C-level sweep. Raises ``ValueError`` on an unknown path id, as
    :func:`expand` does.

    Devices running one firmware send the same spans session after
    session, so two more memos are keyed by a span's bytes:
    :meth:`claim` (the span's expanded size, counted without
    expanding) and the expansion itself. Neither memo holds a span
    without a token: such a span is its own expansion, and its claim
    is a count over its tag bytes. Claims charge each record the wire
    bytes ``method`` logs it in (:func:`~repro.cfa.cflog.tag_sizes`).
    """

    def __init__(self, dictionary: SubPathDict, method: str = "rap-track"):
        self.method = method
        self._token_bytes = tag_sizes(method)[SpecRecord.tag]
        self.patterns = {path_id: b"".join(r.pack() for r in pattern)
                         for path_id, pattern in dictionary.items()}
        #: path id -> the claim of one copy of its sub-path
        self._pattern_claims = {path_id: span_claim(pattern, method)
                                for path_id, pattern
                                in self.patterns.items()}
        self._memo: Dict[Tuple[int, ...], bytes] = {}
        self._memo_bytes = 0
        #: span -> its expansion (shares the record memo's budget)
        self._spans: Dict[bytes, bytes] = {}
        self._span_bytes = 0
        #: span -> its claim
        self._claims: Dict[bytes, Optional[Tuple[int, int]]] = {}
        self._claim_bytes = 0
        self._lock = threading.Lock()

    def claim(self, span: bytes) -> Optional[Tuple[int, int]]:
        """``(records, log bytes)`` the span claims once expanded,
        counted without expanding it: a token's repeat count stays a
        number, so this is safe before the span's MAC is checked.
        ``None`` when a token names an unknown path id."""
        tags = span[::PACKED_RECORD.size]
        if tags.find(SpecRecord.tag) < 0:
            return span_claim(span, self.method)
        try:
            return self._claims[span]
        except KeyError:
            pass
        count, size = span_claim(span, self.method)
        claim: Optional[Tuple[int, int]] = None
        for tag, path_id, repeats in PACKED_RECORD.iter_unpack(span):
            if tag != SpecRecord.tag:
                continue
            one = self._pattern_claims.get(path_id)
            if one is None:
                break
            # the token stands for ``repeats`` copies of its sub-path
            count += one[0] * repeats - 1
            size += one[1] * repeats - self._token_bytes
        else:
            claim = (count, size)
        with self._lock:
            # another thread may have memoized the span since the miss
            if len(span) <= CLAIM_MEMO_BYTES and span not in self._claims:
                if (len(self._claims) >= SPAN_MEMO_ENTRIES
                        or self._claim_bytes + len(span) > CLAIM_MEMO_BYTES):
                    self._claims.clear()
                    self._claim_bytes = 0
                self._claims[span] = claim
                self._claim_bytes += len(span)
        return claim

    def expand_span(self, span: bytes) -> bytes:
        if span[::PACKED_RECORD.size].find(SpecRecord.tag) < 0:
            return span  # no token: the span is its own expansion
        expanded = self._spans.get(span)
        if expanded is not None:
            return expanded
        try:
            pieces = list(map(self._memo.__getitem__,
                              PACKED_RECORD.iter_unpack(span)))
        except KeyError:
            pieces = list(map(self._piece, PACKED_RECORD.iter_unpack(span)))
        expanded = b"".join(pieces)
        cost = len(span) + len(expanded)
        with self._lock:
            if cost <= EXPANSION_MEMO_BYTES and span not in self._spans:
                if len(self._spans) >= SPAN_MEMO_ENTRIES:
                    self._spans.clear()
                    self._span_bytes = 0
                self._make_room(cost)
                self._spans[span] = expanded
                self._span_bytes += cost
        return expanded

    def _make_room(self, cost: int) -> None:
        """Restart both expansion memos if ``cost`` more bytes would
        overflow their shared budget (caller holds ``_lock``)."""
        if (self._memo_bytes + self._span_bytes + cost
                > EXPANSION_MEMO_BYTES):
            self._memo.clear()
            self._spans.clear()
            self._memo_bytes = self._span_bytes = 0

    def _piece(self, record: Tuple[int, ...]) -> bytes:
        with self._lock:
            piece = self._memo.get(record)
            if piece is None:
                tag, a, b = record
                if tag != SpecRecord.tag:
                    piece = PACKED_RECORD.pack(tag, a, b)
                elif a in self.patterns:
                    piece = self.patterns[a] * b
                else:
                    raise ValueError(
                        f"unknown speculated sub-path id {a}")
                if len(piece) <= EXPANSION_MEMO_BYTES:
                    self._make_room(len(piece))
                    self._memo[record] = piece
                    self._memo_bytes += len(piece)
            return piece


def speculate_result(result: AttestationResult, dictionary: SubPathDict,
                     key: bytes) -> AttestationResult:
    """Rewrite a report chain with compressed CFLogs, re-signed.

    In a deployment the engine compresses before signing; applying the
    transform to an existing result models the same wire format.
    """
    reports = []
    for report in result.reports:
        compressed = Report(
            device_id=report.device_id,
            method=report.method,
            challenge=report.challenge,
            h_mem=report.h_mem,
            seq=report.seq,
            final=report.final,
            cflog=CFLog(compress(report.cflog.records, dictionary)),
        ).sign(key)
        reports.append(compressed)
    return AttestationResult(
        reports=reports,
        cycles=result.cycles,
        instructions=result.instructions,
        gateway_calls=result.gateway_calls,
        gateway_cycles=result.gateway_cycles,
        exit_reason=result.exit_reason,
        mtb_packets=result.mtb_packets,
        report_cycles=result.report_cycles,
    )


class SpeculativeVerifier:
    """Vrf for compressed chains: authenticate, expand, then replay."""

    def __init__(self, verifier: Verifier, dictionary: SubPathDict):
        self.verifier = verifier
        self.expander = PackedExpander(dictionary)

    def verify(self, result: AttestationResult,
               challenge: bytes) -> VerificationResult:
        authenticated = self.verifier.authenticate(result, challenge)
        try:
            log = self.expander.expand_span(result.span)
        except ValueError as exc:
            return VerificationResult(authenticated=authenticated,
                                      lossless=False, error=str(exc))
        outcome = self.verifier.replay(log)
        outcome.authenticated = authenticated
        return outcome
