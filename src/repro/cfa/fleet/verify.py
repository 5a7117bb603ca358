"""The single session-verification primitive behind the fleet service.

One attestation *session* is a device's whole wire-encoded report
chain; verifying it means running the exact serial machinery —
:class:`~repro.cfa.streaming.StreamingVerifier` fed one report at a
time — and folding the outcome into a :class:`SessionVerdict`, a pure
comparable value. Every fleet shard calls :func:`verify_session_chain`
inline, so a verdict does not depend on the shard count, on which
caller thread completed the chain, or on whether the replay came from
the cache.

The Vrf-side artifacts (linked image + bound rewrite map) are rebuilt
from the device *profile*; the offline phase is a pure function of
``(workload, method)`` (see ``eval/cache.py``), and built artifacts are
memoized per process in :data:`_ARTIFACTS`.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cfa.epochs import DeviceProfile
from repro.cfa.speccfa import PackedExpander
from repro.cfa.speccfa import expand  # noqa: F401 (perfbench traces it)
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.verifier import NaiveVerifier, ReplayDigest, Verifier
from repro.cfa.wire import WireError
from repro.eval.runner import prepare
from repro.workloads import load_workload

if TYPE_CHECKING:
    from repro.cfa.fleet.dictver import DictEpoch


@dataclass(frozen=True)
class SessionVerdict:
    """The fleet-level outcome of one attestation session.

    Pure data and comparable, so two verification paths agreeing means
    their verdicts are ``==``. The replayed path is carried as a
    SHA-256 digest (plus its length), so a large fleet result stays
    small in the verdict map and the evidence log while still pinning
    the reconstruction bit-for-bit.
    """

    device_id: str
    profile: DeviceProfile
    accepted: bool
    authenticated: bool = False
    lossless: bool = False
    violations: Tuple[Tuple[str, int, str], ...] = ()
    reason: str = ""
    reports: int = 0
    records: int = 0
    path_len: int = 0
    path_digest: str = ""
    #: digest of the *expanded* (canonical) record stream the replay
    #: consumed — invariant under speculation-dictionary changes, so
    #: identical executions produce identical verdicts whether their
    #: logs crossed the wire compressed or plain
    records_digest: str = ""


@dataclass(frozen=True)
class _ReplaySummary:
    """The replay-derived half of a verdict (authentication excluded)."""

    lossless: bool
    violations: Tuple[Tuple[str, int, str], ...]
    error: str
    consumed: int
    path_len: int
    path_digest: str


#: most replay summaries a :class:`ReplayCache` keeps in memory, far
#: above a distinct-execution fleet's working set (~1000 entries per
#: round); past it the oldest entry is evicted first
REPLAY_CACHE_ENTRIES = 16384


#: the expander of a session with no dictionary: every token is unknown
_PLAIN = PackedExpander({})


def expand_session(spans: Iterable[bytes],
                   dict_epoch: Optional["DictEpoch"] = None) -> bytes:
    """The session's packed log, dictionary-expanded without building a
    record: every report span through the pinned epoch's expander. The
    fleet's one record form: the cache key, a replay miss, the depth
    screen and the sampler all read it. Raises ``ValueError``, as
    :func:`expand` does, on a token naming an unknown sub-path."""
    expander = dict_epoch.expander if dict_epoch is not None else _PLAIN
    return b"".join(map(expander.expand_span, spans))


class ReplayCache:
    """Memoizes the replay of identical ``(profile, CFLog)`` chains.

    Fleet devices running the same firmware produce byte-identical
    CFLogs on honest runs, so the expensive lossless replay is shared
    across the fleet and keyed by a digest of the authenticated record
    stream. Only the replay is cached — authentication (MACs, nonce,
    ``H_MEM``, sequencing) is per-session by construction and always
    re-checked, so a cached entry can never launder a forged chain.
    Replay is a pure function of ``(verifier artifacts, records)``,
    which makes the memoization verdict-preserving.

    The map is bounded: past :data:`REPLAY_CACHE_ENTRIES` the oldest
    entry is evicted (deterministic insertion order) and counted in
    :attr:`evictions`, so a device sending a new stream every session
    cannot grow Vrf memory. An evicted chain is simply replayed again.
    """

    def __init__(self):
        #: (profile, key) -> summary, oldest first
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()  # shared by caller threads
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(log: bytes) -> bytes:
        """SHA-256 of an expanded packed log (:func:`expand_session`),
        the digest a verdict records as ``records_digest``."""
        return hashlib.sha256(log).digest()

    def lookup(self, profile: DeviceProfile,
               key: bytes) -> Optional[_ReplaySummary]:
        with self._lock:
            entry = self._entries.get((profile, key))
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def store(self, profile: DeviceProfile, key: bytes,
              entry: _ReplaySummary) -> None:
        with self._lock:
            self._remember((profile, key), entry)

    def _remember(self, slot: Tuple[DeviceProfile, bytes],
                  entry: _ReplaySummary) -> None:
        """Insert under the bound (caller holds ``_lock``)."""
        self._entries[slot] = entry
        while len(self._entries) > REPLAY_CACHE_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1


def _summarize(outcome: ReplayDigest) -> _ReplaySummary:
    """The replay half of a verdict, from a compiled replay."""
    return _ReplaySummary(
        lossless=outcome.lossless,
        violations=tuple(
            (v.kind, v.address, v.detail) for v in outcome.violations),
        error=outcome.error or "",
        consumed=outcome.consumed,
        path_len=outcome.path_len,
        path_digest=outcome.path_digest,
    )


#: a profile's keyless template verifier (None: not attestable)
_Template = Union[Verifier, NaiveVerifier, None]

# per-process memo of Vrf-side offline artifacts: profile -> template,
# its replay compiled once and shared by every session
_ARTIFACTS: Dict[DeviceProfile, _Template] = {}


def _template(profile: DeviceProfile) -> _Template:
    try:
        return _ARTIFACTS[profile]
    except KeyError:
        pass
    image, bound = prepare(load_workload(profile.workload), profile.method)
    template: _Template = None
    if profile.method == "naive-mtb":
        template = NaiveVerifier(image, b"")
    elif bound is not None:
        template = Verifier(image, bound, b"")
    if template is not None:
        template.program  # compile before any copy is taken
    _ARTIFACTS[profile] = template
    return template


def _attestable(profile: DeviceProfile):
    """The profile's keyless template; raises if it has none."""
    template = _template(profile)
    if template is None:
        raise ValueError(f"method {profile.method!r} is not attestable")
    return template


def build_verifier(profile: DeviceProfile, key: bytes):
    """(Re)build the Vrf for a profile; offline artifacts are memoized."""
    verifier = copy.copy(_attestable(profile))
    verifier.key = key
    return verifier


def verify_session_chain(device_id: str, profile: DeviceProfile, key: bytes,
                         challenge: bytes, chunks: Sequence[bytes],
                         cache: Optional[ReplayCache] = None,
                         reports: Optional[Sequence] = None,
                         dict_epoch: Optional["DictEpoch"] = None
                         ) -> SessionVerdict:
    """Verify one complete session chain exactly as the serial Vrf would.

    ``chunks`` are the session's wire-encoded reports in sequence
    order; when the caller already read them (the session manager
    does, for its protocol pre-filters), passing their
    :class:`~repro.cfa.wire.ReportView` twins as ``reports`` skips the
    redundant read — reading is deterministic, so both forms yield the
    same verdict. Each report is authenticated from its wire fields and
    its records stay packed: no record is ever decoded.
    Authentication (MACs, challenge, ``H_MEM``, sequencing) always runs
    per session; with a ``cache``, only the pure replay step is shared
    between identical chains — the cached and uncached paths produce
    ``==`` verdicts. Never raises: wire damage and protocol violations
    come back as a rejected verdict, so a poisoned session cannot take
    the thread that submitted it down.

    ``dict_epoch`` is the session's pinned speculation dictionary.
    After authentication the session is expanded once, as bytes
    (:func:`expand_session`): the replay-cache key digests that log,
    so a compressed and a plain session of one execution share a
    cached replay and ``==`` verdicts, and a miss replays it. Which
    cache served a replay is side-band: the cache counts its own hits
    (read through ``FleetMetrics``), and evidence records the verdict,
    never the cache.
    """
    try:
        verifier = _attestable(profile)
    except Exception as exc:  # unknown workload/method in the profile
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=f"no verifier for profile {profile}: {exc}")
    # the shared template replays; the session key authenticates
    stream = StreamingVerifier(verifier, challenge, key)
    try:
        if reports is not None:
            for report in reports:
                stream.feed(report)
        else:
            for chunk in chunks:
                stream.feed_bytes(chunk)
        spans = stream.final_spans()
        # keyed only after every report authenticated; a token naming
        # an unknown sub-path (wrong/missing dictionary) is an explicit
        # rejection, never a silent mis-expansion
        try:
            log = expand_session(spans, dict_epoch)
        except ValueError as exc:
            raise StreamError(
                f"speculation expansion failed: {exc}") from None
        key_digest = ReplayCache.key(log)
        summary = None
        if cache is not None:
            summary = cache.lookup(profile, key_digest)
        if summary is None:
            summary = _summarize(
                verifier.program.run(log, verifier.max_steps))
            if cache is not None:
                cache.store(profile, key_digest, summary)
    except (WireError, StreamError) as exc:
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=str(exc), reports=stream.partials_accepted)
    return SessionVerdict(
        device_id=device_id,
        profile=profile,
        # every report authenticated on feed; ok = replay clean on top
        accepted=summary.lossless and not summary.violations,
        authenticated=True,
        lossless=summary.lossless,
        violations=summary.violations,
        reason=summary.error,
        reports=len(chunks),
        records=summary.consumed,
        path_len=summary.path_len,
        path_digest=summary.path_digest,
        records_digest=key_digest.hex(),
    )

