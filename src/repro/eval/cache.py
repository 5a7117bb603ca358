"""Content-addressed cache for offline-phase artifacts.

The offline phase — ``classify_module`` → ``transform`` /
``rewrite_for_traces`` → ``link`` — is pure: its output depends only on
the workload's assembly source, the method, and the
:class:`~repro.core.pipeline.RapTrackConfig` switches. This module
memoizes that output under a content-addressed key so repeated
evaluation runs (CLI invocations, benchmark sessions, parallel
workers) skip straight to the execution phase.

Keys are hex SHA-256 digests over a canonical JSON payload; artifacts
are ``(Image, RewriteMap | None)`` pairs, pickled one-file-per-key with
an atomic rename so concurrent workers never observe a torn write. A
corrupt or unreadable entry is treated as a miss and rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.atomic import atomic_write
from repro.core.pipeline import RapTrackConfig

#: bump when the artifact layout (or anything feeding it) changes shape
CACHE_VERSION = 2

#: methods whose offline phase is just ``link(module)`` share one entry
_PLAIN_METHODS = ("baseline", "naive-mtb")

_MISS = object()


def config_fingerprint(config: Any) -> str:
    """Stable hex fingerprint of a (possibly nested) dataclass config.

    Works for :class:`RapTrackConfig`, :class:`EngineConfig`, or any
    dataclass tree of plain values; independent of process, dict
    ordering, and ``PYTHONHASHSEED``.
    """
    return _sha256_json(_unfold(config))


def source_fingerprint(source: str) -> str:
    """Hex fingerprint of a workload's assembly source text."""
    return hashlib.sha256(source.encode()).hexdigest()


def offline_key(source: str, method: str,
                rap_config: Optional[RapTrackConfig] = None) -> str:
    """Cache key for one offline-phase artifact.

    ``baseline`` and ``naive-mtb`` run the unmodified binary, so they
    collapse onto a single shared entry; only ``rap-track`` artifacts
    depend on the :class:`RapTrackConfig` (``EngineConfig`` is an
    execution-phase input and deliberately excluded — see
    docs/internals.md).
    """
    payload: Dict[str, Any] = {
        "version": CACHE_VERSION,
        "source": source_fingerprint(source),
        "method": "plain" if method in _PLAIN_METHODS else method,
    }
    if method == "rap-track":
        payload["rap_config"] = _unfold(rap_config or RapTrackConfig())
    return _sha256_json(payload)


def default_cache_dir() -> Path:
    """On-disk cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rap-track-repro" / "offline"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: wall-clock spent inside get_or_build (loads on hits, builds +
    #: stores on misses) — i.e. the offline phase as actually paid
    offline_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def atomic_pickle(path: Union[str, os.PathLike], value: Any) -> None:
    """Atomically publish ``value`` pickled at ``path``.

    The one-file-per-key CAS idiom of the offline-artifact cache
    (:class:`~repro.cfa.fleet.store.DurableReplayCache` uses it too,
    but the fleet service keeps its replay cache in memory), through
    :func:`~repro.atomic.atomic_write`: concurrent writers may race on
    the same key, but every rename installs a complete file and
    readers never observe a torn write.
    """
    atomic_write(path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class ArtifactCache:
    """Two-level (memory + optional disk) content-addressed cache."""

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Any] = {}
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the cached artifact, or ``None`` on a miss."""
        value = self._lookup(key)
        if value is _MISS:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store an artifact in memory and (if configured) on disk."""
        self._memory[key] = value
        self.stats.stores += 1
        if self.root is None:
            return
        atomic_pickle(self._path(key), value)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """Memoize ``builder()`` under ``key``."""
        t0 = time.perf_counter()
        try:
            value = self._lookup(key)
            if value is not _MISS:
                self.stats.hits += 1
                return value
            self.stats.misses += 1
            value = builder()
            self.put(key, value)
            return value
        finally:
            self.stats.offline_s += time.perf_counter() - t0

    def _lookup(self, key: str) -> Any:
        if key in self._memory:
            return self._memory[key]
        if self.root is None:
            return _MISS
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except Exception:  # absent or corrupt (any unpickling error):
            return _MISS   # rebuild and overwrite
        self._memory[key] = value
        return value

    def snapshot(self) -> Tuple[int, int, float]:
        """(hits, misses, offline_s) — for computing per-task deltas."""
        return self.stats.hits, self.stats.misses, self.stats.offline_s


def _unfold(value: Any) -> Any:
    """Reduce a config value to JSON-stable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__dataclass__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = _unfold(getattr(value, f.name))
        return out
    if isinstance(value, (list, tuple)):
        return [_unfold(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _unfold(v) for k, v in sorted(value.items())}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _sha256_json(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
