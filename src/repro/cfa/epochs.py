"""Device profiles and the versioned, per-profile epoch registry.

Speculation dictionaries (SPD1,
:class:`~repro.cfa.fleet.dictver.DictionaryRegistry`) and firmware
policy documents (FWP1, :class:`~repro.cfa.policy.registry.PolicyRegistry`)
are versioned per device profile by one idiom, :class:`EpochRegistry`:
monotone and gapless epochs; epoch 0 always resolves to the empty
content; every epoch named by its number and the sha256 of its
canonical payload; idempotent publish; and, with ``store_dir`` set,
one immutable file ``{workload}__{method}__{epoch:06d}{suffix}`` per
epoch, written atomically and reloaded strictly. This module imports
nothing from the fleet or policy packages, so both can depend on it
without depending on each other.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, Generic, List, Optional, Tuple, Type,
                    TypeVar, Union)

from repro.atomic import atomic_write

_MAC_LEN = 32


@dataclass(frozen=True)
class DeviceProfile:
    """What Vrf knows about a device model: which attested binary it
    runs and under which CFA method — enough to rebuild the verifier."""

    workload: str
    method: str = "rap-track"

    def __str__(self) -> str:
        return f"{self.workload}/{self.method}"


#: an epoch entry: any object with ``profile``, ``epoch``, ``digest``
#: and ``payload`` attributes
E = TypeVar("E")


class EpochRegistry(Generic[E]):
    """Monotone, content-addressed versions of one kind of document.

    A subclass names its ``kind``, file ``suffix``, ``error`` class and
    ``empty`` (epoch-0) content, and supplies :meth:`_pack`,
    :meth:`_unpack` and :meth:`_entry`. With a ``key``, every payload
    is HMAC'd and persisted as ``payload || mac``.
    """

    kind = "epoch"
    suffix = ""
    error: Type[Exception] = ValueError
    #: the content epoch 0 packs
    empty: Any = None

    def __init__(self, store_dir: Optional[Union[str, os.PathLike]] = None,
                 key: Optional[bytes] = None) -> None:
        self.key = key
        self._lock = threading.Lock()
        #: profile -> [entry for epoch 1..N] (epoch 0 is implicit)
        self._epochs: Dict[DeviceProfile, List[E]] = {}
        #: digest -> entry, for resolving ACKs
        self._by_digest: Dict[bytes, E] = {}
        #: profile -> its epoch 0, built once like every other epoch
        self._zero: Dict[DeviceProfile, E] = {}
        self.store_dir = Path(store_dir) if store_dir is not None else None
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            self._load(self.store_dir)

    # -- what a subclass supplies --------------------------------------------

    def _pack(self, profile: DeviceProfile, epoch: int,
              content: Any) -> bytes:
        """The canonical payload of ``content`` as ``(profile, epoch)``."""
        raise NotImplementedError

    def _unpack(self, payload: bytes) -> Any:
        """Strictly parse a payload back into its content."""
        raise NotImplementedError

    def _entry(self, profile: DeviceProfile, epoch: int, content: Any,
               payload: bytes, digest: bytes, mac: bytes) -> E:
        """The entry for one packed epoch."""
        raise NotImplementedError

    # -- persistence ----------------------------------------------------------

    def _mac(self, payload: bytes) -> bytes:
        if self.key is None:
            return b""
        return hmac.digest(self.key, payload, "sha256")

    def _make(self, profile: DeviceProfile, epoch: int,
              content: Any) -> E:
        payload = self._pack(profile, epoch, content)
        return self._entry(profile, epoch, content, payload,
                           hashlib.sha256(payload).digest(),
                           self._mac(payload))

    def _parse_name(self, path: Path) -> Tuple[str, str, int, Path]:
        parts = path.name[:-len(self.suffix)].rsplit("__", 2)
        if len(parts) != 3 or not parts[2].isdigit():
            raise self.error(
                f"{self.kind} file {path.name} is not named "
                f"workload__method__NNNNNN{self.suffix}")
        return parts[0], parts[1], int(parts[2]), path

    def _load(self, store_dir: Path) -> None:
        for workload, method, epoch, path in sorted(
                map(self._parse_name, store_dir.glob(f"*{self.suffix}"))):
            profile = DeviceProfile(workload, method)
            payload = path.read_bytes()
            if self.key is not None:
                if len(payload) < _MAC_LEN:
                    raise self.error(
                        f"{self.kind} file {path.name} too short")
                payload, mac = payload[:-_MAC_LEN], payload[-_MAC_LEN:]
                if not hmac.compare_digest(mac, self._mac(payload)):
                    raise self.error(
                        f"{self.kind} file {path.name} failed MAC "
                        f"verification")
            # the payload must be the canonical packing of this name's
            # (profile, epoch): a valid file copied under another name
            # is refused, not loaded as the epoch it claims to be
            entry: Any = self._make(profile, epoch, self._unpack(payload))
            if entry.payload != payload:
                raise self.error(
                    f"{self.kind} file {path.name} does not hold "
                    f"{profile} epoch {epoch}")
            chain = self._epochs.setdefault(profile, [])
            if epoch != len(chain) + 1:
                raise self.error(
                    f"{self.kind} store {store_dir} has a gap: "
                    f"{path.name} is epoch {epoch}, expected "
                    f"{len(chain) + 1}")
            chain.append(entry)
            self._by_digest[entry.digest] = entry

    def _persist(self, entry: Any) -> None:
        if self.store_dir is None:
            return
        profile = entry.profile
        path = self.store_dir / (f"{profile.workload}__{profile.method}__"
                                 f"{entry.epoch:06d}{self.suffix}")
        atomic_write(path, entry.payload + self._mac(entry.payload))

    # -- the registry surface -------------------------------------------------

    def _publish(self, profile: DeviceProfile, content: Any) -> E:
        """Version ``content`` under the next epoch, unless it packs to
        the latest payload (then the latest epoch is returned)."""
        with self._lock:
            chain = self._epochs.setdefault(profile, [])
            if chain:
                latest: Any = chain[-1]
                if self._pack(profile, latest.epoch, content) == \
                        latest.payload:
                    return chain[-1]
            entry: Any = self._make(profile, len(chain) + 1, content)
            self._persist(entry)
            chain.append(entry)
            self._by_digest[entry.digest] = entry
            return entry

    def get(self, profile: DeviceProfile, epoch: int) -> E:
        """Resolve ``(profile, epoch)``; epoch 0 always resolves."""
        with self._lock:
            if epoch == 0:
                entry = self._zero.get(profile)
                if entry is None:
                    entry = self._zero[profile] = self._make(
                        profile, 0, self.empty)
                return entry
            chain = self._epochs.get(profile, [])
            if not 1 <= epoch <= len(chain):
                raise KeyError(
                    f"profile {profile} has no {self.kind} epoch {epoch}")
            return chain[epoch - 1]

    def latest(self, profile: DeviceProfile) -> E:
        with self._lock:
            chain = self._epochs.get(profile, [])
            if chain:
                return chain[-1]
        return self.get(profile, 0)

    def latest_epoch(self, profile: DeviceProfile) -> int:
        with self._lock:
            return len(self._epochs.get(profile, []))

    def find(self, digest: bytes) -> Optional[E]:
        """Resolve a content digest back to its epoch."""
        with self._lock:
            return self._by_digest.get(digest)
