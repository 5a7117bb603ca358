"""Versioned speculation dictionaries and the epoch handshake.

SpecCFA-style compression only works when Prv and Vrf hold the *same*
dictionary; in a fleet whose dictionaries are re-mined from live
traffic that agreement has to be a protocol, not an assumption. This
module is the Vrf-side half of that protocol:

* :class:`DictionaryRegistry` — per device profile, a monotone
  sequence of :class:`DictEpoch` versions. Epoch 0 is always the empty
  dictionary (plain, uncompressed logs), so a device that never
  acknowledges anything keeps attesting exactly as before mining
  existed. Every published epoch is named by its number *and* the
  content digest of its canonical serialization, and old epochs stay
  resolvable forever — an evidence record naming ``(profile, epoch)``
  can always be re-expanded.

* :func:`spec_challenge` — the cryptographic pin. A session compressed
  under epoch ``e > 0`` answers ``H(nonce || epoch || digest)`` rather
  than the bare nonce, so its reports authenticate **only** against
  the exact dictionary version both sides agreed on: a chain
  compressed under any other epoch fails the challenge check at
  ingest, before any expansion is attempted — mismatched dictionaries
  can never be silently expanded into garbage replay.

* :func:`dack_mac` — the MAC a device puts on its ``DACK`` frame
  (under its attestation key), so a network adversary cannot re-pin a
  device to an epoch it does not hold.

With ``store_dir`` set the registry persists each epoch payload as one
file (atomic publish, like every other store in this repo) and reloads
the full epoch history on construction, so dictionary versions survive
Vrf restarts alongside the evidence log.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cfa.fleet.verify import DeviceProfile
from repro.cfa.speccfa import (
    EMPTY_DICTIONARY_DIGEST,
    PackedExpander,
    SubPathDict,
    dictionary_digest,
    pack_dictionary,
    unpack_dictionary,
)

#: nonce length of :meth:`repro.cfa.protocol.Challenge.derive`
_NONCE_LEN = 16


@dataclass(frozen=True)
class DictEpoch:
    """One immutable dictionary version for one device profile."""

    profile: DeviceProfile
    epoch: int
    digest: bytes
    payload: bytes

    @cached_property
    def dictionary(self) -> SubPathDict:
        """The parsed payload: parsed once per epoch, then shared
        read-only by every session pinned to it."""
        return unpack_dictionary(self.payload)

    @cached_property
    def expander(self) -> PackedExpander:
        """Expands packed record spans under this epoch (what the
        replay-cache key hashes), built once per epoch."""
        return PackedExpander(self.dictionary)

    @property
    def is_empty(self) -> bool:
        return self.epoch == 0


def spec_challenge(nonce: bytes, epoch: int, digest: bytes) -> bytes:
    """The challenge a session pinned to ``(epoch, digest)`` answers.

    Epoch 0 (no speculation) answers the bare nonce — byte-compatible
    with every pre-speculation device. Any later epoch folds the epoch
    number and the dictionary content digest into the challenge, so
    the report MACs (which cover the challenge field) bind the session
    to exactly one dictionary version.
    """
    if epoch == 0:
        return nonce
    return hashlib.sha256(
        b"spec-epoch|" + nonce + struct.pack("<I", epoch) + digest
    ).digest()[:_NONCE_LEN]


def dack_mac(key: bytes, device_id: str, epoch: int,
             digest: bytes) -> bytes:
    """The MAC a device signs its dictionary acknowledgement with."""
    return hmac.new(
        key,
        b"dict-ack|" + device_id.encode() + struct.pack("<I", epoch)
        + digest,
        hashlib.sha256).digest()


def _profile_key(profile: DeviceProfile) -> str:
    return f"{profile.workload}__{profile.method}"


class DictionaryRegistry:
    """Monotone, content-addressed dictionary versions per profile."""

    def __init__(self, store_dir: Optional[Union[str, os.PathLike]] = None):
        self._lock = threading.Lock()
        #: profile -> [DictEpoch for epoch 1..N] (epoch 0 is implicit)
        self._epochs: Dict[DeviceProfile, List[DictEpoch]] = {}
        #: digest -> DictEpoch, for resolving ACKs
        self._by_digest: Dict[bytes, DictEpoch] = {}
        #: profile -> its epoch 0, built once like every other epoch
        self._empty: Dict[DeviceProfile, DictEpoch] = {}
        self.store_dir = Path(store_dir) if store_dir is not None else None
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            self._load()

    # -- persistence ----------------------------------------------------------

    def _epoch_path(self, profile: DeviceProfile, epoch: int) -> Path:
        return self.store_dir / f"{_profile_key(profile)}__{epoch:06d}.dict"

    def _load(self) -> None:
        for path in sorted(self.store_dir.glob("*.dict")):
            workload, method, epoch_str = path.stem.rsplit("__", 2)
            profile = DeviceProfile(workload, method)
            payload = path.read_bytes()
            unpack_dictionary(payload)  # strict: refuse corrupt epochs
            entry = DictEpoch(
                profile=profile, epoch=int(epoch_str),
                digest=hashlib.sha256(payload).digest(), payload=payload)
            chain = self._epochs.setdefault(profile, [])
            if entry.epoch != len(chain) + 1:
                raise ValueError(
                    f"dictionary store {self.store_dir} has a gap: "
                    f"{path.name} is epoch {entry.epoch}, expected "
                    f"{len(chain) + 1}")
            chain.append(entry)
            self._by_digest[entry.digest] = entry

    def _persist(self, entry: DictEpoch) -> None:
        if self.store_dir is None:
            return
        path = self._epoch_path(entry.profile, entry.epoch)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(entry.payload)
        os.replace(tmp, path)

    # -- the registry surface -------------------------------------------------

    def publish(self, profile: DeviceProfile,
                dictionary: SubPathDict) -> DictEpoch:
        """Version a mined dictionary under the next epoch number.

        Publishing the byte-identical dictionary again returns the
        existing epoch instead of burning a new number, so repeated
        mining over unchanged traffic is idempotent.
        """
        if not dictionary:
            return self.get(profile, 0)
        payload = pack_dictionary(dictionary)
        digest = hashlib.sha256(payload).digest()
        with self._lock:
            chain = self._epochs.setdefault(profile, [])
            if chain and chain[-1].digest == digest:
                return chain[-1]
            entry = DictEpoch(profile=profile, epoch=len(chain) + 1,
                              digest=digest, payload=payload)
            self._persist(entry)
            chain.append(entry)
            self._by_digest[digest] = entry
            return entry

    def get(self, profile: DeviceProfile, epoch: int) -> DictEpoch:
        """Resolve ``(profile, epoch)``; epoch 0 always resolves."""
        with self._lock:
            if epoch == 0:
                entry = self._empty.get(profile)
                if entry is None:
                    entry = self._empty[profile] = DictEpoch(
                        profile=profile, epoch=0,
                        digest=EMPTY_DICTIONARY_DIGEST,
                        payload=pack_dictionary({}))
                return entry
            chain = self._epochs.get(profile, [])
            if not 1 <= epoch <= len(chain):
                raise KeyError(
                    f"profile {profile} has no dictionary epoch {epoch}")
            return chain[epoch - 1]

    def latest(self, profile: DeviceProfile) -> DictEpoch:
        with self._lock:
            chain = self._epochs.get(profile, [])
            if chain:
                return chain[-1]
        return self.get(profile, 0)

    def latest_epoch(self, profile: DeviceProfile) -> int:
        with self._lock:
            return len(self._epochs.get(profile, []))

    def find(self, digest: bytes) -> Optional[DictEpoch]:
        """Resolve a content digest back to its epoch (ACK ingest)."""
        with self._lock:
            return self._by_digest.get(digest)

    def epochs_of(self, profile: DeviceProfile) -> List[DictEpoch]:
        """Every published epoch for a profile (excluding epoch 0)."""
        with self._lock:
            return list(self._epochs.get(profile, []))

    def bindings(self, profile: DeviceProfile) -> List[Tuple[int, bytes]]:
        """``(epoch, digest)`` pairs for stale-epoch diagnosis."""
        with self._lock:
            return [(e.epoch, e.digest)
                    for e in self._epochs.get(profile, [])]


def verify_dack(registry: DictionaryRegistry, profile: DeviceProfile,
                key: bytes, device_id: str, epoch: int, digest: bytes,
                mac: bytes) -> Optional[DictEpoch]:
    """Validate one decoded ``DACK`` frame against the registry.

    Returns the acknowledged epoch iff ``(epoch, digest)`` names a
    published dictionary *of the device's own profile* and the MAC
    verifies under the device's key; ``None`` otherwise (the caller
    counts and drops it).
    """
    try:
        entry = registry.get(profile, epoch)
    except KeyError:
        return None
    if entry.digest != digest or entry.epoch != epoch:
        return None
    if not hmac.compare_digest(mac, dack_mac(key, device_id, epoch,
                                             digest)):
        return None
    return entry
