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
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

from repro.cfa.epochs import DeviceProfile, EpochRegistry
from repro.cfa.speccfa import (
    PackedExpander,
    SubPathDict,
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
        return PackedExpander(self.dictionary, self.profile.method)

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
    return hmac.digest(
        key,
        b"dict-ack|" + device_id.encode() + struct.pack("<I", epoch)
        + digest,
        "sha256")


class DictionaryRegistry(EpochRegistry[DictEpoch]):
    """Monotone, content-addressed dictionary versions per profile
    (unsigned SPD1 payloads, one ``.dict`` file per epoch)."""

    kind = "dictionary"
    suffix = ".dict"
    empty: SubPathDict = {}

    def __init__(self, store_dir: Optional[Union[str, os.PathLike]] = None):
        super().__init__(store_dir)

    def _pack(self, profile: DeviceProfile, epoch: int,
              content: SubPathDict) -> bytes:
        return pack_dictionary(content)

    def _unpack(self, payload: bytes) -> SubPathDict:
        return unpack_dictionary(payload)

    def _entry(self, profile: DeviceProfile, epoch: int,
               content: SubPathDict, payload: bytes, digest: bytes,
               mac: bytes) -> DictEpoch:
        # the parse stays lazy (DictEpoch.dictionary): once per epoch,
        # by whichever session first needs it
        return DictEpoch(profile=profile, epoch=epoch, digest=digest,
                         payload=payload)

    def publish(self, profile: DeviceProfile,
                dictionary: SubPathDict) -> DictEpoch:
        """Version a mined dictionary under the next epoch number.

        Publishing the byte-identical dictionary again returns the
        existing epoch instead of burning a new number, so repeated
        mining over unchanged traffic is idempotent.
        """
        if not dictionary:
            return self.get(profile, 0)
        return self._publish(profile, dictionary)

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
