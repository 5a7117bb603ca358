"""The guaranteed-healing protocol (ACFA-style remediation).

A quarantined device is not abandoned: the Vrf drives it through a
re-provision-and-prove round trip and only readmits it on evidence.
The sequence (every step of which lands in the evidence chain)::

    Vrf                                         Prv (quarantined)
     │  PLCY notice: you are QUARANTINED             │
     │──────────────────────────────────────────────>│
     │  HEAL order: pinned measurement M,            │
     │  attempt a, fresh nonce n   [MAC'd, K_dev]    │
     │──────────────────────────────────────────────>│
     │                              verify MAC; re-provision firmware
     │                              to M; attest from reset against n
     │   report chain answering n (healing session)  │
     │<──────────────────────────────────────────────│
     │  clean chain + acceptable measurement         │
     │    -> REJOINED (admitted again)               │
     │  anything else -> attempt burned; retry       │
     │    until max_heal_attempts, then REVOKED      │

Both frame types are MAC'd under the *device's* attestation key: a
network adversary can neither fake a quarantine notice (denial of
service) nor a healing order (forced re-provision), and a device
ignores orders it cannot authenticate. The challenge nonce inside the
HEAL order is the healing session's real nonce — the post-heal chain
is replay-protected exactly like any other session.

This module is pure protocol (MACs + frame build/verify); the state
transitions live in :mod:`repro.cfa.policy.engine` and the transport
loop on the fleet router (``ShardedFleetService.heal_pushes`` /
``policy_pushes``).
"""

from __future__ import annotations

import hmac
import struct
from typing import Optional, Tuple

from repro.cfa.policy.engine import state_name
from repro.cfa.wire import (
    WireError,
    decode_heal_frame,
    decode_policy_frame,
    encode_heal_frame,
    encode_policy_frame,
)
from repro.codec import lp


def heal_mac(key: bytes, device_id: str, attempt: int,
             policy_epoch: int, measurement: bytes,
             nonce: bytes) -> bytes:
    """The MAC a Vrf puts on a healing order (device attestation key)."""
    return hmac.digest(
        key,
        b"heal-order|" + device_id.encode()
        + struct.pack("<II", attempt, policy_epoch)
        + lp(measurement)
        + nonce,
        "sha256")


def policy_notice_mac(key: bytes, device_id: str, state: str,
                      reason: str, policy_epoch: int) -> bytes:
    """The MAC a Vrf puts on a lifecycle notice (device key)."""
    return hmac.digest(
        key,
        b"policy-notice|" + device_id.encode() + b"|" + state.encode()
        + b"|" + reason.encode() + struct.pack("<I", policy_epoch),
        "sha256")


def build_heal_frame(key: bytes, device_id: str, attempt: int,
                     policy_epoch: int, measurement: bytes,
                     nonce: bytes) -> bytes:
    """One wire-encoded, MAC'd healing order."""
    return encode_heal_frame(
        device_id, attempt, policy_epoch, measurement, nonce,
        heal_mac(key, device_id, attempt, policy_epoch, measurement,
                 nonce))


def verify_heal_frame(key: bytes, device_id: str,
                      data: bytes) -> Optional[Tuple[int, int, bytes,
                                                     bytes]]:
    """Device-side validation of a healing order.

    Returns ``(attempt, policy_epoch, measurement, nonce)`` iff the
    frame decodes, names this device, and its MAC verifies under the
    device's key; ``None`` otherwise (the device ignores it).
    """
    try:
        framed_id, attempt, policy_epoch, measurement, nonce, mac = \
            decode_heal_frame(data)
    except WireError:
        return None
    if framed_id != device_id:
        return None
    if not hmac.compare_digest(
            mac, heal_mac(key, device_id, attempt, policy_epoch,
                          measurement, nonce)):
        return None
    return attempt, policy_epoch, measurement, nonce


def build_policy_frame(key: bytes, device_id: str, state_code: int,
                       reason: str, policy_epoch: int) -> bytes:
    """One wire-encoded, MAC'd lifecycle notice."""
    state = state_name(state_code)
    return encode_policy_frame(
        device_id, state, reason, policy_epoch,
        policy_notice_mac(key, device_id, state, reason, policy_epoch))


def verify_policy_frame(key: bytes, device_id: str,
                        data: bytes) -> Optional[Tuple[str, str, int]]:
    """Device-side validation of a lifecycle notice.

    Returns ``(state, reason, policy_epoch)`` iff the frame decodes,
    names this device, and its MAC verifies; ``None`` otherwise.
    """
    try:
        framed_id, state, reason, policy_epoch, mac = \
            decode_policy_frame(data)
    except WireError:
        return None
    if framed_id != device_id:
        return None
    if not hmac.compare_digest(
            mac, policy_notice_mac(key, device_id, state, reason,
                                   policy_epoch)):
        return None
    return state, reason, policy_epoch
