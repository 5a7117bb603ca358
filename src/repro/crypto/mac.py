"""Authenticated report MACs (symmetric HMAC-SHA256 setting)."""

from __future__ import annotations

import hmac
from typing import Iterable


def _fold(fields: Iterable[bytes]) -> bytes:
    out = []
    for field in fields:
        out.append(len(field).to_bytes(4, "little"))
        out.append(field)
    return b"".join(out)


def mac_report(key: bytes, *fields: bytes) -> bytes:
    """HMAC over length-prefixed report fields (prevents splicing)."""
    return hmac.digest(key, _fold(fields), "sha256")


def verify_mac(key: bytes, tag: bytes, *fields: bytes) -> bool:
    """Constant-time verification of a report MAC."""
    return hmac.compare_digest(tag, mac_report(key, *fields))
