"""The attestation report MAC (symmetric HMAC-SHA256 setting).

The MAC covers every field length-prefixed, so none can be spliced
into its neighbour: ``head lp(u32 seq) lp(u8 final) lp(records)``,
where ``head`` (:func:`report_head`) also opens a wire report's body,
so the Vrf authenticates a report straight from its bytes.
"""

from __future__ import annotations

import hmac
import struct

from repro.codec import lp

#: ``lp(seq4) lp(final1)`` and the records' length prefix
_TAIL = struct.Struct("<IIIBI")


def report_head(device_id: bytes, method: str, challenge: bytes,
                h_mem: bytes) -> bytes:
    """``lp(device_id) lp(method) lp(challenge) lp(h_mem)``."""
    return b"".join((lp(device_id), lp(method.encode()), lp(challenge),
                     lp(h_mem)))


def report_mac(key: bytes, head: bytes, seq: int, final: bool,
               span: bytes) -> bytes:
    """HMAC of one report: ``head`` (:func:`report_head`), its sequence
    number, its final flag and its packed records ``span``."""
    tail = _TAIL.pack(4, seq, 1, final, len(span))
    return hmac.digest(key, b"".join((head, tail, span)), "sha256")
