"""Root-of-Trust cryptography: measurement hashing and report MACs."""

from repro.crypto.hashing import hash_bytes, measure_image
from repro.crypto.mac import report_head, report_mac

__all__ = ["measure_image", "hash_bytes", "report_head", "report_mac"]
