"""Rebuild the policy control plane from the evidence store alone.

The control plane keeps **no private database**: every lifecycle
decision is a record in a device's evidence hash chain, every policy
document is a signed file in the policy store, and every dictionary
epoch a content-addressed file in the dictionary store. This module is
the proof: :func:`reconstruct_control_plane` starts from nothing but a
``store_dir`` and the service seed, strictly audits every evidence
log, and folds the records back into a complete
:class:`~repro.cfa.policy.engine.PolicyEngine` plus the fleet's
verdict map and per-device rounds — the same state a resumed service
carries, derived offline by an auditor who never ran the service.

:func:`write_recovery_manifest` drops a ``RECOVERY.md`` beside the
logs describing exactly that procedure (trust boundaries, integrity
checks, authoritative reconstruction order), so an operator staring at
a dead Vrf's disk knows what is authoritative and how to rebuild from
it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.atomic import atomic_write
from repro.cfa.fleet.store import (
    audit_key,
    evidence_logs,
    verify_evidence_trail,
)
from repro.cfa.policy.engine import PolicyEngine, STATE_NAMES
from repro.cfa.policy.registry import PolicyRegistry, policy_key

#: the manifest is versioned so auditors can detect procedure drift
MANIFEST_VERSION = 1

_MANIFEST = """\
# RECOVERY — fleet Vrf control-plane reconstruction (manifest v{version})

Everything under this directory is rebuildable state. Nothing here is
secret; the secrets are the service seed (from which the evidence
audit key and the policy signing key derive) and the per-device
attestation keys, which live outside this store.

## What is authoritative

| path              | contents                                | trust |
|-------------------|-----------------------------------------|-------|
| `evidence-*.log`  | per-shard hash-chained evidence logs    | HMAC per record + per-device hash chain under the audit key |
| `policy/*.pol`    | signed firmware-policy epochs           | HMAC under the policy key; monotone, gapless epochs |
| `dicts/*.dict`    | speculation-dictionary epochs           | content-addressed (sha256 of payload) |

## Integrity verification (do this first)

1. Derive `K_audit = SHA256("evidence-audit|" || seed)` and
   `K_policy = SHA256("policy-sign|" || seed)`.
2. For every `evidence-*.log`: verify strictly (every frame MACs under
   `K_audit`; every device's `prev_digest`/`seq` chain is gapless from
   genesis; no torn or trailing bytes). `repro audit --json` does
   exactly this and exits non-zero on any failure.
3. For every `policy/*.pol`: verify the trailing 32-byte HMAC under
   `K_policy`; epochs per profile must be gapless from 1.
4. For every `dicts/*.dict`: the filename epoch must be gapless and
   the payload must parse as a canonical SPD1 dictionary.

A failure in step 2 anywhere but a single torn tail frame is tamper,
not crash damage — stop and investigate before trusting anything.

## Authoritative reconstruction order

1. **Verdicts + rounds** — replay each log's *session* records in file
   order: the latest record per device is its current verdict; the
   per-device session-record count is its nonce round (device-scoped
   nonce derivation resumes from it).
2. **Policy state** — fold each log's records in file order through
   the policy engine: session records re-run the scoring fold, policy
   records are the persisted transitions (each must match what the
   fold re-derives). A device's end state (HEALTHY/SUSPECT/
   QUARANTINED/HEALING/REJOINED/REVOKED), failure score, and healing
   attempts all fall out of the fold. If the file ends with a session
   record whose derived decisions are missing (the crash window), the
   resuming store re-appends them byte-identically.
3. **Registries** — reload `policy/` and `dicts/` (steps 3–4 above
   already verified them); the engine's firmware judgments and the
   session epoch pins resolve against these.
4. **Caches** — nothing to do: the replay cache lives in memory only
   and starts cold, and undelivered PLCY/HEAL notices are re-sent
   (idempotent).

`repro.cfa.policy.recovery.reconstruct_control_plane(store_dir, seed)`
executes steps 1–3 and returns the reconstructed snapshot.
"""


@dataclass
class ControlPlaneSnapshot:
    """Everything reconstructable from a store directory."""

    engine: PolicyEngine
    registry: PolicyRegistry
    #: device id -> latest SessionVerdict (from session records)
    verdicts: Dict[str, object] = field(default_factory=dict)
    #: device id -> completed sessions (the nonce round to resume at)
    rounds: Dict[str, int] = field(default_factory=dict)
    #: device id -> evidence chain head digest
    heads: Dict[str, bytes] = field(default_factory=dict)
    logs_verified: int = 0
    session_records: int = 0
    policy_records: int = 0

    def states(self) -> Dict[str, str]:
        """device id -> lifecycle state name."""
        return self.engine.state_names()

    def summary(self) -> str:
        by_state: Dict[str, int] = {}
        for name in self.states().values():
            by_state[name] = by_state.get(name, 0) + 1
        states = ", ".join(f"{count} {name}" for name, count
                           in sorted(by_state.items())) or "none tracked"
        return (f"{self.logs_verified} log(s) verified: "
                f"{self.session_records} session + "
                f"{self.policy_records} policy records over "
                f"{len(self.heads)} device(s); policy states: {states}")


def reconstruct_control_plane(
        store_dir: Union[str, os.PathLike],
        seed: bytes = b"fleet-vrf",
        suspect_threshold: int = 2,
        max_heal_attempts: int = 2) -> ControlPlaneSnapshot:
    """Rebuild the full control plane from a store directory alone.

    Runs the manifest's reconstruction order: strict audit of every
    ``evidence-*.log``, registry reload, then the policy fold. Raises
    (:class:`~repro.cfa.fleet.store.EvidenceError` /
    :class:`~repro.cfa.policy.registry.PolicyError` / ``ValueError``)
    if any integrity check fails — an auditor never silently patches.
    """
    store_dir = Path(store_dir)
    registry = PolicyRegistry(
        policy_key(seed),
        store_dir / "policy" if (store_dir / "policy").exists() else None)
    engine = PolicyEngine(registry=registry,
                          suspect_threshold=suspect_threshold,
                          max_heal_attempts=max_heal_attempts)
    snapshot = ControlPlaneSnapshot(engine=engine, registry=registry)
    key = audit_key(seed)
    for path in evidence_logs(store_dir):
        records = verify_evidence_trail(path, key)
        snapshot.logs_verified += 1
        for record in records:
            snapshot.heads[record.device_id] = record.digest
            if record.is_policy:
                snapshot.policy_records += 1
            else:
                snapshot.session_records += 1
                snapshot.verdicts[record.device_id] = record.to_verdict()
                snapshot.rounds[record.device_id] = snapshot.rounds.get(
                    record.device_id, 0) + 1
        # the fold is per-log: every device lives in exactly one shard
        # log, so folding logs independently is folding devices
        # independently (store=None: an auditor only reads)
        engine.restore(records, store=None)
    return snapshot


def write_recovery_manifest(
        store_dir: Union[str, os.PathLike]) -> Path:
    """Write (or refresh) ``RECOVERY.md`` beside the evidence logs."""
    path = Path(store_dir) / "RECOVERY.md"
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, _MANIFEST.format(version=MANIFEST_VERSION).encode())
    return path
