"""Evidence reopen: per-stage cost and a differential against the oracle.

A restarted Vrf rebuilds its verdicts, nonce rounds and every device's
lifecycle state from its evidence logs before it answers again. This
script writes a mixed session + policy log through the real store and
policy engine of a 2-shard ``ShardedFleetService`` (honest, flaky,
expiring, hostile and rogue-firmware devices, with quarantine, healing,
rejoin and revocation), then reopens it with ``resume=True`` and
requires that:

* the reopen recovers the verdicts (contents and order), policy states
  and chain heads the writer left;
* a reopen whose bodies are decoded by the per-field reference decoder
  (``tests/evidence_oracle.py``) recovers the same state and ``==``
  records, field for field.

It reports µs per record for the stages of a reopen: framing + HMAC +
chain checks (``_parse``, which includes decode), the body decode alone
(production and oracle, interleaved in one process over several
passes), the HMAC alone, and ``FleetService.restore`` (verdicts,
rounds and the policy fold).

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py            # full
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke    # CI gate

Full mode writes the table to ``benchmarks/results/recovery.txt``.
Smoke mode (the CI gate) runs fewer passes and exits 1 on any
divergence, or if the production decode is less than ``MIN_SPEEDUP``
times faster than the oracle.

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import pathlib
import statistics
import struct
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

RESULTS = pathlib.Path(__file__).parent / "results" / "recovery.txt"
#: the reference decoder lives with the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tests"))

from evidence_oracle import decode_body as oracle_decode  # noqa: E402
from repro.cfa.fleet import ShardedFleetService  # noqa: E402
from repro.cfa.fleet import store as store_module  # noqa: E402
from repro.cfa.fleet.service import FleetService  # noqa: E402
from repro.cfa.fleet.store import (  # noqa: E402
    _decode_body,
    _parse,
    _record_mac,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict  # noqa: E402
from repro.cfa.policy.engine import PolicyEngine  # noqa: E402
from repro.cfa.policy.registry import PolicyRegistry, policy_key  # noqa: E402

#: least production/oracle decode-time ratio ``--smoke`` accepts
MIN_SPEEDUP = 1.5
SEED = b"fleet-vrf"
SHARDS = 2
DEVICES = 400
ROUNDS = 14
WORKLOADS = ("gps", "fibcall", "temperature", "geiger", "ultrasonic",
             "crc32")
METHODS = ("rap-track", "traces", "naive-mtb")
#: the profiles whose firmware is pinned by a published policy
PINNED = (DeviceProfile("gps", "rap-track"),
          DeviceProfile("geiger", "traces"))


def _h(*parts: object) -> bytes:
    return hashlib.sha256("|".join(map(str, parts)).encode()).digest()


def profile_of(index: int) -> DeviceProfile:
    return DeviceProfile(WORKLOADS[index % len(WORKLOADS)],
                         METHODS[index // len(WORKLOADS) % len(METHODS)])


def good_measurement(profile: DeviceProfile) -> bytes:
    return _h("firmware", profile)


def session_verdict(device: str, index: int, round_no: int,
                    healing: bool) -> Tuple[SessionVerdict, dict]:
    """One settled session of device ``index`` in ``round_no``, and the
    evidence annotations ``append`` takes."""
    profile = profile_of(index)
    kind = index % 10
    measurement = good_measurement(profile)
    if kind == 9 and profile in PINNED and not healing:
        measurement = _h("rogue firmware", device)
    # half the fleet re-runs shared executions, half runs its own
    execution = (profile, round_no % 3) if index % 2 else (device, round_no)
    accepted = {
        0: round_no != 2 or healing,        # one attack, then healed
        1: round_no % 3 != 1,               # flaky transport
        2: round_no % 5 != 4,               # idles out now and then
        3: healing or round_no != 6,        # fails its heals: revoked
    }.get(kind, True)
    if kind == 3 and healing:
        accepted = False
    expired = kind == 2 and not accepted
    violations: Tuple[Tuple[str, int, str], ...] = ()
    reason = ""
    if not accepted:
        if kind in (0, 3):
            violations = (("ret", 0x1C4 + index, "shadow stack mismatch"),
                          ("ijump", 0xFFFFFFFF, ""))
            reason = "control-flow violation"
        elif expired:
            reason = "idle timeout after 2 attempt(s)"
        else:
            reason = f"MAC mismatch on report {round_no % 4}"
    early = not accepted and kind == 1 and round_no % 2
    verdict = SessionVerdict(
        device_id=device, profile=profile, accepted=accepted,
        authenticated=accepted or kind in (0, 3),
        lossless=accepted, violations=violations, reason=reason,
        reports=0 if early else 1 + round_no % 4,
        records=0 if early else 17 + index % 50,
        path_len=0 if early else 41 + index % 300,
        path_digest="" if early else _h("path", *execution).hex(),
        records_digest="" if early else _h("records", *execution).hex())
    annotations = dict(
        chain=_h("chain", device, round_no, healing),
        challenge=_h("nonce", device, round_no, healing)[:16],
        expired=expired, epoch=1 if round_no >= 5 else 0,
        measurement=b"" if early else measurement, healing=healing)
    return verdict, annotations


def write_log(store_dir: pathlib.Path, devices: int,
              rounds: int) -> tuple:
    """Drive ``rounds`` sessions per device through the stores and the
    policy engine of a live service, as its settle path does; returns
    the ``(verdicts, policy states, heads)`` a reopen must recover."""
    service = ShardedFleetService(shards=SHARDS, store_dir=store_dir,
                                  seed=SEED, fsync=False, policy=True)
    engine = service.policy
    for profile in PINNED:
        service.policy_registry.publish(profile,
                                        pinned=good_measurement(profile))
    verdicts: Dict[str, SessionVerdict] = {}

    def settle(device: str, index: int, round_no: int,
               healing: bool) -> None:
        store = service.stores[service.shard_of(device)]
        verdict, annotations = session_verdict(device, index, round_no,
                                               healing)
        record = store.append(verdict, **annotations)
        verdicts[device] = verdict
        for decision in engine.observe(record):
            store.append_decision(decision)

    for round_no in range(rounds):
        for index in range(devices):
            device = f"prv-{index:05d}"
            if engine.admits(device):
                settle(device, index, round_no, healing=False)
            elif engine.state_of(device) != 5:  # not REVOKED
                decision = engine.begin_heal(device)
                if decision is not None:
                    service.stores[service.shard_of(device)] \
                        .append_decision(decision)
                    engine.apply(decision)
                    settle(device, index, round_no, healing=True)
    expected = (verdicts, service.policy_states(), service.evidence_heads())
    service.close()
    return expected


def reopen(store_dir: pathlib.Path) -> tuple:
    """``resume=True``: (verdicts, states, heads, records per shard)."""
    service = ShardedFleetService(shards=SHARDS, store_dir=store_dir,
                                  seed=SEED, fsync=False, resume=True,
                                  policy=True)
    state = (service.verdicts, service.policy_states(),
             service.evidence_heads(),
             [list(store.recovered) for store in service.stores])
    service.close()
    return state


def _oracle_decode(body, prev_digest, mac, version=3, memo=None):
    return oracle_decode(body, prev_digest, mac, version)


def check(store_dir: pathlib.Path, expected: tuple
          ) -> Tuple[List[str], list]:
    """Divergences from the writer and from the oracle-decoded reopen,
    and every recovered record."""
    failures: List[str] = []
    verdicts, states, heads, records = reopen(store_dir)
    with mock.patch.object(store_module, "_decode_body", _oracle_decode):
        o_verdicts, o_states, o_heads, o_records = reopen(store_dir)
    if (verdicts, states, heads) != expected:
        failures.append("reopen recovered different verdicts, policy "
                        "states or heads than the writer left")
    if list(verdicts.items()) != list(o_verdicts.items()):
        failures.append("verdicts differ from the oracle-decoded reopen")
    if (states, heads) != (o_states, o_heads):
        failures.append("states or heads differ from the oracle-decoded "
                        "reopen")
    for shard, (got, want) in enumerate(zip(records, o_records)):
        if len(got) != len(want):
            failures.append(f"shard {shard}: {len(got)} records, oracle "
                            f"{len(want)}")
        for new, old in zip(got, want):
            if type(new) is not type(old) or new != old:
                failures.append(f"shard {shard}: record {new.device_id} "
                                f"#{new.seq} differs from the oracle's")
                break
    return failures, [record for log in records for record in log]


def frames(data: bytes) -> List[Tuple[bytes, bytes, bytes]]:
    """``(body, prev_digest, mac)`` of every frame in a log image."""
    out = []
    pos = 5
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        frame = data[pos + 4:pos + 4 + length]
        out.append((frame[64:], frame[:32], frame[32:64]))
        pos += 4 + length
    return out


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(store_dir: pathlib.Path, passes: int) -> Dict[str, float]:
    """Median seconds per pass of each reopen stage, over all shards."""
    key = store_module.audit_key(SEED)
    images = [path.read_bytes()
              for path in sorted(store_dir.glob("evidence-*.log"))]
    logs = [(image[4], frames(image)) for image in images]
    parsed = [_parse(image, key)[0] for image in images]

    def decode_all(decode) -> None:
        for version, items in logs:
            memo: Dict[bytes, str] = {}
            for body, prev, mac in items:
                decode(body, prev, mac, version, memo)

    def hmac_all() -> None:
        for _, items in logs:
            for body, prev, mac in items:
                _record_mac(key, prev, body)

    def parse_all() -> None:
        for image in images:
            _parse(image, key)

    registry = PolicyRegistry(policy_key(SEED), store_dir / "policy")

    def restore_all() -> None:
        engine = PolicyEngine(registry=registry)
        for records in parsed:
            FleetService(seed=SEED, policy=engine).restore(records)

    stages: Dict[str, Callable[[], object]] = {
        "decode": lambda: decode_all(_decode_body),
        "oracle": lambda: decode_all(_oracle_decode),
        "hmac": hmac_all,
        "parse": parse_all,
        "restore": restore_all,
        "reopen": lambda: reopen(store_dir),
    }
    samples: Dict[str, List[float]] = {name: [] for name in stages}
    # the gated pair runs back to back, each side first in half the
    # passes, so no other stage sits between the two sides of a pass
    for index in range(passes):
        for name in ("decode", "oracle")[::-1 if index % 2 else 1]:
            samples[name].append(_timed(stages[name]))
    for _ in range(passes):
        for name in ("hmac", "parse", "restore", "reopen"):
            samples[name].append(_timed(stages[name]))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def format_table(counts: Dict[str, int], costs: Dict[str, float],
                 passes: int) -> str:
    records = sum(counts.values())
    per = {name: 1e6 * seconds / records for name, seconds in costs.items()}
    speedup = costs["oracle"] / costs["decode"]
    lines = [
        "Evidence reopen — µs per record "
        f"(median of {passes} passes, one process)",
        f"log: {records} records over {SHARDS} shards "
        f"({counts['session']} session, {counts['policy']} policy), "
        f"{DEVICES} devices",
        "",
        f"{'stage':46s} {'µs/record':>10s} {'total ms':>9s}",
        "-" * 67,
    ]
    rows = [
        ("reopen (ShardedFleetService, resume=True)", "reopen"),
        ("  _parse: framing, HMAC, chain, decode", "parse"),
        ("    body decode (production Layout)", "decode"),
        ("    body decode (oracle, per-field Reader)", "oracle"),
        ("    HMAC-SHA256 per frame", "hmac"),
        ("  FleetService.restore: verdicts, policy fold", "restore"),
    ]
    for label, name in rows:
        lines.append(f"{label:46s} {per[name]:10.2f} "
                     f"{1e3 * costs[name]:9.1f}")
    lines += ["-" * 67,
              f"decode speedup over the oracle: {speedup:.2f}x "
              f"(gate {MIN_SPEEDUP:g}x)"]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer passes; exit 1 on divergence or a "
                             f"decode speedup under {MIN_SPEEDUP:g}x")
    args = parser.parse_args(argv)
    passes = 5 if args.smoke else 11
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = pathlib.Path(tmp) / "store"
        expected = write_log(store_dir, DEVICES, ROUNDS)
        failures, records = check(store_dir, expected)
        counts = {"session": sum(not r.is_policy for r in records),
                  "policy": sum(r.is_policy for r in records)}
        costs = measure(store_dir, passes)
    text = format_table(counts, costs, passes)
    speedup = costs["oracle"] / costs["decode"]
    if args.smoke and speedup < MIN_SPEEDUP:
        failures.append(f"decode speedup {speedup:.2f}x < "
                        f"{MIN_SPEEDUP:.2f}x")
    print(text)
    if not args.smoke and not failures:
        RESULTS.write_text(text + "\n")
        print(f"\nwrote {RESULTS}", file=sys.stderr)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
