"""Fleet ingest of compressed sessions: per-stage cost and a differential.

Captures the compressed report chains a fleet sends once its devices
run on mined speculation dictionaries (one learning round, then the
DICT/DACK handshake), and pushes every captured session through the
four ingest stages the Vrf pays on a replay-cache hit:

* **decode** — wire bytes to a report per chunk (production: a
  :class:`ReportView`, records left packed);
* **mac** — the report MAC per report;
* **key** — the replay-cache key (SHA-256 of the expanded stream);
* **lookup** — the :class:`ReplayCache` probe.

Each stage is timed twice: through the production path
(:func:`read_report`, :meth:`ReportView.verify` over the report's
wire fields, :meth:`ReplayCache.key` over the session's packed log,
expanded as bytes from the received record spans by
:func:`~repro.cfa.fleet.verify.expand_session`)
and through the reference path it replaced (a per-record decoder,
:meth:`Report.verify` over the re-folded fields, then ``expand`` and a
hash over every re-packed record). Every session is also verified end
to end through :func:`verify_session_chain` on a cold and a warm cache
and checked against the stepping reference: authenticate, ``expand``,
the stepping replay (``tests/replay_oracle.py``), and the digest of
the re-packed expanded stream. Any difference in acceptance, violations,
replay length or ``records_digest`` is a hard failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_ingest.py            # full
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke    # CI gate

Full mode covers the fleet-shared firmware mix (fibcall, prime,
bitcount, dijkstra, gps, temperature, and the vulnerable image with
and without its ROP attack) and writes the table to
``benchmarks/results/ingest.txt``. Smoke mode (the CI gate) covers
gps, dijkstra and the attacked vulnerable image and also fails
(exit 1) if the production path is less than ``MIN_SPEEDUP`` faster
than the reference over all its sessions.

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

RESULTS = pathlib.Path(__file__).parent / "results" / "ingest.txt"
#: the stepping oracle lives with the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tests"))

#: (workload, attacked) rows: the fleet-shared firmware mix
FULL = [("fibcall", False), ("prime", False), ("bitcount", False),
        ("dijkstra", False), ("gps", False), ("temperature", False),
        ("vulnerable", False), ("vulnerable", True)]
SMOKE = [("gps", False), ("dijkstra", False), ("vulnerable", True)]
#: smoke-mode floor for reference/production time over all sessions
MIN_SPEEDUP = 2.0
#: stage names, in pipeline order
STAGES = ("decode", "mac", "key", "lookup")


@dataclass
class Captured:
    """One device's compressed session, as the Vrf receives it."""

    device_id: str
    profile: object
    attacked: bool
    key: bytes
    challenge: bytes
    chunks: List[bytes]
    dict_epoch: object


def capture(rows, devices: int) -> List[Captured]:
    """Mine dictionaries from one plain round, hand them out, and
    record ``devices`` compressed sessions per row."""
    from repro.cfa.fleet import (
        ChainFactory,
        DeviceProfile,
        DeviceSpec,
        FleetSimulator,
        ShardedFleetService,
        device_key,
        learn_dictionaries,
        spec_challenge,
    )

    specs = [DeviceSpec(f"dev-{name}{'-atk' if attacked else ''}-{i}",
                        DeviceProfile(name),
                        "attack" if attacked else "honest")
             for name, attacked in rows for i in range(devices)]
    factory = ChainFactory()
    simulator = FleetSimulator(specs, seed=1, factory=factory)
    with ShardedFleetService(shards=1, sampler=True) as service:
        if not simulator.run(service).ok:
            raise RuntimeError("the learning round did not settle")
        learn_dictionaries(service)
        simulator.handshake(service)
    sessions = []
    for spec in specs:
        epoch = simulator.device_epochs.get(spec.device_id)
        nonce = hashlib.sha256(spec.device_id.encode()).digest()[:16]
        challenge = (spec_challenge(nonce, epoch.epoch, epoch.digest)
                     if epoch is not None else nonce)
        sessions.append(Captured(
            spec.device_id, spec.profile, spec.behavior == "attack",
            device_key(spec.device_id), challenge,
            factory.chain(spec, nonce, epoch), epoch))
    return sessions


# -- the reference path -------------------------------------------------------


def reference_decode(data: bytes):
    """The per-record decoder the one-pass decoder replaced (valid
    input only: the differential battery in tests/ pins the errors)."""
    from repro.cfa.cflog import (
        AddressRecord,
        BranchRecord,
        CFLog,
        LoopRecord,
    )
    from repro.cfa.report import Report
    from repro.cfa.speccfa import SpecRecord

    classes = {1: BranchRecord, 2: AddressRecord, 3: LoopRecord,
               4: SpecRecord}
    pos = 9

    def take(count: int) -> bytes:
        nonlocal pos
        pos += count
        return data[pos - count:pos]

    def lp() -> bytes:
        return take(struct.unpack("<I", take(4))[0])

    device_id, method, challenge, h_mem = lp(), lp(), lp(), lp()
    seq, final = struct.unpack("<IB", take(5))
    records = []
    for _ in range(struct.unpack("<I", take(4))[0]):
        tag = take(1)[0]
        a = struct.unpack("<I", take(4))[0]
        b = struct.unpack("<I", take(4))[0]
        records.append(classes[tag](a, b))
    return Report(device_id=device_id, method=method.decode(),
                  challenge=challenge, h_mem=h_mem, seq=seq,
                  final=bool(final), cflog=CFLog(records), mac=lp())


def reference_key(reports, dict_epoch) -> bytes:
    """Expand every token, then hash every re-packed record."""
    from repro.cfa.speccfa import expand

    records = [r for report in reports for r in report.cflog.records]
    if dict_epoch is not None:
        records = expand(records, dict_epoch.dictionary)
    return hashlib.sha256(b"".join(r.pack() for r in records)).digest()


def stepping_reference(session: Captured):
    """(accepted, violations, consumed, path_len, records_digest) from
    the stepping oracle, over the reference decode."""
    import replay_oracle
    from repro.cfa.fleet.verify import build_verifier
    from repro.cfa.report import AttestationResult
    from repro.cfa.speccfa import expand

    verifier = build_verifier(session.profile, session.key)
    result = AttestationResult(
        [reference_decode(chunk) for chunk in session.chunks])
    authenticated = verifier.authenticate(result, session.challenge)
    records = result.cflog.records
    if session.dict_epoch is not None:
        records = expand(records, session.dict_epoch.dictionary)
    outcome = replay_oracle.replay(verifier, records)
    digest = hashlib.sha256(b"".join(r.pack() for r in records)).hexdigest()
    return (authenticated and outcome.lossless and not outcome.violations,
            tuple((v.kind, v.address, v.detail)
                  for v in outcome.violations),
            outcome.consumed, len(outcome.path), digest)


# -- the measurement ----------------------------------------------------------


def _median_us(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


def stage_costs(session: Captured, cache, repeats: int
                ) -> Dict[str, Dict[str, float]]:
    """µs per stage of one session on both paths (cache is warm)."""
    from repro.cfa.fleet import ReplayCache
    from repro.cfa.fleet.verify import expand_session
    from repro.cfa.wire import read_report

    chunks, epoch = session.chunks, session.dict_epoch
    views = [read_report(chunk)[0] for chunk in chunks]
    old_reports = [reference_decode(chunk) for chunk in chunks]
    key = ReplayCache.key(expand_session([view.span for view in views],
                                         epoch))
    new = {
        "decode": lambda: [read_report(c) for c in chunks],
        "mac": lambda: [view.verify(session.key) for view in views],
        "key": lambda: ReplayCache.key(expand_session(
            [view.span for view in views], epoch)),
        "lookup": lambda: cache.lookup(session.profile, key),
    }
    old = {
        "decode": lambda: [reference_decode(c) for c in chunks],
        "mac": lambda: [r.verify(session.key) for r in old_reports],
        "key": lambda: reference_key(old_reports, epoch),
        "lookup": lambda: cache.lookup(session.profile, key),
    }
    return {
        "new": {s: _median_us(new[s], repeats) for s in STAGES},
        "ref": {s: _median_us(old[s], repeats) for s in STAGES},
    }


def check(session: Captured, cache) -> List[str]:
    """Production verdicts (cold and warm cache) vs. the stepping
    reference; returns the divergences."""
    from repro.cfa.fleet import verify_session_chain

    want = stepping_reference(session)
    problems = []
    for phase in ("cold", "warm"):
        verdict = verify_session_chain(
            session.device_id, session.profile, session.key,
            session.challenge, session.chunks, cache=cache,
            dict_epoch=session.dict_epoch)
        got = (verdict.accepted, verdict.violations, verdict.records,
               verdict.path_len, verdict.records_digest)
        if got != want:
            problems.append(f"{session.device_id} ({phase} cache): "
                            f"{got} != stepping {want}")
    if want[0] == session.attacked:
        problems.append(f"{session.device_id}: accepted={want[0]} for "
                        f"{'an attacked' if session.attacked else 'an honest'}"
                        f" session")
    return problems


def bench(rows, devices: int, repeats: int):
    from repro.cfa.fleet import ReplayCache
    from repro.cfa.wire import decode_report

    sessions = capture(rows, devices)
    cache = ReplayCache()
    table, failures = [], []
    for name, attacked in rows:
        group = [s for s in sessions
                 if s.profile.workload == name and s.attacked == attacked]
        for session in group:
            failures += check(session, cache)
        costs = [stage_costs(s, cache, repeats) for s in group]
        first = group[0]
        reports = [decode_report(c)[0] for c in first.chunks]
        wire = sum(len(r.cflog.records) for r in reports)
        table.append({
            "row": name + (" (attack)" if attacked else ""),
            "sessions": len(group),
            "reports": len(reports),
            "wire": wire,
            "expanded": stepping_reference(first)[2],
            "new": {s: statistics.mean(c["new"][s] for c in costs)
                    for s in STAGES},
            "ref": {s: statistics.mean(c["ref"][s] for c in costs)
                    for s in STAGES},
        })
    return table, failures


def total(row, path: str) -> float:
    return sum(row[path].values())


def format_rows(rows) -> str:
    lines = [
        "Fleet ingest of compressed sessions — µs per session, cache hit",
        "(reference: per-record decode, expand, hash of re-packed records;",
        "production: report view with records left packed, MAC over",
        "the wire fields, key from the received record spans)",
        "",
        f"{'firmware':20s} {'rep':>3s} {'wire':>5s} {'exp':>5s} "
        + " ".join(f"{s + ' ref/new':>15s}" for s in STAGES)
        + f" {'speedup':>8s}",
        "-" * 106,
    ]
    for row in rows:
        stages = " ".join(
            f"{row['ref'][s]:>7.1f}/{row['new'][s]:<7.1f}" for s in STAGES)
        lines.append(
            f"{row['row']:20s} {row['reports']:>3d} {row['wire']:>5d} "
            f"{row['expanded']:>5d} {stages} "
            f"{total(row, 'ref') / total(row, 'new'):>7.2f}x")
    ref = sum(total(row, "ref") for row in rows)
    new = sum(total(row, "new") for row in rows)
    lines.append("-" * 106)
    lines.append(f"{'all rows':20s} {'':>3s} {'':>5s} {'':>5s} "
                 f"{'':63s} {ref / new:>7.2f}x")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: gps, dijkstra and the attacked "
                             "vulnerable image only, fail under "
                             f"{MIN_SPEEDUP:g}x")
    args = parser.parse_args(argv)
    rows, devices, repeats = ((SMOKE, 3, 5) if args.smoke
                              else (FULL, 4, 9))
    table, failures = bench(rows, devices, repeats)
    for row in table:
        print(f"  {row['row']:20s} "
              f"{total(row, 'ref') / total(row, 'new'):6.2f}x",
              file=sys.stderr)
    speedup = (sum(total(row, "ref") for row in table)
               / sum(total(row, "new") for row in table))
    if args.smoke and speedup < MIN_SPEEDUP:
        failures.append(f"speedup {speedup:.2f}x < floor "
                        f"{MIN_SPEEDUP:.2f}x")
    text = format_rows(table)
    print(text)
    if not args.smoke:
        RESULTS.parent.mkdir(parents=True, exist_ok=True)
        RESULTS.write_text(text + "\n")
        print(f"\nwrote {RESULTS}", file=sys.stderr)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
