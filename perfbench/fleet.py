"""The fleet workloads: shared executions and distinct executions.

Both drive one ``ShardedFleetService(shards=2)`` with inline
verification (``workers=0``) from a single client that waits for every
call before making the next (a closed loop with one client). Both use
the same service configuration: a durable evidence store, the policy
plane, the ``BNDS1`` bounds screen and traffic sampling. Only the
traffic differs, so the pair separates the replay cache's read path
(fleet-shared: identical executions, the cache answers) from its write
path (fleet-distinct: every execution is new, ``Verifier.replay`` runs).

The service only ever sees wire bytes. Device executions are attested
on the simulated MCU during set-up and re-signed per session with that
session's challenge, which is what a deterministic device would send.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import shutil
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cfa.cflog import CFLog
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.fleet import (
    DeviceProfile,
    DeviceSpec,
    EvidenceError,
    FleetSimulator,
    ShardedFleetService,
    audit_key,
    device_key,
    learn_dictionaries,
    spec_challenge,
    verify_evidence_trail,
)
from repro.cfa.fleet.simulator import apply_behavior
from repro.cfa.policy.heal import verify_heal_frame, verify_policy_frame
from repro.cfa.report import Report
from repro.cfa.speccfa import compress
from repro.cfa.wire import encode_report
from repro.core.analysis import certificate
from repro.eval import runner
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload, vulnerable
from repro.workloads.base import (
    ADC_BASE,
    GEIGER_BASE,
    GPIO_BASE,
    ULTRASONIC_BASE,
    make_mcu,
)
from repro.workloads.peripherals import (
    ADCDevice,
    GeigerTube,
    GPIOPort,
    UltrasonicRanger,
)

from common import (
    SETUP_REPEATS,
    Caller,
    HostClock,
    median,
    peak_rss_mb,
    percentile,
)
from sweep import paper_metrics
from tracer import Tracer

SHARDS = 2
IDLE_TIMEOUT = 5.0
STEP_S = 0.001
#: the service seed (and so the evidence audit key) every run uses
SERVICE_SEED = b"fleet-vrf"
#: the device-side MTB watermark, as in the fleet CLI and benchmarks
WATERMARK = 1024
#: sessions per block of the p99 latency (see :func:`block_p99`)
P99_BLOCK = 1000


def open_service(store_dir: Path, bounds, resume: bool = False
                 ) -> ShardedFleetService:
    # fsync stays off: with it on, the disk's flush latency, not the
    # verifier, sets sessions/s and p99 and varies from run to run (see
    # README.md). The fsync points are counted per layer instead
    # (evidence.fsyncs).
    # suspect_threshold=1 sends a truncating device through quarantine
    # and HEAL in the round it misbehaves, like attack and equivocation.
    return ShardedFleetService(
        shards=SHARDS, store_dir=store_dir, seed=SERVICE_SEED, workers=0,
        idle_timeout=IDLE_TIMEOUT, fsync=False, resume=resume,
        sampler=True, policy=True, key_lookup=device_key,
        suspect_threshold=1, bounds=bounds)


@dataclasses.dataclass
class Execution:
    """One attested device execution, re-signed per session."""

    h_mem: bytes
    cflogs: List[CFLog]
    cycles: int
    #: dictionary digest -> the per-report logs compressed under it
    compressed: Dict[bytes, List[CFLog]] = dataclasses.field(
        default_factory=dict)

    def chain(self, device_id: str, key: bytes, nonce: bytes,
              epoch=None) -> List[bytes]:
        """The wire chain the device sends for ``nonce`` under its
        acknowledged dictionary epoch (None or empty: plain logs)."""
        cflogs, challenge = self.cflogs, nonce
        if epoch is not None and not epoch.is_empty:
            challenge = spec_challenge(nonce, epoch.epoch, epoch.digest)
            cflogs = self.compressed.get(epoch.digest)
            if cflogs is None:
                cflogs = [CFLog(compress(list(log.records),
                                         epoch.dictionary))
                          for log in self.cflogs]
                self.compressed[epoch.digest] = cflogs
        last = len(cflogs) - 1
        return [encode_report(Report(
            device_id=device_id.encode(), method="rap-track",
            challenge=challenge, h_mem=self.h_mem, seq=seq,
            final=seq == last, cflog=cflog).sign(key))
            for seq, cflog in enumerate(cflogs)]


def attest(image, bound, workload, attack_feed: Optional[bytes] = None
           ) -> Execution:
    """Run one device execution under RAP-Track on the simulated MCU."""
    mcu = make_mcu(image, workload)
    if attack_feed is not None:
        mcu.mmio.device("uart").set_feed(attack_feed)
    engine = RapTrackEngine(mcu, KeyStore.provision("template"), bound,
                            EngineConfig(watermark=WATERMARK))
    result = engine.attest(b"fleet-template")
    return Execution(result.reports[0].h_mem,
                     [r.cflog for r in result.reports], result.cycles)


def outcome_ok(kind: str, verdict) -> bool:
    """Whether a verdict is the one a correct Vrf gives ``kind``."""
    if kind == "honest":
        return verdict.accepted
    if verdict.accepted:
        return False
    if kind == "attack":
        return bool(verdict.violations)
    if kind == "equivocate":
        return "conflicting duplicate" in verdict.reason
    if kind == "truncate":
        return verdict.reason.startswith("malformed report")
    return True  # tamper: any rejection


@dataclasses.dataclass
class Inputs:
    """What one set-up produced before the service exists."""

    executions: Dict[object, Execution]
    bounds: certificate.BoundsRegistry
    certify_s: float = 0.0
    #: time spent attesting devices
    attest_s: float = 0.0
    #: cycles simulated and the time it took, over the attestations
    #: that count towards ``sim_cycles_per_s``
    cycles: int = 0
    sim_s: float = 0.0

    def attest(self, caller: Caller, *args, counted: bool = True
               ) -> Execution:
        execution = caller.call(attest, *args)
        self.attest_s += caller.last_s
        if counted:
            self.cycles += execution.cycles
            self.sim_s += caller.last_s
        return execution


def block_p99(latencies: List[float]) -> float:
    """The median of the p99s of consecutive blocks of at least
    ``P99_BLOCK`` sessions (the last block takes the remainder), so
    each p99 has at least ten samples beyond it and one slow spell of
    the host moves one block rather than the figure."""
    blocks = max(1, len(latencies) // P99_BLOCK)
    bounds = [len(latencies) * i // blocks for i in range(blocks + 1)]
    return median([percentile(latencies[a:b], 0.99)
                   for a, b in zip(bounds, bounds[1:])])


def spread_evenly(names, weights, count: int, rng: random.Random):
    """``count`` profile names in exact proportion to ``weights``, in
    seeded order, so every seed runs the same firmware mix."""
    total = sum(weights)
    out: List[str] = []
    for index, (name, weight) in enumerate(zip(names, weights)):
        share = (count - len(out) if index == len(names) - 1
                 else round(count * weight / total))
        out += [name] * share
    rng.shuffle(out)
    return out


def stratified_sample(devices, share: float, rng: random.Random):
    """The same ``share`` of every profile's devices, drawn by ``rng``."""
    groups: Dict[str, List[str]] = {}
    for device_id, profile in devices:
        groups.setdefault(profile.workload, []).append(device_id)
    chosen = set()
    for name in sorted(groups):
        chosen.update(rng.sample(groups[name],
                                 round(share * len(groups[name]))))
    return chosen


class FleetRun:
    """One service instance and the single client that drives it."""

    def __init__(self, service: ShardedFleetService, store_dir: Path,
                 caller: Caller):
        self.service = service
        self.store_dir = store_dir
        self.caller = caller
        self.latencies_s: List[float] = []
        #: (device id, verdict) settled since the last :meth:`judge`;
        #: judged verdicts are folded into ``verdict_digest`` and
        #: dropped, so the benchmark's own heap stays flat
        self.settled: List[Tuple[str, object]] = []
        self.settled_count = 0
        self.verdict_digest = hashlib.sha256()
        self.opened = 0
        self.wire = hashlib.sha256()
        self.wire_bytes = 0
        self.failures: List[str] = []
        #: (sessions settled, busy seconds) at each round boundary
        self.marks: List[Tuple[int, float]] = []
        #: ``recovery_s`` samples: reopens of a copy of the store taken
        #: halfway through the window, one batch after each later round.
        #: The host's phases last seconds, so samples spread over the
        #: window are steadier than a burst of reopens at its end.
        self.recovery_s: List[float] = []
        self._snapshot: Optional[Tuple[Path, tuple]] = None
        self._recovery_caller = Caller(caller.clock)

    def mark(self) -> None:
        self.marks.append((self.settled_count, self.caller.busy_s))

    def round_done(self, done: int, rounds: int, reopens: int) -> None:
        """Bookkeeping after round ``done`` of ``rounds``."""
        self.mark()
        if done == rounds // 2:
            copy = self.store_dir.with_name(self.store_dir.name + "-copy")
            shutil.copytree(self.store_dir, copy)
            self._snapshot = (copy, self._live_state())
        elif done > rounds // 2:
            for _ in range(reopens):
                self.recovery_s.append(self.time_reopen(
                    *self._snapshot, self._recovery_caller))

    def _live_state(self) -> tuple:
        return (self.service.verdicts, self.service.policy_states(),
                self.service.evidence_heads())

    def time_reopen(self, store_dir: Path, expected: tuple,
                    caller: Caller) -> float:
        """One ``resume=True`` reopen, which must recover ``expected``
        (verdicts, policy states, evidence heads); returns its time."""
        gc.collect()
        resumed = caller.call(open_service, store_dir,
                              self.service.shards[0].bounds, True)
        got = (resumed.verdicts, resumed.policy_states(),
               resumed.evidence_heads())
        resumed.close()
        if got != expected:
            self.failures.append(f"resume=True of {store_dir.name} "
                                 f"recovered different verdicts, states "
                                 f"or heads")
        return caller.last_s

    def call(self, fn: Callable, *args):
        return self.caller.call(fn, *args)

    def _shard(self, device_id: str):
        return self.service.shards[self.service.shard_of(device_id)]

    def _all_verdicts(self) -> Dict[str, object]:
        return {d: v for shard in self.service.shards
                for d, v in shard.verdicts.items()}

    def open(self, device_id: str, profile: DeviceProfile, key: bytes,
             now: float):
        self.opened += 1
        return self.call(self.service.open_session, device_id, profile,
                         key, now)

    def submit(self, device_id: str, chunk: bytes, now: float) -> None:
        """Submit one report; a call that releases the device's verdict
        is that session's verdict latency."""
        shard = self._shard(device_id)
        before = shard.verdicts.get(device_id)
        self.wire.update(chunk)
        self.wire_bytes += len(chunk)
        self.call(self.service.submit, device_id, chunk, now)
        after = shard.verdicts.get(device_id)
        if after is not before:
            self.latencies_s.append(self.caller.last_s)
            self.settled.append((device_id, after))
            self.settled_count += 1

    def tick(self, now: float):
        before = self._all_verdicts()
        rechallenged = self.call(self.service.tick, now)
        for device_id, verdict in self._all_verdicts().items():
            if before.get(device_id) is not verdict:
                self.settled.append((device_id, verdict))
                self.settled_count += 1
        return rechallenged

    def attest_round(self, sessions, chain_for, now: float,
                     rng: random.Random) -> float:
        """Open every session, interleave the deliveries at random,
        settle stalled chains through the retry path, drain."""
        queues: Dict[str, List[bytes]] = {}
        behaviors: Dict[str, str] = {}
        for device_id, profile, key, behavior in sessions:
            challenge = self.open(device_id, profile, key, now)
            behaviors[device_id] = behavior
            queues[device_id] = apply_behavior(
                behavior, chain_for(device_id, behavior, challenge.nonce),
                rng)
        live = sorted(d for d, q in queues.items() if q)
        while live:
            device_id = live[rng.randrange(len(live))]
            self.submit(device_id, queues[device_id].pop(0), now)
            now += STEP_S
            if not queues[device_id]:
                live.remove(device_id)
        for _ in range(self.service.manager.max_attempts):
            now += IDLE_TIMEOUT + 1.0
            for device_id, challenge in self.tick(now):
                chunks = chain_for(device_id, behaviors[device_id],
                                   challenge.nonce)
                chunks = apply_behavior(behaviors[device_id], chunks, rng)
                for chunk in chunks:
                    self.submit(device_id, chunk, now)
                    now += STEP_S
        self.call(self.service.drain)
        return now

    def judge(self, expected: Dict[str, str]) -> None:
        """Each session settled since the last judgement got its
        expected outcome, and every expected session settled exactly
        once."""
        settled, self.settled = self.settled, []
        seen = set()
        for device_id, verdict in settled:
            self.verdict_digest.update(f"{device_id}|{verdict!r}\n".encode())
            kind = expected.get(device_id)
            if kind is None or device_id in seen:
                self.failures.append(f"{device_id}: unexpected verdict")
            elif not outcome_ok(kind, verdict):
                self.failures.append(
                    f"{device_id} ({kind}): got "
                    f"{'accept' if verdict.accepted else 'reject'} "
                    f"({verdict.reason or 'ok'})")
            seen.add(device_id)
        for device_id in sorted(set(expected) - seen):
            self.failures.append(f"{device_id}: no verdict")

    def fingerprint(self) -> str:
        """Digest of verdicts, evidence heads and wire bytes."""
        digest = self.verdict_digest.copy()
        for device_id, head in sorted(self.service.evidence_heads().items()):
            digest.update(device_id.encode() + head)
        digest.update(self.wire.digest())
        return digest.hexdigest()

    def close(self) -> int:
        """Close, audit every shard log and check one ``resume=True``
        reopen of the whole store; returns the records audited."""
        expected = self._live_state()
        metrics = self.service.close()
        key = audit_key(SERVICE_SEED)
        audited = 0
        for path in sorted(self.store_dir.glob("evidence-*.log")):
            try:
                audited += len(verify_evidence_trail(path, key))
            except EvidenceError as exc:
                self.failures.append(f"{path.name}: audit failed: {exc}")
        if audited != metrics.evidence_records:
            self.failures.append(
                f"audited {audited} evidence records, service appended "
                f"{metrics.evidence_records}")
        self.time_reopen(self.store_dir, expected, self.caller)
        return audited


class Fleet:
    """Set-up, timed window and recovery shared by both fleets."""

    name = ""
    profiles: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: int, root: Path,
                 clock: HostClock):
        self.seed = seed
        self.clock = clock
        self.root = root
        self.keys: Dict[str, bytes] = {}

    def rng(self, *tags) -> random.Random:
        text = ":".join(str(t) for t in (self.name, self.seed) + tags)
        return random.Random(zlib.crc32(text.encode()))

    def certify(self, names) -> certificate.BoundsRegistry:
        bounds = certificate.BoundsRegistry()
        for name in names:
            bounds.add(certificate.certify_workload(name, "rap-track"))
        return bounds

    def start(self, inputs: Inputs, store_dir: Path,
              tracer: Optional[Tracer]) -> FleetRun:
        caller = Caller(self.clock, tracer)
        service = caller.call(open_service, store_dir, inputs.bounds)
        run = FleetRun(service, store_dir, caller)
        for profile in sorted({p for _, p in self.devices},
                              key=lambda p: p.workload):
            run.call(service.policy.registry.publish, profile,
                     self.honest_execution(inputs, profile).h_mem)
        self.warm(run, inputs)
        return run

    def paper(self) -> Dict[str, float]:
        runs = {name: {method: runner.run_method(name, method)
                       for method in ("baseline", "rap-track")}
                for name in self.profiles}
        return paper_metrics(runs)

    def measure(self, run: FleetRun) -> dict:
        """The timed window: returns its numbers and fingerprint.
        Throughput is the median over rounds, so a slow spell of the
        host moves one round rather than the whole figure."""
        gc.collect()
        bytes0, lat0, opened0 = run.wire_bytes, len(run.latencies_s), \
            run.opened
        metrics0 = run.service.metrics
        raw0 = run.caller.raw_busy_s
        run.mark()
        first = len(run.marks) - 1
        self.window(run)
        marks = run.marks[first:]
        rates = [(b[0] - a[0]) / (b[1] - a[1])
                 for a, b in zip(marks, marks[1:])]
        sessions = marks[-1][0] - marks[0][0]
        busy = marks[-1][1] - marks[0][1]
        latencies = run.latencies_s[lat0:]
        metrics = run.service.metrics
        return {
            "busy_s": busy,
            "raw_busy_s": run.caller.raw_busy_s - raw0,
            "sessions": sessions,
            "attempted": run.opened - opened0,
            "latency_samples": len(latencies),
            "e2e": {
                "sessions_per_s": median(rates),
                "session_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
                "session_latency_p99_ms": block_p99(latencies) * 1e3,
                "wire_bytes_per_session":
                    (run.wire_bytes - bytes0) / sessions,
            },
            "metrics0": metrics0,
            "metrics": metrics,
            "fingerprint": run.fingerprint(),
        }

    def store(self, label) -> Path:
        return self.root / f"store-{label}"

    def untraced(self) -> dict:
        """Set up ``SETUP_REPEATS`` times (the last set-up's service
        runs the window), measure, close, recover. ``sim_cycles_per_s``
        pools the counted attestations of every set-up: one set-up's
        are too short a sample on fleet-shared."""
        setups = []
        cycles = sim_s = 0.0
        run = None
        for part in range(SETUP_REPEATS):
            if run is not None:  # an earlier set-up: discard, untimed
                run.service.close()
                shutil.rmtree(run.store_dir)
                run = None
            # every set-up starts from a collected heap, so no earlier
            # set-up's service adds to the peak RSS; untimed
            gc.collect()
            t0 = self.clock.now()
            inputs = self.prepare(part, Caller(self.clock))
            run = self.start(inputs, self.store(part), None)
            setups.append(self.clock.now() - t0)
            cycles += inputs.cycles
            sim_s += inputs.sim_s
        window = self.measure(run)
        # the peak of set-up and window; the checks after them (the
        # audit and a reopen beside the live service) are not load
        peak_mb = peak_rss_mb()
        run.close()
        self.failures = run.failures
        metrics = {
            "setup_s": median(setups),
            "recovery_s": median(run.recovery_s),
            "sim_cycles_per_s": cycles / sim_s,
            **window["e2e"],
            **self.paper(),
            "peak_rss_mb": peak_mb,
        }
        return {"metrics": metrics, "window": window}

    def traced(self) -> dict:
        """Device attestation traced; then the same service set-up and
        window twice on fresh stores, untraced and traced."""
        tracer = Tracer()
        tracer.install()
        try:
            caller = Caller(self.clock, tracer)
            parts = [self.prepare(part, caller)
                     for part in range(self.input_parts)]
            device = tracer.take()
            device_scale = caller.busy_s / caller.raw_busy_s
            inputs = parts[-1]
            tracer.uninstall()
            plain_run = self.start(inputs, self.store("plain"), None)
            plain = self.measure(plain_run)
            plain_run.close()
            tracer.install()
            run = self.start(inputs, self.store("traced"), tracer)
            setup = tracer.take()
            setup_scale = run.caller.busy_s / run.caller.raw_busy_s
            acks = run.service.metrics.dict_acks
            traced = self.measure(run)
            window = tracer.take()
            entries = sum(1 for _ in (run.store_dir / "replay").rglob(
                "*.pkl"))
            busy0, raw0 = run.caller.busy_s, run.caller.raw_busy_s
            run.close()
            recover = tracer.take()
            recover_scale = ((run.caller.busy_s - busy0)
                             / (run.caller.raw_busy_s - raw0))
        finally:
            tracer.uninstall()
        self.failures = plain_run.failures + run.failures
        if plain["fingerprint"] != traced["fingerprint"]:
            self.failures.append("traced window diverged from the untraced")
        m0, m = traced["metrics0"], traced["metrics"]
        hits = m.replay_cache_hits - m0.replay_cache_hits
        lookups = hits + m.replay_cache_misses - m0.replay_cache_misses
        sessions = traced["sessions"]
        extra = {
            "policy.denied": (m.sessions_denied + m.reports_denied
                              - m0.sessions_denied - m0.reports_denied)
            / sessions,
            "replay_cache.hit_ratio": hits / lookups if lookups else 0.0,
            "replay_cache.entries": entries,
            "evidence.bytes":
                (m.evidence_bytes - m0.evidence_bytes) / sessions,
            # fsync is off in timed runs: these are the fsyncs an
            # fsync-on store would issue (one per appended frame)
            "evidence.fsyncs":
                (m.evidence_records - m0.evidence_records) / sessions,
            "evidence.recover_s": recover.self_ns.get("evidence.open", 0)
            * recover_scale / 1e9 / recover.calls["evidence.open"] * SHARDS,
            "mining.mine_s":
                setup.self_ns.get("mining.mine", 0) * setup_scale / 1e9,
            "dict.acks": acks,
            "bounds.certify_s":
                sum(p.certify_s for p in parts) / len(parts),
            "device.attest_s": sum(p.attest_s for p in parts) / len(parts),
        }
        return {"window": traced, "plain": plain, "layers": window,
                "units": sessions, "device": device,
                "device_units": len(parts), "device_scale": device_scale,
                "extra": extra}


# -- fleet-shared -------------------------------------------------------------


class SharedFleet(Fleet):
    """Many devices per firmware: the replay cache answers nearly all.

    A tenth of the devices, drawn afresh each round, misbehave: devices
    on the vulnerable image run the ROP attack, devices whose chains
    have two or more reports equivocate, the rest truncate a report.
    Each of them is quarantined, healed and rejoins within its round.
    ``tamper`` is left out: on the compressed path the bounds screen
    expands speculation tokens before any MAC check, so one forged
    token can make ``submit`` allocate without limit (see README.md).
    """

    name = "fleet-shared"
    profiles = ("fibcall", "prime", "bitcount", "dijkstra", "gps",
                "temperature")
    devices_per_round = 400
    hostile_share = 0.10
    #: devices per firmware attested in set-up; the rest of the fleet
    #: re-signs their (identical) execution
    attested_per_firmware = 6
    #: attestations per firmware and set-up that ``sim_cycles_per_s``
    #: leaves out, because they compile JIT blocks
    jit_warm_copies = 2
    #: timed reopens of the mid-window store copy after each later round
    reopens = 1
    #: sessions/s this window is sized by (2-core reference host)
    nominal_rate = 720.0
    #: set-ups a traced run needs (each untraced set-up is complete)
    input_parts = 1

    def __init__(self, seed: int, seconds: int, root: Path,
                 clock: HostClock):
        super().__init__(seed, seconds, root, clock)
        choices = self.profiles + ("vulnerable",)
        self.devices = [
            (f"dev-{i:05d}", DeviceProfile(name))
            for i, name in enumerate(spread_evenly(
                choices, [1] * len(choices), self.devices_per_round,
                self.rng("devices")))]
        self.keys = {d: device_key(d) for d, _ in self.devices}
        per_round = self.devices_per_round * (1 + self.hostile_share)
        self.rounds = max(2, math.ceil(
            seconds * self.nominal_rate / per_round))
        self.device_side: Optional[FleetSimulator] = None

    def prepare(self, part: int, caller: Caller) -> Inputs:
        names = self.profiles + ("vulnerable",)
        inputs = Inputs({}, caller.call(self.certify, names),
                        certify_s=caller.last_s)
        executions = inputs.executions
        for name in names:
            workload = load_workload(name)
            image, bound = caller.call(runner.prepare, workload,
                                       "rap-track")
            feeds = [None]
            if name == "vulnerable":
                feeds.append(vulnerable.attack_feed(image))
            for feed in feeds:
                # several devices per firmware attest; a deterministic
                # device gives every one of them the same execution. The
                # first ones compile the image's JIT blocks (a block
                # compiles once it is hot, some only in the second run),
                # which would swamp these short runs' simulation rate, so
                # they are not counted.
                copies = [inputs.attest(caller, image, bound, workload, feed,
                                        counted=copy >= self.jit_warm_copies)
                          for copy in range(self.attested_per_firmware)]
                logs = {tuple(tuple(log.records) for log in c.cflogs)
                        for c in copies}
                if len(logs) != 1:
                    raise RuntimeError(f"{name}: executions differ")
                executions[(name, feed is not None)] = copies[0]
        return inputs

    def honest_execution(self, inputs: Inputs, profile) -> Execution:
        return inputs.executions[(profile.workload, False)]

    def chain_for(self, inputs: Inputs) -> Callable:
        profiles = dict(self.devices)
        epochs = self.device_side.device_epochs

        def chain(device_id: str, behavior: str, nonce: bytes):
            execution = inputs.executions[
                (profiles[device_id].workload, behavior == "attack")]
            return execution.chain(device_id, self.keys[device_id], nonce,
                                   epochs.get(device_id))

        return chain

    def warm(self, run: FleetRun, inputs: Inputs) -> None:
        """One honest epoch-0 round, mining, and the DICT/DACK
        handshake, so the window runs compressed sessions."""
        self.device_side = FleetSimulator(
            [DeviceSpec(d, p) for d, p in self.devices], seed=self.seed)
        self.inputs = inputs
        sessions = [(d, p, self.keys[d], "honest") for d, p in self.devices]
        run.attest_round(sessions, self.chain_for(inputs), 0.0,
                         self.rng("warm"))
        run.judge({d: "honest" for d, _ in self.devices})
        self.published = run.call(learn_dictionaries, run.service)
        pushes = run.call(run.service.dictionary_pushes)
        for device_id, dack in self.device_side.deliver_pushes(pushes):
            if not run.call(run.service.ingest_dack, device_id, dack):
                run.failures.append(f"{device_id}: DACK refused")

    def hostile_kind(self, device_id: str, profile) -> str:
        if profile.workload == "vulnerable":
            return "attack"
        if len(self.inputs.executions[(profile.workload, False)].cflogs) > 1:
            return "equivocate"
        return "truncate"

    def window(self, run: FleetRun) -> None:
        chain = self.chain_for(self.inputs)
        for round_index in range(1, self.rounds + 1):
            rng = self.rng("round", round_index)
            hostile = stratified_sample(self.devices, self.hostile_share,
                                        rng)
            expected = {}
            sessions = []
            for device_id, profile in self.devices:
                kind = (self.hostile_kind(device_id, profile)
                        if device_id in hostile else "honest")
                expected[device_id] = kind
                sessions.append((device_id, profile, self.keys[device_id],
                                 kind))
            now = run.attest_round(sessions, chain, round_index * 1000.0,
                                   rng)
            run.judge(expected)
            self.heal(run, chain, hostile, now)
            run.round_done(round_index, self.rounds, self.reopens)

    def heal(self, run: FleetRun, chain, hostile, now: float) -> None:
        pushes = run.call(run.service.heal_pushes, now)
        run.opened += len(pushes)  # each HEAL order opens a session
        for device_id, frame in sorted(pushes):
            order = verify_heal_frame(self.keys[device_id], device_id, frame)
            if order is None:
                run.failures.append(f"{device_id}: HEAL frame refused")
                continue
            for chunk in chain(device_id, "honest", order[3]):
                run.submit(device_id, chunk, now)
                now += STEP_S
        run.call(run.service.drain)
        run.judge({d: "honest" for d, _ in pushes})
        if {d for d, _ in pushes} != hostile:
            run.failures.append("HEAL orders do not match the hostile set")
        for device_id, frame in run.call(run.service.policy_pushes):
            if verify_policy_frame(self.keys[device_id], device_id,
                                   frame) is None:
                run.failures.append(f"{device_id}: PLCY notice refused")
        for device_id, state in run.service.policy_states().items():
            want = ("REJOINED",) if device_id in hostile else (
                "HEALTHY", "REJOINED")
            if state not in want:
                run.failures.append(f"{device_id}: policy state {state}")


# -- fleet-distinct -----------------------------------------------------------


def _sensor(name: str, seed: int):
    if name == "geiger":
        return GEIGER_BASE, GeigerTube(seed=seed), "geiger"
    if name == "ultrasonic":
        return ULTRASONIC_BASE, UltrasonicRanger(seed=seed), "sonar"
    if name == "fir":
        return ADC_BASE, ADCDevice(seed=seed, base_value=300,
                                   spread=200), "adc"
    return ADC_BASE, ADCDevice(seed=seed), "adc"


def seeded_workload(name: str, seed: int):
    """The firmware ``name`` with its sensor on its own seed."""
    base, sensor, label = _sensor(name, seed)
    gpio = GPIOPort()

    def devices():
        sensor.reset()
        gpio.reset()
        return [(base, sensor, label), (GPIO_BASE, gpio, "gpio")]

    return dataclasses.replace(load_workload(name), devices=devices)


class DistinctFleet(Fleet):
    """Every device reads its own sensor: nearly every CFLog is new, so
    the replay cache misses and grows and ``Verifier.replay`` runs for
    each session. Epoch 0 only; a tenth of the devices tamper."""

    name = "fleet-distinct"
    profiles = ("temperature", "ultrasonic", "fir", "geiger")
    #: profile weights. geiger stays a small share (~150 ms per replay)
    #: and fir a small one (about one fir execution in six repeats
    #: another, which would feed the replay cache hits). Fast sessions
    #: (temperature, tamper) stay a quarter, so the median latency falls
    #: well inside the ultrasonic sessions' continuous spread rather
    #: than in a cluster's tail.
    weights = (15, 75, 5, 5)
    tamper_share = 0.10
    #: devices per round; every round has the same profile mix
    batch = 100
    #: timed reopens of the mid-window store copy after each later round
    reopens = 3
    #: sessions/s this window is sized by (2-core reference host)
    nominal_rate = 50.0
    #: each set-up attests one part of the device pool
    input_parts = SETUP_REPEATS

    def __init__(self, seed: int, seconds: int, root: Path,
                 clock: HostClock):
        super().__init__(seed, seconds, root, clock)
        rounds = max(10, math.ceil(seconds * self.nominal_rate / self.batch))
        rng = self.rng("devices")
        names: List[str] = []
        for _ in range(rounds):
            names += spread_evenly(self.profiles, self.weights, self.batch,
                                   rng)
        self.pool = len(names)
        names += self.profiles  # one warm-up device per profile
        self.devices = [(f"dev-{index:05d}", DeviceProfile(name))
                        for index, name in enumerate(names)]
        self.sensor_seed = {d: 1 + rng.randrange(2 ** 30)
                            for d, _ in self.devices}
        tampering = set()
        for first in range(0, self.pool, self.batch):
            tampering |= stratified_sample(
                self.devices[first:first + self.batch], self.tamper_share,
                rng)
        self.behavior = {d: "tamper" if d in tampering else "honest"
                         for d, _ in self.devices}
        self.keys = {d: device_key(d) for d, _ in self.devices}
        self.executions: Dict[object, Execution] = {}

    def part_devices(self, part: int):
        parts = self.input_parts
        return self.devices[self.pool * part // parts:
                            self.pool * (part + 1) // parts]

    def warm_devices(self):
        return self.devices[self.pool:]

    def prepare(self, part: int, caller: Caller) -> Inputs:
        """Attest one part of the device pool (plus the warm-up
        devices) and certify the profiles' bounds."""
        inputs = Inputs(self.executions,
                        caller.call(self.certify, self.profiles),
                        certify_s=caller.last_s)
        images = {name: caller.call(runner.prepare, load_workload(name),
                                    "rap-track")
                  for name in self.profiles}
        for device_id, profile in self.part_devices(part) \
                + self.warm_devices():
            workload = seeded_workload(profile.workload,
                                       self.sensor_seed[device_id])
            image, bound = images[profile.workload]
            self.executions[device_id] = inputs.attest(
                caller, image, bound, workload)
        return inputs

    def honest_execution(self, inputs: Inputs, profile) -> Execution:
        device_id = next(d for d, p in self.warm_devices() if p == profile)
        return inputs.executions[device_id]

    def chain(self, device_id: str, _behavior: str, nonce: bytes):
        return self.executions[device_id].chain(
            device_id, self.keys[device_id], nonce)

    def warm(self, run: FleetRun, inputs: Inputs) -> None:
        sessions = [(d, p, self.keys[d], "honest")
                    for d, p in self.warm_devices()]
        run.attest_round(sessions, self.chain, 0.0, self.rng("warm"))
        run.judge({d: "honest" for d, _ in self.warm_devices()})

    def window(self, run: FleetRun) -> None:
        pool = self.devices[:self.pool]
        for first in range(0, self.pool, self.batch):
            batch = pool[first:first + self.batch]
            sessions = [(d, p, self.keys[d], self.behavior[d])
                        for d, p in batch]
            run.attest_round(sessions, self.chain, 1000.0 + first * 10.0,
                             self.rng("batch", first))
            run.judge({d: self.behavior[d] for d, _ in batch})
            run.round_done(first // self.batch + 1, self.pool // self.batch,
                           self.reopens)
        states = run.service.policy_states()
        for device_id, _ in pool:
            state = states.get(device_id, "HEALTHY")
            want = ("QUARANTINED" if self.behavior[device_id] == "tamper"
                    else "HEALTHY")
            if state != want:
                run.failures.append(f"{device_id}: policy state {state}")
