"""Drive N simulated devices through the fleet wire protocol.

The simulator is the load generator *and* the adversary model for the
fleet service: each :class:`DeviceSpec` names a device profile (which
workload/method it attests) and a delivery *behavior* — honest, or one
of the hostile/faulty transports the service must survive:

========== ==============================================================
behavior    delivery
========== ==============================================================
honest      the chain, in order
duplicate   one report delivered twice (byte-identical)
reorder     two adjacent reports swapped (inside the reorder window)
stall       final report withheld; answers the retry challenge in full
tamper      one byte flipped inside a report (MAC or framing breaks)
truncate    one report cut short (structural wire damage)
attack      a genuine ROP execution on the ``vulnerable`` firmware
equivocate  two *conflicting* copies of one report (same seq, different
            bytes — only a compromised or cloned device can emit both)
========== ==============================================================

:class:`CampaignSimulator` layers the policy control plane's adversary
model on top: a fleet where a fraction of devices start compromised,
get quarantined by the :class:`~repro.cfa.policy.engine.PolicyEngine`,
are re-provisioned through the HEAL protocol, and re-attest clean —
with SLA accounting (time-to-quarantine, healing success, wrongful
quarantines) the ``repro policy`` CLI and the CI smoke gate report.

Device executions are deterministic, so the simulator attests each
distinct ``(profile, attacked)`` template **once** and then re-signs
the template's report chain per session — same CFLog and ``H_MEM``,
that session's challenge/device id, that device's key — which is
byte-for-byte what a real deterministic Prv would transmit, and makes
thousand-session fleets cheap to generate.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import CFLog
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.fleet.dictver import DictEpoch, dack_mac, spec_challenge
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyDeniedError
from repro.cfa.policy.heal import verify_heal_frame, verify_policy_frame
from repro.cfa.report import Report
from repro.cfa.speccfa import compress
from repro.cfa.wire import decode_dict_frame, encode_dack_frame, encode_report
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads import vulnerable
from repro.workloads.base import make_mcu

#: behaviors whose sessions a correct service must end up accepting
HONEST_BEHAVIORS = frozenset({"honest", "duplicate", "reorder", "stall"})
#: behaviors whose sessions a correct service must end up rejecting
HOSTILE_BEHAVIORS = frozenset({"tamper", "truncate", "attack", "equivocate"})
BEHAVIORS = tuple(sorted(HONEST_BEHAVIORS | HOSTILE_BEHAVIORS))

#: fleet-wide provisioning secret (device key = KDF(device id, secret))
FLEET_SECRET = b"fleet-factory-secret"


def device_key(device_id: str) -> bytes:
    """The symmetric attestation key provisioned for one device."""
    return KeyStore(device_id.encode(), FLEET_SECRET).attestation_key


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated device: identity, firmware profile, behavior."""

    device_id: str
    profile: DeviceProfile
    behavior: str = "honest"
    #: whether this device acknowledges dictionary pushes; a
    #: non-ACKing device keeps attesting under its last pinned epoch
    #: (epoch 0 forever if it never ACKed anything)
    acks: bool = True

    @property
    def expected_accepted(self) -> bool:
        """Whether a correct Vrf accepts this device's session (stalled
        devices assume the service re-challenges at least once)."""
        return self.behavior in HONEST_BEHAVIORS


@dataclass
class _Template:
    """One attested execution, ready to re-sign per session."""

    method: str
    h_mem: bytes
    cflogs: List[CFLog]  # one per (partial) report, in order


class ChainFactory:
    """Attest once per (profile, attacked) pair; re-sign per session."""

    def __init__(self, watermark: Optional[int] = 1024, cache=None):
        self.engine_config = EngineConfig(watermark=watermark)
        self.cache = cache
        self._templates: Dict[Tuple[DeviceProfile, bool], _Template] = {}
        #: (profile, attacked, dict digest) -> compressed per-report logs
        self._compressed: Dict[Tuple[DeviceProfile, bool, bytes],
                               List[CFLog]] = {}

    def _attest_template(self, profile: DeviceProfile,
                         attacked: bool) -> _Template:
        workload = load_workload(profile.workload)
        image, bound = prepare(workload, profile.method, cache=self.cache)
        mcu = make_mcu(image, workload)
        if attacked:
            # the ROP payload rides the vulnerable firmware's UART feed
            mcu.mmio.device("uart").set_feed(vulnerable.attack_feed(image))
        keystore = KeyStore.provision("template")
        if profile.method == "rap-track":
            engine = RapTrackEngine(mcu, keystore, bound, self.engine_config)
        elif profile.method == "traces":
            engine = TracesEngine(mcu, keystore, bound, self.engine_config)
        elif profile.method == "naive-mtb":
            engine = NaiveMtbEngine(mcu, keystore, self.engine_config)
        else:
            raise ValueError(f"unknown method {profile.method!r}")
        result = engine.attest(b"fleet-template")
        return _Template(
            method=engine.method,
            h_mem=result.reports[0].h_mem,
            cflogs=[r.cflog for r in result.reports],
        )

    def chain(self, spec: DeviceSpec, nonce: bytes,
              dict_epoch: Optional[DictEpoch] = None) -> List[bytes]:
        """The wire-encoded report chain ``spec`` sends for ``nonce``.

        With ``dict_epoch`` set (the device's last acknowledged
        dictionary version), each report's CFLog is compressed under
        that dictionary and the chain answers the epoch-bound
        challenge — exactly what a speculation-enabled Prv transmits.
        Compressed logs are cached per (profile, attacked, digest), so
        a fleet on one epoch compresses each template once.
        """
        key = (spec.profile, spec.behavior == "attack")
        template = self._templates.get(key)
        if template is None:
            template = self._attest_template(*key)
            self._templates[key] = template
        cflogs = template.cflogs
        challenge = nonce
        if dict_epoch is not None and not dict_epoch.is_empty:
            challenge = spec_challenge(
                nonce, dict_epoch.epoch, dict_epoch.digest)
            ckey = key + (dict_epoch.digest,)
            cflogs = self._compressed.get(ckey)
            if cflogs is None:
                dictionary = dict_epoch.dictionary
                cflogs = []
                for cflog in template.cflogs:
                    log = CFLog()
                    log.extend(compress(list(cflog.records), dictionary))
                    cflogs.append(log)
                self._compressed[ckey] = cflogs
        last = len(cflogs) - 1
        signing_key = device_key(spec.device_id)
        return [
            encode_report(Report(
                device_id=spec.device_id.encode(),
                method=template.method,
                challenge=challenge,
                h_mem=template.h_mem,
                seq=seq,
                final=seq == last,
                cflog=cflog,
            ).sign(signing_key))
            for seq, cflog in enumerate(cflogs)
        ]


def apply_behavior(behavior: str, chunks: Sequence[bytes],
                   rng: random.Random) -> List[bytes]:
    """Apply one transport behavior to an honest report chain."""
    chunks = list(chunks)
    if behavior in ("honest", "attack"):
        return chunks
    if behavior == "duplicate":
        index = rng.randrange(len(chunks))
        chunks.insert(index + 1, chunks[index])
        return chunks
    if behavior == "reorder":
        if len(chunks) >= 2:
            index = rng.randrange(len(chunks) - 1)
            chunks[index], chunks[index + 1] = (
                chunks[index + 1], chunks[index])
        return chunks
    if behavior == "stall":
        return chunks[:-1]  # withhold the final report
    if behavior == "tamper":
        index = rng.randrange(len(chunks))
        body = bytearray(chunks[index])
        # flip one bit past the magic/version header
        offset = rng.randrange(9, len(body))
        body[offset] ^= 1 << rng.randrange(8)
        chunks[index] = bytes(body)
        return chunks
    if behavior == "truncate":
        index = rng.randrange(len(chunks))
        cut = rng.randrange(1, 9)
        chunks[index] = chunks[index][:-cut]
        return chunks
    if behavior == "equivocate":
        # a second copy of one report with its trailing (MAC) byte
        # flipped: still well-formed wire, same seq, different bytes —
        # the signature of a cloned or compromised signer. The conflict
        # must land before the chain completes, so pick a non-final
        # report when there is one.
        index = rng.randrange(max(1, len(chunks) - 1))
        twin = bytearray(chunks[index])
        twin[-1] ^= 0x01
        chunks.insert(index + 1, bytes(twin))
        return chunks
    raise ValueError(f"unknown behavior {behavior!r}")


@dataclass
class SimulationReport:
    """What one simulated fleet run produced."""

    verdicts: Dict[str, SessionVerdict] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _drive_sessions(service, queues: Sequence[Tuple[str, List[bytes]]],
                   rng: random.Random, now: float, step_s: float,
                   chain_for: Callable[[str, bytes], List[bytes]]) -> None:
    """Deliver every queued report, settle stalled chains, drain.

    Interleaving picks at random (``rng``), from the devices in
    ``queues`` order that still have traffic, whose report goes next;
    the logical clock advances ``step_s`` per delivered report. Once
    the stream drains, the clock jumps past the idle timeout for each
    retry round, so stalled sessions are re-challenged and then expire
    when the service is out of retries. A re-challenged device answers
    with ``chain_for(device_id, nonce)``: a stalled device answers in
    full (a transient outage), while a hostile one keeps its behavior,
    so a tamper that merely stalled the chain (e.g. a flipped seq
    byte) cannot launder itself into acceptance through the retry path.
    """
    pending = dict(queues)
    live = [device_id for device_id, queue in queues if queue]
    while live:
        device_id = live[rng.randrange(len(live))]
        service.submit(device_id, pending[device_id].pop(0), now)
        now += step_s
        if not pending[device_id]:
            live.remove(device_id)
    for _ in range(service.manager.max_attempts):
        now += service.manager.idle_timeout + 1.0
        for device_id, challenge in service.tick(now):
            for chunk in chain_for(device_id, challenge.nonce):
                service.submit(device_id, chunk, now)
                now += step_s
    service.drain()


class FleetSimulator:
    """Interleave N device sessions against one fleet service."""

    def __init__(self, specs: Sequence[DeviceSpec], seed: int = 0,
                 watermark: Optional[int] = 1024, cache=None,
                 factory: Optional[ChainFactory] = None):
        self.specs = list(specs)
        self.rng = random.Random(seed)
        # a caller-supplied factory shares its attested templates
        # across simulators (e.g. the halves of a crash-restart run)
        self.factory = factory or ChainFactory(
            watermark=watermark, cache=cache)
        #: device-side dictionary state: the epoch each device has
        #: acknowledged and will compress its next session under
        self.device_epochs: Dict[str, DictEpoch] = {}
        #: one adopted epoch per pushed dictionary, shared by every
        #: device that installs it (each keeps one parse, not a copy)
        self._adopted: Dict[Tuple[DeviceProfile, int, bytes],
                            DictEpoch] = {}

    # -- the dictionary push/ACK leg (device side) --------------------------

    def deliver_pushes(
            self, pushes: Sequence[Tuple[str, bytes]]
    ) -> List[Tuple[str, bytes]]:
        """Deliver ``DICT`` frames to their devices; collect signed DACKs.

        Each device validates the offer exactly as firmware would —
        profile match, content digest over the payload — adopts the
        dictionary for its *next* session, and answers with a ``DACK``
        MAC'd under its attestation key. Devices with ``acks=False``
        drop the offer silently (and so stay on their pinned epoch).
        """
        by_id = {spec.device_id: spec for spec in self.specs}
        acks: List[Tuple[str, bytes]] = []
        for device_id, frame in pushes:
            spec = by_id.get(device_id)
            if spec is None or not spec.acks:
                continue
            workload, method, epoch, digest, payload = \
                decode_dict_frame(frame)
            if DeviceProfile(workload, method) != spec.profile:
                continue  # not our firmware: refuse to adopt
            if hashlib.sha256(payload).digest() != digest:
                continue  # damaged in transit: refuse to adopt
            pin = (spec.profile, epoch, digest)
            entry = self._adopted.get(pin)
            if entry is None:
                entry = DictEpoch(profile=spec.profile, epoch=epoch,
                                  digest=digest, payload=payload)
                entry.dictionary  # strict parse before adopting
                self._adopted[pin] = entry
            self.device_epochs[device_id] = entry
            acks.append((device_id, encode_dack_frame(
                device_id, epoch, digest,
                dack_mac(device_key(device_id), device_id, epoch,
                         digest))))
        return acks

    def handshake(self, service) -> int:
        """One full push/ACK round trip; returns ACKs accepted."""
        accepted = 0
        for device_id, dack in self.deliver_pushes(
                service.dictionary_pushes()):
            if service.ingest_dack(device_id, dack):
                accepted += 1
        return accepted

    # -- adversarial deliveries --------------------------------------------

    def _deliveries(self, spec: DeviceSpec,
                    chunks: List[bytes]) -> List[bytes]:
        return apply_behavior(spec.behavior, chunks, self.rng)

    # -- the run ------------------------------------------------------------

    def run(self, service, step_s: float = 0.001) -> SimulationReport:
        """Open every session, interleave all deliveries, settle retries.

        Devices are interleaved in spec order (see
        :func:`_drive_sessions`).
        """
        queues: Dict[str, List[bytes]] = {}
        by_id = {spec.device_id: spec for spec in self.specs}
        for spec in self.specs:
            challenge = service.open_session(
                spec.device_id, spec.profile,
                device_key(spec.device_id), 0.0)
            honest = self.factory.chain(
                spec, challenge.nonce,
                self.device_epochs.get(spec.device_id))
            queues[spec.device_id] = self._deliveries(spec, honest)

        def retry(device_id: str, nonce: bytes) -> List[bytes]:
            spec = by_id[device_id]
            chunks = self.factory.chain(
                spec, nonce, self.device_epochs.get(device_id))
            if spec.behavior != "stall":
                chunks = self._deliveries(spec, chunks)
            return chunks

        _drive_sessions(service, list(queues.items()), self.rng, 0.0,
                       step_s, retry)
        report = SimulationReport(verdicts=dict(service.verdicts))
        for spec in self.specs:
            verdict = report.verdicts.get(spec.device_id)
            if verdict is None:
                report.mismatches.append(
                    f"{spec.device_id} ({spec.behavior}): no verdict")
            elif verdict.accepted != spec.expected_accepted:
                want = "accept" if spec.expected_accepted else "reject"
                report.mismatches.append(
                    f"{spec.device_id} ({spec.behavior}): expected "
                    f"{want}, got "
                    f"{'accept' if verdict.accepted else 'reject'} "
                    f"({verdict.reason or 'ok'})")
        return report


def build_fleet_specs(devices: int,
                      workloads: Sequence[str] = ("fibcall", "prime"),
                      attack_fraction: float = 0.3,
                      method: str = "rap-track",
                      seed: int = 0) -> List[DeviceSpec]:
    """A mixed fleet: honest behaviors cycled over ``workloads``, the
    hostile fraction cycled over tamper/truncate/attack."""
    rng = random.Random(seed)
    # explicit cycle (not sorted(HOSTILE_BEHAVIORS)): fleet compositions
    # are pinned by tests and must not shift as behaviors are added
    hostile = ["attack", "tamper", "truncate"]
    honest = sorted(HONEST_BEHAVIORS)
    specs: List[DeviceSpec] = []
    n_hostile = round(devices * attack_fraction)
    for index in range(devices):
        device_id = f"prv-{index:04d}"
        if index < n_hostile:
            behavior = hostile[index % len(hostile)]
            workload = ("vulnerable" if behavior == "attack"
                        else rng.choice(list(workloads)))
        else:
            behavior = honest[index % len(honest)]
            workload = rng.choice(list(workloads))
        specs.append(DeviceSpec(
            device_id=device_id,
            profile=DeviceProfile(workload, method),
            behavior=behavior,
        ))
    rng.shuffle(specs)
    return specs


# -- compromise-then-heal campaigns (the policy control plane's load) -------


def build_campaign_specs(devices: int,
                         compromised_fraction: float = 0.05,
                         workloads: Sequence[str] = ("fibcall", "prime"),
                         method: str = "rap-track",
                         seed: int = 0) -> List[DeviceSpec]:
    """A campaign fleet: mostly honest devices, a compromised fraction
    cycled over attack/equivocate/tamper (each of which the policy
    engine must quarantine — the first two on hard signals, the last
    by consecutive-failure scoring)."""
    rng = random.Random(seed)
    compromised = ["attack", "equivocate", "tamper"]
    honest = sorted(HONEST_BEHAVIORS)
    n_compromised = round(devices * compromised_fraction)
    specs: List[DeviceSpec] = []
    for index in range(devices):
        device_id = f"prv-{index:04d}"
        if index < n_compromised:
            behavior = compromised[index % len(compromised)]
            workload = ("vulnerable" if behavior == "attack"
                        else rng.choice(list(workloads)))
        else:
            behavior = honest[index % len(honest)]
            workload = rng.choice(list(workloads))
        specs.append(DeviceSpec(
            device_id=device_id,
            profile=DeviceProfile(workload, method),
            behavior=behavior,
        ))
    rng.shuffle(specs)
    return specs


@dataclass
class CampaignReport:
    """SLA accounting for one compromise-then-heal campaign."""

    rounds: int = 0
    #: compromised device -> round index it reached QUARANTINED
    quarantined_round: Dict[str, int] = field(default_factory=dict)
    #: device -> round index its HEAL order was accepted on-device
    healed_round: Dict[str, int] = field(default_factory=dict)
    #: honest devices that were ever quarantined (must stay empty)
    wrongful_quarantines: List[str] = field(default_factory=list)
    #: sessions refused at admission (quarantined/revoked devices)
    denials: int = 0
    #: PLCY lifecycle notices that verified on-device
    notices_verified: int = 0
    compromised: List[str] = field(default_factory=list)
    end_states: Dict[str, str] = field(default_factory=dict)

    @property
    def rejoined(self) -> List[str]:
        return sorted(d for d in self.compromised
                      if self.end_states.get(d) == "REJOINED")

    @property
    def revoked(self) -> List[str]:
        return sorted(d for d in self.compromised
                      if self.end_states.get(d) == "REVOKED")

    @property
    def mean_time_to_quarantine(self) -> float:
        """Mean rounds from compromise (round 0) to QUARANTINED,
        counting the quarantining round itself — 1.0 means every
        compromised device was caught in its first session round."""
        if not self.quarantined_round:
            return 0.0
        return (sum(self.quarantined_round.values())
                / len(self.quarantined_round) + 1.0)

    @property
    def healing_success_rate(self) -> float:
        """Fraction of quarantined-and-healed devices that rejoined."""
        settled = [d for d in self.quarantined_round
                   if self.end_states.get(d) in ("REJOINED", "REVOKED")]
        if not settled:
            return 0.0
        return (sum(1 for d in settled
                    if self.end_states.get(d) == "REJOINED")
                / len(settled))

    @property
    def ok(self) -> bool:
        """The campaign's SLA: every compromised device was caught and
        settled (rejoined or revoked), no honest device was touched."""
        caught = all(d in self.quarantined_round
                     for d in self.compromised)
        settled = all(self.end_states.get(d) in ("REJOINED", "REVOKED")
                      for d in self.compromised)
        return caught and settled and not self.wrongful_quarantines

    def summary(self) -> str:
        return (
            f"{len(self.compromised)} compromised / "
            f"{len(self.end_states)} devices over {self.rounds} "
            f"round(s): {len(self.quarantined_round)} quarantined "
            f"(mean {self.mean_time_to_quarantine:.2f} rounds to "
            f"quarantine), {len(self.rejoined)} rejoined, "
            f"{len(self.revoked)} revoked "
            f"(healing success {self.healing_success_rate:.0%}), "
            f"{len(self.wrongful_quarantines)} wrongful quarantine(s), "
            f"{self.denials} admission denial(s), "
            f"{self.notices_verified} notice(s) verified on-device")


class CampaignSimulator:
    """Drive a compromise-then-heal campaign against a policy-enabled
    router, a :class:`~repro.cfa.fleet.shard.ShardedFleetService`
    (healing and notice rounds are fleet-wide: a shard has neither).

    Device-side state — which devices have been re-provisioned by a
    HEAL order — lives here, *outside* the service: devices do not
    crash when the Vrf does, so a campaign can be split around a
    service kill/restart (the crash differential drives ``run_round``
    / ``heal_round`` step by step against successive service
    incarnations, with one shared factory and one shared simulator).

    Every round is deterministic in ``(seed, round_index)`` alone:
    interleaving draws from a per-round CRC-seeded RNG and the logical
    clock is derived from the round index, so two campaigns over the
    same fleet — interrupted or not — submit byte-identical wire
    traffic.
    """

    def __init__(self, specs: Sequence[DeviceSpec], seed: int = 0,
                 watermark: Optional[int] = 1024, cache=None,
                 factory: Optional[ChainFactory] = None):
        self.specs = list(specs)
        self.seed = seed
        self.factory = factory or ChainFactory(
            watermark=watermark, cache=cache)
        self._by_id = {spec.device_id: spec for spec in self.specs}
        #: device-side re-provision flags (set when a HEAL order lands)
        self.healed: Set[str] = set()
        self.report = CampaignReport(compromised=sorted(
            s.device_id for s in self.specs
            if s.behavior in HOSTILE_BEHAVIORS))

    def _rng(self, round_index: int, phase: str) -> random.Random:
        tag = f"campaign:{self.seed}:{round_index}:{phase}".encode()
        return random.Random(zlib.crc32(tag))

    def _effective(self, spec: DeviceSpec) -> DeviceSpec:
        """What the device actually is this round: a healed device was
        re-flashed with pinned firmware and behaves honestly."""
        if spec.device_id in self.healed \
                and spec.behavior in HOSTILE_BEHAVIORS:
            return replace(spec, behavior="honest")
        return spec

    def pin_profiles(self, service) -> int:
        """Publish a policy document per fleet profile pinning the
        honest firmware measurement (so HEAL orders name a concrete
        image and rogue measurements become hard signals)."""
        if service.policy is None or service.policy.registry is None:
            return 0
        published = 0
        for profile in sorted({s.profile for s in self.specs},
                              key=lambda p: (p.workload, p.method)):
            template = self.factory._templates.get((profile, False))
            if template is None:
                template = self.factory._attest_template(profile, False)
                self.factory._templates[(profile, False)] = template
            service.policy.registry.publish(profile, template.h_mem)
            published += 1
        return published

    # -- one attestation round ---------------------------------------------

    def run_round(self, service, round_index: int,
                  step_s: float = 0.001) -> None:
        """Every admitted device attests once; blocked devices are
        refused at admission and counted."""
        rng = self._rng(round_index, "run")
        now = float(round_index) * 1000.0
        queues: Dict[str, List[bytes]] = {}
        for spec in self.specs:
            eff = self._effective(spec)
            try:
                challenge = service.open_session(
                    eff.device_id, eff.profile,
                    device_key(eff.device_id), now)
            except PolicyDeniedError:
                self.report.denials += 1
                continue
            honest = self.factory.chain(eff, challenge.nonce)
            queues[eff.device_id] = apply_behavior(
                eff.behavior, honest, rng)

        def retry(device_id: str, nonce: bytes) -> List[bytes]:
            eff = self._effective(self._by_id[device_id])
            chunks = self.factory.chain(eff, nonce)
            if eff.behavior != "stall":
                chunks = apply_behavior(eff.behavior, chunks, rng)
            return chunks

        _drive_sessions(service, sorted(queues.items()), rng, now, step_s,
                       retry)
        self._observe_states(service, round_index)

    # -- one healing round ---------------------------------------------------

    def heal_round(self, service, round_index: int,
                   step_s: float = 0.001, resume: bool = False) -> int:
        """Deliver HEAL orders; healed devices answer the healing
        challenge with a clean chain. Returns orders accepted
        on-device. With ``resume=True``, standing orders are re-issued
        (the post-restart path) instead of minting new ones."""
        now = float(round_index) * 1000.0 + 500.0
        pushes = (service.resume_heals(now) if resume
                  else service.heal_pushes(now))
        accepted = 0
        for device_id, frame in sorted(pushes):
            order = verify_heal_frame(
                device_key(device_id), device_id, frame)
            if order is None:
                continue  # forged or damaged order: the device refuses
            _attempt, _epoch, _measurement, nonce = order
            # re-provision: flash the ordered image, attest cleanly
            self.healed.add(device_id)
            self.report.healed_round.setdefault(device_id, round_index)
            accepted += 1
            eff = self._effective(self._by_id[device_id])
            for chunk in self.factory.chain(eff, nonce):
                service.submit(device_id, chunk, now)
                now += step_s
        service.drain()
        self._observe_states(service, round_index)
        return accepted

    def deliver_notices(self, service) -> int:
        """Deliver pending PLCY notices; devices verify the MAC."""
        verified = 0
        for device_id, frame in service.policy_pushes():
            if verify_policy_frame(
                    device_key(device_id), device_id, frame) is not None:
                verified += 1
        self.report.notices_verified += verified
        return verified

    def _observe_states(self, service, round_index: int) -> None:
        if service.policy is None:
            return
        for device_id, state in sorted(
                service.policy.state_names().items()):
            if state in ("QUARANTINED", "HEALING", "REVOKED"):
                self.report.quarantined_round.setdefault(
                    device_id, round_index)
                spec = self._by_id.get(device_id)
                if (spec is not None
                        and spec.behavior in HONEST_BEHAVIORS
                        and device_id
                        not in self.report.wrongful_quarantines):
                    self.report.wrongful_quarantines.append(device_id)

    # -- the whole campaign ---------------------------------------------------

    def run(self, service, rounds: int = 3,
            heal: bool = True) -> CampaignReport:
        """``rounds`` full cycles of attest -> heal -> notify."""
        for round_index in range(rounds):
            self.run_round(service, round_index)
            if heal:
                self.heal_round(service, round_index)
            self.deliver_notices(service)
        self.report.rounds = rounds
        if service.policy is not None:
            self.report.end_states = service.policy.state_names()
        return self.report
