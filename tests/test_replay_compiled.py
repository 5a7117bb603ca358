"""Differential battery: the compiled replays against the stepping oracle.

:class:`~repro.cfa.verifier.ReplayProgram` (RAP-Track, TRACES) and
:class:`~repro.cfa.verifier.NaiveReplayProgram` (naive MTB) are the
only replay engine: ``program.run`` folds the path into its length and
digest, :meth:`Verifier.replay` and :meth:`NaiveVerifier.replay` keep
it. ``replay_oracle`` steps the path one pc at a time and is the
reference. On every stream — honest runs of all workloads under all
three methods, attack chains, hypothesis-mutated streams, hand-broken
rewrite maps — the compiled digest (lossless, violations, error,
consumed, shadow-stack high-water mark, path length and digest) and
the whole :class:`VerificationResult` of ``replay``, path included,
must equal the oracle's, including where the step guard cuts a replay
short inside a run or a collapsed loop. ``run_method``, which verifies
with ``program.run``, must reach the oracle's verdict and failure
message. The closed-form loop trip count is pinned against the
stepping counter simulation it replaced.
"""

import copy
import dataclasses
import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.fleet import DeviceProfile, ShardedFleetService
from repro.cfa.report import Report
from repro.cfa.verifier import (
    NaiveReplayProgram,
    NaiveVerifier,
    ReplayProgram,
    Verifier,
)
from repro.cfa.wire import encode_report
from repro.core import loops
from repro.core.analysis import synthesize_chains, synthesize_return_flood
from repro.core.loops import SimpleLoopShape, trip_count
from repro.eval import runner
from repro.eval.runner import prepare
from repro.isa import alu
from repro.isa.conditions import CONDITIONS, cond_passed
from repro.isa.instructions import InstrKind
from repro.isa.registers import Flags
from repro.tz.keystore import KeyStore
from repro.workloads import WORKLOADS, load_workload, vulnerable
from repro.workloads.base import make_mcu

import replay_oracle
from conftest import naive_setup, rap_setup

METHODS = ("rap-track", "traces", "naive-mtb")
ENGINES = {"rap-track": RapTrackEngine, "traces": TracesEngine,
           "naive-mtb": NaiveMtbEngine}
KEY = KeyStore.provision().attestation_key
#: small enough that a mutated stream sent into a long loop ends fast
MUTANT_STEPS = 50_000


_BUILDS = {}


def build(name, method, attack=False):
    """(image, bound map or None for naive-mtb, honest-or-attacked
    records), attested once."""
    key = (name, method, attack)
    if key not in _BUILDS:
        workload = load_workload(name)
        image, bound = prepare(workload, method)
        mcu = make_mcu(image, workload)
        if attack:
            mcu.mmio.device("uart").set_feed(vulnerable.attack_feed(image))
        maps = () if bound is None else (bound,)
        engine = ENGINES[method](mcu, KeyStore.provision(), *maps,
                                 EngineConfig())
        _BUILDS[key] = (image, bound, tuple(engine.attest(b"c").cflog.records))
    return _BUILDS[key]


def reference(image, bound, max_steps=20_000_000):
    """The verifier (naive-MTB when ``bound`` is None)."""
    if bound is None:
        return NaiveVerifier(image, KEY, max_steps=max_steps)
    return Verifier(image, bound, KEY, max_steps=max_steps)


def assert_same(image, bound, records, max_steps=20_000_000):
    """The compiled digest and ``replay``'s whole result, path
    included, equal the oracle's; returns the oracle's digest. The
    compiled replays read ``records`` packed, as the wire carries them."""
    verifier = reference(image, bound, max_steps)
    want = replay_oracle.replay(verifier, records)
    ref = replay_oracle.digest(want)
    log = CFLog(records).pack()
    assert verifier.program.run(log, max_steps) == ref
    assert verifier.replay(log) == want  # path included
    return ref


class TestWorkloads:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_honest(self, name, method):
        summary = assert_same(*build(name, method))
        assert summary.lossless and not summary.violations
        assert summary.path_len > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_vulnerable_rop_attack(self, method):
        summary = assert_same(*build("vulnerable", method, attack=True))
        assert summary.lossless
        assert any(v.kind == "rop-return" for v in summary.violations)

    @pytest.mark.parametrize("name, method", [
        (name, method) for name in ("vulnerable", "fibcall")
        for method in METHODS
        if (name, method) != ("fibcall", "naive-mtb")])  # no chain there
    def test_synthesized_chains(self, name, method):
        image, bound, _ = build(name, method)
        chains = synthesize_chains(image, bound, method)
        flood = synthesize_return_flood(image, bound, method, 6)
        assert chains
        for chain in chains + ([flood] if flood else []):
            summary = assert_same(image, bound, chain.records)
            assert summary.violations or not summary.lossless

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_hijacked_transfers(self, name, method):
        """Every logged transfer redirected to the entry point and to
        a mid-function pc: violations, shadow-stack drift or errors."""
        image, bound, records = build(name, method)
        transfers = [i for i, r in enumerate(records)
                     if isinstance(r, (BranchRecord, AddressRecord))]
        for index in transfers[:6]:
            for dst in (image.entry, image.entry + 2):
                mutant = list(records)
                mutant[index] = type(records[index])(records[index].key, dst)
                assert_same(image, bound, mutant, 10_000)


# -- mutated record streams ---------------------------------------------------

def without(bound, table, pc):
    """A copy of a bound rewrite map with one site left out."""
    bound = copy.copy(bound)
    setattr(bound, table, {k: v for k, v in getattr(bound, table).items()
                           if k != pc})
    return bound


#: honest streams covering loop-opt records, indirect calls/returns,
#: computed jumps, silent-cycle latches and forward-exit trampolines
MUTATION_BASES = [("ultrasonic", "rap-track"), ("syringe", "traces"),
                  ("gps", "rap-track"), ("gps", "traces"),
                  ("strsearch", "rap-track"), ("vulnerable", "traces")]
#: naive-MTB streams: direct and conditional branches, calls, pops and
#: bx returns, indirect calls (gps) and a data-dependent loop (geiger)
NAIVE_MUTATION_BASES = [("gps", "naive-mtb"), ("syringe", "naive-mtb"),
                        ("vulnerable", "naive-mtb"), ("fir", "naive-mtb")]


def mutate(records, data, image):
    records = list(records)
    op = data.draw(st.sampled_from(
        ["drop", "duplicate", "swap", "dst", "loop", "truncate"]))
    if not records:
        return records
    index = data.draw(st.integers(0, len(records) - 1))
    record = records[index]
    if op == "drop":
        del records[index]
    elif op == "truncate":
        del records[index:]
    elif op == "duplicate":
        records.insert(index, record)
    elif op == "swap":
        other = data.draw(st.integers(0, len(records) - 1))
        records[index], records[other] = records[other], record
    elif op == "dst" and isinstance(record, (BranchRecord, AddressRecord)):
        code = sorted(image.instr_at)
        dst = data.draw(st.one_of(
            st.sampled_from(code), st.integers(0, 0xFFFF_FFFF)))
        records[index] = type(record)(record.key, dst)
    elif op == "loop":
        loops_at = [i for i, r in enumerate(records)
                    if isinstance(r, LoopRecord)]
        if loops_at:
            index = data.draw(st.sampled_from(loops_at))
            value = data.draw(st.one_of(
                st.integers(0, 64), st.integers(0, 0xFFFF_FFFF),
                st.sampled_from([0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF])))
            old = records[index]
            records[index] = LoopRecord(old.key, value)
    return records


class TestMutatedStreams:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutants_agree(self, data):
        name, method = data.draw(st.sampled_from(MUTATION_BASES))
        image, bound, records = build(name, method)
        for _ in range(data.draw(st.integers(1, 3))):
            records = mutate(records, data, image)
        assert_same(image, bound, records, MUTANT_STEPS)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_naive_mutants_agree(self, data):
        name, method = data.draw(st.sampled_from(NAIVE_MUTATION_BASES))
        image, bound, records = build(name, method)
        for _ in range(data.draw(st.integers(1, 3))):
            records = mutate(records, data, image)
        assert_same(image, bound, records, MUTANT_STEPS)

    def test_every_replay_error_branch(self):
        """Each ReplayError message of the replay is reached by some
        broken stream or rewrite map, identically on both paths."""
        reached = set()

        def check(image, bound, records, max_steps=MUTANT_STEPS):
            summary = assert_same(image, bound, records, max_steps)
            if summary.error:
                reached.add(summary.error.split(" at ")[0].split(" 0x")[0])

        image, bound, records = build("ultrasonic", "rap-track")
        loop_index = next(i for i, r in enumerate(records)
                          if isinstance(r, LoopRecord))
        check(image, bound, records, 100)
        check(image, bound, records[:loop_index] + records[loop_index + 1:])
        hostile = list(records)
        hostile[loop_index] = LoopRecord(records[loop_index].key,
                                         0x7FFF_FFFF)
        check(image, bound, hostile)
        check(image, bound, records + records[-1:])
        # the svc loop-condition site without its rewrite-map entry
        check(image, without(bound, "loop_at", next(iter(bound.loop_at))),
              records)
        # an instruction on the path missing from the image
        hole = copy.copy(image)
        hole.instr_at = dict(image.instr_at)
        del hole.instr_at[image.entry + image.instr_at[image.entry].size]
        check(hole, bound, records)

        image, bound, records = build("gps", "rap-track")
        indirect = next(i for i, r in enumerate(records)
                        if any(r.key == site.rec_addr
                               for site in bound.indirect_at.values()))
        check(image, bound, records[:indirect] + records[indirect + 1:])
        bad = list(records)
        bad[indirect] = type(records[indirect])(records[indirect].key, 0x1)
        check(image, bound, bad)
        # re-key a silent-cycle latch's mandatory record
        latch = next(site.rec_addr for site in bound.cond_at.values()
                     if site.flavor == "always")
        index = next(i for i, r in enumerate(records) if r.key == latch)
        rekeyed = list(records)
        rekeyed[index] = BranchRecord(0x1, records[index].dst)
        check(image, bound, rekeyed)

        image, bound, records = build("gps", "traces")
        svc_call = next(pc for pc, site in bound.indirect_at.items()
                        if site.kind == "call")
        check(image, without(bound, "indirect_at", svc_call), records)

        image, bound, records = build("bitcount", "rap-track")
        cbz = next(pc for pc in list(bound.cond_at) + list(
            bound.fixed_trip_at) if image.instr_at[pc].mnemonic
            in ("cbz", "cbnz"))
        check(image, without(without(bound, "cond_at", cbz),
                             "fixed_trip_at", cbz), records)
        conditional = next(pc for pc in bound.cond_at
                           if image.instr_at[pc].cond is not None)
        check(image, without(bound, "cond_at", conditional), records)

        image, bound, records = build("crc32", "rap-track")
        latch = next(iter(bound.fixed_trip_at))
        opt = without(bound, "fixed_trip_at", latch)
        opt.loop_latches = {latch}
        check(image, opt, records)
        entry_latch = copy.copy(bound)
        entry_latch.fixed_trip_at = {image.entry: 2}
        check(image, entry_latch, records)

        assert reached == {
            "replay exceeded the step guard",
            "missing loop-condition record",
            "logged loop condition",
            "1 CFLog records left after execution reached its end",
            "unexpected svc",
            "replay left the code image",
            "missing record for indirect transfer",
            "logged target",
            "missing record for latch",
            "unclassified pc-writing instruction",
            "unclassified conditional",
            "loop latch",
            "no direct target",
        }


    def test_every_naive_replay_error_branch(self):
        """Each ReplayError message of the naive replay is reached,
        identically on both paths."""
        reached = set()

        def check(image, records, max_steps=MUTANT_STEPS):
            summary = assert_same(image, None, records, max_steps)
            if summary.error:
                reached.add(summary.error.split(" at ")[0].split(" 0x")[0])

        image, _, records = build("gps", "naive-mtb")
        check(image, records, 100)
        check(image, records[:-1])
        check(image, [BranchRecord(0x1, records[0].dst)] + list(records[1:]))
        check(image, records + records[-1:])
        # a return logged into data: replay runs off the code image
        ret = next(i for i, r in enumerate(records)
                   if image.instr_at[r.key].kind is InstrKind.POP)
        off = list(records)
        off[ret] = BranchRecord(records[ret].key, 0x1)
        check(image, off)
        # a direct branch logged to a pc it does not target
        direct = next(i for i, r in enumerate(records)
                      if image.instr_at[r.key].direct_target() is not None)
        forged = list(records)
        forged[direct] = BranchRecord(records[direct].key, image.entry)
        check(image, forged)

        assert reached == {
            "replay exceeded the step guard",
            "CFLog exhausted",
            "CFLog record mismatch",
            "1 CFLog records left after execution reached its end",
            "replay left the code image",
            "direct transfer",
        }


    def test_naive_unresolvable_direct_target(self):
        """A call whose label the image lost raises alike on every path
        (the program cannot decode its target, so it steps it)."""
        image, _, records = build("gps", "naive-mtb")
        call = next(r.key for r in records
                    if image.instr_at[r.key].kind is InstrKind.CALL)
        label = image.instr_at[call].direct_target().name
        broken = copy.copy(image)
        broken.symbols = {k: v for k, v in image.symbols.items()
                          if k != label}
        assert NaiveReplayProgram(broken)._sites[call][0] == "opaque"
        verifier = reference(image, None)  # measured on the intact image
        verifier.image = broken
        log = CFLog(records).pack()
        with pytest.raises(KeyError, match=label):
            replay_oracle.replay(verifier, records)
        for replay in (verifier.replay, NaiveReplayProgram(broken).run):
            with pytest.raises(KeyError, match=label):
                replay(log)


    def test_naive_bx_pops_only_a_matching_frame(self):
        """A leaf ``bx lr`` logged past its call site leaves the frame
        on the shadow stack: the caller's ``pop {pc}`` then fails the
        check instead of exiting cleanly."""
        image, _, _, engine, _, _ = naive_setup(LEAF)
        records = list(engine.attest(b"c").cflog.records)
        bx = image.symbols["leaf"]
        index = next(i for i, r in enumerate(records) if r.key == bx)
        forged = list(records)
        forged[index] = BranchRecord(bx, image.symbols["tail"])
        honest = assert_same(image, None, records)
        assert honest.lossless and not honest.violations
        summary = assert_same(image, None, forged)
        assert [v.kind for v in summary.violations] == ["rop-return"]
        assert not summary.lossless


LEAF = """
main:
    push {lr}
    bl leaf
    nop
tail:
    pop {pc}
leaf:
    bx lr
"""


class TestForgedDirectTransfers:
    """A naive-MTB packet at a direct ``b``/``bl``/taken conditional must
    name the static target: a log cannot steer a direct branch."""

    @pytest.mark.parametrize("name", ["vulnerable", "fibcall", "gps"])
    def test_forged_dst_chain_rejected(self, name):
        image, _, records = build(name, "naive-mtb")
        unlock = image.symbols.get("maintenance_unlock", image.entry)
        kinds = {}
        for index, record in enumerate(records):
            instr = image.instr_at[record.key]
            if instr.direct_target() is None:
                continue
            kind = ("cond" if instr.cond is not None
                    or instr.kind is InstrKind.COMPARE_BRANCH
                    else instr.kind.value)
            if kind in kinds:
                continue
            kinds[kind] = index
            forged = list(records)
            forged[index] = BranchRecord(record.key, unlock)
            summary = assert_same(image, None, forged)
            assert not summary.lossless
            assert summary.error == (
                f"direct transfer at {record.key:#010x} logged to "
                f"{unlock:#010x}, its target is {record.dst:#010x}")
        assert "call" in kinds and "cond" in kinds


# -- the step guard -----------------------------------------------------------

class TestStepGuard:
    def test_guard_at_every_step(self):
        """crc32's fixed loops all collapse: cut the replay at every
        possible step, inside runs, latches and collapsed bodies."""
        image, bound, records = build("crc32", "rap-track")
        program = ReplayProgram(image, bound)
        assert program._bodies and program._runs
        full = program.run(CFLog(records).pack())
        for max_steps in range(1, full.path_len + 2):
            assert_same(image, bound, records, max_steps)

    def test_naive_guard_at_every_step(self):
        image, _, records = build("crc32", "naive-mtb")
        full = NaiveReplayProgram(image).run(CFLog(records).pack())
        assert full.lossless
        for max_steps in range(1, full.path_len + 2):
            assert_same(image, None, records, max_steps)

    @pytest.mark.parametrize("name", ["geiger", "fir", "ultrasonic"])
    def test_naive_guard_inside_long_loops(self, name):
        image, _, records = build(name, "naive-mtb")
        length = NaiveReplayProgram(image).run(
            CFLog(records).pack()).path_len
        for max_steps in range(1, length, max(1, length // 29)):
            assert_same(image, None, records, max_steps)

    @pytest.mark.parametrize("name", ["geiger", "fir", "ultrasonic"])
    def test_guard_inside_long_loops(self, name):
        image, bound, records = build(name, "rap-track")
        length = ReplayProgram(image, bound).run(
            CFLog(records).pack()).path_len
        for max_steps in range(1, length, max(1, length // 29)):
            assert_same(image, bound, records, max_steps)

    def test_untracked_cycle_hits_guard_arithmetically(self):
        """A spin loop of untracked pcs never ends: the compiled replay
        computes the guard's partial path without stepping the default
        20M steps. (The rewriter trampolines such silent cycles, so the
        spin's latch site is left out of the map by hand.)"""
        image, bound = rap_setup(SPIN)[:2]
        bound = without(bound, "cond_at", image.symbols["spin"] + 2)
        program = ReplayProgram(image, bound)
        assert any(run.exit == pc for pc, run in program._runs.items())
        for max_steps in (1, 2, 3, 4, 5, 1_000, 4_097, 100_000):
            assert_same(image, bound, [], max_steps)
        start = time.perf_counter()
        out = program.run(b"")
        assert time.perf_counter() - start < 5.0
        assert out.error == "replay exceeded the step guard"
        assert out.path_len == 20_000_000


SPIN = """
main:
    mov r0, #1
    add r0, r0, #1
spin:
    nop
    b spin
"""


# -- closed-form trip count ---------------------------------------------------

def stepping_trip_count(shape, init, guard):
    """The counter simulation trip_count used to be: the oracle."""
    count = 0
    value = init & alu.MASK32
    while True:
        value = alu.u32(value + shape.step)
        _, n, z, c, v = alu.sub_with_flags(value, shape.bound)
        if not cond_passed(shape.cond, Flags(n, z, c, v)):
            return count + 1
        count += 1
        if count > guard:
            raise ValueError("non-terminating simple loop")


SMALL_GUARD = 600
BOUNDARIES = [0, 1, 2, 0x7FFF_FFFE, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001,
              0xFFFF_FFFE, 0xFFFF_FFFF]


class TestClosedFormTripCount:
    @settings(max_examples=600, deadline=None)
    @given(cond=st.sampled_from(CONDITIONS),
           step=st.one_of(st.sampled_from([1, -1, 2, -2, 3, -4, 8, -16]),
                          st.integers(-4096, 4096).filter(bool),
                          st.integers(1, 0xFFFF_FFFF)),
           bound=st.one_of(st.sampled_from(BOUNDARIES + [10, 255]),
                           st.integers(0, 0xFFFF_FFFF)),
           base=st.one_of(st.sampled_from(BOUNDARIES),
                          st.integers(0, 0xFFFF_FFFF)),
           near=st.booleans(), offset=st.integers(-700, 700))
    def test_matches_stepping(self, cond, step, bound, base, near,
                              offset):
        shape = SimpleLoopShape(0, 4, bound, step, cond, None)
        init = ((bound if near else base) + offset * step) & alu.MASK32
        with mock.patch.object(loops, "TRIP_GUARD", SMALL_GUARD):
            try:
                want = stepping_trip_count(shape, init, SMALL_GUARD)
            except ValueError:
                with pytest.raises(ValueError):
                    trip_count(shape, init)
            else:
                assert trip_count(shape, init) == want

    def test_guard_boundary_is_exact(self):
        shape = SimpleLoopShape(0, 1, 0, -1, "ne", None)
        assert trip_count(shape, loops.TRIP_GUARD + 1) == loops.TRIP_GUARD + 1
        with pytest.raises(ValueError, match="non-terminating"):
            trip_count(shape, loops.TRIP_GUARD + 2)

    def test_never_terminating(self):
        start = time.perf_counter()
        # never reaches the bound; reaches the signed wrap after 2**31
        for cond, step, init in (("ne", 0x10000, 0), ("ne", 2, 0),
                                 ("ge", 1, 3)):
            with pytest.raises(ValueError):
                trip_count(SimpleLoopShape(0, 4, 3, step, cond, None), init)
        assert time.perf_counter() - start < 0.5


# -- run_method verifies with the compiled program ----------------------------

def resigned(result, records, key=KEY):
    """``result`` as one final report carrying ``records``, signed."""
    first = result.reports[0]
    report = Report(device_id=first.device_id, method=first.method,
                    challenge=first.challenge, h_mem=first.h_mem, seq=0,
                    final=True, cflog=CFLog(list(records))).sign(key)
    return dataclasses.replace(result, reports=[report])


TAMPERS = {
    # one record too many: a replay error
    "appended": lambda result, method: resigned(
        result, result.cflog.records + result.cflog.records[-1:]),
    # the live ROP attack's log, validly signed: violations
    "attack": lambda result, method: resigned(
        result, build("vulnerable", method, attack=True)[2]),
    # signed under the wrong key: authentication fails
    "unsigned": lambda result, method: resigned(
        result, result.cflog.records, key=b"x" * 32),
}


def run_both(name, method, tamper=None):
    """``run_method``'s (verified, failure message) next to what the
    oracle's ``verify`` makes of the very chain ``run_method`` saw."""
    build("vulnerable", method, attack=True)  # attested before patching
    seen = []
    engine = ENGINES[method]
    attest = engine.attest

    def tampered_attest(self, challenge):
        result = attest(self, challenge)
        if tamper is not None:
            result = TAMPERS[tamper](result, method)
        seen.append(result)
        return result

    with mock.patch.object(engine, "attest", tampered_attest):
        try:
            got = (runner.run_method(name, method).verified, None)
        except RuntimeError as exc:
            got = (False, str(exc))
    image, bound = prepare(load_workload(name), method)
    verifier = reference(image, bound)
    ref = replay_oracle.verify(verifier, seen[0], b"eval-challenge")
    assert verifier.verify(seen[0], b"eval-challenge") == ref
    want = (ref.ok, None if ref.ok else (
        f"{method} verification failed on {name}: "
        f"{ref.error or ref.violations[:3]}"))
    return got, want


class TestRunMethod:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_matches_stepping_verify(self, name, method):
        got, want = run_both(name, method)
        assert got == want == (True, None)

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    @pytest.mark.parametrize("method", METHODS)
    def test_tampered_chain(self, method, tamper):
        got, want = run_both("vulnerable", method, tamper)
        assert got == want
        assert not got[0]


# -- hostile loop values fail closed ------------------------------------------

def test_hostile_loop_value_rejected_by_fleet():
    """A MAC-valid loop-condition record that never terminates settles
    as a rejected verdict, fast, and raises nothing."""
    image, bound, records = build("ultrasonic", "rap-track")
    hostile = [LoopRecord(r.key, 0x7FFF_FFFF)
               if isinstance(r, LoopRecord) else r for r in records]
    service = ShardedFleetService(workers=0)
    key = b"k" * 32
    challenge = service.open_session(
        "dev-0", DeviceProfile("ultrasonic"), key)
    report = Report(device_id=b"dev-0", method="rap-track",
                    challenge=challenge.nonce,
                    h_mem=Verifier(image, bound, key).expected_h_mem,
                    seq=0, final=True, cflog=CFLog(hostile))
    start = time.perf_counter()
    service.submit("dev-0", encode_report(report.sign(key)))
    elapsed = time.perf_counter() - start
    verdict = service.verdicts["dev-0"]
    service.close()
    assert elapsed < 1.0
    assert not verdict.accepted and verdict.authenticated
    assert "does not terminate" in verdict.reason
