"""Edge cases of the compiled replay's fused run-and-site dispatch.

:class:`~repro.cfa.verifier.ReplayProgram` keeps one op table per
program; a run's entry carries the op of the site it ends at, so the
run and that site are one dispatch. The run is dispatched alone where
fusing could change what the stepping replay reports: the step guard
landing on the run's end or its site, a run whose exit starts another
run (a cycle in the middle of a run) and a run that leaves the code.
Each case here is compared with the stepping oracle
(``replay_oracle``), field by field and path by path, at the guard
positions around it.
"""

import copy

from repro.cfa.cflog import CFLog
from repro.cfa.verifier import ReplayProgram, Verifier
from repro.tz.keystore import KeyStore

import replay_oracle
from conftest import rap_setup

KEY = KeyStore.provision().attestation_key

CALLS = """
main:
    push {lr}
    mov r0, #3
    add r0, r0, #1
    bl helper
    add r0, r0, #2
    pop {pc}
helper:
    mov r1, #2
    add r1, r1, #1
    bx lr
"""

SPIN = """
main:
    mov r0, #1
    add r0, r0, #1
spin:
    nop
    b spin
"""


def assert_same(image, bound, records, max_steps, program=None):
    """The compiled digest and the verifier's whole ``replay`` result
    equal the oracle's, on ``image`` (which may differ from the image
    the verifier measured). The compiled replays read ``records``
    packed, as the wire carries them."""
    verifier = Verifier(image, bound, KEY, max_steps=max_steps)
    want = replay_oracle.replay(verifier, records)
    log = CFLog(records).pack()
    out = (program or ReplayProgram(image, bound)).run(log, max_steps)
    assert out == replay_oracle.digest(want)
    assert verifier.replay(log) == want
    return out


def without(bound, table, pc):
    bound = copy.copy(bound)
    setattr(bound, table, {k: v for k, v in getattr(bound, table).items()
                           if k != pc})
    return bound


def test_guard_at_a_fused_run_end_and_its_site():
    """The guard lands on the last pc of the entry run, on the site the
    run ends at, and one step past it: the first takes the run alone,
    the others the fused dispatch."""
    image, bound, _, engine, _, _ = rap_setup(CALLS)
    records = list(engine.attest(b"c").cflog.records)
    program = ReplayProgram(image, bound)
    op = program._ops[image.entry]
    site = op[4]
    assert site is not None  # the entry run is fused with its exit's site
    length = op[2]
    honest = assert_same(image, bound, records, 20_000_000, program)
    assert honest.lossless and honest.path_len > length + 2
    outs = {max_steps: assert_same(image, bound, records, max_steps, program)
            for max_steps in range(1, honest.path_len + 3)}
    for max_steps in (length - 1, length, length + 1, length + 2):
        assert outs[max_steps].error == "replay exceeded the step guard"
    assert outs[length].path_len == length
    assert outs[length + 1].path_len > length


def test_run_whose_exit_starts_another_run():
    """``mov; add; nop; b spin``: the entry run crosses the spin cycle
    and stops where a pc would repeat, at the start of the spin's own
    run, so it is not fused; the spin then ends only at the guard."""
    image, bound = rap_setup(SPIN)[:2]
    bound = without(bound, "cond_at", image.symbols["spin"] + 2)
    program = ReplayProgram(image, bound)
    op = program._ops[image.entry]
    assert op[3] == image.symbols["spin"] and op[3] in program._runs
    assert op[4] is None
    for max_steps in range(1, 12):
        out = assert_same(image, bound, [], max_steps, program)
        assert out.error == "replay exceeded the step guard"
        assert out.path_len == max_steps


def test_run_exit_that_is_not_code():
    """With the entry run's exit pc gone from the image the run is not
    fused, and both replays leave the code image at the same step."""
    image, bound, _, engine, _, _ = rap_setup(CALLS)
    records = list(engine.attest(b"c").cflog.records)
    exit_pc = ReplayProgram(image, bound)._ops[image.entry][3]
    broken = copy.copy(image)
    broken.instr_at = {pc: instr for pc, instr in image.instr_at.items()
                       if pc != exit_pc}
    program = ReplayProgram(broken, bound)
    assert program._ops[broken.entry][4] is None
    length = program._ops[broken.entry][2]
    for max_steps in (length - 1, length, length + 1, 20_000_000):
        out = assert_same(broken, bound, records, max_steps, program)
        assert not out.lossless
    assert out.error == f"replay left the code image at {exit_pc:#010x}"
    assert out.path_len == length
