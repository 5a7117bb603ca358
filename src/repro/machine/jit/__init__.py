"""Superblock JIT tier for the ISA interpreter.

The software analogue of the paper's MTBDR insight: deterministic
straight-line regions need no per-instruction observation.  Hot
single-entry straight-line superblocks are compiled once into
specialized Python functions that execute the whole block with cycle
counts pre-summed and the per-instruction DWT/MTB/tracer observation
hoisted to the block boundary, and a register-only loop back to the
block's own entry iterates inside its compiled function; everything
else (SVC gateway calls, faults, unknown hooks) falls back to the
one-instruction-at-a-time interpreter, so trace semantics stay
bit-identical.

See ``docs/internals.md`` section 8 for the soundness argument.
"""

from repro.machine.jit.superblock import Superblock, discover_superblock
from repro.machine.jit.compiler import CompiledBlock, compile_superblock
from repro.machine.jit.runtime import (
    NOJIT,
    JITRuntime,
    hoisted_handlers,
)

__all__ = [
    "Superblock",
    "discover_superblock",
    "CompiledBlock",
    "compile_superblock",
    "JITRuntime",
    "NOJIT",
    "hoisted_handlers",
]
