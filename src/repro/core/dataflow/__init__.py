"""Worklist dataflow engine: lattice, solver, and concrete analyses.

The package deepens the offline phase from purely syntactic
classification to real static analysis (ISSUE 5 / paper section IV-C):
value-set propagation licenses branch devirtualization, LR validity
refines leaf-return detection, and reaching-defs/liveness feed the
``repro lint`` hygiene checks.
"""

from repro.core.dataflow.analyses import (
    ConstMemory,
    DataflowFacts,
    GENERAL_REGS,
    analyse_liveness,
    analyse_lr_validity,
    analyse_module,
    analyse_reaching_defs,
    analyse_value_sets,
    def_use,
)
from repro.core.dataflow.framework import (
    FixpointDiverged,
    Solution,
    reverse_graph,
    solve,
)
from repro.core.dataflow.lattice import (
    Addr,
    BOTTOM,
    Const,
    MAX_WIDTH,
    RegState,
    TOP,
    Value,
    ValueSet,
    lift_binary,
    lift_unary,
    state_get,
    state_join,
    vs,
    vs_addr,
    vs_const,
)

__all__ = [
    "Addr", "BOTTOM", "Const", "ConstMemory", "DataflowFacts",
    "FixpointDiverged", "GENERAL_REGS", "MAX_WIDTH", "RegState",
    "Solution", "TOP", "Value", "ValueSet",
    "analyse_liveness", "analyse_lr_validity", "analyse_module",
    "analyse_reaching_defs", "analyse_value_sets", "def_use",
    "lift_binary", "lift_unary", "reverse_graph", "solve",
    "state_get", "state_join", "vs", "vs_addr", "vs_const",
]
