"""Data Watchpoint and Trace (DWT) unit model.

The Cortex-M33 DWT provides four comparators. RAP-Track pairs them into
two PC ranges (paper section IV-B):

* an MTBAR range whose match asserts ``MTB_TSTART``;
* an MTBDR range whose match asserts ``MTB_TSTOP``.

The unit is evaluated with the PC of the instruction *about to execute*
(a CPU pre-hook), so a branch whose source lies in MTBAR is recorded
(including MTBAR→MTBDR exits) while MTBDR→MTBAR entries are not — the
activation discipline the paper defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.trace.mtb import MTB

#: Hardware comparator budget on the Cortex-M33.
COMPARATOR_SLOTS = 4


@dataclass(frozen=True)
class RangeComparator:
    """A PC range built from two comparators (base and limit)."""

    action: str  # "start" | "stop"
    lo: int
    hi: int  # exclusive

    SLOT_COST = 2

    def matches(self, pc: int) -> bool:
        return self.lo <= pc < self.hi


class DWT:
    """PC-range comparators that gate the MTB."""

    #: block-observation protocol (repro.machine.jit.runtime): the CPU
    #: pre-hook this unit registers, hoistable via jit_block_pre
    JIT_PRE_HOOK = "evaluate"

    def __init__(self, mtb: MTB):
        self.mtb = mtb
        self.ranges: List[RangeComparator] = []

    def configure_range(self, action: str, lo: int, hi: int) -> RangeComparator:
        """Program one PC range; enforces the 4-comparator budget."""
        if action not in ("start", "stop"):
            raise ValueError(f"unknown DWT action: {action}")
        used = sum(r.SLOT_COST for r in self.ranges) + RangeComparator.SLOT_COST
        if used > COMPARATOR_SLOTS:
            raise ValueError("out of DWT comparator slots")
        comparator = RangeComparator(action, lo, hi)
        self.ranges.append(comparator)
        return comparator

    def clear(self) -> None:
        self.ranges = []

    def evaluate(self, pc: int) -> None:
        """CPU pre-hook: assert TSTART/TSTOP based on the upcoming PC."""
        for comparator in self.ranges:
            if comparator.matches(pc):
                if comparator.action == "start":
                    self.mtb.start()
                else:
                    self.mtb.stop()

    def jit_block_pre(self, pcs) -> bool:
        """Hoisted pre-hook for a straight-line block or a self-loop.

        One call must be observably equivalent to :meth:`evaluate`
        before every instruction of ``pcs`` — *idempotent under
        repetition*: also before every instruction of any number of
        back-to-back passes over ``pcs``, interleaved with the retire
        hooks.  That holds when the comparators covering ``pcs`` share
        one action and every other comparator misses all of ``pcs``:
        the first evaluation then leaves the MTB started (or stopped),
        every later one repeats a no-op, and no retire hook starts or
        stops the MTB.  ``pcs`` is contiguous and ascending, so a
        comparator's relation to it reduces to the endpoints.

        Returns False — with no side effects — when some comparator
        splits ``pcs``, or when both a start and a stop range cover it
        (per instruction, stop-then-start re-arms the activation warmup
        before every instruction; one hoisted evaluation would not).
        The caller then falls back: a loop to one iteration per
        dispatch, a straight-line block to per-instruction stepping.
        """
        first = pcs[0]
        last = pcs[-1]
        action = None
        for comparator in self.ranges:
            if comparator.lo <= first and last < comparator.hi:
                if action is not None and comparator.action != action:
                    return False
                action = comparator.action
            elif not (comparator.hi <= first or comparator.lo > last):
                return False
        if action == "start":
            self.mtb.start()
        elif action == "stop":
            self.mtb.stop()
        return True
