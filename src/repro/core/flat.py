"""Flat indexed view of a module's executable section."""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.asm.program import DataWord, Module, Space
from repro.isa.instructions import Instr, InstrKind
from repro.isa.operands import Label
from repro.isa.registers import LR


class FlatProgram:
    """The text section as an indexed instruction list.

    Static analysis works on *indices* into this list (stable under
    re-linking); the rewriter turns index-based decisions back into a
    Module. The module is not changed after the view is built, so its
    whole-module facts are computed once.
    """

    def __init__(self, module: Module, section: str = "text"):
        self.module = module
        self.section_name = section
        self.labels_at: List[Tuple[str, ...]] = []
        self.instrs: List[Instr] = []
        self.label_index: Dict[str, int] = {}
        sec = module.section(section)
        for item in sec.items:
            if isinstance(item.payload, Space) and item.payload.length == 0:
                # trailing label carrier; bind to one-past-the-end
                for label in item.labels:
                    self.label_index[label] = len(self.instrs)
                continue
            if not isinstance(item.payload, Instr):
                raise ValueError(
                    f"non-instruction payload in {section}: {item.payload!r}"
                )
            for label in item.labels:
                self.label_index[label] = len(self.instrs)
            self.labels_at.append(item.labels)
            self.instrs.append(item.payload)
        while len(self.labels_at) < len(self.instrs):
            self.labels_at.append(())

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def index_of(self, label: str) -> int:
        return self.label_index[label]

    def target_index(self, instr: Instr) -> Optional[int]:
        """Index of a direct branch target, if it lands in this section."""
        target = instr.direct_target()
        if target is None:
            return None
        return self.label_index.get(target.name)

    # -- whole-module facts -------------------------------------------------

    def address_taken_labels(self) -> Set[str]:
        """Labels whose address escapes into data or registers.

        These are the only legal targets of indirect control transfers
        (function pointers loaded with ``adr``, switch-table ``.word``
        entries), and form the indirect-branch policy the Verifier
        checks consumed CFLog targets against.
        """
        return set(self._address_taken)

    @cached_property
    def _address_taken(self) -> FrozenSet[str]:
        taken: Set[str] = set()
        for sec in self.module.sections.values():
            for item in sec.items:
                payload = item.payload
                if isinstance(payload, DataWord) and isinstance(payload.value, Label):
                    taken.add(payload.value.name)
                elif isinstance(payload, Instr) and payload.mnemonic == "adr":
                    operand = payload.operands[1]
                    if isinstance(operand, Label):
                        taken.add(operand.name)
        return frozenset(taken)

    def function_starts(self) -> List[int]:
        """Indices that start functions: the entry, every ``bl`` target,
        and every address-taken label that is called indirectly."""
        return list(self._starts)

    @cached_property
    def _starts(self) -> Tuple[int, ...]:
        starts: Set[int] = set()
        entry = self.label_index.get(self.module.entry)
        if entry is not None:
            starts.add(entry)
        for instr in self.instrs:
            if instr.kind is InstrKind.CALL:
                idx = self.target_index(instr)
                if idx is not None:
                    starts.add(idx)
        for label in self._address_taken:
            idx = self.label_index.get(label)
            if idx is not None:
                starts.add(idx)
        return tuple(sorted(starts))

    def function_extent(self, index: int) -> Tuple[int, int]:
        """(start, end) indices of the function containing ``index``.

        Functions are assumed contiguous and non-interleaved (our
        assembler layout discipline), delimited by the next function
        start.
        """
        starts = self._starts
        pos = bisect_right(starts, index)
        start = starts[pos - 1] if pos else 0
        end = starts[pos] if pos < len(starts) else len(self.instrs)
        return (start, end)

    def function_writes_lr(self, index: int) -> bool:
        """Does the function containing ``index`` clobber LR before a
        ``bx lr`` could use it? True if it contains calls or explicit LR
        writes — the paper's test for whether a return is predictable."""
        start, end = self.function_extent(index)
        for instr in self.instrs[start:end]:
            kind = instr.kind
            if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
                return True
            if kind in (InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD):
                dest = instr.operands[0]
                if hasattr(dest, "num") and dest.num == LR:
                    return True
            if kind is InstrKind.POP:
                (reglist,) = instr.operands
                if LR in reglist:
                    return True
        return False
