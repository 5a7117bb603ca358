"""The value-set lattice underlying the dataflow engine.

An abstract register value is a finite set of concrete possibilities:

* :class:`Const` — a known 32-bit integer (``mov``/``mov32``
  immediates, folded arithmetic);
* :class:`Addr` — a link-time address ``label + offset`` (``adr``
  materialization, ``.word label`` literal-pool entries).

A :class:`ValueSet` is either TOP (statically unknown) or a finite set
of such values. Sets wider than :data:`MAX_WIDTH` collapse to TOP, so
the lattice has bounded height and every monotone fixpoint iteration
terminates. Join is set union (the may-analysis direction: a value is
in the set iff some path can produce it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Union

#: widest tracked value set; wider joins collapse to TOP
MAX_WIDTH = 8

_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class Const:
    """A known 32-bit constant."""

    value: int

    def __str__(self) -> str:
        return f"{self.value:#x}" if self.value > 9 else str(self.value)


@dataclass(frozen=True)
class Addr:
    """A link-time address: ``label + offset`` bytes."""

    label: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"&{self.label}{self.offset:+d}"
        return f"&{self.label}"


Value = Union[Const, Addr]


@dataclass(frozen=True)
class ValueSet:
    """TOP (``values is None``) or a finite set of abstract values."""

    values: Optional[FrozenSet[Value]] = None

    @property
    def is_top(self) -> bool:
        return self.values is None

    @property
    def is_bottom(self) -> bool:
        return self.values is not None and not self.values

    def join(self, other: "ValueSet") -> "ValueSet":
        if self.is_top or other.is_top:
            return TOP
        merged = self.values | other.values
        if len(merged) > MAX_WIDTH:
            return TOP
        return ValueSet(frozenset(merged))

    def leq(self, other: "ValueSet") -> bool:
        """Partial order: ``self`` is at least as precise as ``other``."""
        if other.is_top:
            return True
        if self.is_top:
            return False
        return self.values <= other.values

    def singleton(self) -> Optional[Value]:
        if self.values is not None and len(self.values) == 1:
            return next(iter(self.values))
        return None

    def singleton_label(self) -> Optional[str]:
        """The label name, iff this set is exactly one zero-offset Addr."""
        value = self.singleton()
        if isinstance(value, Addr) and value.offset == 0:
            return value.label
        return None

    def __str__(self) -> str:
        if self.is_top:
            return "?"
        return "{" + ", ".join(sorted(str(v) for v in self.values)) + "}"


TOP = ValueSet(None)
BOTTOM = ValueSet(frozenset())


def vs(*values: Value) -> ValueSet:
    """Literal constructor (collapses to TOP past the width cap)."""
    if len(values) > MAX_WIDTH:
        return TOP
    return ValueSet(frozenset(values))


def vs_const(value: int) -> ValueSet:
    return vs(Const(value & _MASK))


def vs_addr(label: str, offset: int = 0) -> ValueSet:
    return vs(Addr(label, offset))


def lift_unary(op: Callable[[Value], Optional[Value]],
               a: ValueSet) -> ValueSet:
    """Apply a concrete unary op (``Value -> Optional[Value]``) setwise;
    any unrepresentable result poisons the whole set to TOP."""
    if a.is_top:
        return TOP
    out = set()
    for x in a.values:
        r = op(x)
        if r is None:
            return TOP
        out.add(r)
        if len(out) > MAX_WIDTH:
            return TOP
    return ValueSet(frozenset(out))


def lift_binary(op: Callable[[Value, Value], Optional[Value]],
                a: ValueSet, b: ValueSet) -> ValueSet:
    """Apply a concrete binary op over the cross product, TOP-poisoning
    on unrepresentable results or width overflow."""
    if a.is_top or b.is_top:
        return TOP
    out = set()
    for x in a.values:
        for y in b.values:
            r = op(x, y)
            if r is None:
                return TOP
            out.add(r)
            if len(out) > MAX_WIDTH:
                return TOP
    return ValueSet(frozenset(out))


# -- register states --------------------------------------------------------

#: abstract register file: reg number -> ValueSet; a missing key is TOP
RegState = Dict[int, ValueSet]


def state_get(state: RegState, reg: int) -> ValueSet:
    return state.get(reg, TOP)


def state_join(a: RegState, b: RegState) -> RegState:
    out: RegState = {}
    for reg in a.keys() & b.keys():
        joined = a[reg].join(b[reg])
        if not joined.is_top:
            out[reg] = joined
    return out

