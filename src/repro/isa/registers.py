"""Register file naming and the APSR flag set."""

from __future__ import annotations

from dataclasses import dataclass

REG_COUNT = 16
SP = 13
LR = 14
PC = 15

_ALIASES = {"sp": SP, "lr": LR, "pc": PC, "fp": 11, "ip": 12}

#: every register spelling :func:`parse_reg` accepts (after strip and
#: lower-casing) -> the register number
REG_NUMBERS = {**{f"r{num}": num for num in range(REG_COUNT)}, **_ALIASES}


def parse_reg(name: str) -> int:
    """Parse a register name (``r0``..``r15``, ``sp``, ``lr``, ``pc``).

    Only canonical spellings count: ``r00``, ``r 5``, or ``r+5`` are
    identifiers (labels), not registers — so everything the instruction
    printer emits parses back to the same operand it printed.
    """
    num = REG_NUMBERS.get(name.strip().lower())
    if num is None:
        raise ValueError(f"not a register: {name!r}")
    return num


def reg_name(num: int) -> str:
    """Canonical name for a register index."""
    if num == SP:
        return "sp"
    if num == LR:
        return "lr"
    if num == PC:
        return "pc"
    if 0 <= num < REG_COUNT:
        return f"r{num}"
    raise ValueError(f"not a register index: {num}")


@dataclass
class Flags:
    """The N/Z/C/V condition flags of the APSR."""

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def copy(self) -> "Flags":
        return Flags(self.n, self.z, self.c, self.v)

    def as_tuple(self) -> tuple:
        return (self.n, self.z, self.c, self.v)

    def __str__(self) -> str:
        bits = [
            "N" if self.n else "n",
            "Z" if self.z else "z",
            "C" if self.c else "c",
            "V" if self.v else "v",
        ]
        return "".join(bits)
