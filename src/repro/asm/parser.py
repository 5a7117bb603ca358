"""Line-oriented parser for the ARM-like assembly dialect.

Supported syntax (one statement per line, ``;`` / ``//`` / ``@`` comments)::

    .text | .mtbar | .data | .rodata | .section NAME
    .entry LABEL
    .equ NAME, VALUE
    .word VALUE-or-LABEL
    .byte B0, B1, ...
    .ascii "text"
    .space N
    label:
        mov   r0, #5
        ldr   r1, [r0, #4]
        ldr   r2, [r3, r4, lsl #2]
        ldr   r5, =some_label      ; address-of pseudo (-> adr)
        push  {r4-r7, lr}
        pop   {r4-r7, pc}
        beq   target
        bl    func
        blx   r3
        bx    lr
        svc   #1
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.isa.conditions import ALIASES as COND_ALIASES
from repro.isa.conditions import CONDITIONS
from repro.isa.instructions import MNEMONICS, Instr, make_instr
from repro.isa.operands import Imm, Label, Mem, Reg, RegList
from repro.isa.registers import REG_NUMBERS, parse_reg
from repro.asm.program import DataBytes, DataWord, Module, Space


class AsmSyntaxError(Exception):
    """A malformed assembly statement, annotated with its line number."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_IDENT_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_BRACKETS = frozenset("[]{}")


def _strip_comment(line: str) -> str:
    for marker in (";", "//", "@"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def parse_int(text: str) -> int:
    """Parse a decimal, hex (0x), binary (0b), or char ('c') literal."""
    text = text.strip()
    if len(text) == 3 and text[0] == "'" and text[2] == "'":
        return ord(text[1])
    return int(text, 0)


def _split_operands(text: str) -> List[str]:
    """Split an operand string on top-level commas."""
    if not _BRACKETS.intersection(text):
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()
        return parts
    parts: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _try_reg(token: str) -> Optional[Reg]:
    """The register ``token`` names, exactly as :func:`parse_reg`
    accepts it, or None."""
    num = REG_NUMBERS.get(token.strip().lower())
    return None if num is None else Reg(num)


def _parse_reglist(token: str) -> RegList:
    inner = token[1:-1].strip()
    regs: List[int] = []
    if inner:
        for part in inner.split(","):
            part = part.strip()
            if "-" in part and not part.startswith("-"):
                lo_s, hi_s = part.split("-", 1)
                lo, hi = parse_reg(lo_s), parse_reg(hi_s)
                if hi < lo:
                    raise ValueError(f"bad register range: {part}")
                regs.extend(range(lo, hi + 1))
            else:
                regs.append(parse_reg(part))
    return RegList(tuple(regs))


def _parse_mem(token: str) -> Mem:
    inner = token[1:-1].strip()
    parts = [p.strip() for p in inner.split(",")]
    base = _try_reg(parts[0])
    if base is None:
        raise ValueError(f"bad base register in {token}")
    if len(parts) == 1:
        return Mem(base)
    if len(parts) == 2:
        second = parts[1]
        if second.startswith("#"):
            return Mem(base, offset=parse_int(second[1:]))
        index = _try_reg(second)
        if index is None:
            raise ValueError(f"bad index in {token}")
        return Mem(base, index=index)
    if len(parts) == 3:
        index = _try_reg(parts[1])
        shift_m = re.match(r"lsl\s+#(\d+)$", parts[2], re.IGNORECASE)
        if index is None or shift_m is None:
            raise ValueError(f"bad scaled index in {token}")
        return Mem(base, index=index, shift=int(shift_m.group(1)))
    raise ValueError(f"bad memory operand: {token}")


def parse_operand(token: str):
    """Parse one operand token into its object form."""
    token = token.strip()
    if token.startswith("#"):
        return Imm(parse_int(token[1:]))
    if token.startswith("["):
        return _parse_mem(token)
    if token.startswith("{"):
        return _parse_reglist(token)
    if token.startswith("="):
        # '=name' / '=imm' resolved by the assembler into adr/mov32
        body = token[1:].strip()
        try:
            return ("=imm", parse_int(body))
        except ValueError:
            return ("=label", body)
    reg = _try_reg(token)
    if reg is not None:
        return reg
    if _IDENT_RE.match(token):
        return Label(token)
    try:
        return Imm(parse_int(token))
    except ValueError:
        raise ValueError(f"cannot parse operand: {token!r}") from None


def split_mnemonic(word: str) -> Tuple[str, Optional[str]]:
    """Split a mnemonic word into (base, condition-suffix)."""
    low = word.lower()
    if low in MNEMONICS:
        return low, None
    # conditional forms are only defined for 'b'
    if low.startswith("b") and len(low) == 3:
        suffix = low[1:]
        suffix = COND_ALIASES.get(suffix, suffix)
        if suffix in CONDITIONS:
            return "b", suffix
    raise ValueError(f"unknown mnemonic: {word!r}")


def parse_statement(line: str) -> Tuple[str, Optional[str], List]:
    """Parse 'mnemonic op, op, ...' into (mnemonic, cond, operands)."""
    stripped = line.strip()
    if " " in stripped or "\t" in stripped:
        word, rest = stripped.split(None, 1)
    else:
        word, rest = stripped, ""
    mnemonic, cond = split_mnemonic(word)
    operands = [parse_operand(tok) for tok in _split_operands(rest)] if rest else []
    return mnemonic, cond, operands


def _build_instr(mnemonic: str, cond: Optional[str], operands: List) -> List[Instr]:
    """Lower a parsed statement into concrete instructions, expanding the
    ``ldr rd, =x`` pseudo into ``adr``/``mov32``."""
    lowered = []
    pseudo = None
    for op in operands:
        if isinstance(op, tuple) and op and op[0] in ("=imm", "=label"):
            pseudo = op
            continue
        lowered.append(op)
    if pseudo is not None:
        if mnemonic not in ("ldr", "adr", "mov32"):
            raise ValueError("'=' operands are only valid with ldr/adr/mov32")
        dest = lowered[0]
        if pseudo[0] == "=label":
            return [make_instr("adr", dest, Label(pseudo[1]))]
        return [make_instr("mov32", dest, Imm(pseudo[1]))]
    return [make_instr(mnemonic, *lowered, cond=cond)]


_DIRECTIVES = {".text", ".mtbar", ".data", ".rodata", ".section", ".entry",
               ".equ", ".word", ".byte", ".ascii", ".space", ".global",
               ".align"}


def parse_source(source: str) -> Module:
    """Parse assembly source text into a relocatable :class:`Module`."""
    module = Module()
    current = module.section("text")
    pending_labels: List[str] = []

    def flush_into(payload):
        nonlocal pending_labels
        current.add(payload, tuple(pending_labels))
        pending_labels = []

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        # labels (possibly several, possibly followed by a statement)
        while True:
            m = _LABEL_RE.match(line)
            if not m:
                break
            name = m.group(1)
            if _try_reg(name) is not None:
                raise AsmSyntaxError(
                    f"label {name!r} shadows a register name", line_no, raw)
            pending_labels.append(name)
            line = line[m.end():].strip()
        if not line:
            continue
        try:
            if line.startswith("."):
                word = line.split(None, 1)[0].lower()
                rest = line[len(word):].strip()
                if word not in _DIRECTIVES:
                    raise ValueError(f"unknown directive: {word}")
                if word in (".text", ".mtbar", ".data", ".rodata", ".section"):
                    # labels pending at a section switch bind to the
                    # current position in the *current* section
                    if pending_labels:
                        flush_into(Space(0))
                    name = rest if word == ".section" else word[1:]
                    current = module.section(name)
                elif word == ".entry":
                    module.entry = rest
                elif word == ".equ":
                    name, value = _split_operands(rest)
                    module.equates[name] = parse_int(value)
                elif word == ".word":
                    for tok in _split_operands(rest):
                        try:
                            flush_into(DataWord(parse_int(tok)))
                        except ValueError:
                            flush_into(DataWord(Label(tok)))
                elif word == ".byte":
                    data = bytes(parse_int(t) & 0xFF for t in _split_operands(rest))
                    flush_into(DataBytes(data))
                elif word == ".ascii":
                    text = rest.strip()
                    if not (text.startswith('"') and text.endswith('"')):
                        raise ValueError(".ascii expects a quoted string")
                    flush_into(DataBytes(text[1:-1].encode()))
                elif word == ".space":
                    flush_into(Space(parse_int(rest)))
                elif word in (".global", ".align"):
                    pass  # accepted for source compatibility; no effect
            else:
                mnemonic, cond, operands = parse_statement(line)
                for instr in _build_instr(mnemonic, cond, operands):
                    flush_into(instr)
        except (ValueError, KeyError) as exc:
            raise AsmSyntaxError(str(exc), line_no, raw) from exc

    if pending_labels:
        # trailing labels bind to an empty reservation at section end
        current.add(Space(0), tuple(pending_labels))
    return module
