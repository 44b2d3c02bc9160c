"""Textual assembler for the demonstration ISA.

Lets tests and examples write pipeline programs as assembly text instead
of constructing :class:`~repro.uarch.isa.Instruction` lists by hand:

    loop:
        fp.mul.d f3, f1, f2
        sub      r1, r1, r2
        beqz     r1, done
        jmp      loop
    done:
        halt

Integer registers are ``r0..r31``, FP registers ``f0..f31``; labels end
with a colon and may be referenced by branch/jump targets; ``li`` takes a
decimal or hex immediate; ``load``/``store`` use ``offset(rBase)``
addressing.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.fpu.formats import op_by_mnemonic
from repro.uarch.isa import NUM_REGS, Instruction

_LABEL_RE = re.compile(r"^(\w+):$")
_MEM_RE = re.compile(r"^(-?\d+)\((r\d+)\)$")


class AssemblyError(ValueError):
    """Raised on malformed assembly input."""


def _reg(token: str, bank: str) -> int:
    token = token.strip().rstrip(",")
    if not token.startswith(bank):
        raise AssemblyError(
            f"expected {bank}-register, got {token!r}"
        )
    try:
        index = int(token[1:])
    except ValueError:
        raise AssemblyError(f"bad register {token!r}") from None
    if not 0 <= index < NUM_REGS:
        raise AssemblyError(f"register {token!r} out of range")
    return index


def _imm(token: str) -> int:
    token = token.strip().rstrip(",")
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"bad immediate {token!r}") from None


def _strip(line: str) -> str:
    return line.split("#", 1)[0].split("//", 1)[0].strip()


def assemble(source: str) -> List[Instruction]:
    """Assemble a program; returns the instruction list."""
    # Pass 1: label resolution.
    labels: Dict[str, int] = {}
    statements: List[Tuple[int, str]] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        match = _LABEL_RE.match(line)
        if match:
            label = match.group(1)
            if label in labels:
                raise AssemblyError(f"duplicate label {label!r}")
            labels[label] = len(statements)
            continue
        statements.append((line_no, line))

    # Pass 2: encoding.
    program: List[Instruction] = []
    for line_no, line in statements:
        try:
            program.append(_encode(line, labels))
        except AssemblyError as error:
            raise AssemblyError(f"line {line_no}: {error}") from None
    return program


def _target(token: str, labels: Dict[str, int]) -> int:
    token = token.strip()
    if token in labels:
        return labels[token]
    try:
        return int(token)
    except ValueError:
        raise AssemblyError(f"unknown label {token!r}") from None


def _encode(line: str, labels: Dict[str, int]) -> Instruction:
    mnemonic, _, rest = line.partition(" ")
    operands = [t for t in rest.replace(",", " ").split() if t]

    if mnemonic == "halt":
        return Instruction("halt")
    if mnemonic == "jmp":
        return Instruction("jmp", target=_target(operands[0], labels))
    if mnemonic == "beqz":
        if len(operands) != 2:
            raise AssemblyError("beqz takes rSrc, target")
        return Instruction("beqz", src1=_reg(operands[0], "r"),
                           target=_target(operands[1], labels))
    if mnemonic == "li":
        if len(operands) != 2:
            raise AssemblyError("li takes rDest, imm")
        return Instruction("li", dest=_reg(operands[0], "r"),
                           imm=_imm(operands[1]))
    if mnemonic in ("add", "sub", "mul"):
        if len(operands) != 3:
            raise AssemblyError(f"{mnemonic} takes rDest, rSrc1, rSrc2")
        return Instruction(mnemonic, dest=_reg(operands[0], "r"),
                           src1=_reg(operands[1], "r"),
                           src2=_reg(operands[2], "r"))
    if mnemonic in ("load", "store"):
        if len(operands) != 2:
            raise AssemblyError(f"{mnemonic} takes reg, offset(rBase)")
        mem = _MEM_RE.match(operands[1].strip())
        if not mem:
            raise AssemblyError(f"bad address {operands[1]!r}")
        offset, base = int(mem.group(1)), _reg(mem.group(2), "r")
        if mnemonic == "load":
            return Instruction("load", dest=_reg(operands[0], "r"),
                               src1=base, imm=offset)
        return Instruction("store", src1=base,
                           src2=_reg(operands[0], "r"), imm=offset)
    if mnemonic.startswith("fp."):
        try:
            fp_op = op_by_mnemonic(mnemonic)
        except KeyError:
            raise AssemblyError(f"unknown FP mnemonic {mnemonic!r}") from None
        if fp_op.has_two_operands:
            if len(operands) != 3:
                raise AssemblyError(f"{mnemonic} takes fDest, fSrc1, fSrc2")
            return Instruction("fp", dest=_reg(operands[0], "f"),
                               src1=_reg(operands[1], "f"),
                               src2=_reg(operands[2], "f"), fp_op=fp_op)
        if len(operands) != 2:
            raise AssemblyError(f"{mnemonic} takes fDest, fSrc")
        return Instruction("fp", dest=_reg(operands[0], "f"),
                           src1=_reg(operands[1], "f"), src2=0,
                           fp_op=fp_op)
    raise AssemblyError(f"unknown mnemonic {mnemonic!r}")


def disassemble(program: List[Instruction]) -> str:
    """Inverse of :func:`assemble` (numeric branch targets)."""
    lines: List[str] = []
    for instr in program:
        if instr.opcode == "halt":
            lines.append("halt")
        elif instr.opcode == "jmp":
            lines.append(f"jmp {instr.target}")
        elif instr.opcode == "beqz":
            lines.append(f"beqz r{instr.src1}, {instr.target}")
        elif instr.opcode == "li":
            lines.append(f"li r{instr.dest}, {instr.imm}")
        elif instr.opcode in ("add", "sub", "mul"):
            lines.append(f"{instr.opcode} r{instr.dest}, r{instr.src1}, "
                         f"r{instr.src2}")
        elif instr.opcode == "load":
            lines.append(f"load r{instr.dest}, {instr.imm}(r{instr.src1})")
        elif instr.opcode == "store":
            lines.append(f"store r{instr.src2}, {instr.imm}(r{instr.src1})")
        elif instr.opcode == "fp":
            if instr.fp_op.has_two_operands:
                lines.append(f"{instr.fp_op.value} f{instr.dest}, "
                             f"f{instr.src1}, f{instr.src2}")
            else:
                lines.append(f"{instr.fp_op.value} f{instr.dest}, "
                             f"f{instr.src1}")
        else:  # pragma: no cover - exhaustive over the ISA
            raise AssemblyError(f"cannot disassemble {instr.opcode!r}")
    return "\n".join(lines) + "\n"
