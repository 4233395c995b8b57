"""Instruction and bundle representation.

An :class:`Instruction` is a single, fully predicated Patmos operation.  A
:class:`Bundle` is the unit of fetch and issue: one or two instructions, where
the first instruction carries the bundle-length bit (Section 3.1).  Long
immediate ALU operations occupy both slots of a bundle.

Branch and call targets may be *symbolic* (a label or function name) until the
linker resolves them to numeric offsets; the simulator and encoder require
resolved targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from ..errors import IsaError
from .opcodes import Format, MemType, Opcode, OpInfo
from .registers import SpecialReg, gpr_name, pred_name


@dataclass(frozen=True)
class Guard:
    """Predicate guard of an instruction: ``(pN)`` or ``(!pN)``."""

    pred: int = 0
    negate: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.pred < 8:
            raise IsaError(f"predicate register out of range: p{self.pred}")

    @property
    def is_always(self) -> bool:
        """True if the guard is the constant-true guard ``(p0)``."""
        return self.pred == 0 and not self.negate

    def __str__(self) -> str:
        bang = "!" if self.negate else ""
        return f"({bang}{pred_name(self.pred)})"


#: The default guard: always execute.
ALWAYS = Guard(0, False)

#: Type of a branch/call target: numeric (resolved) or symbolic label.
Target = Union[int, str]


@dataclass(frozen=True)
class Instruction:
    """A single Patmos instruction.

    Operand fields that do not apply to the opcode's format must be ``None``;
    the constructor validates the combination against :class:`OpInfo`.
    """

    opcode: Opcode
    guard: Guard = ALWAYS
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    pd: Optional[int] = None
    ps1: Optional[int] = None
    ps2: Optional[int] = None
    special: Optional[SpecialReg] = None
    #: Symbolic or resolved control-flow / data target.
    target: Optional[Target] = None
    #: Free-form annotations (e.g. loop bounds, source hints) carried through
    #: compilation; ignored by equality-sensitive consumers.
    notes: tuple = field(default_factory=tuple, compare=False)

    def __post_init__(self) -> None:
        _validate(self)

    # -- convenience accessors -------------------------------------------------

    @property
    def info(self) -> OpInfo:
        return self.opcode.info

    @property
    def is_nop(self) -> bool:
        return self.opcode is Opcode.NOP

    def with_guard(self, guard: Guard) -> "Instruction":
        """Return a copy of this instruction with a different guard."""
        return replace(self, guard=guard)

    def with_target(self, target: Target) -> "Instruction":
        """Return a copy of this instruction with a resolved/changed target."""
        return replace(self, target=target)

    def with_imm(self, imm: int) -> "Instruction":
        """Return a copy of this instruction with a different immediate."""
        return replace(self, imm=imm)

    # -- def/use information for dependence analysis ---------------------------

    def def_use(self) -> tuple[tuple, tuple[int, ...], tuple, tuple[int, ...]]:
        """Registers read and written by this instruction, in one pass.

        Returns ``(reads, pred_reads, writes, pred_writes)``.  ``reads`` and
        ``writes`` hold general-purpose register indices and
        :class:`SpecialReg` members, the other two predicate indices.  An
        entry may repeat (``add r1 = r2, r2``); ``r0`` and ``p0`` are never
        written.  This is the one statement of the def/use rules: the
        per-kind sets below and the dependence builder all read it.
        """
        opcode = self.opcode
        info = opcode.info
        reads, writes = _IMPLICIT_SPECIALS[opcode]
        rs1, rs2, rd = self.rs1, self.rs2, self.rd
        if rs1 is not None:
            reads = (rs1, *reads) if rs2 is None else (rs1, rs2, *reads)
        if opcode is Opcode.LIH:
            # lih merges into the existing low half of rd.
            reads = (rd,)
        if rd and info.writes_gpr:
            writes = (rd,)
        special = self.special
        if special is not None:
            if info.fmt is Format.MTS:
                writes = (special,)
            else:
                reads = (special,)
        guard = self.guard
        pred_reads = () if guard.is_always else (guard.pred,)
        if self.ps1 is not None:
            pred_reads += ((self.ps1,) if self.ps2 is None
                           else (self.ps1, self.ps2))
        pd = self.pd
        pred_writes = (pd,) if pd and info.writes_pred else ()
        return reads, pred_reads, writes, pred_writes

    def gpr_defs(self) -> frozenset[int]:
        """Indices of general-purpose registers written by this instruction."""
        return _gprs(self.def_use()[2])

    def gpr_uses(self) -> frozenset[int]:
        """Indices of general-purpose registers read by this instruction."""
        return _gprs(self.def_use()[0])

    def pred_defs(self) -> frozenset[int]:
        """Indices of predicate registers written by this instruction."""
        return frozenset(self.def_use()[3])

    def pred_uses(self) -> frozenset[int]:
        """Indices of predicate registers read by this instruction."""
        return frozenset(self.def_use()[1])

    def special_defs(self) -> frozenset[SpecialReg]:
        """Special registers written by this instruction."""
        return _specials(self.def_use()[2])

    def special_uses(self) -> frozenset[SpecialReg]:
        """Special registers read by this instruction."""
        return _specials(self.def_use()[0])

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return render_instruction(self)


def _implicit_specials(info: OpInfo
                       ) -> tuple[tuple[SpecialReg, ...], tuple[SpecialReg, ...]]:
    """Special registers an opcode reads and writes without naming them."""
    fmt = info.fmt
    if fmt is Format.MUL:
        return (), (SpecialReg.SL, SpecialReg.SH)
    if fmt is Format.STACK:
        return (SpecialReg.ST, SpecialReg.SS), (SpecialReg.ST, SpecialReg.SS)
    if fmt in (Format.CALL, Format.CALLR):
        return (), (SpecialReg.SRB, SpecialReg.SRO)
    if fmt is Format.RET:
        return (SpecialReg.SRB, SpecialReg.SRO), ()
    if info.is_mem_access and info.mem_type is MemType.STACK:
        return (SpecialReg.ST,), ()
    return (), ()


_IMPLICIT_SPECIALS = {op: _implicit_specials(op.info) for op in Opcode}


def _gprs(registers: tuple) -> frozenset[int]:
    return frozenset(r for r in registers if isinstance(r, int))


def _specials(registers: tuple) -> frozenset[SpecialReg]:
    return frozenset(r for r in registers if isinstance(r, SpecialReg))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise IsaError(message)


def _check_gpr(value: Optional[int], name: str, mnemonic: str, required: bool) -> None:
    if required:
        _require(value is not None, f"{mnemonic}: operand {name} is required")
        _require(0 <= value < 32, f"{mnemonic}: register index out of range for {name}")
    else:
        _require(value is None, f"{mnemonic}: operand {name} is not allowed")


def _check_pred(value: Optional[int], name: str, mnemonic: str, required: bool) -> None:
    if required:
        _require(value is not None, f"{mnemonic}: operand {name} is required")
        _require(0 <= value < 8, f"{mnemonic}: predicate index out of range for {name}")
    else:
        _require(value is None, f"{mnemonic}: operand {name} is not allowed")


def _validate(instr: Instruction) -> None:
    info = instr.info
    fmt = info.fmt
    m = info.mnemonic

    needs_rd = fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.LI,
                       Format.LOAD, Format.MFS)
    needs_rs1 = fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.MUL,
                        Format.CMP_R, Format.CMP_I, Format.LOAD, Format.STORE,
                        Format.CALLR, Format.MTS, Format.OUT)
    needs_rs2 = fmt in (Format.ALU_R, Format.MUL, Format.CMP_R, Format.STORE)
    needs_pd = fmt in (Format.CMP_R, Format.CMP_I, Format.PRED)
    needs_ps1 = fmt is Format.PRED
    needs_ps2 = fmt is Format.PRED and instr.opcode is not Opcode.PNOT
    needs_imm = fmt in (Format.ALU_I, Format.ALU_L, Format.LI, Format.CMP_I,
                        Format.LOAD, Format.STORE, Format.STACK)
    needs_special = fmt in (Format.MTS, Format.MFS)
    allows_target = fmt in (Format.BRANCH, Format.CALL) or (
        fmt in (Format.ALU_L, Format.LI) and isinstance(instr.target, str)
    )

    _check_gpr(instr.rd, "rd", m, needs_rd)
    _check_gpr(instr.rs1, "rs1", m, needs_rs1)
    _check_gpr(instr.rs2, "rs2", m, needs_rs2)
    _check_pred(instr.pd, "pd", m, needs_pd)
    _check_pred(instr.ps1, "ps1", m, needs_ps1)
    _check_pred(instr.ps2, "ps2", m, needs_ps2)

    if needs_imm:
        # Long immediates and li may carry a symbolic target that the linker
        # later resolves into the immediate field.
        _require(
            instr.imm is not None or instr.target is not None,
            f"{m}: immediate operand is required",
        )
    else:
        _require(instr.imm is None, f"{m}: immediate operand is not allowed")

    if needs_special:
        _require(isinstance(instr.special, SpecialReg),
                 f"{m}: special register operand is required")
    else:
        _require(instr.special is None, f"{m}: special register not allowed")

    if fmt in (Format.BRANCH, Format.CALL):
        _require(instr.target is not None, f"{m}: branch/call target is required")
    elif not allows_target:
        _require(instr.target is None, f"{m}: target operand is not allowed")


def render_instruction(instr: Instruction) -> str:
    """Render an instruction in the textual assembly syntax."""
    info = instr.info
    fmt = info.fmt
    parts: list[str] = []
    if not instr.guard.is_always:
        parts.append(str(instr.guard))
    m = info.mnemonic

    def reg(i: Optional[int]) -> str:
        return gpr_name(i) if i is not None else "?"

    if fmt is Format.ALU_R:
        body = f"{m} {reg(instr.rd)} = {reg(instr.rs1)}, {reg(instr.rs2)}"
    elif fmt in (Format.ALU_I, Format.ALU_L):
        imm = instr.target if instr.imm is None else instr.imm
        body = f"{m} {reg(instr.rd)} = {reg(instr.rs1)}, {imm}"
    elif fmt is Format.LI:
        imm = instr.target if instr.imm is None else instr.imm
        body = f"{m} {reg(instr.rd)} = {imm}"
    elif fmt is Format.MUL:
        body = f"{m} {reg(instr.rs1)}, {reg(instr.rs2)}"
    elif fmt is Format.CMP_R:
        body = f"{m} {pred_name(instr.pd)} = {reg(instr.rs1)}, {reg(instr.rs2)}"
    elif fmt is Format.CMP_I:
        body = f"{m} {pred_name(instr.pd)} = {reg(instr.rs1)}, {instr.imm}"
    elif fmt is Format.PRED:
        if instr.opcode is Opcode.PNOT:
            body = f"{m} {pred_name(instr.pd)} = {pred_name(instr.ps1)}"
        else:
            body = (f"{m} {pred_name(instr.pd)} = "
                    f"{pred_name(instr.ps1)}, {pred_name(instr.ps2)}")
    elif fmt is Format.LOAD:
        body = f"{m} {reg(instr.rd)} = [{reg(instr.rs1)} + {instr.imm}]"
    elif fmt is Format.STORE:
        body = f"{m} [{reg(instr.rs1)} + {instr.imm}] = {reg(instr.rs2)}"
    elif fmt is Format.STACK:
        body = f"{m} {instr.imm}"
    elif fmt in (Format.BRANCH, Format.CALL):
        body = f"{m} {instr.target}"
    elif fmt is Format.CALLR:
        body = f"{m} {reg(instr.rs1)}"
    elif fmt is Format.MTS:
        body = f"{m} {instr.special} = {reg(instr.rs1)}"
    elif fmt is Format.MFS:
        body = f"{m} {reg(instr.rd)} = {instr.special}"
    elif fmt is Format.OUT:
        body = f"{m} {reg(instr.rs1)}"
    else:
        body = m
    parts.append(body)
    return " ".join(parts)


#: Convenience constant: a canonical NOP instruction.
NOP = Instruction(Opcode.NOP)


@dataclass(frozen=True)
class Bundle:
    """A fetch/issue bundle of one or two instructions.

    The first slot may hold any instruction; the second slot is restricted to
    instructions that are not ``slot0_only`` (Section 3.1: branches and main
    memory accesses only in the first pipeline).  A long-immediate ALU
    instruction occupies both slots on its own.

    ``size_bytes`` is the fetch width, 4 or 8 bytes.  The slots are frozen,
    so it is computed once here; it is a plain attribute, not a field, so
    equality, hashing and ``repr`` see only the slots.
    """

    slots: tuple[Instruction, ...]

    def __init__(self, *instrs: Instruction | Iterable[Instruction]):
        if len(instrs) == 1 and not isinstance(instrs[0], Instruction):
            instrs = tuple(instrs[0])
        object.__setattr__(self, "slots", tuple(instrs))
        _validate_bundle(self)
        object.__setattr__(
            self, "size_bytes",
            8 if len(self.slots) == 2 or self.slots[0].info.long_imm else 4)

    @property
    def first(self) -> Instruction:
        return self.slots[0]

    @property
    def second(self) -> Optional[Instruction]:
        return self.slots[1] if len(self.slots) > 1 else None

    @property
    def is_long(self) -> bool:
        return self.size_bytes == 8

    def instructions(self) -> tuple[Instruction, ...]:
        return self.slots

    def __iter__(self):
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __str__(self) -> str:
        return " || ".join(str(i) for i in self.slots)


def _validate_bundle(bundle: Bundle) -> None:
    slots = bundle.slots
    _require(1 <= len(slots) <= 2, "a bundle holds one or two instructions")
    for instr in slots:
        _require(isinstance(instr, Instruction), "bundle slots must be instructions")
    if len(slots) == 2:
        first, second = slots
        _require(not first.info.long_imm,
                 "a long-immediate instruction occupies the whole bundle")
        _require(not second.info.long_imm,
                 "long-immediate instructions must be in the first slot")
        _require(not second.info.slot0_only,
                 f"{second.info.mnemonic} may only be issued in the first slot")


def bundle_nop() -> Bundle:
    """Return a single-slot NOP bundle."""
    return Bundle(NOP)
