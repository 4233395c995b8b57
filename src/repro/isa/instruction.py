"""Instruction and bundle representation.

An :class:`Instruction` is a single, fully predicated Patmos operation.  A
:class:`Bundle` is the unit of fetch and issue: one or two instructions, where
the first instruction carries the bundle-length bit (Section 3.1).  Long
immediate ALU operations occupy both slots of a bundle.

Branch and call targets may be *symbolic* (a label or function name) until the
linker resolves them to numeric offsets; the simulator and encoder require
resolved targets.

Both are validated at construction, table-driven.  One table per opcode says
which operands are required and which are forbidden; a valid instruction
passes it in one membership test per operand, a valid bundle in one
expression.  Anything else runs the checks one by one, in a fixed order, so
an invalid instruction or bundle raises the same :class:`IsaError` text
whatever path found it, and no error message is formatted unless raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional, Union

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
    the constructor validates the combination against the opcode's operand
    rules (see :func:`_validate`).

    ``info`` is the opcode's :class:`OpInfo`.  It is set once at
    construction as a plain attribute, not a field, so equality, hashing,
    ``repr`` and the pickled state see only the fields; unpickling and
    copying set it again from the opcode.
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
        object.__setattr__(self, "info", self.opcode.info)
        _validate(self)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["info"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "info", self.opcode.info)

    # -- convenience accessors -------------------------------------------------

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
        info = self.info
        reads, writes = _IMPLICIT_SPECIALS[info.mnemonic]
        rs1, rs2, rd = self.rs1, self.rs2, self.rd
        if rs1 is not None:
            reads = (rs1, *reads) if rs2 is None else (rs1, rs2, *reads)
        if self.opcode is Opcode.LIH:
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
        # Inline ``guard.is_always``: a property call per instruction.
        pred_reads = (guard.pred,) if guard.pred or guard.negate else ()
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


#: By mnemonic: a string key hashes without a Python-level call.
_IMPLICIT_SPECIALS = {op.value: _implicit_specials(op.info) for op in Opcode}


def _gprs(registers: tuple) -> frozenset[int]:
    return frozenset(r for r in registers if isinstance(r, int))


def _specials(registers: tuple) -> frozenset[SpecialReg]:
    return frozenset(r for r in registers if isinstance(r, SpecialReg))


class _Operands(NamedTuple):
    """Which operands one opcode requires (``True``) or forbids (``False``).

    ``target`` is ``"required"`` (branches and calls), ``"symbolic"`` (long
    immediates and ``lil``/``lih``: a label the linker resolves into the
    immediate field, which then stands in for it) or ``"forbidden"``.
    ``accepts`` restates the rules as sets for the fast check: the accepted
    values of ``rd``, ``rs1``, ``rs2``, ``pd``, ``ps1``, ``ps2`` and
    ``special``, then the accepted ``(imm is None, type(target))`` pairs.
    """

    rd: bool
    rs1: bool
    rs2: bool
    pd: bool
    ps1: bool
    ps2: bool
    imm: bool
    special: bool
    target: str
    accepts: tuple


_GPRS = frozenset(range(32))
_PREDS = frozenset(range(8))
_ABSENT = frozenset((None,))
#: The register operands in check order: (field, index limit, kind, the
#: valid indices as one shared set).
_REGISTER_OPERANDS = (("rd", 32, "register", _GPRS),
                      ("rs1", 32, "register", _GPRS),
                      ("rs2", 32, "register", _GPRS),
                      ("pd", 8, "predicate", _PREDS),
                      ("ps1", 8, "predicate", _PREDS),
                      ("ps2", 8, "predicate", _PREDS))
_SPECIAL_REGS = frozenset(SpecialReg)


def _operands(opcode: Opcode) -> _Operands:
    fmt = opcode.info.fmt
    needs = {
        "rd": fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.LI,
                      Format.LOAD, Format.MFS),
        "rs1": fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.MUL,
                       Format.CMP_R, Format.CMP_I, Format.LOAD, Format.STORE,
                       Format.CALLR, Format.MTS, Format.OUT),
        "rs2": fmt in (Format.ALU_R, Format.MUL, Format.CMP_R, Format.STORE),
        "pd": fmt in (Format.CMP_R, Format.CMP_I, Format.PRED),
        "ps1": fmt is Format.PRED,
        "ps2": fmt is Format.PRED and opcode is not Opcode.PNOT,
        "imm": fmt in (Format.ALU_I, Format.ALU_L, Format.LI, Format.CMP_I,
                       Format.LOAD, Format.STORE, Format.STACK),
        "special": fmt in (Format.MTS, Format.MFS),
    }
    if fmt in (Format.BRANCH, Format.CALL):
        target, imm_target = "required", {(True, int), (True, str)}
    elif fmt in (Format.ALU_L, Format.LI):
        target = "symbolic"
        imm_target = {(False, type(None)), (False, str), (True, str)}
    else:
        target = "forbidden"
        imm_target = {(not needs["imm"], type(None))}
    accepts = (
        *(indices if needs[name] else _ABSENT
          for name, _, _, indices in _REGISTER_OPERANDS),
        _SPECIAL_REGS if needs["special"] else _ABSENT,
        frozenset(imm_target),
    )
    return _Operands(**needs, target=target, accepts=accepts)


#: The operand rules of every opcode, by mnemonic.
_OPERANDS: dict[str, _Operands] = {op.value: _operands(op) for op in Opcode}


def _validate(instr: Instruction) -> None:
    """Check the instruction's operands against its opcode's rules.

    A valid instruction passes one membership test per operand.  Anything
    else takes :func:`_check_operands`, which makes the checks one by one
    and raises :class:`IsaError` at the first that fails.
    """
    rules = _OPERANDS[instr.info.mnemonic]
    rd, rs1, rs2, pd, ps1, ps2, special, imm_target = rules.accepts
    try:
        if (instr.rd in rd and instr.rs1 in rs1 and instr.rs2 in rs2
                and instr.pd in pd and instr.ps1 in ps1 and instr.ps2 in ps2
                and instr.special in special
                and (instr.imm is None, type(instr.target)) in imm_target):
            return
    except TypeError:  # an unhashable operand: let the checks judge it
        pass
    _check_operands(instr, rules)


def _check_operands(instr: Instruction, rules: _Operands) -> None:
    """The operand checks one by one, in a fixed order; raise at the first
    that fails.  Whatever passes them all is valid, even where the fast
    check's sets did not accept it (a float register index, say)."""
    m = instr.info.mnemonic
    for name, limit, kind, _ in _REGISTER_OPERANDS:
        value = getattr(instr, name)
        if not getattr(rules, name):
            if value is not None:
                raise IsaError(f"{m}: operand {name} is not allowed")
        elif value is None:
            raise IsaError(f"{m}: operand {name} is required")
        elif not 0 <= value < limit:
            raise IsaError(f"{m}: {kind} index out of range for {name}")

    if rules.imm:
        # Long immediates and li may carry a symbolic target that the linker
        # later resolves into the immediate field.
        if instr.imm is None and instr.target is None:
            raise IsaError(f"{m}: immediate operand is required")
    elif instr.imm is not None:
        raise IsaError(f"{m}: immediate operand is not allowed")

    if rules.special:
        if not isinstance(instr.special, SpecialReg):
            raise IsaError(f"{m}: special register operand is required")
    elif instr.special is not None:
        raise IsaError(f"{m}: special register not allowed")

    if rules.target == "required":
        if instr.target is None:
            raise IsaError(f"{m}: branch/call target is required")
    elif instr.target is not None and not (
            rules.target == "symbolic" and isinstance(instr.target, str)):
        raise IsaError(f"{m}: target operand is not allowed")


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
    """Accept a valid bundle with one expression; otherwise make the checks
    one by one and raise :class:`IsaError` at the first that fails."""
    slots = bundle.slots
    if len(slots) == 1:
        if isinstance(slots[0], Instruction):
            return
    elif len(slots) == 2:
        first, second = slots
        if (isinstance(first, Instruction) and isinstance(second, Instruction)
                and not first.info.long_imm and not second.info.long_imm
                and not second.info.slot0_only):
            return
    if not 1 <= len(slots) <= 2:
        raise IsaError("a bundle holds one or two instructions")
    for instr in slots:
        if not isinstance(instr, Instruction):
            raise IsaError("bundle slots must be instructions")
    first, second = slots
    if first.info.long_imm:
        raise IsaError("a long-immediate instruction occupies the whole bundle")
    if second.info.long_imm:
        raise IsaError("long-immediate instructions must be in the first slot")
    raise IsaError(f"{second.info.mnemonic} may only be issued in the first slot")


def bundle_nop() -> Bundle:
    """Return a single-slot NOP bundle."""
    return Bundle(NOP)
