"""Opcode definitions and static metadata for the Patmos ISA.

The instruction set follows Section 3.1 of the paper:

* RISC-style, fully predicated instructions with at most three register
  operands.
* ALU operations with register operands, a sign-extended 12-bit immediate, or
  a 32-bit long immediate that occupies the second instruction slot.
* ``lil``/``lih`` load 16 bits into the lower or upper half of a register.
* A complete set of compare instructions writing predicate registers and
  predicate-combine operations.
* *Typed* loads and stores that explicitly name the accessed data area
  (static/constant cache, object/heap cache, stack cache, scratchpad, or
  uncached main memory) so that WCET analysis can attribute every access to
  the right cache.
* Split (decoupled) main-memory accesses: a main-memory load starts the
  transfer and :data:`Opcode.WMEM` explicitly waits for its completion.
* Stack-cache control instructions ``sres``/``sens``/``sfree``.
* Relative branches, branch-with-cache-fill, calls and returns with exposed
  delay slots.

Every opcode has an :class:`OpInfo` record describing its format, operand
usage, timing class and issue-slot restriction.  The table is the single
source of truth used by the builder, assembler, encoder, simulators, compiler
passes and the WCET analysis.  Those read it once or more per instruction,
so it is laid out for attribute-speed reads: each :class:`Opcode` member
carries its record as the plain attribute ``info``, each record carries its
derived predicates (``is_load``, ``writes_gpr``, ...) as plain attributes
computed once, and :func:`result_delay_table` gives the result delay of
every opcode under one pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from ..errors import IsaError


class Format(Enum):
    """Operand format of an instruction."""

    ALU_R = "alu_r"      # rd = rs1 op rs2
    ALU_I = "alu_i"      # rd = rs1 op imm12
    ALU_L = "alu_l"      # rd = rs1 op imm32 (long immediate, uses both slots)
    LI = "li"            # rd = imm16 (low or high half)
    MUL = "mul"          # (sl, sh) = rs1 * rs2
    CMP_R = "cmp_r"      # pd = rs1 cmp rs2
    CMP_I = "cmp_i"      # pd = rs1 cmp imm12
    PRED = "pred"        # pd = ps1 op ps2
    LOAD = "load"        # rd = mem[rs1 + imm]
    STORE = "store"      # mem[rs1 + imm] = rs2
    STACK = "stack"      # sres/sens/sfree imm
    BRANCH = "branch"    # br/brcf target
    CALL = "call"        # call target
    CALLR = "callr"      # call rs1
    RET = "ret"          # return via srb/sro
    MTS = "mts"          # special = rs1
    MFS = "mfs"          # rd = special
    WAIT = "wait"        # wait for outstanding main-memory access
    NOP = "nop"
    HALT = "halt"
    OUT = "out"          # debug output of rs1 (simulator hook)


class MemType(Enum):
    """Data area named by a typed load or store (Section 3.3)."""

    #: Static data and constants — set-associative static/constant cache (C$).
    STATIC = "c"
    #: Heap-allocated objects — highly associative data cache (D$).
    OBJECT = "o"
    #: Stack frame data — direct-mapped stack cache (S$).
    STACK = "s"
    #: Compiler-managed scratchpad memory (SP).
    LOCAL = "l"
    #: Uncached main memory, accessed with split (decoupled) loads.
    MAIN = "m"


class ControlKind(Enum):
    """Kind of control transfer, which determines the exposed delay slots."""

    BRANCH = "branch"
    CALL = "call"
    RETURN = "return"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode.

    Besides the fields, every record carries the derived predicates as plain
    attributes, computed once at construction:

    * ``is_load``, ``is_store``, ``is_mem_access`` (either of the two) and
      ``is_stack_control`` (``sres``/``sens``/``sfree``), from the format;
    * ``is_control_flow``: the opcode has a control-transfer kind;
    * ``writes_gpr`` / ``writes_pred``: the format names a general-purpose
      (``rd``) or predicate (``pd``) destination;
    * ``uses_method_cache``: the instruction may trigger a method-cache fill
      (calls, returns and ``brcf``);
    * ``is_decoupled_load``: a split main-memory load, completed by ``wmem``.
    """

    mnemonic: str
    fmt: Format
    #: Data area for loads/stores, ``None`` otherwise.
    mem_type: MemType | None = None
    #: Access width in bytes for loads/stores.
    width: int = 4
    #: Whether a sub-word load sign-extends its result.
    signed: bool = True
    #: Timing class of the result: ``None`` (ALU, next-cycle via forwarding),
    #: ``"load"`` (one exposed delay slot) or ``"mul"`` (two delay slots).
    delay_kind: str | None = None
    #: Control-transfer kind (``None`` for non-control-flow instructions).
    control: ControlKind | None = None
    #: True for instructions restricted to the first issue slot (branches,
    #: memory accesses, stack control, multiplies, special moves).
    slot0_only: bool = False
    #: True for long-immediate ALU operations, which occupy both slots.
    long_imm: bool = False

    def __post_init__(self) -> None:
        # The derived predicates are read on every instruction by every
        # layer, so they are computed once here, as plain attributes (not
        # fields: equality, hashing and ``repr`` see only the fields above).
        fmt = self.fmt
        control = self.control
        flags = {
            "is_load": fmt is Format.LOAD,
            "is_store": fmt is Format.STORE,
            "is_mem_access": fmt in (Format.LOAD, Format.STORE),
            "is_control_flow": control is not None,
            "is_stack_control": fmt is Format.STACK,
            "writes_gpr": fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L,
                                  Format.LI, Format.LOAD, Format.MFS),
            "writes_pred": fmt in (Format.CMP_R, Format.CMP_I, Format.PRED),
            "uses_method_cache": (
                control in (ControlKind.CALL, ControlKind.RETURN)
                or (control is ControlKind.BRANCH and self.mnemonic == "brcf")),
            "is_decoupled_load": (fmt is Format.LOAD
                                  and self.mem_type is MemType.MAIN),
        }
        for name, value in flags.items():
            object.__setattr__(self, name, value)


class Opcode(Enum):
    """All Patmos opcodes.  The enum value is the assembly mnemonic."""

    # ALU register-register
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SHL = "shl"
    SHR = "shr"
    SRA = "sra"
    SHADD = "shadd"     # rd = (rs1 << 1) + rs2
    SHADD2 = "shadd2"   # rd = (rs1 << 2) + rs2
    # ALU register-immediate (12-bit signed immediate)
    ADDI = "addi"
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    SRAI = "srai"
    # ALU long immediate (32-bit immediate in the second slot)
    ADDL = "addl"
    SUBL = "subl"
    ANDL = "andl"
    ORL = "orl"
    XORL = "xorl"
    # Load 16-bit immediate into low/high half
    LIL = "lil"
    LIH = "lih"
    # Multiplication (results in sl/sh)
    MUL = "mul"
    MULU = "mulu"
    # Compares (register and immediate forms)
    CMPEQ = "cmpeq"
    CMPNEQ = "cmpneq"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPULT = "cmpult"
    CMPULE = "cmpule"
    BTEST = "btest"
    CMPIEQ = "cmpieq"
    CMPINEQ = "cmpineq"
    CMPILT = "cmpilt"
    CMPILE = "cmpile"
    CMPIULT = "cmpiult"
    CMPIULE = "cmpiule"
    # Predicate combine
    PAND = "pand"
    POR = "por"
    PXOR = "pxor"
    PNOT = "pnot"
    # Typed loads: static/constant cache (C$)
    LWC = "lwc"
    LHC = "lhc"
    LBC = "lbc"
    LHUC = "lhuc"
    LBUC = "lbuc"
    # Typed loads: object/heap cache (D$)
    LWO = "lwo"
    LHO = "lho"
    LBO = "lbo"
    LHUO = "lhuo"
    LBUO = "lbuo"
    # Typed loads: stack cache (S$)
    LWS = "lws"
    LHS = "lhs"
    LBS = "lbs"
    LHUS = "lhus"
    LBUS = "lbus"
    # Typed loads: scratchpad (SP)
    LWL = "lwl"
    LHL = "lhl"
    LBL = "lbl"
    LHUL = "lhul"
    LBUL = "lbul"
    # Typed loads: uncached main memory (split loads)
    LWM = "lwm"
    LHM = "lhm"
    LBM = "lbm"
    LHUM = "lhum"
    LBUM = "lbum"
    # Typed stores
    SWC = "swc"
    SHC = "shc"
    SBC = "sbc"
    SWO = "swo"
    SHO = "sho"
    SBO = "sbo"
    SWS = "sws"
    SHS = "shs"
    SBS = "sbs"
    SWL = "swl"
    SHL_ST = "shl.st"
    SBL = "sbl"
    SWM = "swm"
    SHM = "shm"
    SBM = "sbm"
    # Wait for outstanding main-memory access (split-load completion)
    WMEM = "wmem"
    # Stack-cache control
    SRES = "sres"
    SENS = "sens"
    SFREE = "sfree"
    # Control flow
    BR = "br"
    BRCF = "brcf"
    CALL = "call"
    CALLR = "callr"
    RET = "ret"
    # Special register moves
    MTS = "mts"
    MFS = "mfs"
    # Misc
    NOP = "nop"
    HALT = "halt"
    OUT = "out"

    #: The opcode's :class:`OpInfo`, stamped onto every member once
    #: :data:`OPCODE_TABLE` is built, so reading it is one attribute load.
    info: OpInfo

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def _build_table() -> dict[Opcode, OpInfo]:
    table: dict[Opcode, OpInfo] = {}

    def put(op: Opcode, **kwargs) -> None:
        table[op] = OpInfo(mnemonic=op.value, **kwargs)

    for op in (
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR,
        Opcode.SHL, Opcode.SHR, Opcode.SRA, Opcode.SHADD, Opcode.SHADD2,
    ):
        put(op, fmt=Format.ALU_R)
    for op in (
        Opcode.ADDI, Opcode.SUBI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
        Opcode.SHLI, Opcode.SHRI, Opcode.SRAI,
    ):
        put(op, fmt=Format.ALU_I)
    for op in (Opcode.ADDL, Opcode.SUBL, Opcode.ANDL, Opcode.ORL, Opcode.XORL):
        put(op, fmt=Format.ALU_L, long_imm=True, slot0_only=True)
    put(Opcode.LIL, fmt=Format.LI)
    put(Opcode.LIH, fmt=Format.LI)
    put(Opcode.MUL, fmt=Format.MUL, delay_kind="mul", slot0_only=True)
    put(Opcode.MULU, fmt=Format.MUL, delay_kind="mul", slot0_only=True)
    for op in (
        Opcode.CMPEQ, Opcode.CMPNEQ, Opcode.CMPLT, Opcode.CMPLE,
        Opcode.CMPULT, Opcode.CMPULE, Opcode.BTEST,
    ):
        put(op, fmt=Format.CMP_R)
    for op in (
        Opcode.CMPIEQ, Opcode.CMPINEQ, Opcode.CMPILT, Opcode.CMPILE,
        Opcode.CMPIULT, Opcode.CMPIULE,
    ):
        put(op, fmt=Format.CMP_I)
    for op in (Opcode.PAND, Opcode.POR, Opcode.PXOR, Opcode.PNOT):
        put(op, fmt=Format.PRED)

    load_groups = {
        MemType.STATIC: (Opcode.LWC, Opcode.LHC, Opcode.LBC, Opcode.LHUC, Opcode.LBUC),
        MemType.OBJECT: (Opcode.LWO, Opcode.LHO, Opcode.LBO, Opcode.LHUO, Opcode.LBUO),
        MemType.STACK: (Opcode.LWS, Opcode.LHS, Opcode.LBS, Opcode.LHUS, Opcode.LBUS),
        MemType.LOCAL: (Opcode.LWL, Opcode.LHL, Opcode.LBL, Opcode.LHUL, Opcode.LBUL),
        MemType.MAIN: (Opcode.LWM, Opcode.LHM, Opcode.LBM, Opcode.LHUM, Opcode.LBUM),
    }
    load_shapes = ((4, True), (2, True), (1, True), (2, False), (1, False))
    for mem_type, ops in load_groups.items():
        for op, (width, signed) in zip(ops, load_shapes):
            put(
                op,
                fmt=Format.LOAD,
                mem_type=mem_type,
                width=width,
                signed=signed,
                delay_kind=None if mem_type is MemType.MAIN else "load",
                slot0_only=True,
            )

    store_groups = {
        MemType.STATIC: (Opcode.SWC, Opcode.SHC, Opcode.SBC),
        MemType.OBJECT: (Opcode.SWO, Opcode.SHO, Opcode.SBO),
        MemType.STACK: (Opcode.SWS, Opcode.SHS, Opcode.SBS),
        MemType.LOCAL: (Opcode.SWL, Opcode.SHL_ST, Opcode.SBL),
        MemType.MAIN: (Opcode.SWM, Opcode.SHM, Opcode.SBM),
    }
    for mem_type, ops in store_groups.items():
        for op, width in zip(ops, (4, 2, 1)):
            put(op, fmt=Format.STORE, mem_type=mem_type, width=width,
                slot0_only=True)

    put(Opcode.WMEM, fmt=Format.WAIT, slot0_only=True)
    for op in (Opcode.SRES, Opcode.SENS, Opcode.SFREE):
        put(op, fmt=Format.STACK, slot0_only=True)

    put(Opcode.BR, fmt=Format.BRANCH, control=ControlKind.BRANCH, slot0_only=True)
    put(Opcode.BRCF, fmt=Format.BRANCH, control=ControlKind.BRANCH, slot0_only=True)
    put(Opcode.CALL, fmt=Format.CALL, control=ControlKind.CALL, slot0_only=True)
    put(Opcode.CALLR, fmt=Format.CALLR, control=ControlKind.CALL, slot0_only=True)
    put(Opcode.RET, fmt=Format.RET, control=ControlKind.RETURN, slot0_only=True)
    put(Opcode.MTS, fmt=Format.MTS, slot0_only=True)
    put(Opcode.MFS, fmt=Format.MFS, slot0_only=True)
    put(Opcode.NOP, fmt=Format.NOP)
    put(Opcode.HALT, fmt=Format.HALT, slot0_only=True)
    put(Opcode.OUT, fmt=Format.OUT, slot0_only=True)
    return table


#: Mapping from every opcode to its static metadata.
OPCODE_TABLE: dict[Opcode, OpInfo] = _build_table()

for _op, _info in OPCODE_TABLE.items():
    _op.info = _info
del _op, _info

#: Mapping from assembly mnemonic to opcode.
MNEMONIC_TABLE: dict[str, Opcode] = {op.value: op for op in Opcode}


def opcode_from_mnemonic(mnemonic: str) -> Opcode:
    """Look up an opcode by its assembly mnemonic."""
    try:
        return MNEMONIC_TABLE[mnemonic.strip().lower()]
    except KeyError as exc:
        raise IsaError(f"unknown mnemonic: {mnemonic!r}") from exc


def result_delay_slots(info: OpInfo, pipeline) -> int:
    """Exposed delay slots before an instruction's result may be used.

    ``pipeline`` is a :class:`repro.config.PipelineConfig`.  ALU results are
    forwarded to the next bundle (zero delay slots); loads and multiplies have
    architecturally visible delays.
    """
    if info.delay_kind == "load":
        return pipeline.load_delay_slots
    if info.delay_kind == "mul":
        return pipeline.mul_delay_slots
    return 0


@lru_cache(maxsize=16)
def result_delay_table(pipeline) -> Mapping[str, int]:
    """:func:`result_delay_slots` of every opcode under ``pipeline``, by
    mnemonic; built once per pipeline (and shared, so read-only), for the
    per-instruction loops of the compiler."""
    return MappingProxyType({info.mnemonic: result_delay_slots(info, pipeline)
                             for info in OPCODE_TABLE.values()})


def control_delay_slots(info: OpInfo, pipeline) -> int:
    """Exposed delay slots of a control-transfer instruction."""
    if info.control is ControlKind.BRANCH:
        if info.uses_method_cache:
            return pipeline.call_delay_slots
        return pipeline.branch_delay_slots
    if info.control in (ControlKind.CALL, ControlKind.RETURN):
        return pipeline.call_delay_slots
    return 0
