"""Pre-decoded execution engine for the Patmos simulators.

The reference interpreter in :mod:`repro.sim.base` re-decodes every bundle on
every step: it probes ``image.bundle_at``/``image.block_at`` dictionaries,
walks a :class:`~repro.isa.opcodes.Format` if-chain per instruction and scans
a linear ``_pending_writes`` list per bundle.  This module removes all of that
from the hot loop with a classic pre-decoding pass (threaded-code
interpretation à la the interpreter literature cited in PAPERS.md):

* :func:`decode_image` runs **once per image** and compiles every bundle into
  a dense, PC-indexed table of micro-op records.  Operand indices, pre-bound
  ALU/compare/predicate evaluation functions, pre-resolved
  :class:`~repro.isa.opcodes.OpInfo` attributes (width, signedness, memory
  type), delay-slot counts, resolved control-flow targets (including the
  :class:`~repro.program.linker.FunctionRecord` of call/brcf targets), basic
  block keys and call-count keys are all resolved at decode time.  The
  decode is table-driven: everything that depends only on the opcode and
  the pipeline (micro-op kind, evaluation function, delay slots, the
  operands a strict check reads) sits in a per-mnemonic *plan* built once
  per pipeline, and the function record of every table slot comes from one
  walk over the image's functions, so decoding an instruction costs a dict
  lookup and a few attribute reads.
* :class:`EngineContext` executes the table with a flat dispatch loop: no
  ``Format`` if-chain, no per-step dict probes, and the linear
  ``_pending_writes`` scan is replaced by a small ring of write slots indexed
  by due-issue, so committing exposed-delay results is O(writes due now).
  Each simulator owns one context, built at its first fast-engine step and
  kept until its result is read after the halt
  (:meth:`~repro.sim.base.BaseSimulator.engine_context`): in-flight state
  stays inside it between :meth:`~EngineContext.advance` calls, so a
  scheduler that steps a core slice by slice re-enters the hot loop at
  method-call cost.  With ``sync=True`` the context additionally pauses
  before any bundle that may register a shared-bus transfer — the
  next-event lookahead protocol of the RTOS task runtimes' co-simulation.
* ``strict`` and ``trace`` handling are hoisted out of the hot loop into
  *decode-time variants*, so the common path pays nothing for either
  feature.  Strict staleness checks exist only in the strict decode: an ALU
  instruction with a live destination becomes one *fused* check-and-execute
  micro-op (guard predicate, guard, sources, then the operation, in the
  reference's order), and every other guarded or register-reading
  instruction gets a check micro-op in front of its own.  The rendered trace text is pre-computed (and only
  present) in the trace decode.

The engine drives an ordinary :class:`~repro.sim.base.BaseSimulator` (or
:class:`~repro.sim.cycle.CycleSimulator`) instance: its context starts on
the freshly started simulator, mutates the *same* state objects (register
file, memories, caches, statistics) through the timing hooks, shares the
simulator's clock (``sim.cycles``, read on entry to every
:meth:`~EngineContext.advance` and written back on exit), and exports the
in-flight state (pending writes/control/load) to the simulator's
reference-format attributes whenever ``run_step`` returns — even on
exceptions — and before every ``result()``, so results, strict violations
and post-run inspection are indistinguishable from the reference
interpreter for every run that completes a bundle.  (The one
known post-mortem difference: after an exception *inside* a bundle, the
aggregate ``instructions``/``nops`` counters exclude that partial bundle
entirely, whereas the reference counts its already-executed slots — the
engine counts instructions per bundle, not per slot.)

Register indices are validated once at decode time (a membership test, or
:func:`_validate_index`'s error); the hot loop then indexes
``ArchState.regs``/``preds`` through the unchecked paths (see
:class:`~repro.sim.state.ArchState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from ..config import NUM_GPRS, NUM_PREDS
from ..errors import (
    LinkError,
    ScheduleViolation,
    SimulationError,
    StackCacheError,
)
from ..isa.instruction import Instruction
from ..isa.opcodes import ControlKind, Format, MemType, Opcode, \
    control_delay_slots, result_delay_slots
from ..isa.registers import SpecialReg
from ..program.linker import Image
from .results import TraceEntry

_M = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF


def _s32(value: int) -> int:
    """Signed view of a 32-bit register value (inlined ``to_signed``)."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# ---------------------------------------------------------------------------
# Pre-bound operation evaluation (decode-time resolved, no opcode dispatch)
# ---------------------------------------------------------------------------

def _sra(a: int, b: int) -> int:
    return (_s32(a) >> (b & 31)) & _M


def _mul_signed(a: int, b: int) -> tuple[int, int]:
    product = (_s32(a) * _s32(b)) & _M64
    return product & _M, product >> 32


def _mul_unsigned(a: int, b: int) -> tuple[int, int]:
    product = (a * b) & _M64
    return product & _M, product >> 32


_ADD = lambda a, b: (a + b) & _M          # noqa: E731
_SUB = lambda a, b: (a - b) & _M          # noqa: E731
_AND = lambda a, b: a & b                 # noqa: E731
_OR = lambda a, b: a | b                  # noqa: E731
_XOR = lambda a, b: a ^ b                 # noqa: E731
_NOR = lambda a, b: ~(a | b) & _M         # noqa: E731
_SHL = lambda a, b: (a << (b & 31)) & _M  # noqa: E731
_SHR = lambda a, b: a >> (b & 31)         # noqa: E731

#: ALU evaluation functions, resolved once at decode time.
_ALU_FN: dict[Opcode, object] = {
    Opcode.ADD: _ADD, Opcode.ADDI: _ADD, Opcode.ADDL: _ADD,
    Opcode.SUB: _SUB, Opcode.SUBI: _SUB, Opcode.SUBL: _SUB,
    Opcode.AND: _AND, Opcode.ANDI: _AND, Opcode.ANDL: _AND,
    Opcode.OR: _OR, Opcode.ORI: _OR, Opcode.ORL: _OR,
    Opcode.XOR: _XOR, Opcode.XORI: _XOR, Opcode.XORL: _XOR,
    Opcode.NOR: _NOR,
    Opcode.SHL: _SHL, Opcode.SHLI: _SHL,
    Opcode.SHR: _SHR, Opcode.SHRI: _SHR,
    Opcode.SRA: _sra, Opcode.SRAI: _sra,
    Opcode.SHADD: lambda a, b: ((a << 1) + b) & _M,
    Opcode.SHADD2: lambda a, b: ((a << 2) + b) & _M,
}

_CMP_EQ = lambda a, b: a == b                  # noqa: E731
_CMP_NEQ = lambda a, b: a != b                 # noqa: E731
_CMP_LT = lambda a, b: _s32(a) < _s32(b)       # noqa: E731
_CMP_LE = lambda a, b: _s32(a) <= _s32(b)      # noqa: E731
_CMP_ULT = lambda a, b: a < b                  # noqa: E731
_CMP_ULE = lambda a, b: a <= b                 # noqa: E731

#: Compare evaluation functions (operands are masked register values).
_CMP_FN: dict[Opcode, object] = {
    Opcode.CMPEQ: _CMP_EQ, Opcode.CMPIEQ: _CMP_EQ,
    Opcode.CMPNEQ: _CMP_NEQ, Opcode.CMPINEQ: _CMP_NEQ,
    Opcode.CMPLT: _CMP_LT, Opcode.CMPILT: _CMP_LT,
    Opcode.CMPLE: _CMP_LE, Opcode.CMPILE: _CMP_LE,
    Opcode.CMPULT: _CMP_ULT, Opcode.CMPIULT: _CMP_ULT,
    Opcode.CMPULE: _CMP_ULE, Opcode.CMPIULE: _CMP_ULE,
    Opcode.BTEST: lambda a, b: bool((a >> (b & 31)) & 1),
}

#: Predicate-combine evaluation functions (operands/results are bools).
_PRED_FN: dict[Opcode, object] = {
    Opcode.PAND: lambda a, b: a and b,
    Opcode.POR: lambda a, b: a or b,
    Opcode.PXOR: lambda a, b: a != b,
    Opcode.PNOT: lambda a, b: not a,
}

#: Multiplication evaluation functions returning ``(low, high)``.
_MUL_FN: dict[Opcode, object] = {
    Opcode.MUL: _mul_signed,
    Opcode.MULU: _mul_unsigned,
}


# ---------------------------------------------------------------------------
# Micro-op kinds (first element of every micro-op tuple)
# ---------------------------------------------------------------------------

K_CHECK = 0        # (k, -1, _, guard, gneg, gprs, preds, specials) strict only
K_ALU_RR = 1       # (k, g, neg, fn, rs1, rs2, rd)
K_ALU_RI = 2       # (k, g, neg, fn, rs1, immu, rd)
K_LI = 3           # (k, g, neg, value, rd)
K_LIH = 4          # (k, g, neg, hi16, rd)
K_CMP_RR = 5       # (k, g, neg, fn, rs1, rs2, pd)
K_CMP_RI = 6       # (k, g, neg, fn, rs1, immu, pd)
K_PRED = 7         # (k, g, neg, fn, ps1, ps2|-1, pd)
K_MUL = 8          # (k, g, neg, fn, rs1, rs2, delay)
K_LOAD_W = 9       # (k, g, neg, rs1, imm, rd, delay, mem_type, schk, srel)
K_LOAD = 10        # (k, ... as K_LOAD_W ..., width, signed)
K_LOAD_LW = 11     # (k, g, neg, rs1, imm, rd, delay, mem_type)
K_LOAD_L = 12      # (k, ... as K_LOAD_LW ..., width, signed)
K_LOAD_M = 13      # (k, g, neg, rs1, imm, rd, width, signed)
K_STORE_W = 14     # (k, g, neg, rs1, imm, rs2, mem_type, schk, srel)
K_STORE = 15       # (k, ... as K_STORE_W ..., width)
K_STORE_LW = 16    # (k, g, neg, rs1, imm, rs2, mem_type)
K_STORE_L = 17     # (k, ... as K_STORE_LW ..., width)
K_STORE_M = 18     # (k, g, neg, rs1, imm, rs2, width)
K_WMEM = 19        # (k, g, neg)
K_STACK = 20       # (k, g, neg, opcode, op_id, words)
K_BRANCH = 21      # (k, g, neg, t_idx, t_addr, delay)
K_BRCF = 22        # (k, g, neg, t_idx, t_addr, delay, record|None)
K_CALL = 23        # (k, g, neg, t_idx, t_addr, delay, record|None)
K_CALLR = 24       # (k, g, neg, rs1, delay)
K_RET = 25         # (k, g, neg, delay)
K_MTS = 26         # (k, g, neg, special, rs1)
K_MFS = 27         # (k, g, neg, special, rd)
K_HALT = 28        # (k, g, neg)
K_OUT = 29         # (k, g, neg, rs1)
K_UNRESOLVED = 30  # (k, g, neg, target) — raises like the reference
K_CHECK1 = 31      # (k, -1, _, guard, gneg, gpr) strict, single-GPR read
K_CHECK2 = 32      # (k, -1, _, guard, gneg, gpr, gpr) strict, two-GPR read
K_ALU_RI_S = 33    # (k, -1, _, guard, gneg, fn, rs1, immu, rd) strict, fused
K_ALU_RR_S = 34    # (k, -1, _, guard, gneg, fn, rs1, rs2, rd) strict, fused


# Record tuple layout of one decoded bundle.
R_UOPS, R_BLOCK, R_ADDR, R_FALL_ADDR, R_FALL_IDX, R_BUNDLE, R_FUNC, \
    R_TRACE, R_NINSTR, R_NNOPS = range(10)


@dataclass
class DecodedProgram:
    """A dense, PC-indexed micro-op table for one image/pipeline variant."""

    table: list
    base: int
    ring_size: int
    strict: bool
    trace: bool
    #: Memoised per-bundle may-arbitrate flags, keyed by the cache/store
    #: organisation signature (see :meth:`EngineContext._sync_flags`).
    sync_flags_cache: dict = field(default_factory=dict)


def decode_image(image: Image, pipeline, strict: bool,
                 trace: bool) -> DecodedProgram:
    """Return the (cached) pre-decoded program for an image.

    The cache lives on the image and is keyed by the (hashable) pipeline
    configuration plus the ``strict``/``trace`` decode variant, so repeated
    simulations of the same image — sweeps, CMP cores, golden comparisons —
    decode once.
    """
    cache = image._caches.setdefault("predecoded", {})
    key = (pipeline, strict, trace)
    program = cache.get(key)
    if program is None:
        program = _decode(image, pipeline, strict, trace)
        cache[key] = program
    return program


def _validate_index(value, limit: int, what: str) -> int:
    """Decode-time register-index validation backing the unchecked hot path."""
    if not isinstance(value, int) or not 0 <= value < limit:
        raise SimulationError(f"{what} index out of range at decode: {value!r}")
    return value


#: Valid register indices: the fast path of decode-time validation.  An
#: operand outside them takes :func:`_validate_index`, which raises.
_GPR_INDICES = frozenset(range(NUM_GPRS))
_PRED_INDICES = frozenset(range(NUM_PREDS))


def _gpr(value, what: str = "register") -> int:
    return value if value in _GPR_INDICES else \
        _validate_index(value, NUM_GPRS, what)


def _pred(value, what: str = "predicate") -> int:
    return value if value in _PRED_INDICES else \
        _validate_index(value, NUM_PREDS, what)


def _ring_size(pipeline) -> int:
    needed = max(pipeline.load_delay_slots, pipeline.mul_delay_slots) + 2
    size = 2
    while size < needed:
        size *= 2
    return size


# Decode forms: the first element of a per-mnemonic decode plan.
(_D_NOP, _D_ALU_R, _D_ALU_I, _D_LIL, _D_LIH, _D_MUL, _D_CMP_R, _D_CMP_I,
 _D_PRED, _D_LOAD, _D_STORE, _D_WAIT, _D_STACK, _D_BRANCH, _D_CALLR, _D_RET,
 _D_MTS, _D_MFS, _D_HALT, _D_OUT) = range(20)

_STACK_OP_IDS = {Opcode.SRES: 0, Opcode.SENS: 1, Opcode.SFREE: 2}


def _plan(opcode: Opcode, pipeline) -> tuple:
    """The decode plan of one opcode under ``pipeline``.

    ``(form, gpr_reads, pred_reads, special_reads, *payload)``: the three read
    tuples name the operand fields (and special registers) the reference
    interpreter reads through its checked accessors, which is what a strict
    check micro-op tests; ``special_reads`` is ``None`` where the
    instruction's own ``special`` operand is read (``mfs``).  The payload is
    everything the micro-op needs that depends only on the opcode and the
    pipeline: evaluation function, delay slots, micro-op kind, memory type,
    width and signedness.
    """
    info = opcode.info
    fmt = info.fmt
    if fmt is Format.NOP:
        return (_D_NOP, (), (), ())
    if fmt is Format.ALU_R:
        return (_D_ALU_R, ("rs1", "rs2"), (), (), _ALU_FN[opcode])
    if fmt in (Format.ALU_I, Format.ALU_L):
        return (_D_ALU_I, ("rs1",), (), (), _ALU_FN[opcode])
    if fmt is Format.LI:
        if opcode is Opcode.LIL:
            return (_D_LIL, (), (), ())
        return (_D_LIH, ("rd",), (), ())
    if fmt is Format.MUL:
        return (_D_MUL, ("rs1", "rs2"), (), (), _MUL_FN[opcode],
                result_delay_slots(info, pipeline))
    if fmt is Format.CMP_R:
        return (_D_CMP_R, ("rs1", "rs2"), (), (), _CMP_FN[opcode])
    if fmt is Format.CMP_I:
        return (_D_CMP_I, ("rs1",), (), (), _CMP_FN[opcode])
    if fmt is Format.PRED:
        reads = ("ps1",) if opcode is Opcode.PNOT else ("ps1", "ps2")
        return (_D_PRED, (), reads, (), _PRED_FN[opcode])
    if fmt in (Format.LOAD, Format.STORE):
        mem_type = info.mem_type
        stack = mem_type is MemType.STACK
        word = info.width == 4
        if fmt is Format.LOAD:
            gprs = ("rs1",)
            if mem_type is MemType.MAIN:
                kind = K_LOAD_M
            elif mem_type is MemType.LOCAL:
                kind = K_LOAD_LW if word else K_LOAD_L
            else:
                kind = K_LOAD_W if word else K_LOAD
        else:
            gprs = ("rs1", "rs2")
            if mem_type is MemType.MAIN:
                kind = K_STORE_M
            elif mem_type is MemType.LOCAL:
                kind = K_STORE_LW if word else K_STORE_L
            else:
                kind = K_STORE_W if word else K_STORE
        return (_D_LOAD if fmt is Format.LOAD else _D_STORE, gprs, (),
                (SpecialReg.ST,) if stack else (), kind, mem_type, info.width,
                info.signed, result_delay_slots(info, pipeline), stack)
    if fmt is Format.WAIT:
        return (_D_WAIT, (), (), ())
    if fmt is Format.STACK:
        return (_D_STACK, (), (), (), opcode, _STACK_OP_IDS[opcode])
    if fmt in (Format.BRANCH, Format.CALL):
        if info.control is ControlKind.CALL:
            kind = K_CALL
        elif opcode is Opcode.BRCF:
            kind = K_BRCF
        else:
            kind = K_BRANCH
        return (_D_BRANCH, (), (), (), kind,
                control_delay_slots(info, pipeline))
    if fmt is Format.CALLR:
        return (_D_CALLR, ("rs1",), (), (), control_delay_slots(info, pipeline))
    if fmt is Format.RET:
        return (_D_RET, (), (), (SpecialReg.SRB, SpecialReg.SRO),
                control_delay_slots(info, pipeline))
    if fmt is Format.MTS:
        return (_D_MTS, ("rs1",), (), ())
    if fmt is Format.MFS:
        return (_D_MFS, (), (), None)
    if fmt is Format.HALT:
        return (_D_HALT, (), (), ())
    if fmt is Format.OUT:
        return (_D_OUT, ("rs1",), (), ())
    raise SimulationError(  # pragma: no cover - every format is planned
        f"cannot pre-decode {opcode}")


@lru_cache(maxsize=16)
def _decode_plans(pipeline) -> Mapping[str, tuple]:
    """:func:`_plan` of every opcode, keyed by mnemonic: a string key hashes
    without the Python-level ``Enum.__hash__``.  Built once per pipeline and
    shared, so read-only."""
    return MappingProxyType({opcode.info.mnemonic: _plan(opcode, pipeline)
                             for opcode in Opcode})


def _function_slots(image: Image, base: int, length: int) -> list:
    """The :class:`~repro.program.linker.FunctionRecord` of every table slot.

    One walk over the image's functions in entry order, under
    :meth:`~repro.program.linker.Image.function_containing`'s rule: an
    address belongs to the last function (in that order) whose entry is at
    or below it, if it lies inside that function's code; otherwise to none
    (``None``, where ``function_containing`` raises).
    """
    slots: list = [None] * length
    records = image._func_sorted
    next_entries = [record.entry_addr for record in records[1:]] + [None]
    for record, next_entry in zip(records, next_entries):
        start = record.entry_addr
        end = start + record.size_bytes
        if next_entry is not None and next_entry < end:
            end = next_entry  # the next record owns the rest
        first = max(0, -(-(start - base) // 4))
        stop = min(length, -(-(end - base) // 4))
        slots[first:stop] = [record] * max(0, stop - first)
    return slots


def _decode(image: Image, pipeline, strict: bool,
            trace: bool) -> DecodedProgram:
    bundles = image.bundles
    if not bundles:
        return DecodedProgram(table=[], base=image.entry_addr,
                              ring_size=_ring_size(pipeline), strict=strict,
                              trace=trace)
    base = min(bundles)
    length = ((max(bundles) - base) >> 2) + 1
    table: list = [None] * length
    plans = _decode_plans(pipeline)
    functions = _function_slots(image, base, length)
    block_keys = {block.addr: (block.function, block.label)
                  for block in image.blocks}

    for addr, bundle in bundles.items():
        uops: list[tuple] = []
        n_nops = 0
        slots = bundle.slots
        for instr in slots:
            plan = plans[instr.info.mnemonic]
            if plan[0] == _D_NOP:
                n_nops += 1
            else:
                _decode_instruction(instr, plan, image, base, strict, uops)
        fall_addr = addr + bundle.size_bytes
        table[(addr - base) >> 2] = (
            tuple(uops),
            block_keys.get(addr),
            addr,
            fall_addr,
            (fall_addr - base) >> 2,
            bundle,
            functions[(addr - base) >> 2],
            str(bundle) if trace else None,
            len(slots),
            n_nops,
        )
    return DecodedProgram(table=table, base=base,
                          ring_size=_ring_size(pipeline), strict=strict,
                          trace=trace)


def _check_uop(instr: Instruction, plan: tuple, g: int, neg: bool):
    """The strict check micro-op of one instruction, or ``None``."""
    gprs = tuple([_gpr(getattr(instr, name)) for name in plan[1]])
    preds = tuple([_pred(getattr(instr, name)) for name in plan[2]])
    specials = (instr.special,) if plan[3] is None else plan[3]
    if not preds and not specials:
        if len(gprs) == 1:
            return (K_CHECK1, -1, False, g, neg, gprs[0])
        if len(gprs) == 2:
            return (K_CHECK2, -1, False, g, neg, gprs[0], gprs[1])
    if g >= 0 or gprs or preds or specials:
        return (K_CHECK, -1, False, g, neg, gprs, preds, specials)
    return None


def _decode_instruction(instr: Instruction, plan: tuple, image: Image,
                        base: int, strict: bool, uops: list) -> None:
    """Append the micro-ops of one (non-``nop``) instruction to ``uops``."""
    form = plan[0]
    guard = instr.guard
    neg = guard.negate
    g = guard.pred
    if g == 0 and not neg:
        g = -1
    elif g not in _PRED_INDICES:
        g = _validate_index(g, NUM_PREDS, "guard predicate")

    if form == _D_ALU_I or form == _D_ALU_R:
        if instr.rd == 0:  # write to hard-wired r0: architecturally dead
            if strict:
                uops.append(_check_uop(instr, plan, g, neg))
            return
        rs1 = _gpr(instr.rs1)
        second = _gpr(instr.rs2) if form == _D_ALU_R else instr.imm & _M
        rd = _gpr(instr.rd)
        if strict:
            # One fused micro-op checks in the check micro-op's order, then
            # executes: it carries its guard itself (slot 1 is -1).
            uops.append((K_ALU_RR_S if form == _D_ALU_R else K_ALU_RI_S, -1,
                         False, g, neg, plan[4], rs1, second, rd))
        else:
            uops.append((K_ALU_RR if form == _D_ALU_R else K_ALU_RI, g, neg,
                         plan[4], rs1, second, rd))
        return

    if strict:
        check = _check_uop(instr, plan, g, neg)
        if check is not None:
            uops.append(check)

    if form == _D_CMP_R or form == _D_CMP_I:
        if instr.pd == 0:
            return  # write to hard-wired p0: architecturally dead
        rs1 = _gpr(instr.rs1)
        second = _gpr(instr.rs2) if form == _D_CMP_R else instr.imm & _M
        uops.append((K_CMP_RR if form == _D_CMP_R else K_CMP_RI, g, neg,
                     plan[4], rs1, second, _pred(instr.pd)))
    elif form == _D_LOAD or form == _D_STORE:
        kind, mem_type, width, signed, delay, stack = plan[4:]
        rs1 = _gpr(instr.rs1)
        if form == _D_LOAD:
            rd = _gpr(instr.rd)
            if kind == K_LOAD_M:
                uops.append((kind, g, neg, rs1, instr.imm, rd, width, signed))
            elif kind == K_LOAD_LW:
                uops.append((kind, g, neg, rs1, instr.imm, rd, delay,
                             mem_type))
            elif kind == K_LOAD_L:
                uops.append((kind, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, width, signed))
            elif kind == K_LOAD_W:
                uops.append((kind, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, strict and stack, stack))
            else:
                uops.append((kind, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, strict and stack, stack, width,
                             signed))
        else:
            rs2 = _gpr(instr.rs2)
            if kind == K_STORE_M:
                uops.append((kind, g, neg, rs1, instr.imm, rs2, width))
            elif kind == K_STORE_LW:
                uops.append((kind, g, neg, rs1, instr.imm, rs2, mem_type))
            elif kind == K_STORE_L:
                uops.append((kind, g, neg, rs1, instr.imm, rs2, mem_type,
                             width))
            elif kind == K_STORE_W:
                uops.append((kind, g, neg, rs1, instr.imm, rs2, mem_type,
                             strict and stack, stack))
            else:
                uops.append((kind, g, neg, rs1, instr.imm, rs2, mem_type,
                             strict and stack, stack, width))
    elif form == _D_LIL or form == _D_LIH:
        if instr.rd == 0:
            return
        if form == _D_LIL:
            uops.append((K_LI, g, neg, instr.imm & _M, _gpr(instr.rd)))
        else:
            uops.append((K_LIH, g, neg, (instr.imm & 0xFFFF) << 16,
                         _gpr(instr.rd)))
    elif form == _D_BRANCH:
        kind, delay = plan[4], plan[5]
        target = instr.target
        if not isinstance(target, int):
            uops.append((K_UNRESOLVED, g, neg, target))
            return
        t_idx = (target - base) >> 2 if target >= base else -1
        if kind == K_BRANCH:
            uops.append((kind, g, neg, t_idx, target, delay))
            return
        try:
            record = image.function_at(target) if kind == K_CALL \
                else image.function_containing(target)
        except LinkError:
            record = None  # resolved (and raised) at execution time
        uops.append((kind, g, neg, t_idx, target, delay, record))
    elif form == _D_PRED:
        if instr.pd == 0:
            return
        ps2 = -1 if instr.ps2 is None else _pred(instr.ps2)
        uops.append((K_PRED, g, neg, plan[4], _pred(instr.ps1), ps2,
                     _pred(instr.pd)))
    elif form == _D_MUL:
        uops.append((K_MUL, g, neg, plan[4], _gpr(instr.rs1),
                     _gpr(instr.rs2), plan[5]))
    elif form == _D_WAIT:
        uops.append((K_WMEM, g, neg))
    elif form == _D_STACK:
        uops.append((K_STACK, g, neg, plan[4], plan[5], instr.imm))
    elif form == _D_CALLR:
        uops.append((K_CALLR, g, neg, _gpr(instr.rs1), plan[4]))
    elif form == _D_RET:
        uops.append((K_RET, g, neg, plan[4]))
    elif form == _D_MTS:
        uops.append((K_MTS, g, neg, instr.special, _gpr(instr.rs1)))
    elif form == _D_MFS:
        if instr.rd == 0:
            return
        uops.append((K_MFS, g, neg, instr.special, _gpr(instr.rd)))
    elif form == _D_HALT:
        uops.append((K_HALT, g, neg))
    else:  # form == _D_OUT
        uops.append((K_OUT, g, neg, _gpr(instr.rs1)))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_KIND_NAMES = ("gpr", "pred", "special")


def _raise_stale(kind_id: int, index, issued: int, ring: list,
                 ring_mask: int) -> None:
    """Cold path of the strict check micro-op: find the due and raise.

    When several writes to the same register are pending, the message cites
    the earliest due one (the reference interpreter cites the first in
    scheduling order); only the message may differ, never the exception type.
    """
    due = None
    for offset in range(1, ring_mask + 2):
        for write in ring[(issued + offset) & ring_mask]:
            if write[0] == kind_id and write[1] == index:
                due = issued + offset
                break
        if due is not None:
            break
    raise ScheduleViolation(
        f"read of {_KIND_NAMES[kind_id]} {index} at bundle {issued} before "
        f"the result of a previous instruction is available "
        f"(due at bundle {due})")


def _hook(sim, base_cls, name):
    """A timing hook bound method, or ``None`` if the subclass keeps the
    zero-stall default of :class:`BaseSimulator` (skip the call entirely)."""
    if getattr(type(sim), name) is getattr(base_cls, name):
        return None
    return getattr(sim, name)


def _uop_may_arbitrate(u: tuple, uses_method_cache: bool, unified: bool,
                       ideal: bool, store_arbitrates: bool) -> bool:
    """Can executing this micro-op ever register a shared-bus transfer?

    The classification mirrors the timing hooks of
    :class:`~repro.sim.cycle.CycleSimulator` exactly: typed cached accesses
    arbitrate only on a miss path that exists for their cache organisation,
    split main-memory loads always arbitrate, stores only reach the arbiter
    when the store buffer has zero entries (background drains are not
    modelled on the bus), stack control arbitrates on spill/fill traffic and
    call/return/brcf on method-cache fills.  Everything else — ALU, compare,
    predicate and special-register operations, the strict check micro-ops
    and the fused strict ALU ops — never arbitrates.  Being conservative
    here is always sound — a pause before a bundle that then hits in its cache costs
    a scheduling round trip, never correctness.
    """
    k = u[0]
    if k == K_LOAD_W or k == K_LOAD:
        mem_type = u[7]
        return not ideal and (mem_type is MemType.STATIC
                              or mem_type is MemType.OBJECT
                              or (mem_type is MemType.STACK and unified))
    if k == K_LOAD_M:
        return True
    if k == K_STORE_W or k == K_STORE:
        mem_type = u[6]
        return store_arbitrates and (mem_type is MemType.STATIC
                                     or mem_type is MemType.OBJECT
                                     or (mem_type is MemType.STACK
                                         and unified))
    if k == K_STORE_M:
        return store_arbitrates
    if k == K_STACK:
        return u[4] != 2  # sres/sens may spill/fill; sfree never transfers
    if k in (K_BRCF, K_CALL, K_CALLR, K_RET):
        return uses_method_cache
    return False


class EngineContext:
    """Persistent, resumable execution context of one pre-decoded simulator.

    The fast engine's prologue — decoding-cache lookup, some forty local
    aliases, the due-issue ring and pending-write counters, resolving the
    timing hooks — is cheap once per *run* but dominates wall-clock when a
    scheduler re-enters the engine every few bundles.  So each simulator
    owns exactly one context
    (:meth:`~repro.sim.base.BaseSimulator.engine_context`), built on the
    freshly started simulator at its first fast-engine step and kept until
    the simulator's result is read after its halt: :meth:`advance` re-binds
    locals from the context and continues exactly where the previous call
    stopped, so a slice re-entry costs a method call.

    The clock is the simulator's: :meth:`advance` starts from
    ``sim.cycles`` and writes it back on exit, so a caller that moves the
    clock between slices (an ECC correction charge, an RTOS job resumed
    after preemption) reaches the context without a further call.  The
    clock only moves forward; a clock set back since the last exit would
    re-order already-issued arbitration requests and is rejected.  Between
    slices a moved clock leaves every absolute-cycle state consistent: TDMA
    slot phases, store-buffer drain times and a pending split load's ready
    cycle are compared against it, so an in-flight memory operation simply
    completes during a preemption gap — exactly what the hardware would do
    while the core executes another task.

    The context also implements the *next-event lookahead* protocol of the
    event-driven co-simulation of the RTOS task runtimes: with
    ``sync=True``, :meth:`advance` classifies every decoded bundle by
    whether it can register a transfer with the shared memory arbiter (see
    :func:`_uop_may_arbitrate`) and pauses *before* executing such a
    bundle, reporting ``"sync"`` with the core's clock — which is the exact
    global cycle its next arbitration request would be stamped with.  The
    scheduler releases paused cores in global time order (``release=True``
    executes the pending bundle), so requests reach the shared arbiter
    exactly as the quantum scheduler's interleaving would deliver them,
    while the core runs completely undisturbed between its own memory
    events.

    Other in-flight state lives in the context between calls;
    :meth:`export` writes it to the simulator's reference-format attributes
    (``_pending_writes`` and friends), which ``run_step`` does on every
    return and ``result()`` before it reads them, so results and post-mortem
    inspection are indistinguishable from the reference engine.  ``export``
    is idempotent.
    """

    def __init__(self, sim):
        from .base import BaseSimulator

        self.sim = sim
        program = decode_image(sim.image, sim.config.pipeline, sim.strict,
                               sim.trace_enabled)
        self.program = program
        self.table = program.table
        self.tlen = len(program.table)
        self.base = program.base
        nring = program.ring_size
        self.ring_mask = nring - 1

        # -- architectural state aliases (mutated in place) --------------------
        state = sim.state
        self.state = state
        self.regs = state.regs
        self.preds = state.preds
        self.specials = state.specials
        self.output = state.output
        self.block_counts = sim.block_counts
        self.call_counts = sim.call_counts
        self.stack_cache = sim.stack_cache
        self.memory = sim.memory
        self.scratchpad = sim.scratchpad
        self.func_at = sim.image.function_at
        self.func_containing = sim.image.function_containing
        self.trace_append = sim.trace.append

        # -- timing hooks (None = the subclass charges no stalls there) --------
        self.fetch_hook = sim._engine_fetch_hook()
        self.mc_hook = _hook(sim, BaseSimulator, "_method_cache_stall")
        self.read_hook = _hook(sim, BaseSimulator, "_cached_read_stall")
        self.write_hook = _hook(sim, BaseSimulator, "_cached_write_stall")
        self.stack_hook = _hook(sim, BaseSimulator, "_stack_control_stall")
        self.store_hook = _hook(sim, BaseSimulator, "_main_store_stall")
        self.split_hook = _hook(sim, BaseSimulator, "_split_load_latency")
        self.wait_hook = _hook(sim, BaseSimulator, "_split_load_wait")

        # -- dynamic state of the started simulator (nothing in flight) --------
        self.issued = sim.issued
        #: The simulator's clock at the last exit of :meth:`advance`.
        self.cycles = sim.cycles
        self.instructions = sim.instructions
        self.nops = sim.nops
        self.halted = state.halted
        self.cur_func = sim._current_func
        self.idx = (sim._pc - self.base) >> 2

        self.ring: list[list] = [[] for _ in range(nring)]
        self.pg = [0] * NUM_GPRS
        self.pp = [0] * NUM_PREDS
        self.ps: dict = {}

        self.ctrl_cd = 0
        self.ctrl_tidx = -1
        self.ctrl_target = 0
        self.ctrl_is_call = False
        self.ctrl_name = None

        self.has_pml = False
        self.pml_rd = self.pml_val = self.pml_ready = 0

        #: Stall cycles accumulated since the last :meth:`export`.
        self.s_icache = self.s_data = self.s_method = 0
        self.s_stack = self.s_split = self.s_store = 0

        #: Per-bundle "may register an arbitrated transfer" flags
        #: (:meth:`_sync_flags`).
        self.sync_flags = None

    def _sync_flags(self) -> list:
        """Classify every bundle for the pause-before-memory-event protocol.

        The flags depend on the core's cache organisation and store-buffer
        configuration, not just on the image, so they are per-context rather
        than part of the shared decode cache.  They are memoised on the
        decode per organisation signature: ``None`` when no shared arbiter
        is attached (no bundle can ever register a transfer), otherwise
        exactly the configuration bits :func:`_uop_may_arbitrate`
        classifies against.  Built by the first :meth:`advance` with
        ``sync=True``.
        """
        sim = self.sim
        hierarchy = getattr(sim, "hierarchy", None)
        controller = getattr(sim, "controller", None)
        if controller is None or controller.arbiter is None:
            key = None
        else:
            uses_mc = hierarchy is not None and hierarchy.uses_method_cache
            options = hierarchy.options if hierarchy is not None else None
            key = (uses_mc,
                   options is not None and options.unified_data_cache,
                   options is not None and options.ideal_data_caches,
                   controller.store_buffer_entries == 0)
        flags = self.program.sync_flags_cache.get(key)
        if flags is None:
            flags = [False] * self.tlen
            if key is not None:
                uses_mc, unified, ideal, store_arb = key
                for index, rec in enumerate(self.table):
                    if rec is None:
                        continue
                    for u in rec[R_UOPS]:
                        if _uop_may_arbitrate(u, uses_mc, unified, ideal,
                                              store_arb):
                            flags[index] = True
                            break
            self.program.sync_flags_cache[key] = flags
        self.sync_flags = flags
        return flags

    def export(self) -> None:
        """Write the in-flight state back to the simulator (idempotent)."""
        from .base import _PendingControl, _PendingMainLoad, _PendingWrite

        sim = self.sim
        sim.issued = self.issued
        sim.instructions = self.instructions
        sim.nops = self.nops
        stalls = sim.stalls
        stalls.icache += self.s_icache
        stalls.data_cache += self.s_data
        stalls.method_cache += self.s_method
        stalls.stack_cache += self.s_stack
        stalls.split_load_wait += self.s_split
        stalls.store_buffer += self.s_store
        self.s_icache = self.s_data = self.s_method = 0
        self.s_stack = self.s_split = self.s_store = 0
        sim._pc = self.base + (self.idx << 2)
        sim._current_func = self.cur_func
        sim._pending_control = _PendingControl(
            target=self.ctrl_target, countdown=self.ctrl_cd,
            is_call=self.ctrl_is_call,
            call_target_name=self.ctrl_name) if self.ctrl_cd else None
        sim._pending_main_load = _PendingMainLoad(
            rd=self.pml_rd, value=self.pml_val,
            ready_cycle=self.pml_ready) if self.has_pml else None
        pending_writes = []
        ring_mask = self.ring_mask
        for offset in range(ring_mask + 1):
            due = self.issued + offset
            for write in self.ring[due & ring_mask]:
                pending_writes.append(_PendingWrite(
                    due_issue=due, kind=_KIND_NAMES[write[0]],
                    index=write[1], value=write[2]))
        sim._pending_writes = pending_writes

    def advance(self, max_bundles: int, release: bool = False,
                sync: bool = True, until_cycle=None, event_source=None) -> str:
        """Run until the next scheduling point; returns why it stopped.

        * ``"halted"`` — the program executed ``halt``;
        * ``"sync"`` — ``sync`` is set and the *next* bundle may register
          an arbitrated transfer (the bundle has **not** executed;
          ``sim.cycles`` is the global cycle its requests would carry);
        * ``"memory_event"`` / ``"cycle_limit"`` — the stepping conditions
          of :meth:`~repro.sim.base.BaseSimulator.run_step`.

        ``release=True`` executes the pending flagged bundle (the scheduler
        granting this core its turn) before pausing again; ``sync=False``
        ignores the flags entirely — used by ``run_step`` and for the last
        surviving core of a co-simulation, whose requests can no longer
        interleave with anyone.

        ``until_cycle`` doubles as the *interrupt check* of the RTOS layer:
        it is tested **before** the sync flags, at every bundle boundary, so
        a task scheduler that bounds each run by the next release time gets
        control back at the first bundle boundary at or after an interrupt
        fires — a bundle already issued runs to completion (the source of
        the one-bundle blocking term in the response-time analysis), and no
        sync pause is ever reported at or beyond the interrupt time.
        """
        sim = self.sim
        table = self.table
        tlen = self.tlen
        base = self.base
        ring_mask = self.ring_mask

        state = self.state
        regs = self.regs
        preds = self.preds
        specials = self.specials
        output = self.output
        block_counts = self.block_counts
        call_counts = self.call_counts
        stack_cache = self.stack_cache
        contains = stack_cache.contains
        func_at = self.func_at
        func_containing = self.func_containing
        memory = self.memory
        mem_read = memory.read
        mem_read_u32 = memory.read_u32
        mem_write = memory.write
        mem_write_u32 = memory.write_u32
        spad = self.scratchpad
        spad_read = spad.read
        spad_read_u32 = spad.read_u32
        spad_write = spad.write
        spad_write_u32 = spad.write_u32
        trace_append = self.trace_append

        ST, SS = SpecialReg.ST, SpecialReg.SS
        SL, SH = SpecialReg.SL, SpecialReg.SH
        SRB, SRO = SpecialReg.SRB, SpecialReg.SRO

        fetch_hook = self.fetch_hook
        mc_hook = self.mc_hook
        read_hook = self.read_hook
        write_hook = self.write_hook
        stack_hook = self.stack_hook
        store_hook = self.store_hook
        split_hook = self.split_hook
        wait_hook = self.wait_hook

        cycles = sim.cycles
        if cycles < self.cycles:
            raise SimulationError(
                f"cannot move a core's clock backwards ({self.cycles} -> "
                f"{cycles})")
        issued = self.issued
        instructions = self.instructions
        nops = self.nops
        halted = self.halted
        cur_func = self.cur_func
        cur_entry = cur_func.entry_addr
        idx = self.idx
        ring = self.ring
        pg = self.pg
        pp = self.pp
        ps = self.ps

        ctrl_cd = self.ctrl_cd
        ctrl_tidx = self.ctrl_tidx
        ctrl_target = self.ctrl_target
        ctrl_is_call = self.ctrl_is_call
        ctrl_name = self.ctrl_name
        has_pml = self.has_pml
        pml_rd = self.pml_rd
        pml_val = self.pml_val
        pml_ready = self.pml_ready

        s_icache = self.s_icache
        s_data = self.s_data
        s_method = self.s_method
        s_stack = self.s_stack
        s_split = self.s_split
        s_store = self.s_store

        if sync:
            sync_flags = self.sync_flags
            if sync_flags is None:
                sync_flags = self._sync_flags()
        else:
            sync_flags = None
        skip_sync = release
        status = "cycle_limit"

        # Co-simulation stepping: all checks live behind one flag so the
        # single-core fast path pays a single predictable branch per bundle.
        stepping = (until_cycle is not None or event_source is not None
                    or sync_flags is not None)
        events_before = event_source.events if event_source is not None else 0

        try:
            while not halted:
                if issued >= max_bundles:
                    raise SimulationError(
                        f"program did not halt within {max_bundles} bundles")
                if stepping:
                    if until_cycle is not None and cycles >= until_cycle:
                        break
                    if event_source is not None and \
                            event_source.events != events_before:
                        status = "memory_event"
                        break
                    if sync_flags is not None:
                        if skip_sync:
                            skip_sync = False
                        elif 0 <= idx < tlen and sync_flags[idx]:
                            status = "sync"
                            break
                # Commit results whose exposed delay elapsed (due == issued).
                slot = ring[issued & ring_mask]
                if slot:
                    for kind, index, value in slot:
                        if kind == 0:
                            regs[index] = value
                            pg[index] -= 1
                        elif kind == 1:
                            preds[index] = value
                            pp[index] -= 1
                        else:
                            specials[index] = value
                            ps[index] -= 1
                    del slot[:]

                rec = table[idx] if 0 <= idx < tlen else None
                if rec is None:
                    raise LinkError(f"no bundle at address {base + (idx << 2):#x}")
                uops, block_key, addr, fall_addr, fall_idx, bundle, _func, \
                    trace_text, n_instr, n_nops = rec

                sim.cycles = cycles  # timing hooks (TDMA, store buffer) read this
                if block_key is not None:
                    block_counts[block_key] = block_counts.get(block_key, 0) + 1

                if fetch_hook is not None:
                    stall = fetch_hook(addr, bundle)
                    s_icache += stall
                else:
                    stall = 0

                for u in uops:
                    k = u[0]
                    if k == 33:  # strict ALU reg-imm: check, then execute
                        gg = u[3]
                        if gg >= 0:
                            if pp[gg]:
                                _raise_stale(1, gg, issued, ring, ring_mask)
                            if preds[gg] == u[4]:
                                continue
                        rs = u[6]
                        if pg[rs]:
                            _raise_stale(0, rs, issued, ring, ring_mask)
                        value = u[5](regs[rs], u[7])
                        rd = u[8]
                        ring[(issued + 1) & ring_mask].append((0, rd, value))
                        pg[rd] += 1
                        continue
                    g = u[1]
                    if g >= 0 and preds[g] == u[2]:
                        continue  # guard false
                    if k == 2:  # ALU reg-imm
                        value = u[3](regs[u[4]], u[5])
                        rd = u[6]
                        ring[(issued + 1) & ring_mask].append((0, rd, value))
                        pg[rd] += 1
                    elif k == 34:  # strict ALU reg-reg: check, then execute
                        gg = u[3]
                        if gg >= 0:
                            if pp[gg]:
                                _raise_stale(1, gg, issued, ring, ring_mask)
                            if preds[gg] == u[4]:
                                continue
                        rs = u[6]
                        if pg[rs]:
                            _raise_stale(0, rs, issued, ring, ring_mask)
                        rt = u[7]
                        if pg[rt]:
                            _raise_stale(0, rt, issued, ring, ring_mask)
                        value = u[5](regs[rs], regs[rt])
                        rd = u[8]
                        ring[(issued + 1) & ring_mask].append((0, rd, value))
                        pg[rd] += 1
                    elif k == 31:  # strict check: one GPR read
                        gg = u[3]
                        if gg >= 0:
                            if pp[gg]:
                                _raise_stale(1, gg, issued, ring, ring_mask)
                            if preds[gg] == u[4]:
                                continue
                        if pg[u[5]]:
                            _raise_stale(0, u[5], issued, ring, ring_mask)
                    elif k == 32:  # strict check: two GPR reads
                        gg = u[3]
                        if gg >= 0:
                            if pp[gg]:
                                _raise_stale(1, gg, issued, ring, ring_mask)
                            if preds[gg] == u[4]:
                                continue
                        if pg[u[5]]:
                            _raise_stale(0, u[5], issued, ring, ring_mask)
                        if pg[u[6]]:
                            _raise_stale(0, u[6], issued, ring, ring_mask)
                    elif k == 1:  # ALU reg-reg
                        value = u[3](regs[u[4]], regs[u[5]])
                        rd = u[6]
                        ring[(issued + 1) & ring_mask].append((0, rd, value))
                        pg[rd] += 1
                    elif k == 6:  # compare reg-imm
                        value = u[3](regs[u[4]], u[5])
                        pd = u[6]
                        ring[(issued + 1) & ring_mask].append((1, pd, value))
                        pp[pd] += 1
                    elif k == 5:  # compare reg-reg
                        value = u[3](regs[u[4]], regs[u[5]])
                        pd = u[6]
                        ring[(issued + 1) & ring_mask].append((1, pd, value))
                        pp[pd] += 1
                    elif k == 9:  # word load via a data cache
                        a0 = regs[u[3]] + u[4]
                        if u[9]:
                            a0 += specials[ST]
                        a0 &= _M
                        if u[8] and not contains(a0, 4):
                            raise StackCacheError(
                                f"stack access at {a0:#x} outside the cached "
                                f"window [{stack_cache.st:#x}, "
                                f"{stack_cache.ss:#x})")
                        value = mem_read_u32(a0)
                        rd = u[5]
                        if rd:
                            ring[(issued + 1 + u[6]) & ring_mask].append(
                                (0, rd, value))
                            pg[rd] += 1
                        if read_hook is not None:
                            st_ = read_hook(u[7], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 14:  # word store via a data cache
                        a0 = regs[u[3]] + u[4]
                        if u[8]:
                            a0 += specials[ST]
                        a0 &= _M
                        if u[7] and not contains(a0, 4):
                            raise StackCacheError(
                                f"stack store at {a0:#x} outside the cached "
                                f"window [{stack_cache.st:#x}, "
                                f"{stack_cache.ss:#x})")
                        mem_write_u32(a0, regs[u[5]])
                        if write_hook is not None:
                            st_ = write_hook(u[6], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 3:  # load 16-bit immediate (low half, pre-computed)
                        rd = u[4]
                        ring[(issued + 1) & ring_mask].append((0, rd, u[3]))
                        pg[rd] += 1
                    elif k == 4:  # load 16-bit immediate into the high half
                        rd = u[4]
                        value = (regs[rd] & 0xFFFF) | u[3]
                        ring[(issued + 1) & ring_mask].append((0, rd, value))
                        pg[rd] += 1
                    elif k == 21:  # branch
                        if ctrl_cd:
                            raise SimulationError(
                                "control-transfer issued inside the delay slots "
                                "of another control transfer")
                        ctrl_tidx = u[3]
                        ctrl_target = u[4]
                        ctrl_cd = u[5] + 1
                        ctrl_is_call = False
                        ctrl_name = None
                    elif k == 7:  # predicate combine
                        a = preds[u[4]]
                        b = preds[u[5]] if u[5] >= 0 else False
                        pd = u[6]
                        ring[(issued + 1) & ring_mask].append((1, pd, u[3](a, b)))
                        pp[pd] += 1
                    elif k == 0:  # strict-mode staleness checks
                        gg = u[3]
                        if gg >= 0:
                            if pp[gg]:
                                _raise_stale(1, gg, issued, ring, ring_mask)
                            if preds[gg] == u[4]:
                                continue
                        for i in u[5]:
                            if pg[i]:
                                _raise_stale(0, i, issued, ring, ring_mask)
                        for i in u[6]:
                            if pp[i]:
                                _raise_stale(1, i, issued, ring, ring_mask)
                        for r in u[7]:
                            if ps.get(r):
                                _raise_stale(2, r, issued, ring, ring_mask)
                    elif k == 10:  # sub-word load via a data cache
                        a0 = regs[u[3]] + u[4]
                        if u[9]:
                            a0 += specials[ST]
                        a0 &= _M
                        if u[8] and not contains(a0, u[10]):
                            raise StackCacheError(
                                f"stack access at {a0:#x} outside the cached "
                                f"window [{stack_cache.st:#x}, "
                                f"{stack_cache.ss:#x})")
                        value = mem_read(a0, u[10], u[11]) & _M
                        rd = u[5]
                        if rd:
                            ring[(issued + 1 + u[6]) & ring_mask].append(
                                (0, rd, value))
                            pg[rd] += 1
                        if read_hook is not None:
                            st_ = read_hook(u[7], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 11 or k == 12:  # scratchpad load
                        a0 = (regs[u[3]] + u[4]) & _M
                        if k == 11:
                            value = spad_read_u32(a0)
                        else:
                            value = spad_read(a0, u[8], u[9]) & _M
                        rd = u[5]
                        if rd:
                            ring[(issued + 1 + u[6]) & ring_mask].append(
                                (0, rd, value))
                            pg[rd] += 1
                        if read_hook is not None:
                            st_ = read_hook(u[7], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 15:  # sub-word store via a data cache
                        a0 = regs[u[3]] + u[4]
                        if u[8]:
                            a0 += specials[ST]
                        a0 &= _M
                        if u[7] and not contains(a0, u[9]):
                            raise StackCacheError(
                                f"stack store at {a0:#x} outside the cached "
                                f"window [{stack_cache.st:#x}, "
                                f"{stack_cache.ss:#x})")
                        mem_write(a0, regs[u[5]], u[9])
                        if write_hook is not None:
                            st_ = write_hook(u[6], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 16 or k == 17:  # scratchpad store
                        a0 = (regs[u[3]] + u[4]) & _M
                        if k == 16:
                            spad_write_u32(a0, regs[u[5]])
                        else:
                            spad_write(a0, regs[u[5]], u[7])
                        if write_hook is not None:
                            st_ = write_hook(u[6], a0)
                            if st_:
                                s_data += st_
                                stall += st_
                    elif k == 13:  # split main-memory load
                        if has_pml:
                            raise SimulationError(
                                "split load issued while another main-memory "
                                "load is pending")
                        a0 = (regs[u[3]] + u[4]) & _M
                        if u[6] == 4:
                            pml_val = mem_read_u32(a0)
                        else:
                            pml_val = mem_read(a0, u[6], u[7]) & _M
                        pml_rd = u[5]
                        pml_ready = cycles + (split_hook() if split_hook is not None
                                              else 0)
                        has_pml = True
                    elif k == 19:  # wmem: wait for the split load
                        if has_pml:
                            has_pml = False
                            if wait_hook is not None:
                                st_ = wait_hook(pml_ready)
                            else:
                                st_ = pml_ready - cycles
                                if st_ < 0:
                                    st_ = 0
                            if pml_rd:
                                ring[(issued + 1) & ring_mask].append(
                                    (0, pml_rd, pml_val))
                                pg[pml_rd] += 1
                            s_split += st_
                            stall += st_
                    elif k == 18:  # uncached main-memory store
                        a0 = (regs[u[3]] + u[4]) & _M
                        value = regs[u[5]]
                        st_ = store_hook(a0, value, u[6]) if store_hook is not None \
                            else 0
                        if u[6] == 4:
                            mem_write_u32(a0, value)
                        else:
                            mem_write(a0, value, u[6])
                        if st_:
                            s_store += st_
                            stall += st_
                    elif k == 20:  # sres/sens/sfree
                        st_ = stack_hook(u[3], u[5]) if stack_hook is not None \
                            else 0
                        if u[4] == 0:
                            stack_cache.reserve(u[5])
                        elif u[4] == 1:
                            stack_cache.ensure(u[5])
                        else:
                            stack_cache.free(u[5])
                        specials[ST] = stack_cache.st & _M
                        specials[SS] = stack_cache.ss & _M
                        s_stack += st_
                        stall += st_
                    elif k == 8:  # multiply
                        low, high = u[3](regs[u[4]], regs[u[5]])
                        mslot = ring[(issued + 1 + u[6]) & ring_mask]
                        mslot.append((2, SL, low))
                        mslot.append((2, SH, high))
                        ps[SL] = ps.get(SL, 0) + 1
                        ps[SH] = ps.get(SH, 0) + 1
                    elif k == 22:  # brcf: branch with method-cache fill
                        record = u[6]
                        if record is None:
                            record = func_containing(u[4])
                        if mc_hook is not None:
                            st_ = mc_hook(record)
                            if st_:
                                s_method += st_
                                stall += st_
                        if ctrl_cd:
                            raise SimulationError(
                                "control-transfer issued inside the delay slots "
                                "of another control transfer")
                        ctrl_tidx = u[3]
                        ctrl_target = u[4]
                        ctrl_cd = u[5] + 1
                        ctrl_is_call = False
                        ctrl_name = None
                    elif k == 23 or k == 24:  # call / call-register
                        if k == 23:
                            record = u[6]
                            if record is None:
                                record = func_at(u[4])
                            target = u[4]
                            t_idx = u[3]
                            delay = u[5]
                        else:
                            target = regs[u[3]]
                            record = func_at(target)
                            t_idx = (target - base) >> 2
                            delay = u[4]
                        if mc_hook is not None:
                            st_ = mc_hook(record)
                            if st_:
                                s_method += st_
                                stall += st_
                        name = record.name
                        call_counts[name] = call_counts.get(name, 0) + 1
                        specials[SRB] = cur_entry
                        if ctrl_cd:
                            raise SimulationError(
                                "control-transfer issued inside the delay slots "
                                "of another control transfer")
                        ctrl_tidx = t_idx
                        ctrl_target = target
                        ctrl_cd = delay + 1
                        ctrl_is_call = True
                        ctrl_name = name
                    elif k == 25:  # return
                        ret_base = specials[SRB]
                        record = func_containing(ret_base)
                        if mc_hook is not None:
                            st_ = mc_hook(record)
                            if st_:
                                s_method += st_
                                stall += st_
                        target = (ret_base + specials[SRO]) & _M
                        if ctrl_cd:
                            raise SimulationError(
                                "control-transfer issued inside the delay slots "
                                "of another control transfer")
                        ctrl_tidx = (target - base) >> 2
                        ctrl_target = target
                        ctrl_cd = u[3] + 1
                        ctrl_is_call = False
                        ctrl_name = None
                    elif k == 26:  # mts
                        value = regs[u[4]]
                        special = u[3]
                        specials[special] = value
                        if special is ST:
                            stack_cache.st = value
                            if stack_cache.ss < value:
                                stack_cache.ss = value
                        elif special is SS:
                            stack_cache.ss = value
                    elif k == 27:  # mfs
                        rd = u[4]
                        ring[(issued + 1) & ring_mask].append(
                            (0, rd, specials[u[3]]))
                        pg[rd] += 1
                    elif k == 29:  # debug output
                        value = regs[u[3]]
                        output.append(value - 0x1_0000_0000
                                      if value & 0x8000_0000 else value)
                    elif k == 28:  # halt
                        state.halted = True
                        halted = True
                    else:  # k == 30: unresolved control-flow target
                        raise SimulationError(
                            f"unresolved control-flow target {u[3]!r}; "
                            "simulate a linked image")

                if trace_text is not None:
                    trace_append(TraceEntry(cycle=cycles, addr=addr,
                                            text=trace_text))
                issued += 1
                cycles += 1 + stall
                instructions += n_instr
                nops += n_nops

                next_idx = fall_idx
                if ctrl_cd:
                    ctrl_cd -= 1
                    if ctrl_cd == 0:
                        if ctrl_is_call:
                            specials[SRO] = (fall_addr - cur_entry) & _M
                        next_idx = ctrl_tidx
                        if not halted:
                            rec2 = table[next_idx] \
                                if 0 <= next_idx < tlen else None
                            if rec2 is not None and rec2[R_FUNC] is not None:
                                cur_func = rec2[R_FUNC]
                            else:
                                cur_func = func_containing(ctrl_target)
                            cur_entry = cur_func.entry_addr
                        ctrl_is_call = False
                        ctrl_name = None
                idx = next_idx
        finally:
            # Store the clock back into the simulator and the in-flight
            # scalars into the context; the ring, pending counters and
            # statistics dicts are mutated in place.  Resumption needs no
            # further work, and :meth:`export` can rebuild the reference
            # representation at any time.
            sim.cycles = self.cycles = cycles
            self.issued = issued
            self.instructions = instructions
            self.nops = nops
            self.halted = halted
            self.cur_func = cur_func
            self.idx = idx
            self.ctrl_cd = ctrl_cd
            self.ctrl_tidx = ctrl_tidx
            self.ctrl_target = ctrl_target
            self.ctrl_is_call = ctrl_is_call
            self.ctrl_name = ctrl_name
            self.has_pml = has_pml
            self.pml_rd = pml_rd
            self.pml_val = pml_val
            self.pml_ready = pml_ready
            self.s_icache = s_icache
            self.s_data = s_data
            self.s_method = s_method
            self.s_stack = s_stack
            self.s_split = s_split
            self.s_store = s_store
        return "halted" if halted else status

