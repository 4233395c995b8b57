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
  block keys and call-count keys are all resolved at decode time.
* :class:`EngineContext` executes the table with a flat dispatch loop: no
  ``Format`` if-chain, no per-step dict probes, and the linear
  ``_pending_writes`` scan is replaced by a small ring of write slots indexed
  by due-issue, so committing exposed-delay results is O(writes due now).
  The context is *persistent*: in-flight state stays inside it between
  :meth:`~EngineContext.advance` calls, so a multicore scheduler re-enters
  the hot loop at method-call cost (:func:`run_predecoded` wraps a
  throw-away context for the single-shot case).  With
  :meth:`~EngineContext.enable_sync` the context additionally pauses before
  any bundle that may register a shared-bus transfer — the next-event
  lookahead protocol of the event-driven co-simulation.
* ``strict`` and ``trace`` handling are hoisted out of the hot loop into
  *decode-time variants*: strict staleness checks become dedicated check
  micro-ops that exist only in the strict decode of the program, and the
  rendered trace text is pre-computed (and only present) in the trace decode,
  so the common path pays nothing for either feature.

The engine drives an ordinary :class:`~repro.sim.base.BaseSimulator` (or
:class:`~repro.sim.cycle.CycleSimulator`) instance: it imports the
simulator's architectural state on entry, mutates the *same* state objects
(register file, memories, caches, statistics) through the timing hooks, and
exports the in-flight state (pending writes/control/load) back to the
simulator's reference-format attributes on exit — even on exceptions — so
results, strict violations and post-run inspection are indistinguishable from
the reference interpreter for every run that completes a bundle.  (The one
known post-mortem difference: after an exception *inside* a bundle, the
aggregate ``instructions``/``nops`` counters exclude that partial bundle
entirely, whereas the reference counts its already-executed slots — the
engine counts instructions per bundle, not per slot.)

Register indices are validated once at decode time; the hot loop then indexes
``ArchState.regs``/``preds`` through the unchecked paths (see
:class:`~repro.sim.state.ArchState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import NUM_GPRS, NUM_PREDS
from ..errors import (
    LinkError,
    ScheduleViolation,
    SimulationError,
    StackCacheError,
)
from ..isa.instruction import Instruction
from ..isa.opcodes import ControlKind, Format, MemType, Opcode, OpInfo, \
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
    #: organisation signature (see :meth:`EngineContext.enable_sync`).
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


def _ring_size(pipeline) -> int:
    needed = max(pipeline.load_delay_slots, pipeline.mul_delay_slots) + 2
    size = 2
    while size < needed:
        size *= 2
    return size


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

    for addr, bundle in bundles.items():
        uops: list[tuple] = []
        n_nops = 0
        for instr in bundle.instructions():
            if instr.is_nop:
                n_nops += 1
                continue
            uops.extend(_decode_instruction(instr, image, base, length,
                                            pipeline, strict))
        block = image.block_at(addr)
        block_key = (block.function, block.label) if block is not None else None
        try:
            func = image.function_containing(addr)
        except LinkError:  # pragma: no cover - images place code in functions
            func = None
        fall_addr = addr + bundle.size_bytes
        table[(addr - base) >> 2] = (
            tuple(uops),
            block_key,
            addr,
            fall_addr,
            (fall_addr - base) >> 2,
            bundle,
            func,
            str(bundle) if trace else None,
            len(bundle.instructions()),
            n_nops,
        )
    return DecodedProgram(table=table, base=base,
                          ring_size=_ring_size(pipeline), strict=strict,
                          trace=trace)


def _read_sets(instr: Instruction, info: OpInfo
               ) -> tuple[tuple, tuple, tuple]:
    """Registers the reference interpreter reads through checked accessors."""
    fmt = info.fmt
    gprs: list[int] = []
    preds: list[int] = []
    specials: list[SpecialReg] = []
    if fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.MUL,
               Format.CMP_R, Format.CMP_I):
        gprs.append(instr.rs1)
        if fmt in (Format.ALU_R, Format.MUL, Format.CMP_R):
            gprs.append(instr.rs2)
    elif fmt is Format.LI:
        if instr.opcode is Opcode.LIH:
            gprs.append(instr.rd)
    elif fmt is Format.PRED:
        preds.append(instr.ps1)
        if instr.ps2 is not None:
            preds.append(instr.ps2)
    elif fmt in (Format.LOAD, Format.STORE):
        gprs.append(instr.rs1)
        if info.mem_type is MemType.STACK:
            specials.append(SpecialReg.ST)
        if fmt is Format.STORE:
            gprs.append(instr.rs2)
    elif fmt in (Format.CALLR, Format.MTS, Format.OUT):
        gprs.append(instr.rs1)
    elif fmt is Format.MFS:
        specials.append(instr.special)
    elif fmt is Format.RET:
        specials.extend((SpecialReg.SRB, SpecialReg.SRO))
    return tuple(gprs), tuple(preds), tuple(specials)


def _decode_instruction(instr: Instruction, image: Image, base: int,
                        length: int, pipeline, strict: bool) -> list[tuple]:
    info = instr.info
    fmt = info.fmt
    guard = instr.guard
    g = -1 if guard.is_always else _validate_index(guard.pred, NUM_PREDS,
                                                   "guard predicate")
    neg = guard.negate

    uops: list[tuple] = []
    if strict:
        gprs, preds, specials = _read_sets(instr, info)
        if not preds and not specials and len(gprs) == 1:
            uops.append((K_CHECK1, -1, False, g, neg, gprs[0]))
        elif not preds and not specials and len(gprs) == 2:
            uops.append((K_CHECK2, -1, False, g, neg, gprs[0], gprs[1]))
        elif g >= 0 or gprs or preds or specials:
            uops.append((K_CHECK, -1, False, g, neg, gprs, preds, specials))

    def gpr(value, what="register"):
        return _validate_index(value, NUM_GPRS, what)

    def pred(value, what="predicate"):
        return _validate_index(value, NUM_PREDS, what)

    if fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L):
        if instr.rd == 0:
            return uops  # write to hard-wired r0: architecturally dead
        fn = _ALU_FN[instr.opcode]
        if fmt is Format.ALU_R:
            uops.append((K_ALU_RR, g, neg, fn, gpr(instr.rs1), gpr(instr.rs2),
                         gpr(instr.rd)))
        else:
            uops.append((K_ALU_RI, g, neg, fn, gpr(instr.rs1),
                         instr.imm & _M, gpr(instr.rd)))
    elif fmt is Format.LI:
        if instr.rd == 0:
            return uops
        if instr.opcode is Opcode.LIL:
            uops.append((K_LI, g, neg, instr.imm & _M, gpr(instr.rd)))
        else:
            uops.append((K_LIH, g, neg, (instr.imm & 0xFFFF) << 16,
                         gpr(instr.rd)))
    elif fmt is Format.MUL:
        uops.append((K_MUL, g, neg, _MUL_FN[instr.opcode], gpr(instr.rs1),
                     gpr(instr.rs2), result_delay_slots(info, pipeline)))
    elif fmt in (Format.CMP_R, Format.CMP_I):
        if instr.pd == 0:
            return uops  # write to hard-wired p0: architecturally dead
        fn = _CMP_FN[instr.opcode]
        if fmt is Format.CMP_R:
            uops.append((K_CMP_RR, g, neg, fn, gpr(instr.rs1), gpr(instr.rs2),
                         pred(instr.pd)))
        else:
            uops.append((K_CMP_RI, g, neg, fn, gpr(instr.rs1), instr.imm & _M,
                         pred(instr.pd)))
    elif fmt is Format.PRED:
        if instr.pd == 0:
            return uops
        ps2 = -1 if instr.ps2 is None else pred(instr.ps2)
        uops.append((K_PRED, g, neg, _PRED_FN[instr.opcode], pred(instr.ps1),
                     ps2, pred(instr.pd)))
    elif fmt is Format.LOAD:
        mem_type = info.mem_type
        rs1 = gpr(instr.rs1)
        rd = gpr(instr.rd)
        delay = result_delay_slots(info, pipeline)
        if mem_type is MemType.MAIN:
            uops.append((K_LOAD_M, g, neg, rs1, instr.imm, rd, info.width,
                         info.signed))
        elif mem_type is MemType.LOCAL:
            if info.width == 4:
                uops.append((K_LOAD_LW, g, neg, rs1, instr.imm, rd, delay,
                             mem_type))
            else:
                uops.append((K_LOAD_L, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, info.width, info.signed))
        else:
            schk = strict and mem_type is MemType.STACK
            srel = mem_type is MemType.STACK
            if info.width == 4:
                uops.append((K_LOAD_W, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, schk, srel))
            else:
                uops.append((K_LOAD, g, neg, rs1, instr.imm, rd, delay,
                             mem_type, schk, srel, info.width, info.signed))
    elif fmt is Format.STORE:
        mem_type = info.mem_type
        rs1 = gpr(instr.rs1)
        rs2 = gpr(instr.rs2)
        if mem_type is MemType.MAIN:
            uops.append((K_STORE_M, g, neg, rs1, instr.imm, rs2, info.width))
        elif mem_type is MemType.LOCAL:
            if info.width == 4:
                uops.append((K_STORE_LW, g, neg, rs1, instr.imm, rs2,
                             mem_type))
            else:
                uops.append((K_STORE_L, g, neg, rs1, instr.imm, rs2, mem_type,
                             info.width))
        else:
            schk = strict and mem_type is MemType.STACK
            srel = mem_type is MemType.STACK
            if info.width == 4:
                uops.append((K_STORE_W, g, neg, rs1, instr.imm, rs2, mem_type,
                             schk, srel))
            else:
                uops.append((K_STORE, g, neg, rs1, instr.imm, rs2, mem_type,
                             schk, srel, info.width))
    elif fmt is Format.WAIT:
        uops.append((K_WMEM, g, neg))
    elif fmt is Format.STACK:
        op_id = {Opcode.SRES: 0, Opcode.SENS: 1, Opcode.SFREE: 2}[instr.opcode]
        uops.append((K_STACK, g, neg, instr.opcode, op_id, instr.imm))
    elif fmt in (Format.BRANCH, Format.CALL):
        delay = control_delay_slots(info, pipeline)
        target = instr.target
        if not isinstance(target, int):
            uops.append((K_UNRESOLVED, g, neg, target))
        else:
            t_idx = (target - base) >> 2 if target >= base else -1
            if info.control is ControlKind.CALL:
                try:
                    record = image.function_at(target)
                except LinkError:
                    record = None  # resolved (and raised) at execution time
                uops.append((K_CALL, g, neg, t_idx, target, delay, record))
            elif instr.opcode is Opcode.BRCF:
                try:
                    record = image.function_containing(target)
                except LinkError:
                    record = None
                uops.append((K_BRCF, g, neg, t_idx, target, delay, record))
            else:
                uops.append((K_BRANCH, g, neg, t_idx, target, delay))
    elif fmt is Format.CALLR:
        uops.append((K_CALLR, g, neg, gpr(instr.rs1),
                     control_delay_slots(info, pipeline)))
    elif fmt is Format.RET:
        uops.append((K_RET, g, neg, control_delay_slots(info, pipeline)))
    elif fmt is Format.MTS:
        uops.append((K_MTS, g, neg, instr.special, gpr(instr.rs1)))
    elif fmt is Format.MFS:
        if instr.rd == 0:
            return uops
        uops.append((K_MFS, g, neg, instr.special, gpr(instr.rd)))
    elif fmt is Format.HALT:
        uops.append((K_HALT, g, neg))
    elif fmt is Format.OUT:
        uops.append((K_OUT, g, neg, gpr(instr.rs1)))
    else:  # pragma: no cover - every format is handled above
        raise SimulationError(f"cannot pre-decode {instr}")
    return uops


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
    call/return/brcf on method-cache fills.  Being conservative here is
    always sound — a pause before a bundle that then hits in its cache costs
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

    The fast engine's per-call prologue — decoding-cache lookup, some forty
    local aliases, materialising the due-issue ring and pending-write
    counters, resolving the timing hooks — is cheap once per *run* but
    dominates wall-clock when a multicore scheduler re-enters the engine
    every few bundles.  An ``EngineContext`` hoists all of that into one
    object created once per core per co-simulation: :meth:`advance` re-binds
    locals from the context and continues exactly where the previous call
    stopped, so a slice re-entry costs a method call instead of a full
    import/export of the in-flight state.

    The context also implements the *next-event lookahead* protocol of the
    event-driven co-simulation scheduler: :meth:`enable_sync` classifies
    every decoded bundle by whether it can register a transfer with the
    shared memory arbiter (see :func:`_uop_may_arbitrate`), and
    :meth:`advance` then pauses *before* executing such a bundle, reporting
    ``"sync"`` with the core's clock — which is the exact global cycle its
    next arbitration request would be stamped with.  The scheduler releases
    paused cores in global time order (``release=True`` executes the pending
    bundle), so requests reach the shared arbiter exactly as the quantum
    scheduler's interleaving would deliver them, while the core runs
    completely undisturbed between its own memory events.

    In-flight state lives in the context between calls; :meth:`export`
    writes it back to the simulator's reference-format attributes
    (``_pending_writes`` and friends) so results, resumption by the
    interpreter and post-mortem inspection are indistinguishable from the
    reference engine.  ``export`` is idempotent and must be called after the
    final :meth:`advance` (also on exceptions — :func:`run_predecoded` and
    the co-sim scheduler both guarantee this with ``finally``).
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

        # -- dynamic state import ----------------------------------------------
        issued = sim.issued
        self.issued = issued
        self.cycles = sim.cycles
        self.instructions = sim.instructions
        self.nops = sim.nops
        self.halted = state.halted
        self.cur_func = sim._current_func
        self.idx = (sim._pc - self.base) >> 2

        ring: list[list] = [[] for _ in range(nring)]
        pg = [0] * NUM_GPRS
        pp = [0] * NUM_PREDS
        ps: dict = {}
        regs = self.regs
        preds = self.preds
        specials = self.specials
        for write in sim._pending_writes:
            kind_id = (0 if write.kind == "gpr"
                       else 1 if write.kind == "pred" else 2)
            if write.due_issue <= issued:
                # Would commit at the next reference step start: apply now.
                if kind_id == 0:
                    regs[write.index] = write.value & _M
                elif kind_id == 1:
                    preds[write.index] = bool(write.value)
                else:
                    specials[write.index] = write.value & _M
                continue
            ring[write.due_issue & self.ring_mask].append(
                (kind_id, write.index, write.value))
            if kind_id == 0:
                pg[write.index] += 1
            elif kind_id == 1:
                pp[write.index] += 1
            else:
                ps[write.index] = ps.get(write.index, 0) + 1
        self.ring = ring
        self.pg = pg
        self.pp = pp
        self.ps = ps

        self.ctrl_cd = 0
        self.ctrl_tidx = -1
        self.ctrl_target = 0
        self.ctrl_is_call = False
        self.ctrl_name = None
        if sim._pending_control is not None:
            pending = sim._pending_control
            self.ctrl_cd = pending.countdown
            self.ctrl_target = pending.target
            self.ctrl_tidx = (pending.target - self.base) >> 2
            self.ctrl_is_call = pending.is_call
            self.ctrl_name = pending.call_target_name

        self.has_pml = sim._pending_main_load is not None
        self.pml_rd = self.pml_val = self.pml_ready = 0
        if self.has_pml:
            pml = sim._pending_main_load
            self.pml_rd, self.pml_val, self.pml_ready = \
                pml.rd, pml.value, pml.ready_cycle

        #: Stall cycles accumulated since the last :meth:`export`.
        self.s_icache = self.s_data = self.s_method = 0
        self.s_stack = self.s_split = self.s_store = 0

        #: Per-bundle "may register an arbitrated transfer" flags
        #: (:meth:`enable_sync`); ``None`` disables the pause protocol.
        self.sync_flags = None

    def enable_sync(self) -> None:
        """Classify every bundle for the pause-before-memory-event protocol.

        The flags depend on the core's cache organisation and store-buffer
        configuration, not just on the image, so they are per-context rather
        than part of the shared decode cache.  They are memoised on the
        decode per organisation signature: ``None`` when no shared arbiter
        is attached (no bundle can ever register a transfer), otherwise
        exactly the configuration bits :func:`_uop_may_arbitrate`
        classifies against.
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

    def export(self) -> None:
        """Write the in-flight state back to the simulator (idempotent)."""
        from .base import _PendingControl, _PendingMainLoad, _PendingWrite

        sim = self.sim
        sim.issued = self.issued
        sim.cycles = self.cycles
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

    def warp_to(self, cycle: int) -> None:
        """Advance the context's clock to ``cycle`` without issuing bundles.

        A preemptive task scheduler (:mod:`repro.rtos`) suspends a context
        mid-program and resumes it later on the same core; the cycles in
        between belong to other tasks and to scheduling overhead, so on
        resume the context's notion of *now* must jump forward to the core's
        clock.  All absolute-cycle state stays consistent under the warp:
        TDMA slot phases, store-buffer drain times and a pending split
        load's ready cycle are compared against the warped clock, so an
        in-flight memory operation simply completes during the preemption
        gap — exactly what the hardware would do while the core executes
        another task.

        The clock only moves forward; warping backwards would re-order
        already-issued arbitration requests and is rejected.
        """
        if cycle < self.cycles:
            raise SimulationError(
                f"cannot warp context clock backwards ({self.cycles} -> "
                f"{cycle})")
        self.cycles = cycle
        self.sim.cycles = cycle

    def advance(self, max_bundles: int, release: bool = False,
                sync: bool = True, until_cycle=None, event_source=None) -> str:
        """Run until the next scheduling point; returns why it stopped.

        * ``"halted"`` — the program executed ``halt``;
        * ``"sync"`` — sync flags are enabled and the *next* bundle may
          register an arbitrated transfer (the bundle has **not** executed;
          ``self.cycles`` is the global cycle its requests would carry);
        * ``"memory_event"`` / ``"cycle_limit"`` — the reference stepping
          conditions, for :func:`run_predecoded` compatibility.

        ``release=True`` executes the pending flagged bundle (the scheduler
        granting this core its turn) before pausing again; ``sync=False``
        ignores the flags entirely — used for single-core runs and for the
        last surviving core of a co-simulation, whose requests can no longer
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

        issued = self.issued
        cycles = self.cycles
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

        sync_flags = self.sync_flags if sync else None
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
                    for write in slot:
                        kind = write[0]
                        if kind == 0:
                            regs[write[1]] = write[2]
                            pg[write[1]] -= 1
                        elif kind == 1:
                            preds[write[1]] = write[2]
                            pp[write[1]] -= 1
                        else:
                            specials[write[1]] = write[2]
                            ps[write[1]] -= 1
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
                    g = u[1]
                    if g >= 0 and preds[g] == u[2]:
                        continue  # guard false
                    if k == 2:  # ALU reg-imm
                        value = u[3](regs[u[4]], u[5])
                        rd = u[6]
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
            # Store the in-flight scalars back into the context; the ring,
            # pending counters and statistics dicts are mutated in place.
            # Resumption needs no further work, and :meth:`export` can
            # rebuild the reference representation at any time.
            self.issued = issued
            self.cycles = cycles
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


def run_predecoded(sim, max_bundles: int, until_cycle=None,
                   event_source=None) -> None:
    """Run ``sim`` to completion (or ``max_bundles``) on the fast engine.

    Mutates the simulator in place exactly like its reference ``_step`` loop
    would; the caller produces the :class:`SimResult` afterwards.

    The two stepping parameters make the engine resumable for multicore
    co-simulation without giving up the pre-decoded fast path: with
    ``until_cycle`` the loop stops before issuing a bundle once the local
    clock reaches the horizon, and with ``event_source`` (an object whose
    ``events`` counter ticks on every arbitrated shared-memory transfer) it
    stops after the bundle that performed a transfer.  On any stop (also on
    exceptions) the complete in-flight state is exported, so a later call
    resumes exactly where this one left off.

    Each call builds a fresh :class:`EngineContext` and tears it down again;
    a scheduler that re-enters a core every few bundles should hold on to
    one context per core instead (the event-driven co-simulation does).
    """
    context = EngineContext(sim)
    try:
        context.advance(max_bundles, sync=False, until_cycle=until_cycle,
                        event_source=event_source)
    finally:
        context.export()
