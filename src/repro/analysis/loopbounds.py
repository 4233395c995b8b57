"""Automatic loop-bound inference from induction variables + interval facts.

For every natural loop with a single back edge the *continue literal* — the
predicate guarding the back-edge branch — is expanded through in-loop
predicate definitions into a conjunction of compare *atoms*, each of which
is a necessary condition for another iteration.  An atom of the shape
``counter rel limit`` where the counter is updated by a constant step once
per iteration and the limit is loop-invariant yields a closed-form bound on
the number of header executions; the loop bound is the minimum over all
bounded atoms.

Soundness is the contract: every formula below is an upper bound on header
executions for *any* concrete run whose entry state is described by the
abstract loop-entry state.  Derivation sketch (up-counting ``<``): with the
counter updated once per iteration by ``+c``, the value tested by the
compare in iteration ``i`` is ``t_i = v0 + c*(i - uoff)`` where ``uoff`` is
1 when the compare executes before the update and 0 otherwise.  Iteration
``i+1`` requires ``t_i < K``; maximising over the concrete ranges of ``v0``
and ``K`` gives ``H <= max(1, ceil((K.hi - v0.lo) / c) + uoff)``.  Guards
reject any parameter combination that could make the counter wrap (the
formulas reason over unbounded integers, the machine over 32 bits).

The audit rule reconciles inference with manual ``builder.loop_bound``
annotations: the *effective* bound is the minimum of the two; an annotation
tighter than anything provable is kept but flagged (``--strict`` turns the
flag into an error), an inferred bound tighter than the annotation is
adopted and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.instruction import Instruction
from ..isa.opcodes import Format, Opcode
from ..program.cfg import ControlFlowGraph, Loop
from .domain import INT_MAX, INT_MIN, AbsState, Interval, const
from .fixpoint import FixpointResult

#: Statuses produced by the audit rule.
STATUS_MATCH = "match"
STATUS_ADOPTED = "adopted_inferred"
STATUS_TIGHTER = "annotation_tighter"
STATUS_ANNOTATED_ONLY = "annotated_only"
STATUS_INFERRED_ONLY = "inferred_only"
STATUS_UNBOUNDED = "unbounded"

_EXPAND_DEPTH = 8


@dataclass(frozen=True)
class InferredBound:
    """A proven upper bound on a loop header's executions per loop entry."""

    function: str
    header: str
    bound: int
    counter: int
    relation: str
    detail: str


@dataclass(frozen=True)
class LoopBoundAudit:
    """Reconciliation of an annotated and an inferred bound for one loop."""

    function: str
    header: str
    annotated: Optional[int]
    inferred: Optional[int]
    effective: Optional[int]
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "header": self.header,
            "annotated": self.annotated,
            "inferred": self.inferred,
            "effective": self.effective,
            "status": self.status,
            "detail": self.detail,
        }


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _signed32(value: int) -> int:
    value &= 0xFFFF_FFFF
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# Relation of "counter REL limit" when the counter is rs1; `flip` swaps
# sides, `negate` complements.
_REL_BY_OPCODE = {
    Opcode.CMPEQ: ("eq", False), Opcode.CMPIEQ: ("eq", False),
    Opcode.CMPNEQ: ("ne", False), Opcode.CMPINEQ: ("ne", False),
    Opcode.CMPLT: ("lt", False), Opcode.CMPILT: ("lt", False),
    Opcode.CMPLE: ("le", False), Opcode.CMPILE: ("le", False),
    Opcode.CMPULT: ("lt", True), Opcode.CMPIULT: ("lt", True),
    Opcode.CMPULE: ("le", True), Opcode.CMPIULE: ("le", True),
}
_FLIP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}
_NEGATE = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}


@dataclass
class _LoopContext:
    cfg: ControlFlowGraph
    fix: FixpointResult
    loop: Loop
    tail: str
    entry_state: AbsState
    innermost: dict
    gpr_defs: dict
    pred_defs: dict
    positions: dict
    term_index: int
    clobber_gprs: frozenset
    clobber_preds: frozenset
    clobber_total: bool


def _build_context(cfg: ControlFlowGraph, fix: FixpointResult,
                   loop: Loop, tail: str) -> _LoopContext:
    gpr_defs: dict[int, list] = {}
    pred_defs: dict[int, list] = {}
    positions: dict[int, tuple[str, int]] = {}
    clobber_gprs: set[int] = set()
    clobber_preds: set[int] = set()
    clobber_total = False
    for label in loop.body:
        block = cfg.function.block(label)
        for index, instr in enumerate(block.instrs):
            positions[id(instr)] = (label, index)
            for reg in instr.gpr_defs():
                gpr_defs.setdefault(reg, []).append(instr)
            for pred in instr.pred_defs():
                pred_defs.setdefault(pred, []).append(instr)
            fmt = instr.info.fmt
            if fmt is Format.CALLR:
                clobber_total = True
            elif fmt is Format.CALL:
                summary = None
                if isinstance(instr.target, str):
                    summary = fix.may_writes.get(instr.target)
                if summary is None or summary.total:
                    clobber_total = True
                else:
                    clobber_gprs |= summary.gprs
                    clobber_preds |= summary.preds
    innermost: dict[str, str] = {}
    loops = cfg.natural_loops()
    for label in cfg.function.block_labels():
        containing = [lp for lp in loops if lp.contains(label)]
        if containing:
            innermost[label] = min(containing, key=lambda lp: len(lp.body)).header
    entry_state = fix.loop_entry_states.get(loop.header, AbsState())
    tail_block = cfg.function.block(tail)
    term = tail_block.terminator()
    term_index = len(tail_block.instrs)
    for index, instr in enumerate(tail_block.instrs):
        if instr is term:
            term_index = index
            break
    return _LoopContext(
        cfg=cfg, fix=fix, loop=loop, tail=tail,
        entry_state=entry_state,
        innermost=innermost, gpr_defs=gpr_defs, pred_defs=pred_defs,
        positions=positions, term_index=term_index,
        clobber_gprs=frozenset(clobber_gprs),
        clobber_preds=frozenset(clobber_preds),
        clobber_total=clobber_total,
    )


def _once_per_iteration(ctx: _LoopContext, instr: Instruction) -> bool:
    """True if ``instr`` provably executes exactly once per loop iteration."""
    if not instr.guard.is_always:
        return False
    pos = ctx.positions.get(id(instr))
    if pos is None:
        return False
    label = pos[0]
    if ctx.innermost.get(label) != ctx.loop.header:
        return False  # nested in an inner loop: may run many times
    if label == ctx.tail and pos[1] >= ctx.term_index:
        # In the tail's branch-delay region: its result is only visible to
        # the *next* iteration's branch decision.
        return False
    return ctx.cfg.dominates(label, ctx.tail)


def _expand_literal(ctx: _LoopContext, pred: int, negated: bool,
                    depth: int) -> list[tuple[Instruction, bool]]:
    """Compare atoms that are each necessary for the literal to hold."""
    if depth <= 0 or pred == 0:
        return []
    defs = ctx.pred_defs.get(pred, [])
    if len(defs) != 1:
        return []
    if ctx.clobber_total or pred in ctx.clobber_preds:
        return []
    instr = defs[0]
    if not _once_per_iteration(ctx, instr):
        return []
    fmt = instr.info.fmt
    if fmt in (Format.CMP_R, Format.CMP_I):
        return [(instr, negated)]
    if fmt is Format.PRED:
        op = instr.opcode
        if op is Opcode.PNOT:
            return _expand_literal(ctx, instr.ps1, not negated, depth - 1)
        operands = [instr.ps1, instr.ps2 if instr.ps2 is not None else 0]
        if (op is Opcode.PAND and not negated) or (op is Opcode.POR and negated):
            atoms = []
            for ps in operands:
                atoms.extend(_expand_literal(ctx, ps, negated, depth - 1))
            return atoms
    return []


def _invariant_interval(ctx: _LoopContext, reg: int) -> Optional[Interval]:
    """Interval of a loop-invariant register at loop entry (else ``None``)."""
    if reg in ctx.gpr_defs:
        return None
    if ctx.clobber_total or reg in ctx.clobber_gprs:
        return None
    value = ctx.entry_state.gpr(reg)
    if value.base is not None:
        return None
    return value.offset


def _step_of(ctx: _LoopContext, instr: Instruction, counter: int) -> Optional[int]:
    """Signed per-iteration step of ``counter`` from its update instruction."""
    op = instr.opcode
    if isinstance(instr.target, str):
        return None
    if op in (Opcode.ADDI, Opcode.ADDL):
        if instr.rs1 == counter and instr.imm is not None:
            return _signed32(instr.imm)
        return None
    if op in (Opcode.SUBI, Opcode.SUBL):
        if instr.rs1 == counter and instr.imm is not None:
            return -_signed32(instr.imm)
        return None
    if op in (Opcode.ADD, Opcode.SUB):
        if instr.rs1 == counter:
            other = instr.rs2
        elif op is Opcode.ADD and instr.rs2 == counter:
            other = instr.rs1
        else:
            # counter = x - counter / counter = a + b: not an induction update
            return None
        interval = _invariant_interval(ctx, other)
        if interval is None:
            return None
        value = interval.value()
        if value is None:
            return None
        return value if op is Opcode.ADD else -value
    return None


def _relation_bound(relation: str, unsigned: bool, v0: Interval,
                    limit: Interval, step: int, uoff: int) -> Optional[int]:
    """Closed-form header-execution bound for one atom (None = unbounded)."""
    c = abs(step)
    if relation == "eq":
        # The counter changes every iteration while the limit stands still:
        # equality can hold for at most one tested value.
        return 2
    if unsigned and (v0.lo < 0 or limit.lo < 0):
        return None
    if relation in ("lt", "le"):
        if step < 0:
            return None
        target = limit.hi if relation == "lt" else limit.hi + 1
        peak = target - 1 + c
        if peak > INT_MAX:
            return None  # counter could wrap before the exit test
        return max(1, _ceil_div(target - v0.lo, c) + uoff)
    if relation in ("gt", "ge"):
        if step > 0:
            return None
        target = limit.lo if relation == "gt" else limit.lo - 1
        trough = target + 1 - c
        if trough < (0 if unsigned else INT_MIN):
            return None  # counter could wrap (or go unsigned-negative)
        return max(1, _ceil_div(v0.hi - target, c) + uoff)
    if relation == "ne":
        if not limit.is_singleton:
            return None
        k = limit.lo
        if c != 1 and not v0.is_singleton:
            return None
        if step > 0:
            if v0.hi > k - c * (1 - uoff):
                return None  # could start past the target and run away
            if (k - v0.lo) % c != 0:
                return None
            return max(1, (k - v0.lo) // c + uoff)
        if v0.lo < k + c * (1 - uoff):
            return None
        if (v0.hi - k) % c != 0:
            return None
        return max(1, (v0.hi - k) // c + uoff)
    return None


def _atom_bound(ctx: _LoopContext, instr: Instruction,
                negated: bool) -> Optional[tuple[int, int, str]]:
    """Bound from one compare atom: ``(bound, counter_reg, relation)``."""
    rel = _REL_BY_OPCODE.get(instr.opcode)
    if rel is None:
        return None  # btest
    relation, unsigned = rel
    is_imm = instr.info.fmt is Format.CMP_I

    candidates = []
    rs1_defs = ctx.gpr_defs.get(instr.rs1, [])
    if len(rs1_defs) == 1:
        candidates.append((instr.rs1, False))
    if not is_imm:
        rs2_defs = ctx.gpr_defs.get(instr.rs2, [])
        if len(rs2_defs) == 1:
            candidates.append((instr.rs2, True))
    if len(candidates) != 1:
        return None  # zero or two in-loop-defined operands: not induction
    counter, flipped = candidates[0]
    if ctx.clobber_total or counter in ctx.clobber_gprs:
        return None

    update = ctx.gpr_defs[counter][0]
    if not _once_per_iteration(ctx, update):
        return None
    step = _step_of(ctx, update, counter)
    if step is None or step == 0:
        return None

    if is_imm:
        if instr.imm is None:
            return None
        limit = const(_signed32(instr.imm))
    else:
        limit_reg = instr.rs2 if not flipped else instr.rs1
        interval = _invariant_interval(ctx, limit_reg)
        if interval is None:
            return None
        limit = interval

    v0_val = ctx.entry_state.gpr(counter)
    if v0_val.base is not None:
        return None
    v0 = v0_val.offset

    if flipped:
        relation = _FLIP[relation]
    if negated:
        relation = _NEGATE[relation]

    upos = ctx.positions[id(update)]
    cpos = ctx.positions[id(instr)]
    if upos[0] == cpos[0]:
        update_first = upos[1] < cpos[1]
    else:
        update_first = ctx.cfg.dominates(upos[0], cpos[0])
    uoff = 0 if update_first else 1

    bound = _relation_bound(relation, unsigned, v0, limit, step, uoff)
    if bound is None:
        return None
    return min(bound, INT_MAX), counter, relation


def _continue_literal(ctx: _LoopContext) -> Optional[tuple[int, bool]]:
    """The predicate literal that must hold for the back edge to be taken."""
    block = ctx.cfg.function.block(ctx.tail)
    term = block.terminator()
    if term is None or term.opcode not in (Opcode.BR, Opcode.BRCF):
        return None
    if term.guard.is_always:
        return None  # unconditional back edge: the exit is elsewhere
    taken = term.target
    fallthrough = ctx.cfg.function.fallthrough_label(ctx.tail)
    if taken == ctx.loop.header:
        return term.guard.pred, term.guard.negate
    if fallthrough == ctx.loop.header:
        return term.guard.pred, not term.guard.negate
    return None


def infer_loop_bound(cfg: ControlFlowGraph, fix: FixpointResult,
                     loop: Loop) -> Optional[InferredBound]:
    """Infer a sound header-execution bound for one natural loop."""
    if len(loop.back_edges) != 1:
        return None
    (tail, _header), = loop.back_edges
    ctx = _build_context(cfg, fix, loop, tail)
    literal = _continue_literal(ctx)
    if literal is None:
        return None
    atoms = _expand_literal(ctx, literal[0], literal[1], _EXPAND_DEPTH)
    best: Optional[tuple[int, int, str]] = None
    for instr, negated in atoms:
        candidate = _atom_bound(ctx, instr, negated)
        if candidate is not None and (best is None or candidate[0] < best[0]):
            best = candidate
    if best is None:
        return None
    bound, counter, relation = best
    return InferredBound(
        function=cfg.function.name,
        header=loop.header,
        bound=bound,
        counter=counter,
        relation=relation,
        detail=(f"r{counter} {relation} limit, entry "
                f"{ctx.entry_state.gpr(counter)}"),
    )


def infer_loop_bounds(cfg: ControlFlowGraph,
                      fix: FixpointResult) -> dict[str, InferredBound]:
    """Inferred bounds for every natural loop of the function, by header."""
    bounds: dict[str, InferredBound] = {}
    for loop in cfg.natural_loops():
        inferred = infer_loop_bound(cfg, fix, loop)
        if inferred is not None:
            bounds[loop.header] = inferred
    return bounds


def audit_loop_bounds(cfg: ControlFlowGraph,
                      inferred: dict[str, InferredBound]) -> list[LoopBoundAudit]:
    """Apply the audit rule to every loop: effective = min(annotated, inferred).

    Statuses: ``match`` (equal), ``adopted_inferred`` (inference tighter),
    ``annotation_tighter`` (annotation claims more than analysis can prove —
    flagged, an error under ``--strict``), ``annotated_only`` (unverifiable
    annotation, trusted with a warning), ``inferred_only`` and ``unbounded``.
    """
    audits = []
    for loop in sorted(cfg.natural_loops(), key=lambda lp: lp.header):
        annotated = loop.bound
        bound = inferred.get(loop.header)
        inferred_value = bound.bound if bound is not None else None
        detail = bound.detail if bound is not None else ""
        if annotated is None and inferred_value is None:
            status, effective = STATUS_UNBOUNDED, None
        elif annotated is None:
            status, effective = STATUS_INFERRED_ONLY, inferred_value
        elif inferred_value is None:
            status, effective = STATUS_ANNOTATED_ONLY, annotated
        elif inferred_value < annotated:
            status, effective = STATUS_ADOPTED, inferred_value
        elif inferred_value == annotated:
            status, effective = STATUS_MATCH, annotated
        else:
            status, effective = STATUS_TIGHTER, annotated
            detail = (f"annotation {annotated} tighter than provable "
                      f"{inferred_value}; {detail}")
        audits.append(LoopBoundAudit(
            function=cfg.function.name,
            header=loop.header,
            annotated=annotated,
            inferred=inferred_value,
            effective=effective,
            status=status,
            detail=detail,
        ))
    return audits


__all__ = [
    "InferredBound",
    "LoopBoundAudit",
    "audit_loop_bounds",
    "infer_loop_bound",
    "infer_loop_bounds",
    "STATUS_MATCH",
    "STATUS_ADOPTED",
    "STATUS_TIGHTER",
    "STATUS_ANNOTATED_ONLY",
    "STATUS_INFERRED_ONLY",
    "STATUS_UNBOUNDED",
]
