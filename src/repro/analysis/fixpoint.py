"""Worklist fixpoint engine over a function's control-flow graph.

Blocks are visited in the topological order of the CFG without its back
edges (a DFS reverse postorder if the CFG is irreducible); at natural-loop
headers the incoming state is *widened* against the previous round's state
so that growing intervals jump to the respective domain bound instead of
crawling towards it.  For reducible CFGs the loop headers cut every cycle,
which together with the finite widening chains guarantees termination; on
the (never produced by our builder, but possible in principle) irreducible
case the engine falls back to widening at every block after a soft
iteration cap.

Interprocedural effects are summarised bottom-up over the call graph as
:class:`~repro.analysis.transfer.ClobberSummary` sets: the registers a
call may overwrite, with indirect calls and recursion collapsing to a
total havoc.  A fixpoint reads the summaries of the whole program, so
:mod:`repro.analysis.facts` builds them only once a fixpoint is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..program.callgraph import CallGraph
from ..program.cfg import ControlFlowGraph, kahn_order
from ..program.function import Function
from ..program.program import Program
from .domain import AbsState
from .transfer import (
    TOTAL_CLOBBER,
    ClobberSummary,
    instruction_states,
    transfer_block,
)


def may_write_summaries(program: Program) -> dict[str, ClobberSummary]:
    """Bottom-up clobber summaries for every function of ``program``.

    A function's summary covers its own register writes, the writes of its
    method-cache sub-functions (they execute within the parent's activation)
    and, transitively, everything its callees may write.  Indirect calls
    (``callr``) and recursive call graphs degrade to :data:`TOTAL_CLOBBER`.
    """
    return clobber_summaries(program.functions,
                             CallGraph.build(program).calls)


def clobber_summaries(functions: dict[str, Function],
                      calls: dict[str, list[str]]
                      ) -> dict[str, ClobberSummary]:
    """:func:`may_write_summaries` from a program's function table and the
    ``calls`` edges of its :class:`~repro.program.callgraph.CallGraph`."""
    order = kahn_order(calls)
    if order is None:
        return dict.fromkeys(functions, TOTAL_CLOBBER)

    subfunctions: dict[str, list] = {}
    for func in functions.values():
        if func.is_subfunction and func.parent:
            subfunctions.setdefault(func.parent, []).append(func)

    summaries: dict[str, ClobberSummary] = {}
    for name in reversed(order):  # callees first
        gprs: set[int] = set()
        preds: set[int] = set()
        total = False
        for part in [functions[name]] + subfunctions.get(name, []):
            for instr in part.instructions():
                _reads, _pred_reads, writes, pred_writes = instr.def_use()
                for reg in writes:
                    if isinstance(reg, int):  # not a special register
                        gprs.add(reg)
                preds.update(pred_writes)
                if instr.opcode is Opcode.CALLR:
                    total = True
        for callee in calls[name]:
            callee_summary = summaries.get(callee, TOTAL_CLOBBER)
            if callee_summary.total:
                total = True
            gprs |= callee_summary.gprs
            preds |= callee_summary.preds
        summaries[name] = (
            TOTAL_CLOBBER if total
            else ClobberSummary(frozenset(gprs), frozenset(preds)))
    # Sub-functions are never call targets, but alias them to the parent's
    # summary so lookups by either name stay conservative and total.
    for parent, subs in subfunctions.items():
        for sub in subs:
            summaries.setdefault(sub.name, summaries.get(parent, TOTAL_CLOBBER))
    for name in functions:
        summaries.setdefault(name, TOTAL_CLOBBER)
    return summaries


@dataclass
class FixpointResult:
    """Per-block abstract states of one function at the fixpoint."""

    cfg: ControlFlowGraph
    may_writes: dict[str, ClobberSummary]
    #: State on entry to each reachable block (join of predecessor OUTs,
    #: widened at loop headers).
    in_states: dict[str, AbsState] = field(default_factory=dict)
    #: State after executing each reachable block.
    out_states: dict[str, AbsState] = field(default_factory=dict)
    #: Per loop header: join of OUT states over the *non-back* in-edges —
    #: the state the loop is entered with, before any iteration ran.
    loop_entry_states: dict[str, AbsState] = field(default_factory=dict)

    def block_states(self, label: str) -> Iterator[tuple[Instruction, AbsState]]:
        """Yield ``(instr, state_before_instr)`` through block ``label``."""
        in_state = self.in_states.get(label, AbsState())
        block = self.cfg.function.block(label)
        return instruction_states(block, in_state, self.may_writes)

    def state_at_terminator(self, label: str) -> AbsState:
        """Abstract state right before the block's terminator executes."""
        block = self.cfg.function.block(label)
        term = block.terminator()
        if term is None:
            return self.out_states.get(label, AbsState())
        for instr, state in self.block_states(label):
            if instr is term:
                return state
        return self.out_states.get(label, AbsState())  # pragma: no cover


def analyse_function(cfg: ControlFlowGraph,
                     may_writes: Optional[dict[str, ClobberSummary]] = None,
                     entry_state: Optional[AbsState] = None) -> FixpointResult:
    """Run the interval analysis to a fixpoint over one function's CFG.

    ``entry_state`` defaults to the empty state (every register unknown),
    which is the sound assumption for an externally called function.
    """
    result = FixpointResult(cfg=cfg, may_writes=may_writes or {})
    rpo = (cfg.topological_order() if cfg.is_reducible()
           else cfg.reverse_postorder())
    if not rpo:
        return result
    back = set(cfg.back_edges())
    widen_at = {head for _tail, head in back}
    entry_state = entry_state if entry_state is not None else AbsState()

    blocks = {label: cfg.function.block(label) for label in rpo}
    in_states = result.in_states
    out_states = result.out_states

    soft_cap = 4 * len(rpo) + 16
    hard_cap = soft_cap + 64 * (len(rpo) + 1)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds == soft_cap:
            # Irreducible region or pathological oscillation: widen
            # everywhere to force convergence (still sound, less precise).
            widen_at = set(rpo)
        if rounds > hard_cap:  # pragma: no cover - widening bounds chains
            for label in rpo:
                in_states[label] = AbsState()
                out_states[label] = transfer_block(
                    blocks[label], AbsState(), may_writes)
            break
        for label in rpo:
            pieces = []
            if label == cfg.entry:
                pieces.append(entry_state)
            for pred in cfg.predecessors(label):
                if pred in out_states:
                    pieces.append(out_states[pred])
            if not pieces:
                continue  # unreachable
            new_in = pieces[0].copy()
            for piece in pieces[1:]:
                new_in = new_in.join(piece)
            old_in = in_states.get(label)
            if label in widen_at and old_in is not None:
                new_in = old_in.widen(new_in)
            if old_in is not None and new_in == old_in and label in out_states:
                continue
            in_states[label] = new_in
            new_out = transfer_block(blocks[label], new_in, may_writes)
            if new_out != out_states.get(label):
                out_states[label] = new_out
                changed = True

    for loop in cfg.natural_loops():
        tails = {tail for tail, _head in loop.back_edges}
        pieces = []
        if loop.header == cfg.entry:
            pieces.append(entry_state)
        for pred in cfg.predecessors(loop.header):
            if pred not in tails and pred in out_states:
                pieces.append(out_states[pred])
        if not pieces:
            entry = AbsState()
        else:
            entry = pieces[0].copy()
            for piece in pieces[1:]:
                entry = entry.join(piece)
        result.loop_entry_states[loop.header] = entry
    return result


__all__ = [
    "FixpointResult",
    "analyse_function",
    "clobber_summaries",
    "may_write_summaries",
]
