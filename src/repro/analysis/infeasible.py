"""Infeasible-path detection: flow facts the IPET solver may exploit.

Two families of facts are derived from the fixpoint states:

* **Dead edges** — a conditional branch whose guard predicate is known at
  the branch instruction evaluates one way on every execution; the other
  edge can never be taken (``x_edge <= 0``).

* **Exclusive pairs** — two conditional branches guarded by the same
  predicate (possibly with opposite polarity) whose defining compare
  executes once and dominates both.  On any single execution both branches
  resolve consistently, so the contradictory edge combination is excluded
  (``x_a + x_b <= 1``).  This captures the correlated-predicate structure
  that if-conversion and diamond re-splits produce.  All involved blocks
  must be loop-free (execute at most once per run) for the pairwise count
  argument to hold.

Every fact is emitted as a :class:`~repro.wcet.ipet.FlowConstraint`; the
solver drops terms for edges that do not exist, so the facts are safe to
compute on the merged function and apply to the same CFG.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.opcodes import Opcode
from ..program.cfg import ControlFlowGraph
from ..wcet.ipet import FlowConstraint
from .fixpoint import FixpointResult
from .transfer import guard_value

_BRANCH_OPS = (Opcode.BR, Opcode.BRCF)


@dataclass(frozen=True)
class InfeasibleFact:
    """One derived infeasibility fact with its IPET constraint."""

    function: str
    kind: str  # "dead_edge" | "exclusive_pair"
    detail: str
    constraint: FlowConstraint


def _conditional_sites(cfg: ControlFlowGraph):
    """Yield ``(label, terminator, taken_edge, fall_edge)`` per cond branch."""
    reachable = cfg.reachable()
    for label in reachable:
        block = cfg.function.block(label)
        term = block.terminator()
        if term is None or term.opcode not in _BRANCH_OPS:
            continue
        if term.guard.is_always or not isinstance(term.target, str):
            continue
        if not cfg.has_block(term.target):
            continue  # brcf into another function: out of scope here
        fallthrough = cfg.function.fallthrough_label(label)
        if fallthrough is None or fallthrough == term.target:
            continue
        yield label, term, (label, term.target), (label, fallthrough)


def find_dead_edges(cfg: ControlFlowGraph,
                    fix: FixpointResult) -> list[InfeasibleFact]:
    """Branch edges whose guard predicate is statically decided."""
    facts = []
    for label, term, taken, fall in _conditional_sites(cfg):
        state = fix.state_at_terminator(label)
        decided = guard_value(state, term.guard)
        if decided is True:
            dead, kept = fall, taken
        elif decided is False:
            dead, kept = taken, fall
        else:
            continue
        facts.append(InfeasibleFact(
            function=cfg.function.name,
            kind="dead_edge",
            detail=(f"branch in {label} always goes to {kept[1]}; "
                    f"edge to {dead[1]} is infeasible"),
            constraint=FlowConstraint(
                terms=((dead, 1.0),), upper=0.0,
                reason=f"dead edge {dead[0]}->{dead[1]}"),
        ))
    return facts


def _single_always_def(cfg: ControlFlowGraph, fix: FixpointResult, pred: int):
    """The unique unconditional definition site of ``pred``, if any."""
    found = None
    for block in cfg.function.blocks:
        for instr in block.instrs:
            if pred in instr.pred_defs():
                if found is not None or not instr.guard.is_always:
                    return None
                found = (block.label, instr)
    # A call that may write the predicate breaks the single-value argument.
    for block in cfg.function.blocks:
        for instr in block.instrs:
            if instr.opcode is Opcode.CALLR:
                return None
            if instr.opcode is Opcode.CALL:
                summary = None
                if isinstance(instr.target, str):
                    summary = fix.may_writes.get(instr.target)
                if summary is None or summary.total or pred in summary.preds:
                    return None
    return found


def find_exclusive_pairs(cfg: ControlFlowGraph,
                         fix: FixpointResult) -> list[InfeasibleFact]:
    """Mutual-exclusion constraints between same-predicate branch pairs."""
    loops = cfg.natural_loops()

    def loop_free(label: str) -> bool:
        return not any(loop.contains(label) for loop in loops)

    by_pred: dict[int, list] = {}
    for label, term, taken, fall in _conditional_sites(cfg):
        if term.guard.pred != 0 and loop_free(label):
            by_pred.setdefault(term.guard.pred, []).append(
                (label, term.guard.negate, taken, fall))

    facts = []
    for pred, sites in sorted(by_pred.items()):
        if len(sites) < 2:
            continue
        site_def = _single_always_def(cfg, fix, pred)
        if site_def is None or not loop_free(site_def[0]):
            continue
        def_label = site_def[0]
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                label1, neg1, taken1, fall1 = sites[i]
                label2, neg2, taken2, fall2 = sites[j]
                if not (cfg.dominates(def_label, label1)
                        and cfg.dominates(def_label, label2)):
                    continue
                if neg1 == neg2:
                    pairs = [(taken1, fall2), (fall1, taken2)]
                else:
                    pairs = [(taken1, taken2), (fall1, fall2)]
                for edge_a, edge_b in pairs:
                    facts.append(InfeasibleFact(
                        function=cfg.function.name,
                        kind="exclusive_pair",
                        detail=(f"branches in {label1} and {label2} both "
                                f"test p{pred} (defined once in {def_label})"),
                        constraint=FlowConstraint(
                            terms=((edge_a, 1.0), (edge_b, 1.0)), upper=1.0,
                            reason=(f"p{pred} correlates {label1} "
                                    f"and {label2}")),
                    ))
    return facts


def find_infeasible_facts(cfg: ControlFlowGraph,
                          fix: FixpointResult) -> list[InfeasibleFact]:
    """All infeasibility facts for one function."""
    return find_dead_edges(cfg, fix) + find_exclusive_pairs(cfg, fix)


__all__ = [
    "InfeasibleFact",
    "find_dead_edges",
    "find_exclusive_pairs",
    "find_infeasible_facts",
]
