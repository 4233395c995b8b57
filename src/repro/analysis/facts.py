"""Whole-program analysis facts: one object bundling every derived result.

``program_facts(program)`` is the cached entry point used by the WCET
analyzer, the verifier and the lint pass.  It runs, per top-level function
(sub-functions created by the method-cache splitter are merged into their
parent by :meth:`~repro.program.Program.merged_function`, as the WCET
analyzer does, so loop headers and edges line up):

1. the interval fixpoint (:mod:`repro.analysis.fixpoint`),
2. loop-bound inference + the annotation audit
   (:mod:`repro.analysis.loopbounds`),
3. infeasible-path detection (:mod:`repro.analysis.infeasible`),
4. address classification (:mod:`repro.analysis.addresses`).

The cache is keyed by object identity with a weak reference guard, so a
program analysed for WCET, verification and lint in the same process pays
for the fixpoint once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..program.cfg import ControlFlowGraph
from ..program.function import Function
from ..program.program import Program
from ..wcet.ipet import FlowConstraint
from .addresses import AccessFact, accessed_static_items, classify_accesses
from .fixpoint import FixpointResult, analyse_function, may_write_summaries
from .infeasible import InfeasibleFact, find_infeasible_facts
from .loopbounds import (
    InferredBound,
    LoopBoundAudit,
    audit_loop_bounds,
    infer_loop_bounds,
)


@dataclass
class FunctionFacts:
    """Analysis results of one top-level function (sub-functions merged)."""

    name: str
    function: Function
    cfg: ControlFlowGraph
    fixpoint: FixpointResult
    inferred_bounds: dict[str, InferredBound] = field(default_factory=dict)
    audits: list[LoopBoundAudit] = field(default_factory=list)
    infeasible: list[InfeasibleFact] = field(default_factory=list)
    accesses: list[AccessFact] = field(default_factory=list)

    def effective_bounds(self) -> dict[str, int]:
        """Header label -> effective bound (audit rule applied)."""
        return {
            audit.header: audit.effective
            for audit in self.audits if audit.effective is not None
        }

    def flow_constraints(self) -> list[FlowConstraint]:
        return [fact.constraint for fact in self.infeasible]


@dataclass
class ProgramFacts:
    """Analysis results of a whole program, per top-level function."""

    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    may_writes: dict = field(default_factory=dict)

    def function_facts(self, name: str) -> Optional[FunctionFacts]:
        return self.functions.get(name)

    def effective_loop_bounds(self) -> dict[tuple[str, str], int]:
        """All effective bounds as ``(function, header) -> bound``."""
        bounds: dict[tuple[str, str], int] = {}
        for facts in self.functions.values():
            for header, bound in facts.effective_bounds().items():
                bounds[(facts.name, header)] = bound
        return bounds

    def loop_audits(self) -> list[LoopBoundAudit]:
        audits: list[LoopBoundAudit] = []
        for name in sorted(self.functions):
            audits.extend(self.functions[name].audits)
        return audits

    def infeasible_facts(self) -> list[InfeasibleFact]:
        facts: list[InfeasibleFact] = []
        for name in sorted(self.functions):
            facts.extend(self.functions[name].infeasible)
        return facts

    def accessed_static_items(self,
                              write_allocate: bool = False
                              ) -> Optional[set[str]]:
        """Union of provably reachable static items, or ``None`` if any
        function leaves a static access unresolved."""
        items: set[str] = set()
        for facts in self.functions.values():
            partial = accessed_static_items(facts.accesses, write_allocate)
            if partial is None:
                return None
            items |= partial
        return items


def analyse_program(program: Program) -> ProgramFacts:
    """Run the full analysis over every top-level function of ``program``."""
    may_writes = may_write_summaries(program)
    result = ProgramFacts(may_writes=may_writes)
    for function in program.functions.values():
        if function.is_subfunction:
            continue
        merged = program.merged_function(function)
        cfg = ControlFlowGraph.build(merged)
        fix = analyse_function(cfg, may_writes)
        inferred = infer_loop_bounds(cfg, fix)
        result.functions[function.name] = FunctionFacts(
            name=function.name,
            function=merged,
            cfg=cfg,
            fixpoint=fix,
            inferred_bounds=inferred,
            audits=audit_loop_bounds(cfg, inferred),
            infeasible=find_infeasible_facts(cfg, fix),
            accesses=classify_accesses(cfg, fix, program),
        )
    return result


# Cache keyed by program identity; the weak reference both guards against
# id() reuse and evicts the entry when the program is garbage collected.
_FACTS_CACHE: dict[int, tuple] = {}


def program_facts(program: Program) -> ProgramFacts:
    """Cached :func:`analyse_program` (programs are not mutated after link)."""
    key = id(program)
    entry = _FACTS_CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    facts = analyse_program(program)
    ref = weakref.ref(program, lambda _ref, key=key: _FACTS_CACHE.pop(key, None))
    _FACTS_CACHE[key] = (ref, facts)
    return facts


__all__ = [
    "FunctionFacts",
    "ProgramFacts",
    "analyse_program",
    "program_facts",
]
