"""Whole-program analysis facts: one object bundling every derived result.

``program_facts(program)`` is the cached entry point used by the WCET
analyzer, the verifier and the lint pass.  It works per top-level function
(sub-functions created by the method-cache splitter are merged into their
parent by :meth:`~repro.program.Program.merged_function`, as the WCET
analyzer does, so loop headers and edges line up).

The interval fixpoint (:mod:`repro.analysis.fixpoint`) runs on demand:

* a function whose CFG has natural loops gets its fixpoint at once, followed
  by loop-bound inference and the annotation audit
  (:mod:`repro.analysis.loopbounds`), which read it;
* any other function has no bound to infer and an empty audit, so its
  fixpoint runs the first time :attr:`FunctionFacts.fixpoint` is read (the
  lint pass classifies memory accesses, :mod:`repro.analysis.addresses`,
  from it) and is then kept.

The interprocedural clobber summaries that every fixpoint reads are built
the same way, once per program on first use: a program without loops,
analysed for its WCET bound only, runs no fixpoint and builds no summary.
The call graph is built up front, so a call to an unknown function raises
:class:`~repro.errors.WcetError` here, not on a later read.

The cache is keyed by object identity with a weak reference guard, so a
program analysed for WCET, verification and lint in the same process pays
for each fixpoint once.  The facts keep the program's function table, never
the :class:`~repro.program.Program` itself, so a cached entry does not keep
its program alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..program.callgraph import CallGraph
from ..program.cfg import ControlFlowGraph, merged_cfg
from ..program.function import Function
from ..program.program import Program
from .fixpoint import FixpointResult, analyse_function, clobber_summaries
from .loopbounds import (
    InferredBound,
    LoopBoundAudit,
    audit_loop_bounds,
    infer_loop_bounds,
)
from .transfer import ClobberSummary


class _Clobbers:
    """A program's clobber summaries, built on first use.

    One instance is shared by a :class:`ProgramFacts` and each of its
    :class:`FunctionFacts`, so the summaries are built once per program,
    from its function table and the call edges of its call graph.
    """

    __slots__ = ("_functions", "_calls", "_summaries")

    def __init__(self, functions: dict[str, Function],
                 calls: dict[str, list[str]]):
        self._functions = functions
        self._calls = calls
        self._summaries: Optional[dict[str, ClobberSummary]] = None

    def get(self) -> dict[str, ClobberSummary]:
        if self._summaries is None:
            self._summaries = clobber_summaries(self._functions, self._calls)
        return self._summaries


@dataclass
class FunctionFacts:
    """Analysis results of one top-level function (sub-functions merged)."""

    name: str
    function: Function
    cfg: ControlFlowGraph
    inferred_bounds: dict[str, InferredBound] = field(default_factory=dict)
    audits: list[LoopBoundAudit] = field(default_factory=list)
    _clobbers: Optional[_Clobbers] = field(
        default=None, repr=False, compare=False)
    _fixpoint: Optional[FixpointResult] = field(
        default=None, repr=False, compare=False)

    @property
    def fixpoint(self) -> FixpointResult:
        """The interval fixpoint of :attr:`cfg`, run on first read."""
        if self._fixpoint is None:
            self._fixpoint = analyse_function(self.cfg, self._clobbers.get())
        return self._fixpoint

    def effective_bounds(self) -> dict[str, int]:
        """Header label -> effective bound (audit rule applied)."""
        return {
            audit.header: audit.effective
            for audit in self.audits if audit.effective is not None
        }


@dataclass
class ProgramFacts:
    """Analysis results of a whole program, per top-level function."""

    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    _clobbers: Optional[_Clobbers] = field(
        default=None, repr=False, compare=False)

    @property
    def may_writes(self) -> dict[str, ClobberSummary]:
        """Clobber summary of every function, built on first read."""
        return self._clobbers.get() if self._clobbers is not None else {}

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


def analyse_program(program: Program) -> ProgramFacts:
    """Analyse every top-level function of ``program``.

    Functions with a natural loop get their fixpoint, inferred loop bounds
    and audit here; the others get their fixpoint on first read.
    """
    clobbers = _Clobbers(dict(program.functions),
                         CallGraph.build(program).calls)
    result = ProgramFacts(_clobbers=clobbers)
    for function in program.functions.values():
        if function.is_subfunction:
            continue
        cfg = merged_cfg(program, function)
        facts = FunctionFacts(name=function.name, function=cfg.function,
                              cfg=cfg, _clobbers=clobbers)
        if cfg.natural_loops():
            facts.inferred_bounds = infer_loop_bounds(cfg, facts.fixpoint)
            facts.audits = audit_loop_bounds(cfg, facts.inferred_bounds)
        result.functions[function.name] = facts
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
