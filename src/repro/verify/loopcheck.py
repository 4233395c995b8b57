"""Per-loop conformance: observed iteration counts vs analysed bounds.

The kernel matrix checks end-to-end cycle bounds; this module checks the
*loop-bound facts* those bounds are built from.  For every natural loop of
every kernel the simulator's block execution counts give the observed
number of header executions; the gate requires::

    observed header executions  <=  bound * loop entries

where ``bound`` is the effective (audited) bound the WCET analysis used
and the number of loop entries is over-approximated by the execution
counts of the header's non-back-edge predecessors (a predecessor may
execute without entering, so the limit errs on the weak side — a reported
violation is therefore always a genuine unsoundness, either of an inferred
bound or of a manual annotation the audit adopted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.facts import ProgramFacts, program_facts
from ..program.program import Program


@dataclass(frozen=True)
class LoopCheck:
    """Observed-vs-bound verdict of one natural loop of one kernel."""

    kernel: str
    function: str
    header: str
    annotated: Optional[int]
    inferred: Optional[int]
    #: The bound the gate checks (the audited effective bound).
    bound: Optional[int]
    entries: int
    observed: int
    #: ``bound * entries`` — the most header executions the bound allows.
    limit: Optional[int]

    @property
    def slack(self) -> Optional[int]:
        """Unused iterations the bound allows (negative = violation)."""
        if self.limit is None:
            return None
        return self.limit - self.observed

    @property
    def ok(self) -> Optional[bool]:
        """True/False for bounded loops, None where no bound exists."""
        if self.limit is None:
            return None
        return self.observed <= self.limit

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "function": self.function,
            "header": self.header,
            "annotated": self.annotated,
            "inferred": self.inferred,
            "bound": self.bound,
            "entries": self.entries,
            "observed": self.observed,
            "limit": self.limit,
            "slack": self.slack,
            "ok": self.ok,
        }


def _group_counts(program: Program, parent: str,
                  block_counts: dict[tuple[str, str], int]) -> dict[str, int]:
    """Block counts of ``parent`` and its sub-functions, keyed by label.

    The analysis CFG merges method-cache sub-functions into their parent,
    while the simulator attributes their blocks to the sub-function name;
    labels are unique across a split group, so folding by label aligns the
    two views.
    """
    counts: dict[str, int] = {}
    for (name, label), count in block_counts.items():
        func = program.functions.get(name)
        if func is None:
            continue
        owner = func.parent if func.is_subfunction else name
        if owner == parent:
            counts[label] = counts.get(label, 0) + count
    return counts


def check_loops(kernel: str, program: Program,
                block_counts: dict[tuple[str, str], int],
                call_counts: Optional[dict[str, int]] = None,
                facts: Optional[ProgramFacts] = None) -> list[LoopCheck]:
    """Cross-check every analysed loop of ``program`` against one run."""
    facts = facts if facts is not None else program_facts(program)
    checks = []
    for name in sorted(facts.functions):
        func_facts = facts.functions[name]
        counts = _group_counts(program, name, block_counts)
        cfg = func_facts.cfg
        audits = {audit.header: audit for audit in func_facts.audits}
        for loop in cfg.natural_loops():
            back_tails = {tail for tail, _ in loop.back_edges}
            entries = sum(
                counts.get(pred, 0)
                for pred in cfg.predecessors(loop.header)
                if pred not in back_tails)
            if loop.header == cfg.entry:
                # The function entry is also entered by every call (once,
                # for the program entry function).
                calls = (call_counts or {}).get(name, 0)
                entries += calls if calls else 1
            audit = audits.get(loop.header)
            bound = audit.effective if audit is not None else loop.bound
            observed = counts.get(loop.header, 0)
            checks.append(LoopCheck(
                kernel=kernel,
                function=name,
                header=loop.header,
                annotated=audit.annotated if audit is not None else loop.bound,
                inferred=audit.inferred if audit is not None else None,
                bound=bound,
                entries=entries,
                observed=observed,
                limit=None if bound is None else bound * entries,
            ))
    return checks


__all__ = ["LoopCheck", "check_loops"]
