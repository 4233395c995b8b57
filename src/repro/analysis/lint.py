"""IR verifier / lint pass over builder programs.

Checks (each producing a :class:`LintFinding` with a stable ``code``):

* ``unreachable-block`` — a block no path from the function entry reaches.
* ``unbounded-loop`` — a natural loop with neither a bound annotation nor an
  inferable bound; the WCET analysis will fail on it (error).
* ``loose-annotation`` — an annotation claiming fewer iterations than the
  analysis can prove possible; kept, but flagged (``--strict`` escalates).
* ``unverified-annotation`` — an annotation the analysis cannot check at all.
* ``reserved-register-write`` — builder-level code writing registers the
  compiler reserves (``r26``–``r28``/``p5``–``p7`` for the single-path
  transformation, ``r29``–``r31`` for prologue/epilogue code).
* ``single-path-violation`` — with ``single_path=True``: a conditional
  branch that is not the canonical counted-loop exit, i.e. control flow
  that still depends on input data.
* ``region-mismatch`` — a typed access whose resolved address lives in a
  different region than the opcode's cache (e.g. ``lwl`` of a static item).
* ``out-of-bounds-access`` — an access provably outside its data item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..compiler.single_path import COUNTER_REG, EXIT_PRED
from ..isa.opcodes import Opcode
from ..program.program import Program
from .addresses import classify_accesses, out_of_bounds, region_mismatches
from .facts import ProgramFacts, program_facts
from .loopbounds import (
    STATUS_ANNOTATED_ONLY,
    STATUS_TIGHTER,
    STATUS_UNBOUNDED,
)

#: Registers the compilation pipeline reserves (DESIGN.md conventions).
RESERVED_GPRS = frozenset(range(26, 32))
RESERVED_PREDS = frozenset(range(5, 8))

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic."""

    function: str
    block: Optional[str]
    code: str
    severity: str
    message: str

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "block": self.block,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = f"{self.function}/{self.block}" if self.block else self.function
        return f"{self.severity}: {where}: {self.message} [{self.code}]"


def _check_reachability(facts: ProgramFacts) -> list[LintFinding]:
    findings = []
    for name in sorted(facts.functions):
        func_facts = facts.functions[name]
        reachable = func_facts.cfg.reachable()
        for label in func_facts.function.block_labels():
            if label not in reachable:
                findings.append(LintFinding(
                    function=name, block=label, code="unreachable-block",
                    severity=SEVERITY_WARNING,
                    message="no path from the function entry reaches this "
                            "block"))
    return findings


def _check_loop_bounds(facts: ProgramFacts) -> list[LintFinding]:
    findings = []
    for audit in facts.loop_audits():
        if audit.status == STATUS_UNBOUNDED:
            findings.append(LintFinding(
                function=audit.function, block=audit.header,
                code="unbounded-loop", severity=SEVERITY_ERROR,
                message="loop has no bound annotation and no bound could "
                        "be inferred; the WCET is unbounded"))
        elif audit.status == STATUS_TIGHTER:
            findings.append(LintFinding(
                function=audit.function, block=audit.header,
                code="loose-annotation", severity=SEVERITY_WARNING,
                message=(f"annotation {audit.annotated} is tighter than the "
                         f"provable bound {audit.inferred}; the analysis "
                         "cannot confirm it")))
        elif audit.status == STATUS_ANNOTATED_ONLY:
            findings.append(LintFinding(
                function=audit.function, block=audit.header,
                code="unverified-annotation", severity=SEVERITY_WARNING,
                message=(f"annotation {audit.annotated} could not be "
                         "cross-checked against an inferred bound")))
    return findings


def _check_reserved_registers(program: Program) -> list[LintFinding]:
    findings = []
    for function in program.functions.values():
        for block in function.blocks:
            for instr in block.instrs:
                bad_gprs = sorted(set(instr.gpr_defs()) & RESERVED_GPRS)
                bad_preds = sorted(set(instr.pred_defs()) & RESERVED_PREDS)
                for reg in bad_gprs:
                    findings.append(LintFinding(
                        function=function.name, block=block.label,
                        code="reserved-register-write",
                        severity=SEVERITY_WARNING,
                        message=(f"{instr.opcode.value} writes r{reg}, which "
                                 "is reserved for the compiler")))
                for pred in bad_preds:
                    findings.append(LintFinding(
                        function=function.name, block=block.label,
                        code="reserved-register-write",
                        severity=SEVERITY_WARNING,
                        message=(f"{instr.opcode.value} writes p{pred}, which "
                                 "is reserved for the compiler")))
    return findings


def _check_single_path(facts: ProgramFacts) -> list[LintFinding]:
    """After the single-path transformation the only conditional branches
    left are the canonical counted-loop exits: guarded by the reserved exit
    predicate, which a ``cmpineq`` on the reserved counter defines."""
    findings = []
    for name in sorted(facts.functions):
        func_facts = facts.functions[name]
        for block in func_facts.function.blocks:
            term = block.terminator()
            if term is None or term.opcode is not Opcode.BR:
                continue
            if term.guard.is_always:
                continue
            ok = term.guard.pred == EXIT_PRED and not term.guard.negate
            if ok:
                defs = [
                    instr for instr in block.instrs
                    if EXIT_PRED in instr.pred_defs()
                ]
                ok = (len(defs) == 1
                      and defs[0].opcode is Opcode.CMPINEQ
                      and defs[0].rs1 == COUNTER_REG)
            if not ok:
                findings.append(LintFinding(
                    function=name, block=block.label,
                    code="single-path-violation", severity=SEVERITY_ERROR,
                    message=(f"conditional branch on p{term.guard.pred} is "
                             "not a counted-loop exit; execution path "
                             "depends on input data")))
    return findings


def _check_accesses(program: Program,
                    facts: ProgramFacts) -> list[LintFinding]:
    findings = []
    for name in sorted(facts.functions):
        func_facts = facts.functions[name]
        accesses = classify_accesses(func_facts.cfg, func_facts.fixpoint,
                                     program)
        for fact in region_mismatches(accesses):
            findings.append(LintFinding(
                function=name, block=fact.block, code="region-mismatch",
                severity=SEVERITY_WARNING,
                message=(f"{fact.opcode} targets the {fact.mem_type} cache "
                         f"but resolves to {fact.symbol!r} in the "
                         f"{fact.region} region")))
        for fact in out_of_bounds(accesses):
            findings.append(LintFinding(
                function=name, block=fact.block, code="out-of-bounds-access",
                severity=SEVERITY_ERROR,
                message=(f"{fact.opcode} accesses {fact.symbol!r} at byte "
                         f"offset [{fact.offset_lo}, {fact.offset_hi}], "
                         "outside the item")))
    return findings


def lint_program(program: Program, facts: Optional[ProgramFacts] = None,
                 single_path: bool = False,
                 check_reserved: bool = True) -> list[LintFinding]:
    """Run every lint check over ``program``.

    ``check_reserved`` should be disabled for compiled programs, where the
    stack-allocation and single-path passes legitimately use the reserved
    registers.  ``single_path`` additionally enforces the single-path
    property (no data-dependent control flow).
    """
    facts = facts if facts is not None else program_facts(program)
    findings = []
    findings.extend(_check_reachability(facts))
    findings.extend(_check_loop_bounds(facts))
    if check_reserved:
        findings.extend(_check_reserved_registers(program))
    if single_path:
        findings.extend(_check_single_path(facts))
    findings.extend(_check_accesses(program, facts))
    return findings


def has_errors(findings: list[LintFinding], strict: bool = False) -> bool:
    """True if any finding is fatal (``strict`` escalates loose annotations)."""
    for finding in findings:
        if finding.severity == SEVERITY_ERROR:
            return True
        if strict and finding.code == "loose-annotation":
            return True
    return False


__all__ = [
    "LintFinding",
    "RESERVED_GPRS",
    "RESERVED_PREDS",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "has_errors",
    "lint_program",
]
