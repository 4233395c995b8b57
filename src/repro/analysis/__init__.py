"""Abstract-interpretation value analysis over the builder IR.

Module map
----------

============== ==============================================================
``domain``     Signed 32-bit interval lattice, symbol+offset abstract values,
               three-valued predicates, and the per-point abstract state.
``transfer``   Sound transfer functions for every ALU / compare / predicate /
               load / store / call opcode, mirroring the simulator's
               wrap-around semantics.
``fixpoint``   Worklist fixpoint per function CFG with widening at natural
               loop headers, plus interprocedural may-write summaries.
``loopbounds`` Induction-variable loop-bound inference and the
               annotation-vs-inferred audit rule.
``addresses``  Address-range classification of every memory access
               (scratchpad / static data / stack / heap), for the lint
               pass.
``facts``      ``program_facts(program)`` — the cached whole-program entry
               point bundling loop bounds, their audit and the fixpoint.
               The fixpoint runs on demand: at once for a function with a
               natural loop (its bounds need it), on first read for any
               other; the may-write summaries are built on first use.
``lint``       IR verifier: unreachable blocks, unbounded loops, reserved
               registers, single-path violations, bad accesses.
``__main__``   ``python -m repro.analysis [--lint] [--strict]`` CLI.
============== ==============================================================

Methodology
-----------

**Domain.**  Each general-purpose register maps to an abstract value
``symbol + [lo, hi]``: an optional data-symbol base plus a signed 32-bit
interval offset.  Predicates live in a three-valued (Kleene) domain.
Operations that may wrap at 32 bits degrade to TOP rather than model the
wrap, so every concrete register value is always contained in its interval
— the soundness property the property-based tests in
``tests/test_analysis.py`` exercise against the real simulator.

**Widening.**  The fixpoint iterates blocks in reverse post-order and
widens only at natural-loop headers: a bound that keeps growing jumps to
the 32-bit extreme, guaranteeing termination in a few passes while keeping
loop-invariant facts exact.  Irreducible or non-converging regions fall
back to widening everywhere, then to TOP.

**Loop bounds.**  For a loop with a single back edge, the continue
condition is reduced to a compare atom over a unique once-per-iteration
induction update (``counter += step``) and a loop-invariant limit; a
closed-form iteration bound follows from the entry interval of the
counter.  Overflow of the counter past the comparison is checked
explicitly, otherwise no bound is claimed.

**Audit rule.**  Inferred and annotated bounds are merged per loop:
the *effective* bound is the tighter of the two.  An inferred bound
tighter than the annotation is adopted silently; an annotation tighter
than what is provable is kept but flagged (an error under ``--strict``),
because the analysis cannot confirm the programmer's claim.
"""

from .addresses import AccessFact, classify_accesses
from .domain import AbsState, AbsVal, Interval
from .facts import FunctionFacts, ProgramFacts, analyse_program, program_facts
from .fixpoint import FixpointResult, analyse_function, may_write_summaries
from .lint import LintFinding, has_errors, lint_program
from .loopbounds import (
    InferredBound,
    LoopBoundAudit,
    audit_loop_bounds,
    infer_loop_bounds,
)

__all__ = [
    "AbsState",
    "AbsVal",
    "AccessFact",
    "FixpointResult",
    "FunctionFacts",
    "InferredBound",
    "Interval",
    "LintFinding",
    "LoopBoundAudit",
    "ProgramFacts",
    "analyse_function",
    "analyse_program",
    "audit_loop_bounds",
    "classify_accesses",
    "has_errors",
    "infer_loop_bounds",
    "lint_program",
    "may_write_summaries",
    "program_facts",
]
