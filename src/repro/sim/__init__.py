"""Patmos simulators: functional and cycle-accurate, on two engines.

Module map
----------

``base``
    :class:`BaseSimulator` — the full architectural semantics of the Patmos
    ISA (predication, exposed delay slots, typed memory, stack-cache control,
    call/return protocol) with zero-stall timing hooks, implemented as the
    readable *reference interpreter* (``_step``/``_execute``).
``cycle``
    :class:`CycleSimulator` — subclasses the base simulator and fills in the
    timing hooks with the time-predictable memory hierarchy (method cache,
    split caches, stack cache, memory controller, TDMA arbitration).
``functional``
    :class:`FunctionalSimulator` — the base engine used as-is ("ideal
    memory" baseline, one cycle per issued bundle).
``engine``
    The pre-decoded *fast engine*: a table-driven decode pass (one plan per
    mnemonic and pipeline) compiles every bundle of an image into a dense
    PC-indexed micro-op table once, and a dispatch-table interpreter
    executes it without per-step decoding.  The ``strict`` decode adds the
    schedule checks: fused into one check-and-execute micro-op for ALU
    instructions, a check micro-op ahead of any other that reads a
    register or has a guard.  Both simulator
    classes run on it by default (``engine="fast"``); pass
    ``engine="reference"`` to force the interpreter.  :data:`ENGINES` lists
    both; every layer that takes an engine accepts exactly these.  The two
    are kept observationally identical by the golden-equivalence suite
    (``tests/test_engine_equivalence.py``).  Both engines are resumable
    through ``run_step`` (run-until-cycle / run-until-memory-event), which
    is how the quantum co-simulation oracle (:mod:`repro.cmp`) interleaves
    N cores on one clock, and how a co-simulation records each core's
    trace once before replaying it (:mod:`repro.cmp.replay`).  The engine's
    hot loop lives in :class:`~repro.sim.engine.EngineContext`; each
    simulator owns one (``BaseSimulator.engine_context``), built at its
    first fast-engine step and resumed by every later one until its result
    is read after the halt.  Its ``advance`` method re-enters the dispatch
    loop at method-call cost, shares the simulator's clock and can pause
    *before* a bundle that may register an arbitrated memory transfer.  ``run_step`` exports the
    context's in-flight state on every return; the RTOS task runtimes
    (:mod:`repro.rtos`) drive each job simulator's context directly and the
    event-driven scheduler releases them in global time order.
``executor``
    Pure evaluation of ALU/compare/predicate/multiply semantics shared by
    the reference interpreter (the fast engine pre-binds its own inlined
    variants at decode time).
``state``
    :class:`ArchState` — register file, predicates, special registers, with
    checked accessors for external callers and documented unchecked paths
    for the engine.
``results``
    :class:`SimResult`, :class:`StallBreakdown`, :class:`TraceEntry`.
"""

from .base import ENGINES, BaseSimulator
from .cycle import CycleSimulator
from .engine import DecodedProgram, EngineContext, decode_image
from .functional import FunctionalSimulator
from .results import SimResult, StallBreakdown, TraceEntry
from .state import ArchState, to_signed, to_unsigned

__all__ = [
    "ENGINES",
    "ArchState",
    "BaseSimulator",
    "CycleSimulator",
    "DecodedProgram",
    "EngineContext",
    "FunctionalSimulator",
    "SimResult",
    "StallBreakdown",
    "TraceEntry",
    "decode_image",
    "to_signed",
    "to_unsigned",
]
