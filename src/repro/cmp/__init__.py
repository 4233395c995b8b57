"""Chip-multiprocessor model: shared-memory multicore co-simulation.

:class:`MulticoreSystem` interleaves N cores on one clock against one shared
memory and a pluggable arbiter (TDMA, round-robin, priority).  Under TDMA a
core's timing is the same whatever its co-runners run.

Module map
----------

``system``
    :class:`MulticoreSystem` and its co-simulation schedulers.
    ``scheduler="event"`` (default) records each distinct (image, core
    config, cache organisation, strict) once and replays the traces
    through the real arbiter ports: a heap keyed on
    ``(next_request_cycle, arbiter_preference, core_id)`` orders the
    requests of all cores (under order-independent TDMA each core replays
    on its own), so the cost scales with bus events, not bundles; each
    distinct set of traces and arbitration is replayed once.  Agents
    that cannot replay — the RTOS task runtimes — keep the event-driven
    pause protocol over each job simulator's own
    :class:`~repro.sim.engine.EngineContext` (``_schedule_event``).
    ``scheduler="reference"`` is the quantum-polling oracle retained for
    differential testing (each slice a ``run_step`` that resumes the core's
    one engine context), and also runs memory-flip fault plans and
    ``engine="reference"``.  All produce
    bit-identical timing (``tests/test_cosim_scheduler.py``);
    ``CmpResult.scheduler_stats`` records slices/releases (and, for
    replays, how many traces the run recorded).
``replay``
    The trace recorder (a zero-wait single-core run on the fast engine that
    records every arbitrated transfer, store-buffer entry, split load and
    ``wmem`` at its bundle's start cycle), the :class:`CoreTrace` cached on
    the image (``Image._caches``; pickling drops it), and the per-core
    :class:`TraceReplay` that re-derives waits, store-buffer stalls and
    ``wmem`` stalls against an arbiter port.  ``recorded_trace`` is the one
    record-or-reuse entry point: co-simulation replays its traces, and
    ``run_alone`` gives every "this image run alone" (single-core explore
    and verify cells, verify's loop checks, ``single_core_reference``) the
    recording's result on the fast engine and a fresh interpreter run on
    the reference engine.
"""

from .system import (
    CmpResult,
    CoreResult,
    MulticoreSystem,
    default_tdma_schedule,
    single_core_reference,
)

__all__ = [
    "CmpResult",
    "CoreResult",
    "MulticoreSystem",
    "default_tdma_schedule",
    "single_core_reference",
]
