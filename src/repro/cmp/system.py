"""Chip-multiprocessor model: shared-memory multicore co-simulation.

The paper proposes building a CMP from replicated Patmos pipelines with
*statically scheduled* access to the shared main memory (Sections 1–3): each
core owns a fixed TDMA slot, so the worst-case waiting time of a memory
transfer is independent of the other cores' behaviour.

:class:`MulticoreSystem` makes that claim *empirical* instead of assumed.  It
interleaves N (possibly heterogeneous) cores on one global clock against
one shared physical :class:`~repro.memory.main_memory.MainMemory` (each
core owns a private, zero-copy bank view) and one shared
:class:`~repro.memory.arbiter.MemoryArbiter`, so every arbitration decision
observes the cores' actual concurrent memory traffic.

Two interleaving schedulers produce bit-identical timing:

* ``scheduler="event"`` (the default) records and replays.  Patmos is
  statically scheduled and each core owns a private bank, so a core's
  control flow and cache hit/miss sequence never depend on timing: only
  the bus waits do, plus the store-buffer and ``wmem`` stalls those waits
  move.  Each distinct (image, core config, cache organisation, strict) is
  run once, alone and with zero-wait arbitration, and its timing-dependent
  points are recorded (:mod:`repro.cmp.replay`); the trace is cached on the
  image, so every arbiter and core count of one kernel shares it, and so
  does an image of equal content under a method cache that fills the
  same way.  The
  traces are then replayed through the real arbiter ports: a heap keyed on
  ``(next_request_cycle, arbiter_preference, core_id)`` hands the shared
  arbiter every request in global time order, and under the
  order-independent TDMA arbiter each core replays on its own.  The cost
  of a co-simulation thus scales with its bus events, not with the
  bundles its cores issue, and each distinct set of traces and
  arbitration is replayed once: a rerun of the same traces under the same
  arbitration restores the finished replay.
* ``scheduler="reference"`` is the original quantum-polling loop: always
  advance the core with the smallest local clock up to the next core's
  clock, yielding early on every arbitrated transfer (the engine's
  run-until-memory-event stepping).  It executes every bundle of every
  core — on the fast engine each core's ``run_step`` resumes that core's
  one engine context — and exists as the differential oracle of the golden
  equivalence suite (mirroring the ``engine="fast"|"reference"`` pattern).

Both deliver requests to the arbiter in global time order at bundle
granularity with simultaneous requests served in the arbiter's preference
order, which is why their per-core cycle counts, arbitration statistics and
memory images match exactly (``tests/test_cosim_scheduler.py``).  Runs that
cannot replay fall back: memory-flip fault plans and ``engine="reference"``
take the quantum loop, and the preemptive task runtimes of
:mod:`repro.rtos` (whose interrupts change cache state) keep the
event-driven pause protocol of :meth:`MulticoreSystem._schedule_event`.

Under TDMA arbitration a core's timing is the same whatever its co-runners
run: cycle for cycle, it equals a run of the core alone on its port of a
:class:`~repro.memory.arbiter.TdmaBusArbiter` — the paper's decoupling
property, checked by the golden tests.  Under round-robin or priority
arbitration the same system exhibits genuine, co-runner-dependent
interference, which is exactly what makes those arbiters hard to analyse.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..caches.hierarchy import HierarchyOptions
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import ConfigError, SimulationTimeout
from ..faults.injector import FaultInjector
from ..faults.plan import FaultLog, FaultPlan
from ..memory.arbiter import MemoryArbiter, PriorityArbiter, make_arbiter
from ..memory.main_memory import MainMemory
from ..memory.tdma import TdmaSchedule
from ..program.linker import Image
from ..sim.cycle import CycleSimulator
from ..sim.results import SimResult
from ..wcet.analyzer import WcetOptions, WcetResult, analyze_wcet
from .replay import (CoreTrace, TraceReplay, recorded_trace, run_alone,
                     trace_counts)


#: Sentinel cycle for draining post-halt memory flips onto the final image.
_END_OF_TIME = 1 << 62


def default_tdma_schedule(num_cores: int, config: PatmosConfig = DEFAULT_CONFIG,
                          slot_cycles: Optional[int] = None,
                          slot_weights: Optional[Sequence[int]] = None
                          ) -> TdmaSchedule:
    """A TDMA schedule with one burst-sized (or explicit) slot per core."""
    return TdmaSchedule(
        num_cores=num_cores,
        slot_cycles=(slot_cycles if slot_cycles is not None
                     else config.memory.burst_cycles()),
        slot_weights=tuple(slot_weights) if slot_weights else ())


@dataclass
class CoreResult:
    """Simulation and analysis results of one core in the CMP."""

    core_id: int
    sim: SimResult
    wcet: Optional[WcetResult] = None

    @property
    def observed_cycles(self) -> int:
        return self.sim.cycles

    @property
    def wcet_cycles(self) -> Optional[int]:
        return self.wcet.wcet_cycles if self.wcet is not None else None


@dataclass
class CmpResult:
    """Results of running a program mix on the chip multiprocessor."""

    num_cores: int
    schedule: Optional[TdmaSchedule] = None
    cores: list[CoreResult] = field(default_factory=list)
    arbiter: str = "tdma"
    #: Shared-arbiter activity.
    arbiter_stats: Optional[dict] = None
    #: Interleaving scheduler that produced this result and its activity
    #: counters (slices / releases).
    scheduler: Optional[str] = None
    scheduler_stats: Optional[dict] = None
    #: Executed fault events of this run (``None`` when no plan was given).
    fault_log: Optional[FaultLog] = None

    @property
    def makespan(self) -> int:
        """Cycles until the last core finishes."""
        return max(core.observed_cycles for core in self.cores)

    def observed_by_core(self) -> list[int]:
        return [core.observed_cycles for core in self.cores]

    def wcet_by_core(self) -> list[Optional[int]]:
        return [core.wcet_cycles for core in self.cores]

    def system_stats(self) -> dict:
        """Aggregated per-core and system-level interference statistics."""
        per_core = []
        totals = {"arbitration_cycles": 0, "words_transferred": 0,
                  "write_stall_cycles": 0, "idle_cycles": 0}
        makespan = self.makespan
        for core in self.cores:
            metrics = core.sim.metrics()
            row = {
                "core": core.core_id,
                "cycles": metrics["cycles"],
                "arbitration_cycles": metrics["arbitration_cycles"],
                "words_transferred": metrics["words_transferred"],
                "write_stall_cycles": metrics["write_stall_cycles"],
                # Idle = gaps the core itself reports (task-scheduler waits)
                # plus the tail it sits out after halting while the rest of
                # the system runs on.  Neither shows up in slot_utilisation,
                # which divides by the core's *own* issued bundles.
                "idle_cycles": (metrics["idle_cycles"]
                                + (makespan - metrics["cycles"])),
            }
            per_core.append(row)
            for key in totals:
                totals[key] += row[key]
        return {
            "arbiter": self.arbiter,
            "scheduler": self.scheduler,
            "makespan": self.makespan,
            "per_core": per_core,
            "totals": totals,
            "arbiter_stats": self.arbiter_stats,
        }


class MulticoreSystem:
    """N Patmos cores sharing one main memory behind a pluggable arbiter.

    ``images`` may be heterogeneous (one program per core) and ``configs``
    may give every core its own cache/pipeline configuration; all cores must
    agree on the :class:`~repro.config.MemoryConfig`, because they share one
    physical memory and bus.  ``arbiter`` is a policy name (``"tdma"``,
    ``"round_robin"``, ``"priority"``) or a ready-made
    :class:`~repro.memory.arbiter.MemoryArbiter` instance.

    ``scheduler`` picks the co-simulation interleaving: the default
    ``"event"`` replays traces recorded once per image, while
    ``"reference"`` is the quantum-polling oracle — both produce
    bit-identical timing (see the module docstring).

    ``faults`` threads a :class:`~repro.faults.FaultPlan` through the run.
    An empty plan is indistinguishable from no plan: the unmodified
    scheduler code paths run and no injector objects exist.  A plan with
    memory flips forces the quantum scheduler — a flip can change
    data-dependent control flow and hence the request stream, so slices are
    clipped to the next flip cycle; bus-only plans keep the configured
    scheduler because retries happen inside a single arbitration call,
    which a replay makes through the same fault-wrapped port.
    """

    #: Plain cores co-simulate by trace replay.  Subclasses whose
    #: :meth:`_build_cores` returns agents of their own that speak the
    #: event protocol (the RTOS task runtimes) turn this off and keep
    #: :meth:`_schedule_event`.
    _replays_traces = True

    #: Fault kinds this system class can execute; ``FaultPlan`` events of
    #: other kinds are a configuration error (the RTOS layer overrides).
    _fault_kinds = ("memory", "bus")

    def __init__(self, images: list[Image],
                 config: PatmosConfig = DEFAULT_CONFIG,
                 configs: Optional[Sequence[PatmosConfig]] = None,
                 arbiter: Union[str, MemoryArbiter] = "tdma",
                 schedule: Optional[TdmaSchedule] = None,
                 slot_weights: Optional[Sequence[int]] = None,
                 priorities: Optional[Sequence[int]] = None,
                 engine: str = "fast",
                 scheduler: str = "event",
                 hierarchy_options: Optional[HierarchyOptions] = None,
                 faults: Optional[FaultPlan] = None):
        if not images:
            raise ConfigError("a multicore system needs at least one core image")
        if scheduler not in ("event", "reference"):
            raise ConfigError(
                f"unknown scheduler {scheduler!r}; use 'event' or 'reference'")
        self.images = list(images)
        if configs is not None:
            if len(configs) != len(images):
                raise ConfigError(
                    f"{len(configs)} core configs for {len(images)} images")
            self.configs = list(configs)
        else:
            self.configs = [config] * len(images)
        self.config = self.configs[0]
        for core_id, core_config in enumerate(self.configs):
            if core_config.memory != self.config.memory:
                raise ConfigError(
                    f"core {core_id} has a different MemoryConfig; all cores "
                    "share one physical memory and bus")
        self.engine = engine
        self.scheduler = scheduler
        #: Shared physical memory of the most recent run (all banks);
        #: exposed for memory-image inspection and tests.
        self.shared_memory: Optional[MainMemory] = None
        #: Cache-organisation baseline applied to every core (conventional
        #: I-cache / unified data cache experiments on the CMP).
        self.hierarchy_options = hierarchy_options

        if isinstance(arbiter, MemoryArbiter):
            if arbiter.num_cores < len(images):
                raise ConfigError(
                    f"arbiter serves {arbiter.num_cores} cores but the "
                    f"system has {len(images)} images")
            if schedule is not None or slot_weights or priorities:
                raise ConfigError(
                    "schedule/slot_weights/priorities are ignored when a "
                    "ready-made arbiter is passed; configure the arbiter "
                    "instance instead")
            self._arbiter_template = arbiter
            self.arbiter_kind = arbiter.kind
            self.schedule = getattr(arbiter, "schedule", None)
            # A caller's arbiter may be of any class or state, so its
            # replays are never memoised.
            self._arbitration = None
        else:
            if arbiter != "tdma" and (schedule is not None or slot_weights):
                raise ConfigError(
                    f"a TDMA schedule makes no sense with the {arbiter!r} "
                    f"arbiter; drop the schedule/slot_weights or use "
                    f"arbiter='tdma'")
            if arbiter != "priority" and priorities:
                raise ConfigError(
                    f"priorities make no sense with the {arbiter!r} "
                    f"arbiter; drop them or use arbiter='priority'")
            if arbiter == "tdma" and schedule is None:
                schedule = default_tdma_schedule(
                    len(images), self.config, slot_weights=slot_weights)
            elif arbiter == "tdma" and schedule is not None and slot_weights:
                raise ConfigError(
                    "give the slot weights inside the schedule or as "
                    "slot_weights, not both")
            self._arbiter_template = make_arbiter(
                arbiter, len(images), self.config.memory,
                schedule=schedule, priorities=priorities)
            self.arbiter_kind = arbiter
            self.schedule = schedule if arbiter == "tdma" else None
            #: Everything the replay memo's key needs of the arbiter.
            self._arbitration = (
                arbiter, len(images), self.schedule,
                self._arbiter_template.priorities
                if arbiter == "priority" else None)
        self._validate_schedule()

        #: Fault plan of this system (``None`` or empty = fault-free), the
        #: injector of the most recent run and its log.
        self.faults = faults
        self._injector: Optional[FaultInjector] = None
        self.fault_log: Optional[FaultLog] = None
        if faults is not None and not faults.empty:
            self._validate_fault_plan(faults)

    def _validate_fault_plan(self, plan: FaultPlan) -> None:
        """Reject plans with events this system class cannot execute."""
        present = {
            "memory": plan.has_memory_faults,
            "bus": plan.has_bus_faults,
            "storm": bool(plan.storm_faults),
            "overrun": bool(plan.overrun_faults),
        }
        for kind, scheduled in present.items():
            if scheduled and kind not in self._fault_kinds:
                raise ConfigError(
                    f"{kind} faults are not supported by "
                    f"{type(self).__name__}; supported kinds: "
                    f"{', '.join(self._fault_kinds)}")
        plan.validate(
            self.num_cores, self.config.memory.size_bytes,
            scratchpad_bytes=self.config.scratchpad.size_bytes)

    @classmethod
    def homogeneous(cls, image: Image, num_cores: int,
                    config: PatmosConfig = DEFAULT_CONFIG,
                    slot_cycles: Optional[int] = None,
                    **kwargs) -> "MulticoreSystem":
        """A system running the same image on every core.

        This is the configuration the design-space exploration sweeps: the
        TDMA slot defaults to one burst transfer per core, or can be widened
        or narrowed via ``slot_cycles``; every keyword of the constructor
        (``arbiter``, ``slot_weights``, ``scheduler``, ...) passes through.
        """
        if num_cores < 1:
            raise ConfigError("a multicore system needs at least one core")
        if slot_cycles is not None:
            if "schedule" in kwargs:
                raise ConfigError(
                    "give the slot length inside the schedule or as "
                    "slot_cycles, not both")
            kwargs["schedule"] = default_tdma_schedule(
                num_cores, config, slot_cycles=slot_cycles,
                slot_weights=kwargs.pop("slot_weights", None))
        return cls([image] * num_cores, config=config, **kwargs)

    @property
    def num_cores(self) -> int:
        return len(self.images)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_schedule(self) -> None:
        """Reject TDMA schedules that cannot fit one burst transfer.

        The memory controller issues transfers of up to one burst; a slot
        shorter than that would make every cache fill raise mid-simulation.
        Failing at construction turns a silent under-provisioning (e.g. a
        user-supplied ``slot_cycles`` below the burst length) into an
        immediate configuration error.
        """
        if self.schedule is None:
            return
        if self.schedule.num_cores < self.num_cores:
            raise ConfigError(
                f"TDMA schedule has {self.schedule.num_cores} slots for "
                f"{self.num_cores} cores")
        burst = self.config.memory.burst_cycles()
        for core_id in range(self.num_cores):
            slot = self.schedule.slot_length(core_id)
            if slot < burst:
                raise ConfigError(
                    f"TDMA slot of core {core_id} is {slot} cycles, shorter "
                    f"than one burst transfer of {burst} cycles; widen "
                    f"slot_cycles or the core's slot weight")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, analyse: bool = True, strict: bool = False,
            max_bundles: int = 2_000_000, max_cycles: Optional[int] = None,
            max_wall_s: Optional[float] = None) -> CmpResult:
        """Simulate the system (and optionally analyse per-core WCETs).

        ``max_cycles`` and ``max_wall_s`` arm the co-simulation watchdog: a
        run whose slowest core passes ``max_cycles`` without halting, or
        that exceeds the wall-clock budget, raises a structured
        :class:`~repro.errors.SimulationTimeout` instead of spinning — the
        resilience guard the sweep runners rely on to contain hung cells.
        """
        sims, arbiter, scheduler_stats = self._run_cosim(
            strict, max_bundles, max_cycles=max_cycles, max_wall_s=max_wall_s)
        result = CmpResult(num_cores=self.num_cores, schedule=self.schedule,
                           arbiter=self.arbiter_kind,
                           arbiter_stats=arbiter.stats_summary(),
                           scheduler=scheduler_stats["scheduler"],
                           scheduler_stats=scheduler_stats,
                           fault_log=self.fault_log)
        for core_id, sim in enumerate(sims):
            wcet = self._analyse_core(core_id) if analyse else None
            result.cores.append(CoreResult(core_id=core_id,
                                           sim=sim.result(), wcet=wcet))
        return result

    def _run_cosim(self, strict: bool, max_bundles: int,
                   max_cycles: Optional[int] = None,
                   max_wall_s: Optional[float] = None
                   ) -> tuple[list, MemoryArbiter, dict]:
        """Interleave all cores on one clock against the shared arbiter."""
        arbiter = self._arbiter_template
        arbiter.reset()
        plan = self.faults
        injector = (FaultInjector(plan, self.num_cores)
                    if plan is not None and not plan.empty else None)
        self._injector = injector
        self.fault_log = injector.log if injector is not None else None
        deadline = (time.monotonic() + max_wall_s
                    if max_wall_s is not None else None)
        watchdog = {"max_cycles": max_cycles, "deadline": deadline,
                    "max_wall_s": max_wall_s}
        # Memory flips force the quantum scheduler: a flip can change
        # data-dependent control flow and with it the request stream, so
        # every slice must be clipped to the next flip cycle.  The
        # reference interpreter has no recorder and polls too.
        flips = injector is not None and plan.has_memory_faults
        if self.scheduler == "event" and self.engine == "fast" and not flips:
            if self._replays_traces:
                cores, stats = self._schedule_replay(arbiter, strict,
                                                     max_bundles, **watchdog)
            else:
                cores = self._build_cores(arbiter, strict)
                stats = self._schedule_event(cores, arbiter, max_bundles,
                                             **watchdog)
        else:
            cores = self._build_cores(arbiter, strict)
            stats = self._schedule_quantum(
                cores, arbiter, max_bundles,
                injector=injector if flips else None, **watchdog)
        return cores, arbiter, stats

    def _core_port(self, arbiter: MemoryArbiter, core_id: int):
        """One core's port on the shared arbiter, fault-wrapped if planned."""
        port = arbiter.port(core_id)
        if self._injector is not None:
            port = self._injector.port(port, core_id)
        return port

    def _check_watchdog(self, cycle: int, core_id: int,
                        max_cycles: Optional[int],
                        deadline: Optional[float],
                        max_wall_s: Optional[float]) -> None:
        """Raise a structured timeout when a watchdog budget is exhausted."""
        if max_cycles is not None and cycle >= max_cycles:
            raise SimulationTimeout(
                f"core {core_id} reached the watchdog limit of "
                f"{max_cycles} cycles without halting", kind="cycles",
                limit=max_cycles, cycle=cycle, core_id=core_id,
                max_cycles=max_cycles, max_wall_s=max_wall_s)
        if deadline is not None and time.monotonic() >= deadline:
            raise SimulationTimeout(
                f"co-simulation exceeded its wall-clock budget of "
                f"{max_wall_s:g} s", kind="wall_clock", limit=max_wall_s,
                cycle=cycle, core_id=core_id,
                max_cycles=max_cycles, max_wall_s=max_wall_s)

    def _build_cores(self, arbiter: MemoryArbiter, strict: bool) -> list:
        """Create the shared memory and one execution agent per core.

        The default builds one :class:`CycleSimulator` per image over one
        shared physical memory, with each core owning a private zero-copy
        bank view sized by its own MemoryConfig (all equal, validated at
        construction); the quantum scheduler steps them.  Subclasses swap
        in different per-core agents — the RTOS layer (:mod:`repro.rtos`)
        returns preemptive task runtimes that multiplex several programs on
        each core — as long as every agent speaks the scheduler protocols:
        ``cycles``/``run_step``/``result`` for the quantum scheduler, plus
        the :class:`~repro.sim.engine.EngineContext` ``advance`` protocol
        for :meth:`_schedule_event`.
        """
        shared_memory = self._new_shared_memory()
        bank_bytes = self.config.memory.size_bytes
        cores = []
        for core_id, (image, config) in enumerate(
                zip(self.images, self.configs)):
            bank = MainMemory.view(shared_memory, core_id * bank_bytes,
                                   bank_bytes)
            cores.append(CycleSimulator(
                image, config=config, strict=strict,
                arbiter=self._core_port(arbiter, core_id), core_id=core_id,
                memory=bank, engine=self.engine,
                hierarchy_options=self.hierarchy_options))
        return cores

    def _new_shared_memory(self) -> MainMemory:
        """The physical memory of one run: one bank per core."""
        self.shared_memory = MainMemory(
            self.config.memory.size_bytes * self.num_cores)
        return self.shared_memory

    #: Cycles a core may run between wall-clock watchdog probes.
    _WATCHDOG_CHUNK = 65_536

    def _run_alone(self, core, core_id: int, max_bundles: int,
                   max_cycles: Optional[int], deadline: Optional[float],
                   max_wall_s: Optional[float]) -> None:
        """Run one core to its halt without interleaving, under the watchdog.

        The core stops at ``max_cycles`` (and every
        :attr:`_WATCHDOG_CHUNK` cycles for wall-clock probes) to let the
        watchdog fire.
        """
        while True:
            horizon = max_cycles
            if deadline is not None:
                chunk = core.cycles + self._WATCHDOG_CHUNK
                horizon = chunk if horizon is None else min(horizon, chunk)
            if core.run_step(until_cycle=horizon,
                             max_bundles=max_bundles) == "halted":
                return
            self._check_watchdog(core.cycles, core_id, max_cycles, deadline,
                                 max_wall_s)

    @staticmethod
    def _tie_ranks(arbiter: MemoryArbiter, num_cores: int):
        """Heap tie ranks, and whether ties must ask the arbiter instead."""
        ranks = arbiter.tie_ranks()
        if ranks is None:
            return range(num_cores), True
        return ranks, False

    @staticmethod
    def _pop_next(heap: list, arbiter: MemoryArbiter,
                  dynamic_ties: bool) -> tuple[int, int]:
        """Pop the next core to serve: ``(stamp, core_id)``.

        The heap is keyed on ``(stamp, tie_rank, core_id)``.  Under an
        arbiter whose service order of simultaneous requests rotates
        (round-robin), the arbiter picks among the cores tied at the
        earliest stamp and the rest are re-queued.
        """
        stamp, rank, core_id = heapq.heappop(heap)
        if dynamic_ties and heap and heap[0][0] == stamp:
            entries = [(stamp, rank, core_id)]
            while heap and heap[0][0] == stamp:
                entries.append(heapq.heappop(heap))
            core_id = arbiter.preferred_core([entry[2] for entry in entries])
            for entry in entries:
                if entry[2] != core_id:
                    heapq.heappush(heap, entry)
        return stamp, core_id

    def _core_trace(self, core_id: int, strict: bool, max_bundles: int,
                    max_cycles: Optional[int], deadline: Optional[float],
                    max_wall_s: Optional[float]) -> tuple[CoreTrace, bool]:
        """One core's trace, from its image's cache or recorded now.

        Returns the trace and whether it was recorded by this call
        (:func:`~repro.cmp.replay.recorded_trace`).  A recording runs the
        core alone with zero-wait arbitration through
        :meth:`~repro.sim.base.BaseSimulator.run_step` on the fast engine.
        A replayed clock never runs behind the recorded one, so a recording
        that reaches ``max_cycles`` proves the co-simulation would too; it
        raises the watchdog timeout and is not cached.
        """
        return recorded_trace(
            self.images[core_id], self.configs[core_id], strict,
            self.hierarchy_options, max_bundles,
            drive=lambda recorder: self._run_alone(
                recorder, core_id, max_bundles, max_cycles, deadline,
                max_wall_s))

    def _schedule_replay(self, arbiter: MemoryArbiter, strict: bool,
                         max_bundles: int,
                         max_cycles: Optional[int] = None,
                         deadline: Optional[float] = None,
                         max_wall_s: Optional[float] = None
                         ) -> tuple[list, dict]:
        """The event scheduler of plain cores: replay recorded traces.

        Every core's final bank contents come from its trace, and a
        :class:`~repro.cmp.replay.TraceReplay` re-derives its timing against
        its own (fault-wrapped, if planned) arbiter port.  A heap keyed on
        ``(next_request_cycle, tie_rank, core_id)`` releases the core with
        the earliest request bundle; simultaneous requests are served in
        the arbiter's preference order.  Requests therefore reach the shared
        arbiter exactly as under the quantum scheduler — sorted by global
        cycle, ties in hardware service order.  Under an order-independent
        arbiter (TDMA) every grant is a pure function of the requesting
        core and cycle, so each core replays start to finish on its own.

        Returns one :class:`~repro.cmp.replay.ReplayOutcome` per core and
        the scheduler statistics.  Each distinct set of traces and
        arbitration is replayed once: the outcomes, the statistics and the
        arbiter's final state are kept on the first core's trace
        (``CoreTrace.replays``), and a later run of the same traces under
        the same arbitration (:meth:`_replay_key`) restores those instead;
        an outcome builds its result afresh on every call.  Runs with a
        fault plan, an armed watchdog or a caller's arbiter object always
        replay.

        The cycle watchdog fires at the first request bundle at or past
        ``max_cycles``, or when a core is still running at that cycle.
        """
        shared_memory = self._new_shared_memory()
        bank_bytes = self.config.memory.size_bytes
        traces = []
        recorded = 0
        for core_id in range(self.num_cores):
            trace, fresh = self._core_trace(core_id, strict, max_bundles,
                                            max_cycles, deadline, max_wall_s)
            recorded += fresh
            shared_memory.load_regions(trace.memory,
                                       base=core_id * bank_bytes)
            traces.append(trace)
        watched = max_cycles is not None or deadline is not None
        key = (None if watched or self._injector is not None
               else self._replay_key(traces))
        if key is not None:
            memo = traces[0].replays.get(key)
            if memo is not None:
                outcomes, stats, state = memo
                arbiter.restore(state)
                trace_counts["replays_reused"] += 1
                return list(outcomes), {**stats, "recorded": recorded}
        replays = [TraceReplay(trace, self._core_port(arbiter, core_id),
                               config)
                   for core_id, (trace, config) in enumerate(
                       zip(traces, self.configs))]
        replay_started = time.perf_counter()

        def finished(core_id: int) -> None:
            if watched:  # the last cycle the core is still running
                self._check_watchdog(replays[core_id].cycles - 1, core_id,
                                     max_cycles, deadline, max_wall_s)

        releases = 0
        if arbiter.order_independent:
            for core_id, replay in enumerate(replays):
                replay.advance(ordered=False)
                finished(core_id)
        else:
            ranks, dynamic_ties = self._tie_ranks(arbiter, len(replays))
            heap = []
            for core_id, replay in enumerate(replays):
                stamp = replay.advance(granted=False)
                if stamp is None:
                    finished(core_id)
                else:
                    heap.append((stamp, ranks[core_id], core_id))
            heapq.heapify(heap)
            while heap:
                stamp, core_id = self._pop_next(heap, arbiter, dynamic_ties)
                releases += 1
                if watched:
                    self._check_watchdog(stamp, core_id, max_cycles,
                                         deadline, max_wall_s)
                stamp = replays[core_id].advance()
                if stamp is None:
                    finished(core_id)
                else:
                    heapq.heappush(heap, (stamp, ranks[core_id], core_id))
        trace_counts["replays"] += 1
        trace_counts["replay_s"] += time.perf_counter() - replay_started
        outcomes = [replay.outcome() for replay in replays]
        stats = {"scheduler": "event", "slices": len(replays) + releases,
                 "releases": releases}
        if key is not None:
            # The outcomes hold their traces, so no id in the key can be
            # reused while the entry lives.
            traces[0].replays[key] = (tuple(outcomes), stats,
                                      arbiter.snapshot())
        return outcomes, {**stats, "recorded": recorded}

    def _replay_key(self, traces: list) -> Optional[tuple]:
        """The replay memo's key of ``traces`` on this system: the
        arbitration, the memory timing (one for all cores) and each trace's
        identity and store-buffer size, all a replay reads besides the
        traces; ``None`` under a caller's arbiter object."""
        if self._arbitration is None:
            return None
        return self._arbitration, self.config.memory, tuple(
            (id(trace), config.pipeline.store_buffer_entries)
            for trace, config in zip(traces, self.configs))

    def _schedule_event(self, cores: list,
                        arbiter: MemoryArbiter, max_bundles: int,
                        max_cycles: Optional[int] = None,
                        deadline: Optional[float] = None,
                        max_wall_s: Optional[float] = None) -> dict:
        """Event-driven interleaving of event-protocol agents (RTOS cores).

        Plain cores replay traces instead (:meth:`_schedule_replay`); this
        loop serves agents that must execute under co-simulation because
        interrupts and preemption change their cache state — the task
        runtimes of :mod:`repro.rtos`.  Every agent runs undisturbed until
        it is *about to* register a transfer with the shared arbiter; it
        pauses before that action and reports its clock — the exact cycle
        the request would carry.  The heap of :meth:`_pop_next` releases
        the paused agent with the earliest request, so requests reach the
        shared arbiter exactly as under the quantum scheduler.

        Every agent starts paused at cycle 0, so entry-point method-cache
        fills are ordered too.  Once a single agent remains, its requests
        can no longer interleave with anyone and it runs to completion
        without pausing.  Under an *order-independent* arbiter (TDMA) every
        agent simply runs start to finish on its own.
        """
        if arbiter.order_independent:
            for core_id, core in enumerate(cores):
                self._run_alone(core, core_id, max_bundles, max_cycles,
                                deadline, max_wall_s)
            return {"scheduler": "event", "slices": len(cores), "releases": 0}
        ranks, dynamic_ties = self._tie_ranks(arbiter, len(cores))
        heap: list[tuple[int, int, int]] = [
            (0, ranks[core_id], core_id) for core_id in range(len(cores))]
        heapq.heapify(heap)
        started = [False] * len(cores)
        slices = 0
        releases = 0
        while heap:
            stamp, core_id = self._pop_next(heap, arbiter, dynamic_ties)
            slices += 1
            if max_cycles is not None or deadline is not None:
                # Memory-event granularity: an agent pauses at every
                # arbitrated transfer, so the watchdog fires at the first
                # event past the budget (max_bundles bounds transfer-free
                # runaways).
                self._check_watchdog(stamp, core_id, max_cycles, deadline,
                                     max_wall_s)
            agent = cores[core_id]
            release = started[core_id]
            started[core_id] = True
            releases += release
            status = agent.advance(max_bundles, release=release,
                                   sync=bool(heap))
            if status == "sync":
                heapq.heappush(heap, (agent.cycles, ranks[core_id], core_id))
        return {"scheduler": "event", "slices": slices, "releases": releases}

    def _schedule_quantum(self, cores: list,
                          arbiter: MemoryArbiter, max_bundles: int,
                          injector: Optional[FaultInjector] = None,
                          max_cycles: Optional[int] = None,
                          deadline: Optional[float] = None,
                          max_wall_s: Optional[float] = None) -> dict:
        """Reference scheduler: quantum-bounded polling of the slowest core.

        Always advance the core with the smallest local clock (ties broken
        in the arbiter's service order), up to the next core's clock,
        yielding early on every arbitrated transfer.  Requests therefore
        reach the shared arbiter in global time order at bundle
        granularity.  The loop itself is allocation-free — one
        min/second-min scan per slice and a reused tie buffer — and on the
        fast engine each ``run_step`` resumes the core's one engine context,
        so a slice costs a context re-entry and an export.

        With an ``injector``, every slice is additionally clipped to the
        chosen core's next scheduled memory flip: the core pauses at the
        first bundle boundary at or after the flip cycle, the flip (or its
        ECC correction, whose latency is charged eagerly onto the core's
        clock, like the RTOS overhead charges) is applied, and the scan
        restarts.  Flips scheduled past a core's halt land on its final
        memory image without extending execution.
        """
        alive = [True] * len(cores)
        n_active = len(cores)
        tied: list[int] = []  # reused tie buffer
        slices = 0
        watchdog = max_cycles is not None or deadline is not None
        while n_active:
            min1 = min2 = -1  # smallest / second-smallest live clock
            core_id = -1
            tie = False
            for cid, core in enumerate(cores):
                if not alive[cid]:
                    continue
                cycles = core.cycles
                if core_id < 0 or cycles < min1:
                    min2 = min1 if core_id >= 0 else -1
                    min1 = cycles
                    core_id = cid
                    tie = False
                elif cycles == min1:
                    tie = True
                    min2 = min1
                elif min2 < 0 or cycles < min2:
                    min2 = cycles
            if tie:
                del tied[:]
                for cid, core in enumerate(cores):
                    if alive[cid] and core.cycles == min1:
                        tied.append(cid)
                core_id = arbiter.preferred_core(tied)
            sim = cores[core_id]
            slices += 1
            if watchdog:
                self._check_watchdog(sim.cycles, core_id, max_cycles,
                                     deadline, max_wall_s)
            if injector is not None:
                charged = injector.apply_due_memory_faults(
                    core_id, sim.cycles, sim)
                if charged:
                    # ECC correction latency moved the clock; re-scan so the
                    # next slice again goes to the slowest core.
                    sim.cycles += charged
                    continue
            if n_active > 1:
                # min(other cores' clocks) is min1 on a tie (another core
                # still sits at min1) and min2 otherwise.  The horizon lets
                # the chosen core run up to that clock but never *through*
                # it: a core catching up from behind yields exactly at clock
                # equality, so every simultaneous request is tie-broken by
                # the arbiter's preference order rather than by scheduling
                # history.  (own + 1 keeps a tied core progressing by at
                # least one bundle per slice.)
                others_min = min1 if tie else min2
                horizon = max(others_min, sim.cycles + 1)
            else:
                horizon = None
            if injector is not None:
                flip = injector.next_memory_fault_cycle(core_id)
                if flip is not None:
                    clip = max(flip, sim.cycles + 1)
                    horizon = clip if horizon is None else min(horizon, clip)
            if max_cycles is not None:
                horizon = (max_cycles if horizon is None
                           else min(horizon, max_cycles))
            elif deadline is not None and horizon is None:
                horizon = sim.cycles + self._WATCHDOG_CHUNK
            if horizon is None:
                reason = sim.run_step(max_bundles=max_bundles)
            else:
                reason = sim.run_step(until_cycle=horizon,
                                      stop_on_memory_event=n_active > 1,
                                      max_bundles=max_bundles)
            if reason == "halted":
                if injector is not None:
                    # Drain flips scheduled past the halt onto the final
                    # image; post-halt ECC corrections charge nothing (the
                    # core no longer executes).
                    injector.apply_due_memory_faults(core_id, _END_OF_TIME,
                                                     sim)
                alive[core_id] = False
                n_active -= 1
        stats = {"scheduler": "reference", "slices": slices}
        if injector is not None:
            stats["faults_executed"] = len(injector.log)
        return stats

    # ------------------------------------------------------------------
    # WCET
    # ------------------------------------------------------------------

    def wcet_options_for_core(self, core_id: int,
                              **overrides) -> Optional[WcetOptions]:
        """Arbiter-aware analysis options for one core.

        TDMA has an exact per-transfer interference bound from the schedule
        (refined to this core's own slot and each transfer's length);
        round-robin is bounded by ``(N - 1)`` maximal transfers; priority is
        bounded only for the top-priority core (``None`` for all others).
        ``overrides`` pass extra :class:`WcetOptions` fields through (e.g.
        cache analysis modes for the conformance harness).  The system's
        ``hierarchy_options`` contribute the matching cache-model fields
        automatically, so the bound always models the organisation the
        cores actually simulate (explicit overrides still win).
        """
        rank = 0
        if self.arbiter_kind == "priority":
            template = self._arbiter_template
            top = (template.top_core()
                   if isinstance(template, PriorityArbiter) else 0)
            rank = 0 if core_id == top else 1
        for key, value in self._hierarchy_wcet_overrides().items():
            overrides.setdefault(key, value)
        return WcetOptions.for_arbiter(
            self.arbiter_kind, self.num_cores, schedule=self.schedule,
            priority_rank=rank, core_id=core_id, **overrides)

    def _hierarchy_wcet_overrides(self) -> dict:
        """WcetOptions fields implied by the simulated cache organisation."""
        options = self.hierarchy_options
        if options is None:
            return {}
        mapped: dict = {}
        if options.conventional_icache:
            mapped["conventional_icache"] = True
        if options.unified_data_cache:
            mapped["unified_data_cache"] = True
        if options.ideal_data_caches:
            mapped["static_cache"] = "ideal"
            mapped["object_cache"] = "ideal"
        return mapped

    def _analyse_core(self, core_id: int) -> Optional[WcetResult]:
        options = self.wcet_options_for_core(core_id)
        if options is None:
            return None
        return analyze_wcet(self.images[core_id],
                            config=self.configs[core_id], options=options)


def single_core_reference(image: Image, config: PatmosConfig = DEFAULT_CONFIG,
                          strict: bool = False) -> CoreResult:
    """Run the same image on an unshared (single-core) memory for comparison.

    The simulation is the image's recording (:func:`~repro.cmp.replay.
    run_alone`), shared with every co-simulation of the image: read-only.
    """
    sim_result = run_alone(image, config, strict)
    wcet = analyze_wcet(image, config=config)
    return CoreResult(core_id=0, sim=sim_result, wcet=wcet)
