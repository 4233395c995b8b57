"""Per-core preemptive task schedulers driving resumable simulators.

:class:`CoreTaskRuntime` multiplexes the jobs of one core's
:class:`~repro.rtos.task.TaskSet` onto the cycle-accurate simulator.  Each
job runs on its own :class:`~repro.sim.cycle.CycleSimulator` over a private
memory bank (tasks have overlapping address layouts, so they cannot share a
bank), resumed across preemptions through the simulator's own engine
context (:meth:`~repro.sim.base.BaseSimulator.engine_context`); on resume
the job's clock is set forward to the core's over the cycles it was
switched out.  All cores still share one bus and arbiter — which is
exactly the interference the paper's TDMA story is about.

Two scheduling policies:

* ``"fixed_priority"`` — preemptive fixed-priority: the highest-priority
  released job runs; a release preempts at the next bundle boundary (the
  engine's ``until_cycle`` stepping checks the clock *before* every issue,
  so a bundle already issued runs to completion — the blocking term of the
  response-time analysis).
* ``"tdma_slot"`` — a non-work-conserving cyclic executive mirroring the
  paper's TDMA idea at the task level: task ``i`` owns every ``i``-th slot
  of ``task_slot_cycles`` cycles; outside its slot the core idles even if
  work is pending, which keeps each task's timing independent of the
  others' demand.

The runtime speaks *both* co-simulation scheduler protocols of
:class:`~repro.cmp.system.MulticoreSystem` and is driven by them unchanged:
``run_step``/``cycles`` for the quantum-polling reference scheduler and the
``advance`` event protocol for the event-driven one (a task runtime cannot
replay a recorded trace: interrupts and preemption change its cache state,
so it keeps executing under co-simulation).  The invariant
that makes the two bit-identical is that every scheduling overhead
(interrupt entry/exit, context switch, CRPD) is charged *eagerly* at its
decision point and touches no shared state, so whenever the runtime pauses
before an arbitrated request ("sync", or the pre-start pause before a
job's entry method-cache fill), its clock already equals the exact global
cycle the request will carry.
"""

from __future__ import annotations

from typing import Optional

from ..caches.hierarchy import HierarchyOptions
from ..config import PatmosConfig
from ..errors import RtosError
from ..faults.injector import FaultInjector
from ..sim.cycle import CycleSimulator
from ..sim.results import SimResult, StallBreakdown
from .interrupt import ReleaseEvent, build_timeline
from .task import RtosOptions, TaskSet

#: Task scheduling policies understood by :class:`CoreTaskRuntime`.
POLICIES = ("fixed_priority", "tdma_slot")

#: Runtime priority of a task degraded by the "degrade" overrun policy:
#: below every configurable priority, so the task only runs when nothing
#: else is ready (ties among degraded tasks break by task index as usual).
BACKGROUND_PRIORITY = 1 << 30


class _Job:
    """One task activation: release bookkeeping plus its private simulator."""

    __slots__ = ("task", "task_index", "job_index", "release", "start",
                 "finish", "sim", "started", "result", "killed")

    def __init__(self, task, task_index: int, job_index: int, release: int):
        self.task = task
        self.task_index = task_index
        self.job_index = job_index
        self.release = release
        self.start: Optional[int] = None
        self.finish: Optional[int] = None
        self.sim = None
        self.started = False
        self.result: Optional[SimResult] = None
        self.killed = False


def _merge_storm_releases(timeline: list[ReleaseEvent], storms
                          ) -> tuple[list[ReleaseEvent], frozenset]:
    """Merge injected storm releases into a pre-built release timeline.

    Job indices are reassigned per task in time order, so an overrun fault
    keyed on ``(task_index, job_index)`` addresses the merged timeline.
    Returns the merged timeline and the set of injected events (logged as
    ``"released"`` when delivered).  Natural releases sort before injected
    ones at the same instant, keeping delivery order deterministic.
    """
    entries = [(event.time, event.task_index, False) for event in timeline]
    for storm in storms:
        for k in range(storm.count):
            entries.append((storm.time + k * storm.spacing,
                            storm.task_index, True))
    entries.sort()
    counters: dict[int, int] = {}
    merged: list[ReleaseEvent] = []
    injected = set()
    for time, task_index, is_storm in entries:
        job_index = counters.get(task_index, 0)
        counters[task_index] = job_index + 1
        event = ReleaseEvent(time, task_index, job_index)
        merged.append(event)
        if is_storm:
            injected.add(event)
    return merged, frozenset(injected)


def _merge_stats(into: dict, extra: dict) -> None:
    """Key-wise numeric sum of nested statistics dicts."""
    for key, value in extra.items():
        if isinstance(value, dict):
            _merge_stats(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
        else:
            into.setdefault(key, value)


class CoreTaskRuntime:
    """Preemptive multi-task execution agent of one core.

    Drop-in replacement for a per-core :class:`CycleSimulator` in the
    multicore co-simulation schedulers (see the module docstring for the
    protocol contract).  ``banks`` must hold one full-size memory view per
    task of the set; ``horizon`` bounds the release timeline (every
    released job still runs to completion).
    """

    def __init__(self, core_id: int, taskset: TaskSet, config: PatmosConfig,
                 banks: list, arbiter_port, options: RtosOptions,
                 policy: str = "fixed_priority", horizon: int = 10_000,
                 seed: int = 0, engine: str = "fast", strict: bool = False,
                 hierarchy_options: Optional[HierarchyOptions] = None,
                 injector: Optional[FaultInjector] = None):
        if policy not in POLICIES:
            raise RtosError(f"unknown task scheduling policy {policy!r}; "
                            f"use one of {POLICIES}")
        if len(banks) != len(taskset.tasks):
            raise RtosError(f"{len(banks)} memory banks for "
                            f"{len(taskset.tasks)} tasks")
        self.core_id = core_id
        self.taskset = taskset
        self.config = config
        self.banks = banks
        self.arbiter_port = arbiter_port
        self.options = options
        self.policy = policy
        self.horizon = horizon
        self.engine = engine
        self.strict = strict
        self.hierarchy_options = hierarchy_options

        #: The pre-computed release timeline (interrupt model).
        self.timeline = build_timeline(taskset, horizon, core_id, seed)
        #: Fault-injection state (all inert without an injector): injected
        #: overruns by (task, job), storm-injected timeline events, tasks
        #: whose next release is shed, tasks demoted to background priority.
        self.injector = injector
        self._overruns = (injector.plan.overruns_for_core(core_id)
                          if injector is not None else {})
        self._storm_events: frozenset = frozenset()
        self._skip_next: set[int] = set()
        self._degraded: set[int] = set()
        self._killed: list[_Job] = []
        self._shed: dict[int, int] = {}
        if injector is not None:
            storms = injector.plan.storms_for_core(core_id)
            if storms:
                self.timeline, self._storm_events = \
                    _merge_storm_releases(self.timeline, storms)
        self._pos = 0
        self.ready: list[_Job] = []
        self.running: Optional[_Job] = None
        self.completed: list[_Job] = []

        #: The core's clock — the one global-time notion the co-simulation
        #: schedulers coordinate on.
        self.cycles = 0
        self.idle_cycles = 0
        self.overhead_cycles = 0
        self.context_switches = 0
        self.preemptions = 0
        self.interrupts = 0
        self._outputs: list[int] = []
        self._halted = False

    # ------------------------------------------------------------------
    # Co-simulation scheduler protocols
    # ------------------------------------------------------------------

    def run_step(self, until_cycle: Optional[int] = None,
                 stop_on_memory_event: bool = False,
                 max_bundles: int = 2_000_000) -> str:
        """Reference-protocol stepping (quantum scheduler / TDMA fast path)."""
        return self._drive(until_cycle, stop_on_memory_event, max_bundles,
                           event_mode=False, grant=False, sync_enabled=False)

    def advance(self, max_bundles: int, release: bool = False,
                sync: bool = True, until_cycle: Optional[int] = None,
                event_source=None) -> str:
        """Event-protocol stepping (heap scheduler).

        Pauses with ``"sync"`` *before* any action that would register an
        arbitrated transfer — a job's entry method-cache fill, or a flagged
        bundle inside the running job's engine context — with ``cycles``
        equal to the global cycle the request would carry.  ``release=True``
        grants exactly that pending action.
        """
        watch = event_source is not None
        return self._drive(until_cycle, watch, max_bundles,
                           event_mode=True, grant=release, sync_enabled=sync)

    # ------------------------------------------------------------------
    # The unified scheduling loop
    # ------------------------------------------------------------------

    def _drive(self, until_cycle: Optional[int], stop_on_events: bool,
               max_bundles: int, event_mode: bool, grant: bool,
               sync_enabled: bool) -> str:
        port = self.arbiter_port
        watch = stop_on_events and port is not None and not event_mode
        events_before = port.events if watch else 0
        while True:
            if self._pos >= len(self.timeline) and not self.ready \
                    and self.running is None:
                self._halted = True
                return "halted"
            if until_cycle is not None and self.cycles >= until_cycle:
                return "cycle_limit"
            if self._deliver_due():
                continue
            job = self._pick()
            if job is None:
                # Nothing eligible: idle until the next release (or, under
                # the slot policy, the next slot boundary — whichever is
                # first), clipped to the caller's horizon.
                wake = self._next_wake()
                target = wake if until_cycle is None \
                    else min(wake, until_cycle)
                if target > self.cycles:
                    self.idle_cycles += target - self.cycles
                    self.cycles = target
                continue
            if job is not self.running:
                self._dispatch(job)
                continue
            if not job.started:
                # The first bundle triggers the entry method-cache fill —
                # an arbitrated transfer at the current clock, so the event
                # protocol must pause for permission first.
                if event_mode and sync_enabled and not grant:
                    return "sync"
                grant = False
                self._start_job(job)
                if watch and port.events != events_before:
                    return "memory_event"
                continue
            job.sim.cycles = self.cycles  # resumes after any switched-out gap
            bound = self._next_decision()
            horizon = bound
            if until_cycle is not None:
                horizon = until_cycle if horizon is None \
                    else min(horizon, until_cycle)
            if self.engine == "fast":
                status = job.sim.engine_context().advance(
                    max_bundles, release=grant,
                    sync=event_mode and sync_enabled,
                    until_cycle=horizon,
                    event_source=port if watch else None)
                grant = False
            else:
                status = job.sim.run_step(
                    until_cycle=horizon, stop_on_memory_event=watch,
                    max_bundles=max_bundles)
            self.cycles = job.sim.cycles
            if status == "halted":
                self._finish(job)
                if watch and port.events != events_before:
                    return "memory_event"
                continue
            if status == "memory_event":
                return "memory_event"
            if status == "sync":
                return "sync"
            # "cycle_limit": the job reached a decision point (release due,
            # slot boundary, or the caller's horizon) — loop and re-decide.

    # ------------------------------------------------------------------
    # Scheduling decisions
    # ------------------------------------------------------------------

    def _deliver_due(self) -> bool:
        """Deliver every release with time <= now; returns True if any.

        Each delivery is an interrupt: the entry + exit cost is charged on
        the core's clock immediately (which may make further releases due —
        hence the loop), and the new job joins the ready queue.
        """
        delivered = False
        timeline = self.timeline
        cost = (self.options.interrupt_entry_cycles
                + self.options.interrupt_exit_cycles)
        while self._pos < len(timeline) \
                and timeline[self._pos].time <= self.cycles:
            event = timeline[self._pos]
            self._pos += 1
            task = self.taskset.tasks[event.task_index]
            self.interrupts += 1
            if cost:
                # The interrupt fires (and costs) even for a release the
                # overrun policy sheds — the handler runs to decide.
                self.cycles += cost
                self.overhead_cycles += cost
            delivered = True
            if self._skip_next and event.task_index in self._skip_next:
                self._skip_next.discard(event.task_index)
                self._shed[event.task_index] = \
                    self._shed.get(event.task_index, 0) + 1
                self.injector.log.append(
                    "overrun", "shed", event.time, self.core_id,
                    task=task.name, job=event.job_index)
                continue
            if self._storm_events and event in self._storm_events:
                self.injector.log.append(
                    "storm", "released", event.time, self.core_id,
                    task=task.name, job=event.job_index)
            self.ready.append(_Job(task, event.task_index, event.job_index,
                                   event.time))
        return delivered

    def _job_priority(self, job: _Job) -> int:
        """Runtime priority: the task's own, unless degraded to background."""
        if self._degraded and job.task_index in self._degraded:
            return BACKGROUND_PRIORITY
        return job.task.priority

    def _pick(self) -> Optional[_Job]:
        """The job that should own the core right now (None = idle)."""
        if self.policy == "fixed_priority":
            best = self.running
            best_key = None if best is None else \
                (self._job_priority(best), best.task_index, best.job_index)
            for job in self.ready:
                key = (self._job_priority(job), job.task_index,
                       job.job_index)
                if best_key is None or key < best_key:
                    best, best_key = job, key
            return best
        # tdma_slot: only the slot owner's earliest job may run.
        slot = self.options.task_slot_cycles
        owner = (self.cycles // slot) % len(self.taskset.tasks)
        best = None
        if self.running is not None and self.running.task_index == owner:
            best = self.running
        for job in self.ready:
            if job.task_index == owner and \
                    (best is None or job.job_index < best.job_index):
                best = job
        return best

    def _next_slot_boundary(self) -> int:
        slot = self.options.task_slot_cycles
        return (self.cycles // slot + 1) * slot

    def _next_wake(self) -> int:
        next_release = self.timeline[self._pos].time \
            if self._pos < len(self.timeline) else None
        if self.policy == "tdma_slot" and (self.ready or self.running):
            boundary = self._next_slot_boundary()
            return boundary if next_release is None \
                else min(boundary, next_release)
        # Fixed priority is work-conserving: idle implies nothing released,
        # so a release must be pending (the done-check ran first).
        return next_release

    def _next_decision(self) -> Optional[int]:
        """Clock bound of the running job: the next preemption check.

        ``None`` means the job can run to completion undisturbed (fixed
        priority with an exhausted release timeline).
        """
        nxt = self.timeline[self._pos].time \
            if self._pos < len(self.timeline) else None
        if self.policy == "tdma_slot":
            boundary = self._next_slot_boundary()
            nxt = boundary if nxt is None else min(nxt, boundary)
        return nxt

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def _dispatch(self, job: _Job) -> None:
        """Make ``job`` the running job, charging the switch cost."""
        self.ready.remove(job)
        if self.running is not None:
            self.ready.append(self.running)
            self.preemptions += 1
        self.running = job
        self.context_switches += 1
        cost = self.options.context_switch_cycles
        if job.started:
            # Resuming a previously started job: charge the configured
            # cache-related preemption delay on top of the switch.
            cost += self.options.preemption_reload_cycles
        if cost:
            self.cycles += cost
            self.overhead_cycles += cost

    def _start_job(self, job: _Job) -> None:
        """First execution: build the job's simulator at the current clock."""
        sim = CycleSimulator(
            job.task.image, config=self.config, strict=self.strict,
            arbiter=self.arbiter_port, core_id=self.core_id,
            memory=self.banks[job.task_index], engine=self.engine,
            hierarchy_options=self.hierarchy_options)
        sim.cycles = self.cycles
        job.sim = sim
        job.start = self.cycles
        job.started = True
        sim._ensure_started()  # entry method-cache fill at the current clock
        self.cycles = sim.cycles

    def _finish(self, job: _Job) -> None:
        result = job.sim.result()
        job.result = result
        job.sim = None
        if self._overruns:
            extra = self._overruns.pop((job.task_index, job.job_index), None)
            if extra is not None and self._apply_overrun(job, extra):
                # Watchdog killed the job: its output is discarded and it
                # is accounted separately from completed jobs.
                job.finish = self.cycles
                job.killed = True
                self._killed.append(job)
                self.running = None
                return
        job.finish = self.cycles
        expected = job.task.expected_output
        if expected and tuple(result.output) != expected:
            raise RtosError(
                f"core {self.core_id} task {job.task.name!r} job "
                f"{job.job_index}: output {result.output} != expected "
                f"{list(expected)}")
        self._outputs.extend(result.output)
        self.completed.append(job)
        self.running = None

    def _apply_overrun(self, job: _Job, extra: int) -> bool:
        """Charge an injected WCET overrun; True = the watchdog killed it.

        The job's real work is done (its simulator halted) — the overrun
        models ``extra`` further cycles of runaway execution.  The per-core
        watchdog budget is ``watchdog_factor * deadline`` from release; an
        overrun staying inside it is absorbed (outcome ``"overrun"``), one
        exceeding it trips the watchdog, which applies ``overrun_policy``.
        All charges are eager and local to this core's clock, preserving
        the bit-identity of the two co-simulation schedulers.
        """
        options = self.options
        log = self.injector.log
        budget = int(options.watchdog_factor * job.task.deadline)
        natural = self.cycles - job.release
        tripped = natural + extra > budget
        if tripped and options.overrun_policy == "kill_and_log":
            executed = max(0, budget - natural)
            self.cycles += executed
            log.append("overrun", "killed", self.cycles, self.core_id,
                       task=job.task.name, job=job.job_index, extra=extra,
                       executed=executed, budget=budget)
            return True
        self.cycles += extra
        if not tripped:
            log.append("overrun", "overrun", self.cycles, self.core_id,
                       task=job.task.name, job=job.job_index, extra=extra)
            return False
        if options.overrun_policy == "skip_next_release":
            self._skip_next.add(job.task_index)
            log.append("overrun", "overrun", self.cycles, self.core_id,
                       task=job.task.name, job=job.job_index, extra=extra,
                       policy="skip_next_release", budget=budget)
        else:  # degrade
            self._degraded.add(job.task_index)
            log.append("overrun", "degraded", self.cycles, self.core_id,
                       task=job.task.name, job=job.job_index, extra=extra,
                       budget=budget)
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> SimResult:
        """Aggregate :class:`SimResult` of everything the core executed."""
        stalls = StallBreakdown()
        bundles = instructions = nops = 0
        cache_stats: dict = {}
        block_counts: dict = {}
        call_counts: dict = {}
        for job in self.completed:
            res = job.result
            bundles += res.bundles
            instructions += res.instructions
            nops += res.nops
            for name in ("method_cache", "icache", "data_cache",
                         "stack_cache", "split_load_wait", "store_buffer",
                         "arbitration"):
                setattr(stalls, name,
                        getattr(stalls, name) + getattr(res.stalls, name))
            _merge_stats(cache_stats, res.cache_stats)
            for key, count in res.block_counts.items():
                block_counts[key] = block_counts.get(key, 0) + count
            for key, count in res.call_counts.items():
                call_counts[key] = call_counts.get(key, 0) + count
        return SimResult(
            cycles=self.cycles, bundles=bundles, instructions=instructions,
            nops=nops, output=list(self._outputs), stalls=stalls,
            block_counts=block_counts, call_counts=call_counts,
            cache_stats=cache_stats, halted=self._halted,
            issue_width=2 if self.config.pipeline.dual_issue else 1,
            idle_cycles=self.idle_cycles)

    def stats(self) -> dict:
        """Scheduler activity counters of this core."""
        return {
            "policy": self.policy,
            "jobs_released": self._pos,
            "jobs_completed": len(self.completed),
            "jobs_killed": len(self._killed),
            "jobs_shed": sum(self._shed.values()),
            "interrupts": self.interrupts,
            "context_switches": self.context_switches,
            "preemptions": self.preemptions,
            "overhead_cycles": self.overhead_cycles,
            "idle_cycles": self.idle_cycles,
        }

    def task_outcomes(self) -> list[dict]:
        """Per-task observed response-time statistics."""
        outcomes = []
        for index, task in enumerate(self.taskset.tasks):
            jobs = [job for job in self.completed if job.task_index == index]
            responses = [job.finish - job.release for job in jobs]
            released = sum(1 for event in self.timeline
                           if event.task_index == index)
            outcomes.append({
                "task": task.name,
                "kind": task.kind,
                "period": task.period,
                "deadline": task.deadline,
                "priority": task.priority,
                "jobs": released,
                "completed": len(jobs),
                "killed": sum(1 for job in self._killed
                              if job.task_index == index),
                "shed": self._shed.get(index, 0),
                "max_response": max(responses) if responses else None,
                "avg_response": (round(sum(responses) / len(responses), 1)
                                 if responses else None),
                "deadline_misses": sum(1 for r in responses
                                       if r > task.deadline),
            })
        return outcomes
