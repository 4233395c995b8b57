"""System-level RTOS co-simulation: multi-core task sets on the shared bus.

:class:`RtosSystem` plugs the per-core task runtimes
(:class:`~repro.rtos.scheduler.CoreTaskRuntime`) into the existing
multicore co-simulation machinery: the same shared physical memory, the
same pluggable arbiters, the same two bit-identical interleaving
schedulers.  What changes is only what each core *is* — a preemptive
multi-task runtime instead of a single bare-metal program — and what the
run returns: an :class:`RtosResult` pairing every task's observed response
times with its end-to-end analytical bound, checkable exactly like the
``cycles <= wcet`` claims of ``repro.verify``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from ..caches.hierarchy import HierarchyOptions
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import RtosError
from ..memory.arbiter import MemoryArbiter, PriorityArbiter
from ..memory.main_memory import MainMemory
from ..memory.tdma import TdmaSchedule
from ..wcet.analyzer import analyze_wcet
from ..cmp.system import MulticoreSystem
from .rta import TaskTiming, blocking_bound, response_time_bounds
from .scheduler import POLICIES, CoreTaskRuntime
from .task import RtosOptions, TaskSet


def default_horizon(tasksets: Sequence[TaskSet]) -> int:
    """Release horizon covering at least two jobs of every task."""
    return max(task.offset + 2 * task.period
               for taskset in tasksets for task in taskset.tasks)


@dataclass
class TaskReport:
    """Observed and analytical timing of one task."""

    core: int
    name: str
    kind: str
    period: int
    deadline: int
    priority: int
    jobs: int
    completed: int
    max_response: Optional[int]
    avg_response: Optional[float]
    deadline_misses: int
    wcet_cycles: Optional[int]
    rta_bound: Optional[int]
    #: Jobs terminated by the overrun watchdog / releases shed by the
    #: "skip_next_release" policy (fault injection; zero without faults).
    killed: int = 0
    shed: int = 0

    @property
    def sound(self) -> Optional[bool]:
        """observed <= bound; ``None`` when either side is unavailable."""
        if self.max_response is None or self.rta_bound is None:
            return None
        return self.max_response <= self.rta_bound

    @property
    def tightness(self) -> Optional[float]:
        """bound / observed (>= 1.0 when sound)."""
        if not self.max_response or self.rta_bound is None:
            return None
        return self.rta_bound / self.max_response


@dataclass
class RtosResult:
    """Results of co-simulating task sets on the chip multiprocessor."""

    num_cores: int
    policy: str
    arbiter: str
    scheduler: Optional[str]
    horizon: int
    options: RtosOptions
    tasks: list[TaskReport] = field(default_factory=list)
    per_core: list[dict] = field(default_factory=list)
    arbiter_stats: Optional[dict] = None
    scheduler_stats: Optional[dict] = None
    #: Per-core non-preemptive blocking bound fed into the analysis.
    blocking: list = field(default_factory=list)
    #: Executed fault events (``None`` when the system had no fault plan).
    fault_log: Optional[object] = None

    @property
    def makespan(self) -> int:
        return max(row["cycles"] for row in self.per_core)

    def violations(self) -> list[TaskReport]:
        """Tasks whose observed response exceeded the analytical bound.

        An unavailable bound (``None`` — un-analysable arbiter or a
        non-converging fixpoint) is *no claim*, hence never a violation;
        a deadline miss is data, not unsoundness.
        """
        return [task for task in self.tasks if task.sound is False]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.rtos/v1",
            "num_cores": self.num_cores,
            "policy": self.policy,
            "arbiter": self.arbiter,
            "scheduler": self.scheduler,
            "horizon": self.horizon,
            "options": asdict(self.options),
            "makespan": self.makespan,
            "tasks": [dict(asdict(task), sound=task.sound)
                      for task in self.tasks],
            "per_core": list(self.per_core),
            "arbiter_stats": self.arbiter_stats,
            "scheduler_stats": self.scheduler_stats,
            "blocking": list(self.blocking),
            "violations": len(self.violations()),
            # Outcome counts only: record *order* may differ between the
            # two co-simulation schedulers (cores interleave differently),
            # the executed events themselves do not.
            "fault_counts": (self.fault_log.counts()
                             if self.fault_log is not None else None),
        }

    def timing_dict(self) -> dict:
        """The scheduler-independent timing view (golden determinism tests:
        event-driven and reference runs must agree on every entry)."""
        data = self.to_dict()
        data.pop("scheduler")
        data.pop("scheduler_stats")
        return data

    def table(self) -> str:
        """Aligned per-task text table (the CLI's main output)."""
        headers = ("core", "task", "kind", "prio", "period", "jobs", "done",
                   "max_resp", "avg_resp", "miss", "wcet", "bound", "sound")
        rows = [headers]
        for task in self.tasks:
            rows.append((
                str(task.core), task.name, task.kind, str(task.priority),
                str(task.period), str(task.jobs), str(task.completed),
                str(task.max_response), str(task.avg_response),
                str(task.deadline_misses), str(task.wcet_cycles),
                str(task.rta_bound),
                {True: "yes", False: "VIOLATION", None: "-"}[task.sound]))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(widths[i])
                           for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def summary(self) -> str:
        violations = self.violations()
        lines = [
            f"policy      : {self.policy} ({self.arbiter} arbiter, "
            f"{self.num_cores} cores)",
            f"makespan    : {self.makespan} cycles",
            f"tasks       : {len(self.tasks)} "
            f"({sum(t.completed for t in self.tasks)} jobs completed)",
            f"violations  : {len(violations)}",
        ]
        for task in violations:
            lines.append(f"  UNSOUND {task.name}: observed "
                         f"{task.max_response} > bound {task.rta_bound}")
        return "\n".join(lines)


class RtosSystem(MulticoreSystem):
    """N preemptive multi-task cores sharing one memory and arbiter.

    ``tasksets`` gives one :class:`TaskSet` per core.  Every task owns a
    private full-size memory bank (task images have overlapping address
    layouts, so a mid-run job construction must not clobber a preempted
    neighbour), while the bus and arbiter stay shared — the inter-core
    interference the WCET options model.  All
    :class:`~repro.cmp.system.MulticoreSystem` arbitration and scheduler
    keywords pass through unchanged; ``policy`` picks the per-core task
    scheduler, ``options`` the RTOS cost model, ``horizon`` the release
    timeline length and ``seed`` the sporadic release streams.

    ``faults`` accepts bus, interrupt-storm and WCET-overrun events (memory
    flips make no sense against the per-task full-size banks and are
    rejected); storms merge into the release timelines and overruns
    exercise the per-core watchdog and the configured ``overrun_policy``.
    """

    _fault_kinds = ("bus", "storm", "overrun")
    #: Task runtimes execute under co-simulation (event protocol).
    _replays_traces = False

    def __init__(self, tasksets: Sequence[Union[TaskSet, Sequence]],
                 config: PatmosConfig = DEFAULT_CONFIG,
                 configs: Optional[Sequence[PatmosConfig]] = None,
                 arbiter: Union[str, MemoryArbiter] = "tdma",
                 schedule: Optional[TdmaSchedule] = None,
                 slot_weights: Optional[Sequence[int]] = None,
                 priorities: Optional[Sequence[int]] = None,
                 policy: str = "fixed_priority",
                 options: Optional[RtosOptions] = None,
                 horizon: Optional[int] = None, seed: int = 0,
                 engine: str = "fast", scheduler: str = "event",
                 hierarchy_options: Optional[HierarchyOptions] = None,
                 faults=None):
        if not tasksets:
            raise RtosError("an RTOS system needs at least one core task set")
        coerced = [taskset if isinstance(taskset, TaskSet)
                   else TaskSet(tuple(taskset)) for taskset in tasksets]
        if policy not in POLICIES:
            raise RtosError(f"unknown task scheduling policy {policy!r}; "
                            f"use one of {POLICIES}")
        # The placeholder images satisfy the base validation (core count,
        # shared MemoryConfig, arbiter sizing); execution never uses them.
        super().__init__([ts.tasks[0].image for ts in coerced],
                         config=config, configs=configs, arbiter=arbiter,
                         schedule=schedule, slot_weights=slot_weights,
                         priorities=priorities, engine=engine,
                         scheduler=scheduler,
                         hierarchy_options=hierarchy_options, faults=faults)
        self.tasksets = coerced
        self.policy = policy
        self.options = options if options is not None \
            else RtosOptions.for_config(self.config)
        self.horizon = horizon if horizon is not None \
            else default_horizon(coerced)
        if self.horizon <= 0:
            raise RtosError("the release horizon must be positive")
        self.seed = seed
        self._runtimes: Optional[list[CoreTaskRuntime]] = None

    # ------------------------------------------------------------------
    # Core construction (co-simulation hook)
    # ------------------------------------------------------------------

    def _build_cores(self, arbiter: MemoryArbiter, strict: bool) -> list:
        bank_bytes = self.config.memory.size_bytes
        offsets = []
        total = 0
        for taskset in self.tasksets:
            offsets.append(total)
            total += len(taskset.tasks)
        shared_memory = MainMemory(bank_bytes * total)
        self.shared_memory = shared_memory
        cores = []
        for core_id, taskset in enumerate(self.tasksets):
            banks = [MainMemory.view(shared_memory,
                                     (offsets[core_id] + index) * bank_bytes,
                                     bank_bytes)
                     for index in range(len(taskset.tasks))]
            cores.append(CoreTaskRuntime(
                core_id=core_id, taskset=taskset,
                config=self.configs[core_id], banks=banks,
                arbiter_port=self._core_port(arbiter, core_id),
                options=self.options,
                policy=self.policy, horizon=self.horizon, seed=self.seed,
                engine=self.engine, strict=strict,
                hierarchy_options=self.hierarchy_options,
                injector=self._injector))
        self._runtimes = cores
        return cores

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, analyse: bool = True, strict: bool = False,
            max_bundles: int = 2_000_000, max_cycles: Optional[int] = None,
            max_wall_s: Optional[float] = None) -> RtosResult:
        """Co-simulate the task sets; optionally attach response bounds."""
        cores, arbiter, scheduler_stats = self._run_cosim(
            strict, max_bundles, max_cycles=max_cycles,
            max_wall_s=max_wall_s)
        analysis = self.analyse() if analyse else None
        result = RtosResult(
            num_cores=self.num_cores, policy=self.policy,
            arbiter=self.arbiter_kind,
            scheduler=scheduler_stats["scheduler"],
            horizon=self.horizon, options=self.options,
            arbiter_stats=arbiter.stats_summary(),
            scheduler_stats=scheduler_stats,
            fault_log=self.fault_log,
            blocking=[analysis[core_id]["blocking"] if analysis else None
                      for core_id in range(self.num_cores)])
        for core_id, runtime in enumerate(cores):
            sim = runtime.result()
            stats = runtime.stats()
            metrics = sim.metrics()
            result.per_core.append({
                "core": core_id,
                "cycles": sim.cycles,
                "bundles": sim.bundles,
                "arbitration_cycles": metrics["arbitration_cycles"],
                "words_transferred": metrics["words_transferred"],
                **stats,
            })
            for index, outcome in enumerate(runtime.task_outcomes()):
                core_analysis = analysis[core_id] if analysis else None
                result.tasks.append(TaskReport(
                    core=core_id, name=outcome["task"],
                    kind=outcome["kind"], period=outcome["period"],
                    deadline=outcome["deadline"],
                    priority=outcome["priority"], jobs=outcome["jobs"],
                    completed=outcome["completed"],
                    max_response=outcome["max_response"],
                    avg_response=outcome["avg_response"],
                    deadline_misses=outcome["deadline_misses"],
                    wcet_cycles=(core_analysis["wcets"][index]
                                 if core_analysis else None),
                    rta_bound=(core_analysis["bounds"][index]
                               if core_analysis else None),
                    killed=outcome["killed"], shed=outcome["shed"]))
        return result

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _wait_bound(self, core_id: int) -> Optional[int]:
        """Worst per-transfer bus wait of this core (None = unbounded)."""
        burst = self.config.memory.burst_cycles()
        if self.arbiter_kind == "tdma":
            return self.schedule.worst_case_wait()
        if self.num_cores == 1:
            return 0
        if self.arbiter_kind == "round_robin":
            return (self.num_cores - 1) * burst
        if self.arbiter_kind == "priority":
            template = self._arbiter_template
            top = (template.top_core()
                   if isinstance(template, PriorityArbiter) else 0)
            return burst if core_id == top else None
        return None

    def analyse(self) -> list[dict]:
        """Per-core WCETs, blocking and response-time bounds.

        Each core's ``C_i`` uses the arbiter-aware
        :meth:`wcet_options_for_core` (cross-core memory interference lives
        inside the per-task WCET; the response-time analysis adds only the
        intra-core terms).  An un-analysable arbiter yields ``None``
        everywhere — no claim rather than a wrong one.
        """
        analysis = []
        for core_id, taskset in enumerate(self.tasksets):
            wcet_options = self.wcet_options_for_core(core_id)
            config = self.configs[core_id]
            wcets: list[Optional[int]] = []
            for task in taskset.tasks:
                if wcet_options is None:
                    wcets.append(None)
                else:
                    wcets.append(analyze_wcet(
                        task.image, config=config,
                        options=wcet_options).wcet_cycles)
            blocking = blocking_bound(
                [task.image for task in taskset.tasks], config,
                self._wait_bound(core_id))
            timings = [TaskTiming(name=task.name, period=task.period,
                                  deadline=task.deadline,
                                  priority=task.priority,
                                  wcet_cycles=wcets[index])
                       for index, task in enumerate(taskset.tasks)]
            bounds = response_time_bounds(timings, self.options, blocking,
                                          self.policy)
            analysis.append({"wcets": wcets, "blocking": blocking,
                             "bounds": bounds})
        return analysis
