"""Tasks, per-core task sets and the RTOS cost model.

A :class:`Task` is a linked :class:`~repro.program.linker.Image` plus its
real-time parameters (period or minimal inter-arrival time, deadline,
priority); a :class:`TaskSet` is the group of tasks sharing one core.  The
cost model (:class:`RtosOptions`) makes the kernel overheads — interrupt
entry/exit, context switches and the cache-related preemption delay —
explicit architectural constants, the same way the paper insists every
latency is exposed rather than averaged away.

:func:`synthesize_tasksets` generates seeded random task sets over the
short-running RTOS kernel suite; it is the workload generator behind the
``repro.explore`` task-set axes and the property tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..compiler import compile_and_link
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import RtosError
from ..program.linker import Image
from ..wcet.analyzer import analyze_wcet
from ..workloads.kernel import Kernel
from ..workloads.images import compiled_kernel
from ..workloads.suite import SUITES

#: Task activation models: strictly periodic releases (``offset + k*period``)
#: or sporadic releases at least ``period`` cycles apart (up to ``jitter``
#: extra spacing, drawn from a seeded stream).
TASK_KINDS = ("periodic", "sporadic")


@dataclass(frozen=True)
class Task:
    """One real-time task: a program image plus its timing parameters.

    ``priority`` follows the usual convention: *smaller number = higher
    priority*.  ``period`` is the exact release period of a periodic task
    and the minimal inter-arrival time of a sporadic one — which is why the
    response-time analysis may treat both identically.  ``expected_output``
    is the reference ``out`` trace of one job (empty = unchecked); every
    completed job is verified against it, mirroring how the conformance
    harness refuses to trust broken executions.
    """

    name: str
    image: Image
    period: int
    priority: int
    deadline: int = 0            # 0 = implicit deadline (== period)
    kind: str = "periodic"
    offset: int = 0              # release of the first job
    jitter: int = 0              # sporadic: max extra spacing beyond period
    expected_output: tuple[int, ...] = ()

    def __post_init__(self):
        if self.period <= 0:
            raise RtosError(f"task {self.name!r}: period must be positive")
        if self.kind not in TASK_KINDS:
            raise RtosError(f"task {self.name!r}: unknown kind "
                            f"{self.kind!r}; use one of {TASK_KINDS}")
        if self.deadline == 0:
            object.__setattr__(self, "deadline", self.period)
        if self.deadline <= 0:
            raise RtosError(f"task {self.name!r}: deadline must be positive")
        if self.offset < 0 or self.jitter < 0:
            raise RtosError(
                f"task {self.name!r}: offset and jitter must be >= 0")
        object.__setattr__(self, "expected_output",
                           tuple(self.expected_output))


def task_from_kernel(kernel: Kernel, period: int, priority: int,
                     config: PatmosConfig = DEFAULT_CONFIG,
                     name: Optional[str] = None, **params) -> Task:
    """Compile a workload kernel into a :class:`Task`.

    The kernel's pure-Python reference output becomes the task's per-job
    functional check.  Extra keyword parameters pass through to
    :class:`Task` (``deadline``, ``kind``, ``offset``, ``jitter``).
    """
    image, _ = compile_and_link(kernel.program, config)
    return Task(name=name or kernel.name, image=image, period=period,
                priority=priority,
                expected_output=tuple(kernel.expected_output), **params)


@dataclass(frozen=True)
class TaskSet:
    """The tasks sharing one core, in task-index order.

    The task *index* (position in ``tasks``) is the global tie-breaker for
    equal priorities and the slot order of the TDMA-slot task scheduler, so
    it is part of the model, not an implementation detail.
    """

    tasks: tuple[Task, ...]

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if not tasks:
            raise RtosError("a task set needs at least one task")
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise RtosError(f"duplicate task names in task set: {names}")
        object.__setattr__(self, "tasks", tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def hyperperiod(self) -> int:
        value = 1
        for task in self.tasks:
            value = value * task.period // math.gcd(value, task.period)
        return value

    def rate_monotonic(self) -> "TaskSet":
        """The same tasks with rate-monotonic priorities (shorter period =
        higher priority, ties broken by task index)."""
        order = sorted(range(len(self.tasks)),
                       key=lambda i: (self.tasks[i].period, i))
        priority_of = {index: rank for rank, index in enumerate(order)}
        return TaskSet(tuple(
            replace(task, priority=priority_of[index])
            for index, task in enumerate(self.tasks)))


#: Watchdog responses to a job overrunning its execution budget.
OVERRUN_POLICIES = ("kill_and_log", "skip_next_release", "degrade")


@dataclass(frozen=True)
class RtosOptions:
    """Architectural costs of the RTOS machinery, in cycles.

    Every constant is charged *eagerly* on the core's clock at the decision
    point — interrupt entry+exit at each release delivery, a context switch
    at each dispatch, the cache-related preemption delay (CRPD) whenever an
    already-started job is resumed.  None of these actions touches the
    shared bus, which keeps the charge local and the co-simulation
    schedulers bit-identical.

    ``preemption_reload_cycles`` defaults to 0 because each job runs on a
    private simulator whose caches survive preemption untouched (and the
    per-task WCET already assumes a cold start); a non-zero value models
    the CRPD of a shared-cache implementation and flows into both the
    simulation and the response-time bounds.

    ``task_slot_cycles`` is the uniform per-task slot of the TDMA-slot
    (cyclic-executive) task scheduler; it must fit at least the scheduler
    overheads or no response-time bound exists.

    ``overrun_policy`` and ``watchdog_factor`` configure the per-core
    execution watchdog exercised by the fault-injection layer
    (:mod:`repro.faults`): a job still executing
    ``watchdog_factor * deadline`` cycles after its release trips the
    watchdog, which applies the policy — ``"kill_and_log"`` terminates the
    job at the budget (its output is discarded), ``"skip_next_release"``
    lets the job finish but sheds the task's next pending release, and
    ``"degrade"`` lets it finish but demotes the task to background
    priority for the rest of the run.
    """

    interrupt_entry_cycles: int = 4
    interrupt_exit_cycles: int = 4
    context_switch_cycles: int = 10
    preemption_reload_cycles: int = 0
    task_slot_cycles: int = 400
    overrun_policy: str = "kill_and_log"
    watchdog_factor: float = 2.0

    @classmethod
    def for_config(cls, config: PatmosConfig, **overrides) -> "RtosOptions":
        """Costs derived from the pipeline organisation.

        Interrupt entry flushes the fetch stages and redirects to the
        handler (like a taken branch: the exposed branch delay plus vector
        fetch); exit mirrors a return (call delay).  A context switch
        saves and restores the register context through the scratchpad —
        modelled as a constant plus both control transfers.
        """
        pipe = config.pipeline
        defaults = {
            "interrupt_entry_cycles": 2 + pipe.branch_delay_slots,
            "interrupt_exit_cycles": 1 + pipe.call_delay_slots,
            "context_switch_cycles": 4 + 2 * pipe.call_delay_slots,
        }
        defaults.update(overrides)
        return cls(**defaults)

    def __post_init__(self):
        for name in ("interrupt_entry_cycles", "interrupt_exit_cycles",
                     "context_switch_cycles", "preemption_reload_cycles"):
            if getattr(self, name) < 0:
                raise RtosError(f"{name} must be >= 0")
        if self.task_slot_cycles <= 0:
            raise RtosError("task_slot_cycles must be positive")
        if self.overrun_policy not in OVERRUN_POLICIES:
            raise RtosError(
                f"unknown overrun policy {self.overrun_policy!r}; use one "
                f"of {OVERRUN_POLICIES}")
        if self.watchdog_factor < 1:
            raise RtosError("watchdog_factor must be >= 1 (the watchdog "
                            "budget is watchdog_factor * deadline)")


#: Priority-assignment policies of :func:`synthesize_tasksets`.
PRIORITY_ASSIGNMENTS = ("rate_monotonic", "index", "random")


def synthesize_tasksets(num_cores: int, tasks_per_core: int,
                        utilisation: float = 0.5,
                        period_spread: float = 2.0,
                        priority_assignment: str = "rate_monotonic",
                        sporadic_fraction: float = 0.25,
                        seed: int = 0,
                        config: PatmosConfig = DEFAULT_CONFIG,
                        bodies: Sequence[str] = SUITES["rtos"],
                        ) -> list[TaskSet]:
    """Seeded random task sets over the RTOS kernel suite, one per core.

    ``utilisation`` is the target per-core utilisation using each body's
    *single-core* WCET as the cost estimate (the shared-bus co-simulation
    runs somewhat slower, so keep targets moderate); ``period_spread`` is
    the max/min ratio of the randomised periods; ``priority_assignment``
    picks rate-monotonic, task-index or seeded-random priorities.  Roughly
    ``sporadic_fraction`` of the tasks become sporadic with a quarter
    period of release jitter (extra spacing — never denser than the
    period, so the analysis may use the period as the inter-arrival
    bound).  Deterministic for a given argument tuple.  Each body is
    compiled once per process (:func:`~repro.workloads.images.compiled_kernel`),
    so task sets over the same bodies and config share their images.
    """
    if num_cores < 1 or tasks_per_core < 1:
        raise RtosError("need at least one core and one task per core")
    if not 0 < utilisation < 1:
        raise RtosError("utilisation must be in (0, 1)")
    if period_spread < 1:
        raise RtosError("period_spread must be >= 1")
    if priority_assignment not in PRIORITY_ASSIGNMENTS:
        raise RtosError(
            f"unknown priority assignment {priority_assignment!r}; "
            f"use one of {PRIORITY_ASSIGNMENTS}")
    compiled = []
    for body in bodies:
        image, expected_output = compiled_kernel(body, config=config)
        wcet = analyze_wcet(image, config=config).wcet_cycles
        compiled.append((body, image, expected_output, wcet))
    rng = random.Random(
        f"tasksets:{seed}:{num_cores}:{tasks_per_core}:"
        f"{round(utilisation * 1000)}:{round(period_spread * 100)}")
    tasksets = []
    for core_id in range(num_cores):
        tasks = []
        share = utilisation / tasks_per_core
        for index in range(tasks_per_core):
            body, image, expected_output, wcet = compiled[
                rng.randrange(len(compiled))]
            base_period = max(wcet + 1, round(wcet / share))
            period = round(base_period * rng.uniform(1.0, period_spread))
            sporadic = rng.random() < sporadic_fraction
            tasks.append(Task(
                name=f"c{core_id}_t{index}_{body}",
                image=image, period=period, priority=index,
                kind="sporadic" if sporadic else "periodic",
                offset=rng.randrange(0, max(1, period // 4)),
                jitter=period // 4 if sporadic else 0,
                expected_output=tuple(expected_output)))
        taskset = TaskSet(tuple(tasks))
        if priority_assignment == "rate_monotonic":
            taskset = taskset.rate_monotonic()
        elif priority_assignment == "random":
            priorities = list(range(tasks_per_core))
            rng.shuffle(priorities)
            taskset = TaskSet(tuple(
                replace(task, priority=priorities[i])
                for i, task in enumerate(taskset.tasks)))
        tasksets.append(taskset)
    return tasksets
