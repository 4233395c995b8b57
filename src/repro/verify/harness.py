"""The differential WCET-vs-simulation conformance harness.

For every scenario of the matrix the harness runs the *genuine* execution —
the cycle-accurate simulation of a single core, or the fully interleaved
shared-memory co-simulation for multicore arbiters — and the static WCET
analysis configured for exactly that hardware, then checks the paper's
soundness property per core::

    observed cycles  <=  wcet_cycles

Every checked core yields one :class:`ScenarioOutcome` carrying the
tightness ratio ``wcet_cycles / cycles``; a ratio below 1.0 is a soundness
violation and fails the run.  Cores without a bound (any non-top core under
priority arbitration) are recorded as *unbounded* rather than silently
skipped, so the report also documents where the paper says no bound exists.

Patmos is statically scheduled and every core runs on a private bank, so a
kernel run alone does not depend on timing.  On the fast engine a
single-core scenario and a kernel's loop check therefore read the kernel's
co-simulation recording (:func:`~repro.cmp.replay.run_alone`), which the
multicore scenarios of the same hardware replay: each (kernel, hardware) is
simulated once.  The reference engine runs the interpreter for each.

Simulations are memoised per (kernel, hardware organisation, arbiter), so
analysis-only variants (``always_miss``, ``naive``) reuse the simulation of
the default variant and the full matrix stays CI-sized.  The memo keeps
only each core's observed cycles and analysis options; the simulated system
(its shared memory and cores) is dropped once the run is checked.  Each
compiled image caches its option-independent WCET work, so the analyses of
one kernel across variants and arbiters price blocks and solve IPET only.

The matrix is embarrassingly parallel: ``run_conformance(jobs=N)`` runs
every cell — each scenario group, each kernel's loop checks, each RTOS
scenario — as a journaled job cell in one :func:`repro.jobs.run_jobs` call,
the engine the explore runner uses too.  Scenarios are shipped in groups
that share a simulation key, and every cell of a kernel carries the kernel
as its lease affinity, so a worker's harness keeps the memoisation win and
a kernel's loop checks read the recording its own worker made.  The report
is assembled in the deterministic matrix order regardless of completion
order — a parallel run produces the same report as a sequential one (only
the measured ``elapsed_s`` differs).

A worker that *dies* (killed, OOM, segfault) or stops heartbeating does not
abort the run: the supervisor declares it lost, returns its leased cell to
the pending queue after a capped backoff for an idle worker to steal, and
respawns a replacement.  A cell that keeps killing workers exhausts its
crash budget and is recorded as a structured
:class:`~repro.errors.FailedCell` in the report while every other cell
still completes.  Errors *raised by* a cell (functional mismatches)
propagate exactly as in the sequential path — a broken execution must fail
the verification loudly.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..cmp.replay import run_alone
from ..cmp.system import MulticoreSystem
from ..compiler.passes import compile_and_link
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import FailedCell, VerificationError
from ..explore.tables import format_table
from ..jobs import (JobCell, RetryPolicy, RunDirectory,
                    default_crash_failure, run_jobs, sweep_interrupted)
from ..wcet.analyzer import WcetOptions, analyze_wcet
from ..workloads.suite import build_kernel
from .loopcheck import LoopCheck, check_loops
from .scenarios import (
    DEFAULT_ARBITERS,
    DEFAULT_RTOS_SCENARIOS,
    DEFAULT_VARIANTS,
    ArbiterConfig,
    CacheModelVariant,
    RtosScenario,
    Scenario,
    build_scenarios,
)


@dataclass
class ScenarioOutcome:
    """The conformance verdict of one core of one scenario."""

    kernel: str
    variant: str
    arbiter: str
    cores: int
    core_id: int
    cycles: int
    wcet_cycles: Optional[int]

    @property
    def tightness(self) -> Optional[float]:
        """Bound over observation (>= 1.0 iff the bound is sound)."""
        if self.wcet_cycles is None or self.cycles <= 0:
            return None
        return self.wcet_cycles / self.cycles

    @property
    def sound(self) -> Optional[bool]:
        """True/False for bounded cores, None where no bound exists."""
        if self.wcet_cycles is None:
            return None
        return self.wcet_cycles >= self.cycles

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "arbiter": self.arbiter,
            "cores": self.cores,
            "core": self.core_id,
            "cycles": self.cycles,
            "wcet_cycles": self.wcet_cycles,
            "tightness": (None if self.tightness is None
                          else round(self.tightness, 4)),
            "sound": self.sound,
        }


@dataclass
class ConformanceReport:
    """All outcomes of one conformance run plus aggregate statistics.

    ``failures`` lists cells whose pool worker died past the retry budget
    (parallel runs only); a report with failures is incomplete and must not
    pass a verification gate even with zero violations.
    """

    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    failures: list[FailedCell] = field(default_factory=list)
    #: Per-loop observed-iterations-vs-bound cross-checks (one per natural
    #: loop per kernel); a loop violation is an unsound loop-bound fact even
    #: when the end-to-end cycle bound happens to hold.
    loop_checks: list[LoopCheck] = field(default_factory=list)
    elapsed_s: float = 0.0

    def violations(self) -> list[ScenarioOutcome]:
        """Outcomes whose bound failed to cover the observation."""
        return [outcome for outcome in self.outcomes
                if outcome.sound is False]

    def loop_violations(self) -> list[LoopCheck]:
        """Loops whose observed header executions exceed their bound."""
        return [check for check in self.loop_checks if check.ok is False]

    def bounded(self) -> list[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.tightness is not None]

    def unbounded(self) -> list[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.wcet_cycles is None]

    def mean_tightness(self) -> Optional[float]:
        bounded = self.bounded()
        if not bounded:
            return None
        return sum(outcome.tightness for outcome in bounded) / len(bounded)

    def max_tightness(self) -> Optional[ScenarioOutcome]:
        bounded = self.bounded()
        if not bounded:
            return None
        return max(bounded, key=lambda outcome: outcome.tightness)

    def to_dict(self) -> dict:
        worst = self.max_tightness()
        return {
            "schema": "repro.verify/v2",
            "scenarios": [outcome.to_dict() for outcome in self.outcomes],
            "failures": [cell.to_dict() for cell in self.failures],
            "loops": [check.to_dict() for check in self.loop_checks],
            "summary": {
                "checked": len(self.outcomes),
                "bounded": len(self.bounded()),
                "unbounded": len(self.unbounded()),
                "violations": len(self.violations()),
                "failed_cells": len(self.failures),
                "loops_checked": len(self.loop_checks),
                "loop_violations": len(self.loop_violations()),
                "mean_tightness": (None if self.mean_tightness() is None
                                   else round(self.mean_tightness(), 4)),
                "max_tightness": (None if worst is None
                                  else round(worst.tightness, 4)),
                "max_tightness_scenario": (
                    None if worst is None else
                    f"{worst.kernel}/{worst.variant}/{worst.arbiter}"),
                "elapsed_s": round(self.elapsed_s, 3),
            },
        }

    def table(self) -> str:
        """Aligned per-outcome conformance table."""
        headers = ["kernel", "cache model", "arbiter", "core", "cycles",
                   "WCET", "bound/obs", "sound"]
        rows = []
        for outcome in self.outcomes:
            rows.append([
                outcome.kernel, outcome.variant, outcome.arbiter,
                outcome.core_id, outcome.cycles,
                outcome.wcet_cycles if outcome.wcet_cycles is not None
                else "-",
                f"{outcome.tightness:.2f}" if outcome.tightness is not None
                else "-",
                {True: "yes", False: "NO", None: "n/a"}[outcome.sound],
            ])
        return format_table(headers, rows)

    def loops_table(self) -> str:
        """Per-loop bound-vs-observed table with the remaining slack."""
        headers = ["kernel", "function", "loop", "annot", "infer", "bound",
                   "observed", "slack", "ok"]
        rows = []

        def fmt(value):
            return "-" if value is None else value

        for check in self.loop_checks:
            rows.append([
                check.kernel, check.function, check.header,
                fmt(check.annotated), fmt(check.inferred), fmt(check.bound),
                check.observed, fmt(check.slack),
                {True: "yes", False: "NO", None: "n/a"}[check.ok],
            ])
        return format_table(headers, rows)

    def summary(self) -> str:
        mean = self.mean_tightness()
        worst = self.max_tightness()
        lines = [
            f"{len(self.outcomes)} core-scenarios checked in "
            f"{self.elapsed_s:.2f}s: {len(self.bounded())} bounded, "
            f"{len(self.unbounded())} unbounded by design, "
            f"{len(self.violations())} soundness violations",
        ]
        if mean is not None and worst is not None:
            lines.append(
                f"tightness (bound/observed): mean {mean:.3f}, worst "
                f"{worst.tightness:.3f} "
                f"({worst.kernel}/{worst.variant}/{worst.arbiter})")
        if self.loop_checks:
            inferred = sum(1 for check in self.loop_checks
                           if check.inferred is not None)
            lines.append(
                f"loop bounds: {len(self.loop_checks)} checked "
                f"({inferred} inferred), "
                f"{len(self.loop_violations())} violations")
        for outcome in self.violations():
            lines.append(
                f"  VIOLATION {outcome.kernel}/{outcome.variant}/"
                f"{outcome.arbiter} core {outcome.core_id}: observed "
                f"{outcome.cycles} > bound {outcome.wcet_cycles}")
        for check in self.loop_violations():
            lines.append(
                f"  LOOP VIOLATION {check.kernel}/{check.function}/"
                f"{check.header}: observed {check.observed} header "
                f"executions > bound {check.bound} x {check.entries} "
                f"entries")
        if self.failures:
            lines.append(f"{len(self.failures)} cell(s) FAILED "
                         f"(report incomplete):")
            lines.extend(f"  {cell.summary()}" for cell in self.failures)
        return "\n".join(lines)


class ConformanceHarness:
    """Execute conformance scenarios with per-hardware simulation reuse.

    On the fast engine a kernel run alone is the kernel's recording, shared
    by its single-core scenario, its loop checks and every co-simulation of
    the same hardware; on the reference engine each is an interpreter run.
    """

    def __init__(self, config: Optional[PatmosConfig] = None,
                 strict: bool = True, engine: str = "fast"):
        self.config = config or DEFAULT_CONFIG
        self.strict = strict
        self.engine = engine
        self._images: dict[str, object] = {}
        self._expected: dict[str, list[int]] = {}
        #: (kernel, hardware, arbiter config) -> (per-core cycles, per-core
        #: WcetOptions|None before the variant's overrides), not the system.
        #: Keyed by the frozen ArbiterConfig value, not its display name, so
        #: two configs sharing a name never reuse each other's simulation.
        self._sims: dict[tuple[str, str, ArbiterConfig],
                         tuple[list[int], list[Optional[WcetOptions]]]] = {}

    # ------------------------------------------------------------------

    def _image(self, kernel: str):
        if kernel not in self._images:
            built = build_kernel(kernel)
            image, _ = compile_and_link(built.program, self.config)
            self._images[kernel] = image
            self._expected[kernel] = built.expected_output
        return self._images[kernel]

    def _simulate(self, kernel: str, variant: CacheModelVariant,
                  arbiter: ArbiterConfig
                  ) -> tuple[list[int], list[Optional[WcetOptions]]]:
        """Per-core observed cycles and analysis options of one hardware.

        A single core is the kernel's recording on this hardware (or an
        interpreter run on the reference engine); more cores co-simulate.
        """
        key = (kernel, variant.hardware, arbiter)
        if key in self._sims:
            return self._sims[key]
        image = self._image(kernel)
        hierarchy = variant.hierarchy_options()
        if arbiter.cores == 1:
            result = run_alone(image, self.config, self.strict, hierarchy,
                               engine=self.engine)
            self._check_output(kernel, variant, arbiter, 0, result.output)
            value = ([result.cycles], [WcetOptions()])
        else:
            system = MulticoreSystem(
                [image] * arbiter.cores, self.config,
                arbiter=arbiter.kind,
                schedule=arbiter.schedule(self.config),
                engine=self.engine,
                hierarchy_options=hierarchy)
            cmp_result = system.run(analyse=False, strict=self.strict)
            for core in cmp_result.cores:
                self._check_output(kernel, variant, arbiter, core.core_id,
                                   core.sim.output)
            value = (cmp_result.observed_by_core(),
                     [system.wcet_options_for_core(core_id)
                      for core_id in range(arbiter.cores)])
        self._sims[key] = value
        return value

    def _check_output(self, kernel: str, variant: CacheModelVariant,
                      arbiter: ArbiterConfig, core_id: int,
                      observed: list[int]) -> None:
        expected = self._expected[kernel]
        if observed != expected:
            raise VerificationError(
                f"{kernel} × {variant.name} × {arbiter.name} core {core_id}: "
                f"functional mismatch — simulated output {observed[:4]} "
                f"differs from reference {expected[:4]}")

    # ------------------------------------------------------------------

    def run_scenario(self, scenario: Scenario) -> list[ScenarioOutcome]:
        """Run one scenario; returns one outcome per core."""
        cycles_by_core, options_by_core = self._simulate(
            scenario.kernel, scenario.variant, scenario.arbiter)
        image = self._image(scenario.kernel)
        overrides = dict(scenario.variant.wcet_overrides)
        outcomes = []
        for core_id, (cycles, options) in enumerate(
                zip(cycles_by_core, options_by_core)):
            # The variant's overrides win over the hardware-implied fields,
            # as in MulticoreSystem.wcet_options_for_core.
            wcet = (None if options is None else
                    analyze_wcet(image, self.config,
                                 options=replace(options, **overrides))
                    .wcet_cycles)
            outcomes.append(ScenarioOutcome(
                kernel=scenario.kernel,
                variant=scenario.variant.name,
                arbiter=scenario.arbiter.name,
                cores=scenario.arbiter.cores,
                core_id=core_id,
                cycles=cycles,
                wcet_cycles=wcet))
        return outcomes

    def run_loop_checks(self, kernel: str) -> list[LoopCheck]:
        """Cross-check every analysed loop of ``kernel`` against one run.

        The kernel's recording on the default hardware supplies the
        per-block execution counts (read, never changed: it is shared with
        the default variant's scenarios); on the reference engine an
        interpreter run does.  The loop facts come from the same value
        analysis the WCET side used (shared via the facts cache).
        """
        image = self._image(kernel)
        result = run_alone(image, self.config, self.strict,
                           engine=self.engine)
        expected = self._expected[kernel]
        if result.output != expected:
            raise VerificationError(
                f"{kernel} loop check: functional mismatch — simulated "
                f"output {result.output[:4]} differs from reference "
                f"{expected[:4]}")
        return check_loops(kernel, image.program, result.block_counts,
                           result.call_counts)

    def run_rtos_scenario(self, scenario: RtosScenario
                          ) -> list[ScenarioOutcome]:
        """Run one response-time cell; returns one outcome per task.

        The ``cycles``/``wcet_cycles`` slots carry the task's observed
        worst response time and its response-time bound, so the report's
        soundness/tightness machinery applies unchanged.  Tasks without a
        bound (e.g. every task of a non-top core under priority
        arbitration, or a non-converging fixpoint) are recorded as
        unbounded rather than skipped.
        """
        import dataclasses

        from ..rtos.system import RtosSystem
        from ..rtos.task import RtosOptions, synthesize_tasksets

        tasksets = synthesize_tasksets(
            scenario.cores, scenario.tasks_per_core,
            utilisation=scenario.utilisation,
            priority_assignment=scenario.priority_assignment,
            seed=scenario.seed, config=self.config)
        options = RtosOptions.for_config(self.config)
        if scenario.task_slot_cycles is not None:
            options = dataclasses.replace(
                options, task_slot_cycles=scenario.task_slot_cycles)
        system = RtosSystem(tasksets, config=self.config,
                            arbiter=scenario.arbiter, policy=scenario.policy,
                            engine=self.engine, options=options,
                            seed=scenario.seed)
        result = system.run(strict=self.strict)
        outcomes = []
        for task in result.tasks:
            outcomes.append(ScenarioOutcome(
                kernel=f"taskset[{scenario.name}]/{task.name}",
                variant=f"rtos_{scenario.policy}",
                arbiter=f"{scenario.arbiter}{scenario.cores}",
                cores=scenario.cores,
                core_id=task.core,
                cycles=task.max_response if task.max_response is not None
                else 0,
                wcet_cycles=task.rta_bound))
        return outcomes


#: Per-worker harness of the parallel matrix (set by the pool initializer;
#: workers keep their simulation memoisation across cells).
_worker_harness: Optional[ConformanceHarness] = None


def _init_worker(config_dict: Optional[dict], strict: bool,
                 engine: str = "fast") -> None:
    global _worker_harness
    config = (PatmosConfig.from_dict(config_dict)
              if config_dict is not None else None)
    _worker_harness = ConformanceHarness(config=config, strict=strict,
                                         engine=engine)


def _run_scenario_group(group: list[Scenario]
                        ) -> list[list[ScenarioOutcome]]:
    """Pool worker: run one group of scenarios sharing a simulation key."""
    return [_worker_harness.run_scenario(scenario) for scenario in group]


def _run_cell(payload: tuple, harness: Optional[ConformanceHarness] = None):
    """Run one cell: ``("group", scenarios)``, ``("loops", kernel)`` or
    ``("rtos", rtos scenario)``.

    Pool workers pass no ``harness`` and use the one :func:`_init_worker`
    built.  They run groups through the *current* ``_run_scenario_group``
    binding, which a forked child inherits from its parent: that is how the
    crash-containment tests plant a worker that dies mid-group.  The serial
    path passes the calling process's own harness, which such a replacement
    never reaches.
    """
    kind, item = payload
    if kind == "group":
        if harness is None:
            return _run_scenario_group(item)
        return [harness.run_scenario(scenario) for scenario in item]
    harness = harness or _worker_harness
    if kind == "loops":
        return harness.run_loop_checks(item)
    return harness.run_rtos_scenario(item)


def _emit_progress(progress: Callable[[str], None], scenario: Scenario,
                   outcomes: list[ScenarioOutcome]) -> None:
    worst = min((outcome.tightness for outcome in outcomes
                 if outcome.tightness is not None), default=None)
    status = "ok" if not any(outcome.sound is False
                             for outcome in outcomes) else "VIOLATION"
    ratio = "-" if worst is None else f"{worst:.2f}"
    progress(f"{scenario.label():60s} min bound/obs {ratio:>6s}  {status}")


def _emit_cell_progress(progress: Callable[[str], None], cell: JobCell,
                        value) -> None:
    """One progress line per scenario, RTOS scenario or kernel's loops."""
    kind, item = cell.payload
    if kind == "group":
        for scenario, outcomes in zip(item, value):
            _emit_progress(progress, scenario, outcomes)
    elif kind == "loops":
        bad = sum(1 for check in value if check.ok is False)
        status = "ok" if not bad else f"{bad} VIOLATIONS"
        progress(f"{item + ' loop bounds':60s} "
                 f"{len(value):3d} loops checked  {status}")
    else:
        _emit_progress(progress, item, value)


#: Resubmissions of a cell whose worker died before the cell is declared
#: poisoned and recorded as a failed cell.
_MAX_GROUP_RETRIES = 2
#: Base (and cap) of the exponential pause between crash-recovery rounds.
_RETRY_BACKOFF_S = 0.05
_MAX_BACKOFF_S = 2.0


def _policy() -> RetryPolicy:
    """The harness retry policy (module globals read at call time, so the
    containment tests can zero the backoff)."""
    return RetryPolicy(max_attempts=1 + _MAX_GROUP_RETRIES,
                       backoff_base_s=_RETRY_BACKOFF_S,
                       backoff_cap_s=_MAX_BACKOFF_S)


def _crashed_cell(cell: JobCell, attempts: int) -> FailedCell:
    """The record of a cell that kept killing workers; a group's record
    lists the scenarios that went missing."""
    failed = default_crash_failure(cell, attempts)
    kind, group = cell.payload
    if kind == "group":
        failed.context["scenarios"] = [scenario.label() for scenario in group]
    return failed


def _group_key(kernel: str, hardware: str, arbiter: ArbiterConfig) -> str:
    """Stable journal key of one scenario group (one simulation key).

    The arbiter's display name is suffixed with a content hash of the full
    frozen config, so two configs that happen to share a name can never
    replay each other's journaled results.
    """
    digest = hashlib.sha256(repr(arbiter).encode("utf-8")).hexdigest()[:8]
    return f"group/{kernel}/{hardware}/{arbiter.name}-{digest}"


def _to_dict(value):
    """The journal payload of a cell's result: every outcome and loop check
    as its record, lists kept (a group's result is one list per scenario)."""
    if isinstance(value, list):
        return [_to_dict(item) for item in value]
    return value.to_dict()


def _from_dict(payload):
    """Inverse of :func:`_to_dict`: a loop check's record names its loop
    header; derived fields are dropped."""
    if isinstance(payload, list):
        return [_from_dict(item) for item in payload]
    if "header" in payload:
        return LoopCheck(
            kernel=payload["kernel"], function=payload["function"],
            header=payload["header"], annotated=payload["annotated"],
            inferred=payload["inferred"], bound=payload["bound"],
            entries=payload["entries"], observed=payload["observed"],
            limit=payload["limit"])
    return ScenarioOutcome(
        kernel=payload["kernel"], variant=payload["variant"],
        arbiter=payload["arbiter"], cores=payload["cores"],
        core_id=payload["core"], cycles=payload["cycles"],
        wcet_cycles=payload["wcet_cycles"])


def count_cells(kernels=("all",),
                variants: tuple[CacheModelVariant, ...] = DEFAULT_VARIANTS,
                arbiters: tuple[ArbiterConfig, ...] = DEFAULT_ARBITERS,
                rtos_scenarios: tuple[RtosScenario, ...] = ()) -> int:
    """How many journal cells a conformance run of this matrix executes."""
    scenarios = build_scenarios(kernels, variants, arbiters)
    groups = {(s.kernel, s.variant.hardware, s.arbiter) for s in scenarios}
    kernels_seen = {s.kernel for s in scenarios}
    return len(groups) + len(kernels_seen) + len(rtos_scenarios)


def run_conformance(kernels=("all",),
                    variants: tuple[CacheModelVariant, ...] = DEFAULT_VARIANTS,
                    arbiters: tuple[ArbiterConfig, ...] = DEFAULT_ARBITERS,
                    rtos_scenarios: tuple[RtosScenario, ...]
                    = DEFAULT_RTOS_SCENARIOS,
                    config: Optional[PatmosConfig] = None,
                    strict: bool = True,
                    jobs: int = 1,
                    progress: Optional[Callable[[str], None]] = None,
                    engine: str = "fast",
                    run_dir: Optional[RunDirectory] = None,
                    resume: bool = False
                    ) -> ConformanceReport:
    """Run the full conformance matrix and collect the report.

    Every cell goes through one :func:`repro.jobs.run_jobs` call: first the
    scenario groups (scenarios sharing a (kernel, hardware, arbiter)
    simulation, so the per-worker memoisation is preserved), then each
    kernel's loop checks, then the response-time cells (``rtos_scenarios``;
    pass ``()`` to skip them).  ``jobs == 1`` runs them in that order in the
    calling process; ``jobs > 1`` fans them out over a heartbeat-supervised
    worker pool, leasing each cell by preference to the worker that already
    compiled its kernel.  The report is assembled in matrix order, so it is
    identical to a sequential run; only the progress lines arrive in
    completion order and ``elapsed_s`` reflects the parallel wall-clock.  A
    worker that *dies* does not abort the run: its cell is re-leased under
    the harness retry policy and becomes a
    :class:`~repro.errors.FailedCell` once the budget is exhausted, while
    errors *raised by* a cell (functional mismatches) always propagate.

    With a ``run_dir`` every cell transition is journaled; ``resume=True``
    hands the journal's replay to ``run_jobs``, so only cells without a
    recorded result run (the resumed report is byte-identical — modulo
    ``elapsed_s`` — to an uninterrupted run).  SIGINT/SIGTERM drain
    gracefully and raise :class:`~repro.errors.SweepInterrupted` carrying
    the resume command.

    ``progress`` (if given) receives one line per finished scenario and per
    kernel's loop checks; the report itself never raises on soundness
    violations — callers decide (the CLI and the CI gate exit non-zero
    when ``violations()`` is non-empty).
    """
    if jobs < 1:
        raise VerificationError("jobs must be >= 1")
    scenarios = build_scenarios(kernels, variants, arbiters)
    started = time.perf_counter()

    groups: dict[tuple, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        key = (scenario.kernel, scenario.variant.hardware, scenario.arbiter)
        groups.setdefault(key, []).append(index)
    cells = []
    for key, indices in groups.items():
        labels = [scenarios[index].label() for index in indices]
        extra = f" (+{len(labels) - 1} more)" if len(labels) > 1 else ""
        cells.append(JobCell(
            key=_group_key(*key), label=labels[0] + extra,
            payload=("group", [scenarios[index] for index in indices]),
            affinity=key[0]))
    for kernel in dict.fromkeys(scenario.kernel for scenario in scenarios):
        cells.append(JobCell(key=f"loops/{kernel}",
                             label=f"{kernel} loop bounds",
                             payload=("loops", kernel), affinity=kernel))
    for rtos_scenario in rtos_scenarios:
        cells.append(JobCell(key=f"rtos/{rtos_scenario.name}",
                             label=rtos_scenario.label(),
                             payload=("rtos", rtos_scenario)))

    worker = _run_cell if jobs > 1 else functools.partial(
        _run_cell, harness=ConformanceHarness(config=config, strict=strict,
                                              engine=engine))
    outcome = run_jobs(
        cells, worker, jobs=jobs, policy=_policy(),
        journal=run_dir.journal() if run_dir is not None else None,
        replay=run_dir.replay() if (run_dir is not None and resume)
        else None,
        worker_init=_init_worker if jobs > 1 else None,
        init_args=(config.to_dict() if config is not None else None,
                   strict, engine),
        crash_failure=_crashed_cell, encode=_to_dict, decode=_from_dict,
        on_result=None if progress is None else functools.partial(
            _emit_cell_progress, progress))
    if outcome.interrupted:
        raise sweep_interrupted("verify", run_dir)

    # Assemble in matrix order: scenarios, then RTOS scenarios; a cell
    # missing from the results failed and is listed in ``failures``.
    report = ConformanceReport(failures=outcome.failures)
    by_scenario: list[list[ScenarioOutcome]] = [[] for _ in scenarios]
    for indices, cell in zip(groups.values(), cells):
        for index, outcomes in zip(indices,
                                   outcome.results.get(cell.key, ())):
            by_scenario[index] = outcomes
    for outcomes in by_scenario:
        report.outcomes.extend(outcomes)
    for cell in cells[len(groups):]:
        (report.loop_checks if cell.payload[0] == "loops"
         else report.outcomes).extend(outcome.results.get(cell.key, ()))
    report.elapsed_s = time.perf_counter() - started
    return report
