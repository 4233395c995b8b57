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

The matrix is embarrassingly parallel: ``run_conformance(jobs=N)`` runs the
scenario cells as journaled job cells on the :func:`repro.jobs.run_jobs`
supervisor, the engine the explore runner uses too.  Cells are shipped in
groups that share a simulation key, so per-worker harnesses keep the
memoisation win, and the report is assembled
in the deterministic scenario order regardless of completion order — a
parallel run produces the same report as a sequential one (only the
measured ``elapsed_s`` differs).

A worker that *dies* (killed, OOM, segfault) or stops heartbeating does not
abort the run: the supervisor declares it lost, returns its leased group to
the pending queue after a capped backoff for an idle worker to steal, and
respawns a replacement.  A group that keeps killing workers exhausts its
crash budget and is recorded as a structured
:class:`~repro.errors.FailedCell` in the report while every other group
still completes.  Errors *raised by* a scenario (functional mismatches)
propagate exactly as in the sequential path — a broken execution must fail
the verification loudly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..cmp.replay import run_alone
from ..cmp.system import MulticoreSystem
from ..compiler.passes import compile_and_link
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import (FailedCell, SweepInterrupted, VerificationError,
                      WorkerCrashed)
from ..explore.tables import format_table
from ..jobs import JobCell, RetryPolicy, RunDirectory, run_jobs
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

    ``failures`` lists scenario groups whose pool worker died past the
    retry budget (parallel runs only); a report with failures is incomplete
    and must not pass a verification gate even with zero violations.
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
            lines.append(f"{len(self.failures)} scenario group(s) FAILED "
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
#: workers keep their simulation memoisation across scenario groups).
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


def _group_worker(group: list[Scenario]) -> list[list[ScenarioOutcome]]:
    """Pool entry point: one indirection through the module global.

    Workers call the *current* ``_run_scenario_group`` binding, so a forked
    child inherits any replacement installed in the parent — which is how
    the crash-containment tests plant a worker that dies mid-group.
    """
    return _run_scenario_group(group)


def _emit_progress(progress: Callable[[str], None], scenario: Scenario,
                   outcomes: list[ScenarioOutcome]) -> None:
    worst = min((outcome.tightness for outcome in outcomes
                 if outcome.tightness is not None), default=None)
    status = "ok" if not any(outcome.sound is False
                             for outcome in outcomes) else "VIOLATION"
    ratio = "-" if worst is None else f"{worst:.2f}"
    progress(f"{scenario.label():60s} min bound/obs {ratio:>6s}  {status}")


#: Resubmissions of a scenario group whose worker died before the group is
#: declared poisoned and recorded as a failed cell.
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


def _crashed_group(group: list[Scenario], attempts: int) -> FailedCell:
    """The structured failure record of a group that kept killing workers."""
    labels = [scenario.label() for scenario in group]
    extra = f" (+{len(labels) - 1} more)" if len(labels) > 1 else ""
    exc = WorkerCrashed(
        f"worker process died {attempts} times executing scenario group "
        f"{labels[0]}{extra}", cell_key=labels[0], attempts=attempts)
    cell = FailedCell.from_exception(labels[0], labels[0], exc,
                                     attempts=attempts)
    cell.context["scenarios"] = labels
    return cell


def _group_key(kernel: str, hardware: str, arbiter: ArbiterConfig) -> str:
    """Stable journal key of one scenario group (one simulation key).

    The arbiter's display name is suffixed with a content hash of the full
    frozen config, so two configs that happen to share a name can never
    replay each other's journaled results.
    """
    digest = hashlib.sha256(repr(arbiter).encode("utf-8")).hexdigest()[:8]
    return f"group/{kernel}/{hardware}/{arbiter.name}-{digest}"


def _outcome_from_dict(record: dict) -> ScenarioOutcome:
    """Inverse of :meth:`ScenarioOutcome.to_dict` (derived fields dropped)."""
    return ScenarioOutcome(
        kernel=record["kernel"], variant=record["variant"],
        arbiter=record["arbiter"], cores=record["cores"],
        core_id=record["core"], cycles=record["cycles"],
        wcet_cycles=record["wcet_cycles"])


def _loopcheck_from_dict(record: dict) -> LoopCheck:
    """Inverse of :meth:`LoopCheck.to_dict` (derived fields dropped)."""
    return LoopCheck(
        kernel=record["kernel"], function=record["function"],
        header=record["header"], annotated=record["annotated"],
        inferred=record["inferred"], bound=record["bound"],
        entries=record["entries"], observed=record["observed"],
        limit=record["limit"])


def _interrupted(run_dir: Optional[RunDirectory]) -> SweepInterrupted:
    if run_dir is None:
        return SweepInterrupted(
            "verification interrupted; the run was not journaled "
            "(no run directory)")
    resume_argv = f"--resume {run_dir.run_id}"
    return SweepInterrupted(
        f"verification interrupted; journal flushed — resume with: "
        f"python -m repro.verify {resume_argv}",
        run_id=run_dir.run_id, resume_argv=resume_argv)


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

    Scenario cells execute through the shared :mod:`repro.jobs` engine:
    scenarios sharing a (kernel, hardware, arbiter) simulation stay in one
    group so the per-worker memoisation is preserved, and ``jobs > 1``
    fans the groups out over a heartbeat-supervised worker pool.  The
    report content is identical to a sequential run (deterministic
    scenario order), only the progress lines arrive in completion order
    and ``elapsed_s`` reflects the parallel wall-clock.  A worker that
    *dies* does not abort the run: its group is re-leased under the
    harness retry policy and becomes a :class:`~repro.errors.FailedCell`
    once the budget is exhausted, while errors *raised by* a scenario
    (functional mismatches) always propagate.

    With a ``run_dir`` every cell transition is journaled; ``resume=True``
    replays the journal first and re-executes only cells without a
    recorded result (the resumed report is byte-identical — modulo
    ``elapsed_s`` — to an uninterrupted run).  SIGINT/SIGTERM drain
    gracefully and raise :class:`~repro.errors.SweepInterrupted` carrying
    the resume command.

    The response-time cells (``rtos_scenarios``; pass ``()`` to skip them)
    and the per-kernel loop checks run after the kernel matrix on the main
    process — there are only a handful.  ``progress`` (if given) receives
    one line per finished scenario; the report itself never raises on
    soundness violations — callers decide (the CLI and the CI gate exit
    non-zero when ``violations()`` is non-empty).
    """
    if jobs < 1:
        raise VerificationError("jobs must be >= 1")
    scenarios = build_scenarios(kernels, variants, arbiters)
    report = ConformanceReport()
    started = time.perf_counter()
    journal = run_dir.journal() if run_dir is not None else None
    replay = run_dir.replay() if (run_dir is not None and resume) else None

    groups: dict[tuple, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        key = (scenario.kernel, scenario.variant.hardware, scenario.arbiter)
        groups.setdefault(key, []).append(index)
    group_indices = list(groups.values())
    payloads = [[scenarios[i] for i in indices] for indices in group_indices]
    keys = [_group_key(*group) for group in groups]
    outcome_lists: list[Optional[list[ScenarioOutcome]]] = \
        [None] * len(scenarios)

    def place(g: int, results: list[list[ScenarioOutcome]]) -> None:
        for index, outcomes in zip(group_indices[g], results):
            outcome_lists[index] = outcomes
            if progress is not None:
                _emit_progress(progress, scenarios[index], outcomes)

    g_of_key = {keys[g]: g for g in range(len(payloads))}
    to_run: list[int] = []
    for g in range(len(payloads)):
        recorded = replay.done.get(keys[g]) if replay is not None else None
        if recorded is not None:
            # Journaled groups are *replayed*, not re-executed: the payload
            # is the full per-scenario outcome list.
            place(g, [[_outcome_from_dict(record) for record in outcomes]
                      for outcomes in recorded])
        else:
            to_run.append(g)

    def group_label(g: int) -> str:
        labels = [scenario.label() for scenario in payloads[g]]
        extra = f" (+{len(labels) - 1} more)" if len(labels) > 1 else ""
        return labels[0] + extra

    # The sequential path runs every group on one in-process harness (its
    # simulation memoisation is shared with the loop/rtos cells below);
    # only ``jobs > 1`` routes groups through the pool entry point, so a
    # test that replaces ``_run_scenario_group`` only ever affects forked
    # workers, never the calling process.
    local_harness = (ConformanceHarness(config=config, strict=strict,
                                        engine=engine)
                     if jobs == 1 else None)

    def _serial_group(group: list[Scenario]) -> list[list[ScenarioOutcome]]:
        return [local_harness.run_scenario(scenario) for scenario in group]

    outcome = run_jobs(
        [JobCell(key=keys[g], label=group_label(g), payload=payloads[g])
         for g in to_run],
        _serial_group if jobs == 1 else _group_worker,
        jobs=jobs, policy=_policy(), journal=journal,
        worker_init=_init_worker if jobs > 1 else None,
        init_args=(config.to_dict() if config is not None else None,
                   strict, engine),
        crash_failure=lambda cell, attempts: _crashed_group(cell.payload,
                                                            attempts),
        encode=lambda results: [[o.to_dict() for o in outcomes]
                                for outcomes in results],
        on_result=lambda cell, results: place(g_of_key[cell.key], results))
    report.failures.extend(outcome.failures)
    if outcome.interrupted:
        raise _interrupted(run_dir)

    # The per-loop soundness gate and the response-time cells run on the
    # main process — there are only a handful, and the sequential path
    # shares its simulation memoisation with the matrix cells above.
    harness = local_harness if local_harness is not None \
        else ConformanceHarness(config=config, strict=strict, engine=engine)
    seen_kernels: list[str] = []
    for scenario in scenarios:
        if scenario.kernel not in seen_kernels:
            seen_kernels.append(scenario.kernel)

    def run_main_cell(key: str, fn, encode, decode):
        """One journaled main-process cell (loop check / rtos scenario)."""
        recorded = replay.done.get(key) if replay is not None else None
        if recorded is not None:
            return decode(recorded)
        if journal is not None:
            journal.cell(key, "running", 1)
        try:
            value = fn()
        except KeyboardInterrupt:
            if journal is not None:
                journal.commit()
            raise _interrupted(run_dir) from None
        if journal is not None:
            journal.cell(key, "done", 1, payload=encode(value))
        return value

    for kernel in seen_kernels:
        checks = run_main_cell(
            f"loops/{kernel}",
            lambda kernel=kernel: harness.run_loop_checks(kernel),
            lambda checks: [check.to_dict() for check in checks],
            lambda records: [_loopcheck_from_dict(r) for r in records])
        report.loop_checks.extend(checks)
        if progress is not None:
            bad = sum(1 for check in checks if check.ok is False)
            status = "ok" if not bad else f"{bad} VIOLATIONS"
            progress(f"{kernel + ' loop bounds':60s} "
                     f"{len(checks):3d} loops checked  {status}")
    for rtos_scenario in rtos_scenarios:
        outcomes = run_main_cell(
            f"rtos/{rtos_scenario.name}",
            lambda s=rtos_scenario: harness.run_rtos_scenario(s),
            lambda outcomes: [o.to_dict() for o in outcomes],
            lambda records: [_outcome_from_dict(r) for r in records])
        outcome_lists.append(outcomes)
        if progress is not None:
            _emit_progress(progress, rtos_scenario, outcomes)
    if journal is not None:
        journal.commit()
    for outcomes in outcome_lists:
        # ``None`` slots belong to a crash-failed group recorded above.
        if outcomes is not None:
            report.outcomes.extend(outcomes)
    report.elapsed_s = time.perf_counter() - started
    return report
