"""Batch execution of exploration specs: worker pool, caching, collection.

``execute_spec`` runs one design point end to end — build the kernel, compile
it for the spec's configuration, simulate it cycle-accurately (strict mode,
output checked against the kernel's reference), analyse its WCET and estimate
the achievable clock — and returns a flat, JSON-serializable
:class:`SpecResult`.  It is a module-level function of one picklable argument
so :class:`ExplorationRunner` can ship it to a ``multiprocessing`` pool.

Each process keeps the images it compiled in a small memo keyed on content
(kernel, kernel parameters, processor config, compile options), so every
core count and arbiter of one kernel x hardware point shares one
:class:`~repro.program.linker.Image` — its pre-decoded program, its WCET
layout and its co-simulation recording
(:func:`~repro.cmp.replay.recorded_trace`).  The same key is each cell's
lease affinity, so a parallel sweep keeps an image's cells on the worker
that compiled it.  Patmos is statically scheduled, so a fast-engine
single-core point is exactly that recording: it reports the recording's
result instead of simulating again.  Points on
the reference engine still run the interpreter, the oracle.

Everything in the model is deterministic, so a parallel sweep produces
byte-identical results to a serial one; the runner preserves spec order
regardless of completion order.

Failures are *contained*: a design point that raises a library error — or
whose pool worker dies outright — becomes a structured
:class:`~repro.errors.FailedCell` record instead of aborting the sweep.
Crashed workers are retried with capped backoff before being declared
poisoned; every other cell still completes and is cached.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Optional, Union

from ..cmp.replay import run_alone
from ..cmp.system import MulticoreSystem
from ..compiler.passes import compile_and_link
from ..errors import ExplorationError, FailedCell
from ..hw.pipeline import estimate_pipeline_timing
from ..jobs import (JobCell, RetryPolicy, RunDirectory, run_jobs,
                    sweep_interrupted)
from ..program.linker import Image
from ..wcet.analyzer import analyze_wcet
from ..workloads.suite import build_kernel, resolve_kernels
from .cache import ResultCache
from .pareto import DEFAULT_OBJECTIVES, pareto_frontier, pareto_table
from .space import ExperimentSpec, ParameterSpace
from .tables import format_table


@dataclass
class SpecResult:
    """Collected metrics of one executed (or cache-recalled) design point."""

    key: str
    kernel: str
    parameters: dict
    cores: int
    cycles: int
    bundles: int
    instructions: int
    nops: int
    stall_cycles: int
    stalls: dict
    cache_stats: dict
    wcet_cycles: Optional[int]
    fmax_mhz: float
    arbiter: str = "tdma"
    #: System-wide memory-interference figures (summed over all cores for
    #: multicore points) so sweeps can rank designs by contention.
    arbitration_cycles: int = 0
    words_transferred: int = 0
    write_stall_cycles: int = 0
    #: Response-time analysis outcome of an RTOS task-set point (``None``
    #: for plain single-program points; absent in pre-RTOS cache records,
    #: which load with the default).
    rtos: Optional[dict] = None
    from_cache: bool = False

    @property
    def tightness(self) -> Optional[float]:
        """WCET bound over observed cycles (>= 1.0 for a sound bound)."""
        if self.wcet_cycles is None or self.cycles == 0:
            return None
        return self.wcet_cycles / self.cycles

    @property
    def wall_time_us(self) -> float:
        """Estimated wall-clock execution time at the estimated clock."""
        return self.cycles / self.fmax_mhz

    def to_record(self) -> dict:
        """JSON-serializable record (the cache's value format).

        ``from_cache`` is provenance of this in-memory object, not a property
        of the design point, so it is deliberately excluded.
        """
        record = asdict(self)
        del record["from_cache"]
        return record

    @classmethod
    def from_record(cls, record: dict, from_cache: bool = True) -> "SpecResult":
        return cls(**record, from_cache=from_cache)


#: Most images one process keeps in :data:`_images`; the least recently
#: used is dropped first.
_IMAGE_MEMO_SIZE = 16

#: Per-process image memo of :func:`_compiled`: :func:`_image_key` ->
#: (image, expected output), least recently used first.
_images: dict[tuple, tuple[Image, list[int]]] = {}


def _image_key(spec: ExperimentSpec) -> tuple:
    """The content key of ``spec``'s image: (kernel, kernel params as JSON,
    config, compile options).  It keys the memo and is the cell affinity
    the runner leases by, so a worker's cells of one image share it."""
    return (spec.kernel, json.dumps(sorted(spec.kernel_params),
                                    sort_keys=True),
            spec.config, spec.options)


def _compiled(spec: ExperimentSpec) -> tuple[Image, list[int]]:
    """The linked image of ``spec`` and its kernel's expected output."""
    key = _image_key(spec)
    entry = _images.pop(key, None)
    if entry is None:
        kernel = build_kernel(spec.kernel, **dict(spec.kernel_params))
        image, _ = compile_and_link(kernel.program, spec.config, spec.options)
        entry = (image, kernel.expected_output)
        if len(_images) >= _IMAGE_MEMO_SIZE:
            del _images[next(iter(_images))]
    _images[key] = entry
    return entry


def execute_spec(spec: ExperimentSpec) -> SpecResult:
    """Run one design point end to end (compile, simulate, analyse)."""
    if spec.rtos:
        return _execute_rtos_spec(spec)
    image, expected_output = _compiled(spec)
    wcet_options = spec.wcet_options()

    if spec.cores == 1:
        # Sweeps are throughput-bound: the spec's engine defaults to the
        # pre-decoded micro-op engine ("fast"), whose run alone is the
        # image's co-simulation recording (tests/test_cosim_scheduler.py);
        # equivalence to the reference interpreter is guaranteed by the
        # golden suite in tests/test_engine_equivalence.py.
        sim = run_alone(image, spec.config, strict=True, engine=spec.engine)
        _check_output(spec, sim.output, expected_output)
        metrics = sim.metrics()
        interference = {key: metrics[key] for key in (
            "arbitration_cycles", "words_transferred", "write_stall_cycles")}
        wcet = (analyze_wcet(image, spec.config, options=wcet_options)
                .wcet_cycles if spec.analyse_wcet else None)
    else:
        # Multicore points run the genuine interleaved co-simulation: one
        # shared memory, one shared arbiter, contention observed rather
        # than assumed.
        system = MulticoreSystem.homogeneous(
            image, spec.cores, spec.config, arbiter=spec.arbiter,
            schedule=spec.tdma_schedule(), engine=spec.engine)
        cmp_result = system.run(analyse=False, strict=True)
        for core in cmp_result.cores:
            _check_output(spec, core.sim.output, expected_output)
        # The makespan is the figure of merit; per-bundle counts are
        # identical across cores, stalls come from the slowest core, and
        # the interference figures sum over the whole system.
        slowest = max(cmp_result.cores, key=lambda core: core.sim.cycles)
        metrics = slowest.sim.metrics()
        metrics["cycles"] = cmp_result.makespan
        interference = cmp_result.system_stats()["totals"]
        # The spec-level bound must cover the reported cycles (the
        # makespan).  TDMA: co-runner-independent, one analysis covers
        # every core.  Round-robin: every core shares the (N-1)-transfers
        # bound, so it also bounds the makespan.  Priority: only the top
        # core is analysable, so the makespan has *no* bound — report None
        # (per-core bounds remain available via MulticoreSystem.run).
        wcet = (analyze_wcet(image, spec.config, options=wcet_options)
                .wcet_cycles
                if spec.analyse_wcet and spec.arbiter != "priority"
                else None)

    timing = estimate_pipeline_timing(
        dual_issue=spec.config.pipeline.dual_issue)
    return SpecResult(
        key=spec.key(),
        kernel=spec.kernel,
        parameters=dict(spec.parameters),
        cores=spec.cores,
        cycles=metrics["cycles"],
        bundles=metrics["bundles"],
        instructions=metrics["instructions"],
        nops=metrics["nops"],
        stall_cycles=metrics["stall_cycles"],
        stalls=metrics["stalls"],
        cache_stats=metrics["cache_stats"],
        wcet_cycles=wcet,
        fmax_mhz=round(timing.max_frequency_mhz, 3),
        arbiter=spec.arbiter,
        arbitration_cycles=interference["arbitration_cycles"],
        words_transferred=interference["words_transferred"],
        write_stall_cycles=interference["write_stall_cycles"],
    )


def _execute_rtos_spec(spec: ExperimentSpec) -> SpecResult:
    """Run an RTOS task-set design point (see the rtos axes in ``space``).

    The figure of merit stays the makespan; the ``rtos`` record adds the
    task-set view — jobs, preemptions, deadline misses and above all the
    response-time analysis outcome.  A task whose observed response time
    exceeds its analytical bound fails the sweep, the same way a functional
    mismatch does: an unsound point must never enter a result cache.
    """
    from ..rtos.system import RtosSystem
    from ..rtos.task import synthesize_tasksets

    params = dict(spec.rtos)
    seed = int(params.get("seed", 0))
    bodies = resolve_kernels(
        str(params.get("bodies", "rtos")).split(":"))
    tasksets = synthesize_tasksets(
        spec.cores, int(params.get("tasks_per_core", 3)),
        utilisation=float(params.get("utilisation", 0.4)),
        period_spread=float(params.get("period_spread", 2.0)),
        priority_assignment=str(params.get("priority_assignment",
                                           "rate_monotonic")),
        seed=seed, config=spec.config, bodies=bodies)
    system = RtosSystem(
        tasksets, config=spec.config, arbiter=spec.arbiter,
        schedule=spec.tdma_schedule(), engine=spec.engine,
        policy=str(params.get("policy", "fixed_priority")), seed=seed)
    rtos_result = system.run(analyse=spec.analyse_wcet, strict=True)
    violations = rtos_result.violations()
    if violations:
        task = violations[0]
        raise ExplorationError(
            f"{spec.label()}: unsound response-time bound — task "
            f"{task.name} observed {task.max_response} > {task.rta_bound}")

    runtimes = system._runtimes
    metrics = max((runtime.result().metrics() for runtime in runtimes),
                  key=lambda m: m["cycles"])
    metrics["cycles"] = rtos_result.makespan
    interference = {"arbitration_cycles": 0, "words_transferred": 0,
                    "write_stall_cycles": 0}
    for runtime in runtimes:
        core_metrics = runtime.result().metrics()
        for key in interference:
            interference[key] += core_metrics[key]

    timing = estimate_pipeline_timing(
        dual_issue=spec.config.pipeline.dual_issue)
    return SpecResult(
        key=spec.key(),
        kernel=spec.kernel,
        parameters=dict(spec.parameters),
        cores=spec.cores,
        cycles=metrics["cycles"],
        bundles=metrics["bundles"],
        instructions=metrics["instructions"],
        nops=metrics["nops"],
        stall_cycles=metrics["stall_cycles"],
        stalls=metrics["stalls"],
        cache_stats=metrics["cache_stats"],
        wcet_cycles=None,
        fmax_mhz=round(timing.max_frequency_mhz, 3),
        arbiter=spec.arbiter,
        arbitration_cycles=interference["arbitration_cycles"],
        words_transferred=interference["words_transferred"],
        write_stall_cycles=interference["write_stall_cycles"],
        rtos={
            "policy": rtos_result.policy,
            "tasks": len(rtos_result.tasks),
            "jobs_completed": sum(t.completed for t in rtos_result.tasks),
            "deadline_misses": sum(t.deadline_misses
                                   for t in rtos_result.tasks),
            "bounded_tasks": sum(1 for t in rtos_result.tasks
                                 if t.rta_bound is not None),
            "violations": 0,
            "max_response": max((t.max_response for t in rtos_result.tasks
                                 if t.max_response is not None),
                                default=None),
            "idle_cycles": sum(row["idle_cycles"]
                               for row in rtos_result.per_core),
        })


def _check_output(spec: ExperimentSpec, observed: list[int],
                  expected: list[int]) -> None:
    if observed != expected:
        raise ExplorationError(
            f"{spec.label()}: functional mismatch — simulated output "
            f"{observed[:4]}... differs from reference {expected[:4]}...")


def _spec_worker(spec: ExperimentSpec) -> SpecResult:
    """Pool entry point: one indirection through the module global.

    Workers call the *current* ``execute_spec`` binding rather than a
    pickled copy, so a forked child inherits any replacement installed in
    the parent — which is how the crash-containment tests plant a worker
    that dies mid-cell.
    """
    return execute_spec(spec)


@dataclass
class ExplorationResult:
    """All results of one sweep, in spec order, plus cache accounting.

    ``results`` holds only the completed design points; cells that failed
    (raised a library error, or crashed their worker past the retry budget)
    appear as :class:`~repro.errors.FailedCell` records in ``failures``
    instead.  ``ok`` is False whenever any cell failed — the CLI turns that
    into a non-zero exit after printing the failure summary.
    """

    results: list[SpecResult] = field(default_factory=list)
    failures: list[FailedCell] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def __len__(self) -> int:
        return len(self.results)

    def to_records(self) -> list[dict]:
        return [result.to_record() for result in self.results]

    def frontier(self, objectives=DEFAULT_OBJECTIVES) -> list[SpecResult]:
        """The Pareto-optimal design points of this sweep."""
        return pareto_frontier(self.results, objectives)

    def table(self) -> str:
        """Aligned per-spec results table."""
        headers = ["design point", "cores", "cycles", "WCET", "bound/obs",
                   "fmax MHz", "cached"]
        rows = []
        for result in self.results:
            params = ", ".join(f"{k}={v}"
                               for k, v in result.parameters.items())
            label = result.kernel + (f" [{params}]" if params else "")
            tightness = (f"{result.tightness:.2f}"
                         if result.tightness is not None else "-")
            rows.append([label, result.cores, result.cycles,
                         result.wcet_cycles if result.wcet_cycles is not None
                         else "-",
                         tightness, f"{result.fmax_mhz:.1f}",
                         "yes" if result.from_cache else "no"])
        return format_table(headers, rows)

    def pareto_summary(self, objectives=DEFAULT_OBJECTIVES) -> str:
        return pareto_table(self.results, objectives)

    def failure_summary(self) -> str:
        """One line per failed cell (empty string when the sweep is clean)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} design point(s) FAILED:"]
        lines.extend(f"  {cell.summary()}" for cell in self.failures)
        return "\n".join(lines)

    def summary(self) -> str:
        executed = self.cache_misses
        failed = (f", {len(self.failures)} failed" if self.failures else "")
        return (f"{len(self.results)} design points in {self.elapsed_s:.2f}s "
                f"({self.cache_hits} cache hits, {executed} executed"
                f"{failed})")


class ExplorationRunner:
    """Execute a parameter space with optional parallelism and caching.

    Cells execute through the shared :mod:`repro.jobs` engine under one
    declarative :class:`~repro.jobs.RetryPolicy`: ``max_retries`` bounds how
    often one cell is re-leased after its worker dies (a cell that keeps
    killing workers is declared poisoned and recorded as a
    :class:`~repro.errors.FailedCell`); ``retry_backoff_s`` is the base of
    the deterministic capped exponential pause between crash-recovery
    attempts, giving a transiently starved machine room to recover;
    ``timeout_class`` names the per-cell wall-clock budget
    (see :data:`repro.jobs.TIMEOUT_CLASSES`).
    """

    #: Longest pause between crash-recovery rounds, in seconds.
    MAX_BACKOFF_S = 2.0

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 max_retries: int = 2, retry_backoff_s: float = 0.05,
                 timeout_class: str = "unbounded"):
        if jobs < 1:
            raise ExplorationError("jobs must be >= 1")
        if max_retries < 0:
            raise ExplorationError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ExplorationError("retry_backoff_s must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.timeout_class = timeout_class

    def policy(self) -> RetryPolicy:
        """The declarative retry policy this runner executes under."""
        return RetryPolicy(max_attempts=self.max_retries + 1,
                           backoff_base_s=self.retry_backoff_s,
                           backoff_cap_s=self.MAX_BACKOFF_S,
                           timeout_class=self.timeout_class)

    def run(self, space: Union[ParameterSpace, Iterable[ExperimentSpec]],
            run_dir: Optional[RunDirectory] = None,
            resume: bool = False) -> ExplorationResult:
        """Run every spec, recalling cached design points where possible.

        With a ``run_dir`` the sweep is durable: every cell state transition
        lands in the run's journal, and ``resume=True`` hands its replay to
        :func:`~repro.jobs.run_jobs`, which delivers the cells recorded
        ``done`` instead of re-executing them (their journaled payload is
        the full result record, so a resumed report is byte-identical —
        modulo elapsed time — to an uninterrupted one).
        On SIGINT/SIGTERM the sweep drains gracefully and raises
        :class:`~repro.errors.SweepInterrupted` carrying the resume command.
        """
        specs = (space.specs() if isinstance(space, ParameterSpace)
                 else list(space))
        started = time.perf_counter()
        results: list[Optional[SpecResult]] = [None] * len(specs)
        failures: list[FailedCell] = []
        #: (key, spec) of each distinct design point to execute.
        pending: list[tuple[str, ExperimentSpec]] = []
        #: Later indices whose spec resolves to the same content as an
        #: earlier pending one (e.g. single-core points of an arbiter
        #: sweep): simulated once, result (or failure) shared.
        duplicates: dict[str, list[tuple[int, ExperimentSpec]]] = {}
        index_of: dict[str, int] = {}
        hits = 0

        for index, spec in enumerate(specs):
            key = spec.key()
            record = self.cache.get(key) if self.cache else None
            if record is not None:
                results[index] = self._labelled(
                    SpecResult.from_record(record), spec)
                hits += 1
            elif key in index_of:
                duplicates.setdefault(key, []).append((index, spec))
            else:
                pending.append((key, spec))
                index_of[key] = index

        def apply_result(result: SpecResult) -> None:
            results[index_of[result.key]] = result
            for dup_index, dup_spec in duplicates.get(result.key, ()):
                # Shared with a point executed in this very run, so it is
                # not a cache recall.
                results[dup_index] = self._labelled(
                    SpecResult.from_record(result.to_record(),
                                           from_cache=False), dup_spec)
            if self.cache is not None:
                self.cache.put(result.key, result.to_record())

        # Cells of one image lease to the worker that already compiled and
        # recorded it (RTOS points share no image).
        cells = [JobCell(key=key, label=spec.label(), payload=spec,
                         affinity=None if spec.rtos else _image_key(spec))
                 for key, spec in pending]

        # Cache every completed design point as it arrives and persist even
        # when the sweep is interrupted, so a re-run is incremental.  Failed
        # cells are never cached (nor journaled as done) — a retry must
        # actually re-execute them.
        try:
            outcome = run_jobs(
                cells, _spec_worker, jobs=self.jobs, policy=self.policy(),
                journal=run_dir.journal() if run_dir is not None else None,
                replay=run_dir.replay() if (run_dir is not None and resume)
                else None,
                contain=lambda error: error.is_repro,
                encode=lambda result: result.to_record(),
                decode=lambda record: SpecResult.from_record(
                    record, from_cache=False),
                on_result=lambda cell, result: apply_result(
                    self._labelled(result, cell.payload)))
            for cell in outcome.failures:
                failures.append(cell)
                failures.extend(
                    replace(cell, label=dup_spec.label())
                    for _, dup_spec in duplicates.get(cell.key, ()))
        finally:
            if self.cache is not None:
                self.cache.save()

        if outcome.interrupted:
            raise sweep_interrupted("explore", run_dir)

        return ExplorationResult(
            results=[result for result in results if result is not None],
            failures=failures,
            cache_hits=hits,
            cache_misses=len(pending),
            elapsed_s=time.perf_counter() - started,
        )

    @staticmethod
    def _labelled(result: SpecResult, spec: ExperimentSpec) -> SpecResult:
        """Attach the requesting spec's display parameters to a recalled
        result, so a shared cache entry never mislabels a design point."""
        result.parameters = dict(spec.parameters)
        return result
