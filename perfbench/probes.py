"""In-memory spans and counters around the calls into each layer.

The benchmark never edits the program: :func:`install` rebinds the public
entry points of each layer (module functions wherever they were imported by
name, and methods on their class) to thin wrappers that record a span —
name, start, end and the enclosing span — plus a few counters read off the
call's arguments and result.  Spans stay in memory and are summarised when
the pass ends; forked sweep workers write theirs to one file each when they
exit, and the pass merges them.

Two probe sets exist.  An untraced pass installs only the *observers* it
needs for its end-to-end figures (simulated bundles and statistics, and the
per-cell time to verdict): a handful of wrappers around calls that each take
milliseconds.  A traced pass installs every probe.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import hostspeed

# Span record fields (lists, so the end time can be filled in place).
NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans, counters and simulated-statistics records of one process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: ``[start, end]`` perf_counter times of the cell markers: one per
        #: cell brought to a verdict.
        self.cells: list[list[float]] = []
        #: ``[cycles, bundles]`` per simulated core, in call order.
        self.sims: list[list[int]] = []
        #: Repeat keys per kind ("compile", "wcet"), in call order.
        self.keys: dict[str, list[str]] = defaultdict(list)
        #: Span lists merged in from worker processes, one per worker.
        self.worker_spans: list[list[list]] = []
        #: Host reference slice times (s) of this process when it is a
        #: worker, or merged from the workers (see ``hostspeed.py``).
        self.host_slices: list[float] = []

    # -- persistence across forked workers -------------------------------

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans, "counters": self.counters,
            "cells": self.cells, "sims": self.sims, "keys": self.keys,
            "host_slices": self.host_slices}))

    def merge(self, path: Path) -> None:
        data = json.loads(path.read_text())
        self.worker_spans.append(data["spans"])
        self.host_slices.extend(data["host_slices"])
        for key, value in data["counters"].items():
            self.counters[key] += value
        self.cells.extend(data["cells"])
        self.sims.extend(data["sims"])
        for kind, keys in data["keys"].items():
            self.keys[kind].extend(keys)

    def sim_bundles(self) -> int:
        return sum(bundles for _, bundles in self.sims)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from synchronous calls on one thread, so children nest
    strictly inside their parent and never overlap each other.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def inclusive_times(spans: list[list]) -> dict[str, float]:
    """Total duration per span name, counting a span nested inside another
    span of the same name only once (through the outer one)."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            totals[span[NAME]] += span[END] - span[START]
    return totals


def top_level_time(spans: list[list]) -> float:
    """Wall time covered by spans that have no enclosing span."""
    return sum(span[END] - span[START] for span in spans
               if span[PARENT] < 0)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _program_key(program, config, options) -> str:
    data = [(item.name, item.space.value, item.words)
            for item in program.data.values()]
    return _short_hash(json.dumps([str(program), data, config.content_hash(),
                                   repr(options)]))


def _after_compile(tracer, result, args, kwargs):
    program = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    options = args[2] if len(args) > 2 else kwargs.get("options")
    if config is None or options is None:
        from repro.compiler.passes import CompileOptions
        from repro.config import DEFAULT_CONFIG
        config = config or DEFAULT_CONFIG
        options = options or CompileOptions()
    tracer.counters["compiler.bundles_out"] += result.schedule.bundles
    tracer.counters["compiler.instructions"] += result.schedule.instructions
    tracer.keys["compile"].append(_program_key(program, config, options))


def _after_wcet(tracer, result, args, kwargs):
    image = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    options = args[2] if len(args) > 2 else kwargs.get("options")
    config = config or image.config
    options_dict = options.to_dict() if options is not None else None
    tracer.keys["wcet"].append(_short_hash(json.dumps(
        [image.content_hash(), config.content_hash(), options_dict],
        sort_keys=True)))


def _after_sim(tracer, result, args, kwargs):
    tracer.sims.append([result.cycles, result.bundles])
    tracer.counters["sim.bundles"] += result.bundles


def _after_cmp(tracer, result, args, kwargs):
    for core in result.cores:
        tracer.sims.append([core.sim.cycles, core.sim.bundles])
    tracer.counters["cmp.bundles"] += sum(core.sim.bundles
                                          for core in result.cores)
    if result.arbiter_stats is not None:
        tracer.counters["cmp.arbitration_cycles"] += \
            result.system_stats()["totals"]["arbitration_cycles"]


def _after_rtos(tracer, result, args, kwargs):
    for row in result.per_core:
        tracer.sims.append([row["cycles"], row["bundles"]])


def _after_alloc(tracer, result, args, kwargs):
    size = args[1] if len(args) > 1 else kwargs["size_bytes"]
    tracer.counters["memory.allocated_bytes"] += size


def _after_jobs(tracer, result, args, kwargs):
    tracer.counters["jobs.cells"] += len(args[0])
    tracer.counters["jobs.lost_workers"] += result.lost_workers


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point of a layer."""

    name: str                 # span name, "<layer>.<what>"
    module: str
    attr: str                 # "func" or "Class.method"
    #: Installed in untraced passes too (needed for end-to-end figures).
    observer: bool = False
    #: A cell marker times a whole cell; it is no layer and nests nothing.
    marker: bool = False
    #: Count only: no span (used where a span would hide the layers below).
    span: bool = True
    after: Optional[Callable] = None


PROBES: tuple[Probe, ...] = (
    Probe("sim.run", "repro.sim.cycle", "CycleSimulator.run",
          observer=True, after=_after_sim),
    Probe("cmp.run", "repro.cmp.system", "MulticoreSystem.run",
          observer=True, after=_after_cmp),
    Probe("rtos.run", "repro.rtos.system", "RtosSystem.run",
          observer=True, after=_after_rtos),
    Probe("cell.scenario", "repro.verify.harness",
          "ConformanceHarness.run_scenario", observer=True, marker=True),
    Probe("cell.point", "repro.explore.runner", "execute_spec",
          observer=True, marker=True),
    Probe("compiler.compile", "repro.compiler.passes", "compile_program",
          after=_after_compile),
    Probe("compiler.schedule", "repro.compiler.scheduler",
          "schedule_program"),
    Probe("compiler.dependence", "repro.compiler.dependence",
          "build_dependence_graph"),
    Probe("compiler.split", "repro.compiler.function_splitter",
          "split_program"),
    Probe("program.link", "repro.program.linker", "link"),
    Probe("program.dominators", "repro.program.cfg",
          "ControlFlowGraph.dominators"),
    Probe("program.natural_loops", "repro.program.cfg",
          "ControlFlowGraph.natural_loops"),
    Probe("memory.alloc", "repro.memory.main_memory", "MainMemory.__init__",
          after=_after_alloc),
    Probe("analysis.facts", "repro.analysis.facts", "program_facts"),
    Probe("wcet.analyze", "repro.wcet.analyzer", "analyze_wcet",
          after=_after_wcet),
    Probe("ipet.solve", "repro.wcet.ipet", "solve_ipet"),
    Probe("ipet.milp", "scipy.optimize", "milp"),
    Probe("verify.loopcheck", "repro.verify.harness",
          "ConformanceHarness.run_loop_checks"),
    Probe("explore.cache_save", "repro.explore.cache", "ResultCache.save"),
    Probe("jobs.journal", "repro.jobs.journal", "Journal.append"),
    Probe("jobs.run", "repro.jobs.supervisor", "run_jobs", span=False,
          after=_after_jobs),
    Probe("workloads.build", "repro.workloads.suite", "build_kernel"),
)

#: The package whose by-name imports of a probed function are rebound too.
_REBIND_PACKAGE = "repro"


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    after = probe.after
    if probe.marker:
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.cells.append([start, perf_counter()])
    elif not probe.span:
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(tracer, result, args, kwargs)
            return result
    else:
        name = probe.name

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = perf_counter()
            if after is not None:
                after(tracer, result, args, kwargs)
            return result
    return functools.update_wrapper(wrapper, original)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every by-name import of ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        package = module_name.partition(".")[0]
        if module is None or package != _REBIND_PACKAGE:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, traced: bool, worker_dir: Path) -> None:
    """Wrap the probed entry points (all of them when ``traced``).

    ``worker_dir`` receives one span file per sweep worker process.
    """
    for probe in PROBES:
        if not (traced or probe.observer):
            continue
        module = importlib.import_module(probe.module)
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, _wrap(tracer, probe,
                                       getattr(owner, attr)))
        else:
            original = getattr(module, attr)
            wrapper = _wrap(tracer, probe, original)
            setattr(module, attr, wrapper)
            _rebind(original, wrapper)
    _install_worker_hook(tracer, worker_dir)


def _install_worker_hook(tracer: Tracer, worker_dir: Path) -> None:
    """Forked sweep workers start with an empty tracer and their own host
    speed sampler, and write both out when their loop ends (the supervisor
    spawns them through this name)."""
    supervisor = importlib.import_module("repro.jobs.supervisor")
    original = supervisor._worker_main

    def worker_main(*args, **kwargs):
        tracer.reset()
        sampler = hostspeed.Sampler().start()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.host_slices = sampler.stop()
            tracer.dump(worker_dir / f"worker-{os.getpid()}.json")

    supervisor._worker_main = functools.update_wrapper(worker_main, original)


def collect_workers(tracer: Tracer, worker_dir: Path) -> int:
    """Merge every worker span file; returns how many were merged."""
    files = sorted(worker_dir.glob("worker-*.json"))
    for path in files:
        tracer.merge(path)
    return len(files)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------

#: Layers whose self time (span minus child spans) is reported.
SELF_TIME_LAYERS = ("workloads", "compiler", "program", "sim", "cmp",
                    "analysis", "wcet", "rtos", "verify")


def _repeat_ratio(keys: list[str]) -> float:
    """Share of calls whose key an earlier call already had."""
    if not keys:
        return 0.0
    return 1.0 - len(set(keys)) / len(keys)


def span_table(tracer: Tracer) -> dict[str, list]:
    """``name -> [calls, inclusive_s, self_s]`` over every process."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for spans in [tracer.spans] + tracer.worker_spans:
        for span, own in zip(spans, self_times(spans)):
            table[span[NAME]][0] += 1
            table[span[NAME]][2] += own
        for name, total in inclusive_times(spans).items():
            table[name][1] += total
    return dict(table)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (all processes)."""
    table = span_table(tracer)
    calls = defaultdict(int, {name: row[0] for name, row in table.items()})
    inclusive = defaultdict(float,
                            {name: row[1] for name, row in table.items()})
    self_by_name = defaultdict(float,
                               {name: row[2] for name, row in table.items()})
    self_by_layer: dict[str, float] = defaultdict(float)
    for name, own in self_by_name.items():
        self_by_layer[name.split(".", 1)[0]] += own
    counters = tracer.counters
    compiled = counters["compiler.bundles_out"]
    cmp_s = inclusive["cmp.run"]
    metrics = {
        "compiler.calls": calls["compiler.compile"],
        "compiler.s": inclusive["compiler.compile"],
        "compiler.schedule_s": inclusive["compiler.schedule"],
        "compiler.dependence_s": inclusive["compiler.dependence"],
        "compiler.dependence_calls": calls["compiler.dependence"],
        "compiler.split_s": inclusive["compiler.split"],
        "compiler.bundles_out": compiled,
        "compiler.slot_utilisation": (
            counters["compiler.instructions"] / (2 * compiled)
            if compiled else 0.0),
        "compiler.repeat_ratio": _repeat_ratio(tracer.keys["compile"]),
        "program.link_s": inclusive["program.link"],
        "program.dominators_calls": calls["program.dominators"],
        "program.dominators_s": inclusive["program.dominators"],
        "program.natural_loops_calls": calls["program.natural_loops"],
        "program.natural_loops_s": inclusive["program.natural_loops"],
        "sim.runs": calls["sim.run"],
        "sim.run_s": inclusive["sim.run"],
        "sim.bundles": counters["sim.bundles"],
        "cmp.runs": calls["cmp.run"],
        "cmp.run_s": cmp_s,
        "cmp.bundles": counters["cmp.bundles"],
        "cmp.bundles_per_s": counters["cmp.bundles"] / cmp_s if cmp_s else 0.0,
        "cmp.arbitration_cycles": counters["cmp.arbitration_cycles"],
        "memory.allocations": calls["memory.alloc"],
        "memory.alloc_s": inclusive["memory.alloc"],
        "memory.allocated_mb": counters["memory.allocated_bytes"] / 2 ** 20,
        "analysis.facts_calls": calls["analysis.facts"],
        "analysis.facts_s": inclusive["analysis.facts"],
        "wcet.analyses": calls["wcet.analyze"],
        "wcet.ipet_solves": calls["ipet.solve"],
        "wcet.ipet_build_s": self_by_name["ipet.solve"],
        "wcet.milp_s": inclusive["ipet.milp"],
        "wcet.repeat_ratio": _repeat_ratio(tracer.keys["wcet"]),
        "rtos.runs": calls["rtos.run"],
        "rtos.run_s": inclusive["rtos.run"],
        "verify.loopcheck_s": inclusive["verify.loopcheck"],
        "explore.cache_save_s": inclusive["explore.cache_save"],
        "jobs.cells": counters["jobs.cells"],
        "jobs.lost_workers": counters["jobs.lost_workers"],
        "jobs.journal_s": inclusive["jobs.journal"],
        "trace.spans": sum(row[0] for row in table.values()),
        "trace.unattributed_s": wall_s - top_level_time(tracer.spans),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    return metrics
