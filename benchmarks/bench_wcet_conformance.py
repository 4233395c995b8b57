"""WCET soundness conformance gate and tightness trajectory.

Runs the differential WCET-vs-simulation matrix of :mod:`repro.verify`
(kernels × cache models × arbiters, co-simulated for multicore points) and
quantifies the tightening win of the refined per-core, per-transfer TDMA
interference bound over the blanket ``period - 1`` charge, emitting a
machine-readable ``BENCH_wcet.json``::

    python benchmarks/bench_wcet_conformance.py [--smoke] [--output PATH]
                                                [--jobs N] [--profile]
                                                [--max-rss-mb N]

The report also records ``peak_rss_mb``, the peak resident set of this
process and of its worker processes, and a ``stages`` section that splits
the conformance matrix by stage: its wall time, the analyses run and the
seconds spent in them, the cache analyses computed, the IPET solves against
the distinct IPET instances among them, the simulations (co-simulation
recordings made, plain ``CycleSimulator.run`` calls and the seconds spent
in both), and the kernel builds and compiles with their seconds.  The
stage counts are taken
in this process, so they are ``null`` when ``--jobs`` above 1 runs the
matrix in worker processes.  The process exits non-zero if

* any scenario observes more cycles than its static bound (a soundness
  violation), or
* the refined TDMA bound does not yield a strictly lower mean tightness
  ratio than the blanket bound on the weighted TDMA configuration, or
* ``--max-rss-mb`` is given and ``peak_rss_mb`` exceeds it.

``--smoke`` restricts the matrix to the performance suite (fast enough for
CI); the JSON schema is identical, so the recorded per-scenario tightness
ratios form a comparable trajectory across commits either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import profiled  # noqa: E402
from repro import PatmosConfig, compile_and_link  # noqa: E402
from repro.cmp import MulticoreSystem  # noqa: E402
from repro.cmp.replay import TraceRecorder  # noqa: E402
from repro.compiler import passes  # noqa: E402
from repro.memory import TdmaSchedule  # noqa: E402
from repro.sim.cycle import CycleSimulator  # noqa: E402
from repro.verify import run_conformance  # noqa: E402
from repro.wcet import analyze_wcet, analyzer  # noqa: E402
from repro.workloads import (KERNEL_BUILDERS, build_kernel,  # noqa: E402
                             resolve_kernels)

#: Weighted TDMA geometry on which the refinement win is demonstrated.
#: Asymmetric slots make the blanket period - 1 charge visibly loose, and
#: the 2x-burst base slot gives every core in-slot head-room (with exactly
#: one burst per slot a weight-1 core's refined bound degenerates to the
#: blanket one: the whole-burst MemoryConfig cost model makes every
#: arbitrated transfer one burst, so the refinement is driven by the
#: per-core slot length).
REFINEMENT_CORES = 4
REFINEMENT_WEIGHTS = (1, 2, 1, 1)
REFINEMENT_SLOT_BURSTS = 2


def tdma_refinement(kernels, config: PatmosConfig) -> dict:
    """Refined vs blanket TDMA tightness on the weighted schedule.

    For every kernel the weighted-TDMA system is co-simulated once; each
    core's observed cycles are then compared against two bounds sharing all
    cache models: the refined per-core, per-transfer interference bound
    (``tdma_core_id`` set) and the blanket schedule-wide bound
    (``tdma_core_id=None``, i.e. ``period - 1`` per transfer).
    """
    schedule = TdmaSchedule(
        num_cores=REFINEMENT_CORES,
        slot_cycles=REFINEMENT_SLOT_BURSTS * config.memory.burst_cycles(),
        slot_weights=REFINEMENT_WEIGHTS)
    rows = []
    for name in kernels:
        kernel = build_kernel(name)
        image, _ = compile_and_link(kernel.program, config)
        system = MulticoreSystem([image] * REFINEMENT_CORES, config,
                                 schedule=schedule)
        result = system.run(analyse=False, strict=True)
        for core in result.cores:
            refined_options = system.wcet_options_for_core(core.core_id)
            blanket_options = dataclasses.replace(refined_options,
                                                  tdma_core_id=None)
            refined = analyze_wcet(image, config,
                                   options=refined_options).wcet_cycles
            blanket = analyze_wcet(image, config,
                                   options=blanket_options).wcet_cycles
            rows.append({
                "kernel": name,
                "core": core.core_id,
                "cycles": core.observed_cycles,
                "refined_wcet": refined,
                "blanket_wcet": blanket,
                "refined_tightness": round(refined / core.observed_cycles, 4),
                "blanket_tightness": round(blanket / core.observed_cycles, 4),
                "refined_sound": refined >= core.observed_cycles,
            })
    mean_refined = sum(r["refined_tightness"] for r in rows) / len(rows)
    mean_blanket = sum(r["blanket_tightness"] for r in rows) / len(rows)
    return {
        "cores": REFINEMENT_CORES,
        "slot_weights": list(REFINEMENT_WEIGHTS),
        "per_core": rows,
        "mean_refined_tightness": round(mean_refined, 4),
        "mean_blanket_tightness": round(mean_blanket, 4),
        "bound_reduction_pct": round(
            100.0 * (1 - mean_refined / mean_blanket), 2),
        "refined_strictly_tighter": mean_refined < mean_blanket,
        "refined_all_sound": all(r["refined_sound"] for r in rows),
    }


#: The cache analyses the analyzer runs, by their names in its module.
CACHE_ANALYSES = ("analyse_method_cache", "analyse_conventional_icache",
                  "analyse_static_cache", "analyse_object_cache",
                  "analyse_stack_cache")


@contextmanager
def wcet_stages():
    """Count and time the WCET stages of the work done inside the block.

    Wraps the analyzer's entry points from outside the program: each
    ``WcetAnalyzer.analyze`` call (count and seconds), each cache analysis
    and each ``solve_ipet`` call.  An IPET instance is the CFG object (one
    per function of an image) with the block costs and loop bounds it was
    solved for, so ``ipet_solves - ipet_instances`` are repeated solves.
    """
    stages = {"analyses": 0, "analysis_s": 0.0, "cache_analyses": 0,
              "ipet_solves": 0, "ipet_instances": 0}
    instances: dict[tuple, object] = {}
    patched = {"solve_ipet": analyzer.solve_ipet,
               **{name: getattr(analyzer, name) for name in CACHE_ANALYSES}}
    analyze = analyzer.WcetAnalyzer.analyze

    def timed_analyze(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return analyze(self, *args, **kwargs)
        finally:
            stages["analyses"] += 1
            stages["analysis_s"] += time.perf_counter() - start

    def cache_analysis(real):
        def counted(*args, **kwargs):
            stages["cache_analyses"] += 1
            return real(*args, **kwargs)
        return counted

    def solve_ipet(cfg, block_costs, loop_bounds=None):
        stages["ipet_solves"] += 1
        # The CFG is kept alive with its key, so its id is never reused.
        instances[(id(cfg), tuple(block_costs.items()),
                   tuple(sorted((loop_bounds or {}).items())))] = cfg
        return patched["solve_ipet"](cfg, block_costs, loop_bounds)

    analyzer.WcetAnalyzer.analyze = timed_analyze
    analyzer.solve_ipet = solve_ipet
    for name in CACHE_ANALYSES:
        setattr(analyzer, name, cache_analysis(patched[name]))
    try:
        yield stages
    finally:
        analyzer.WcetAnalyzer.analyze = analyze
        for name, real in patched.items():
            setattr(analyzer, name, real)
        stages["ipet_instances"] = len(instances)
        stages["analysis_s"] = round(stages["analysis_s"], 4)


@contextmanager
def sim_stages():
    """Count and time the simulations of the work done inside the block.

    Wraps the simulator from outside the program: each co-simulation
    recording (``TraceRecorder.recording``, called once per recording made)
    and each plain ``CycleSimulator.run``.  ``sim_s`` is the time spent in
    the plain runs and in the recorders' ``run_step`` and ``recording``
    calls.
    """
    stages = {"recordings": 0, "plain_sim_runs": 0, "sim_s": 0.0}
    patches = ((CycleSimulator, "run", "plain_sim_runs"),
               (TraceRecorder, "run_step", None),
               (TraceRecorder, "recording", "recordings"))
    # What each class itself defines (None: the method is inherited).
    originals = [cls.__dict__.get(name) for cls, name, _ in patches]

    def timed(real, counter):
        def wrapper(self, *args, **kwargs):
            if counter is not None:
                stages[counter] += 1
            start = time.perf_counter()
            try:
                return real(self, *args, **kwargs)
            finally:
                stages["sim_s"] += time.perf_counter() - start
        return wrapper

    for cls, name, counter in patches:
        setattr(cls, name, timed(getattr(cls, name), counter))
    try:
        yield stages
    finally:
        for (cls, name, _), original in zip(patches, originals):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        stages["sim_s"] = round(stages["sim_s"], 4)


@contextmanager
def build_stages():
    """Count and time the kernel builds and compiles inside the block.

    Wraps, from outside the program, every builder in ``KERNEL_BUILDERS``
    (what ``build_kernel`` calls) and ``compile_program`` (what
    ``compile_and_link`` calls; linking is not included).
    """
    stages = {"builds": 0, "build_s": 0.0, "compiles": 0, "compile_s": 0.0}
    builders = dict(KERNEL_BUILDERS)
    compile_program = passes.compile_program

    def timed(real, counter, seconds):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                stages[counter] += 1
                stages[seconds] += time.perf_counter() - start
        return wrapper

    for name, builder in builders.items():
        KERNEL_BUILDERS[name] = timed(builder, "builds", "build_s")
    passes.compile_program = timed(compile_program, "compiles", "compile_s")
    try:
        yield stages
    finally:
        KERNEL_BUILDERS.update(builders)
        passes.compile_program = compile_program
        stages["build_s"] = round(stages["build_s"], 4)
        stages["compile_s"] = round(stages["compile_s"], 4)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    scale = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # ru_maxrss unit
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / scale


def run_benchmark(smoke: bool, jobs: int = 1) -> dict:
    config = PatmosConfig()
    kernel_set = ("performance",) if smoke else ("all",)
    kernels = resolve_kernels(kernel_set)

    with wcet_stages() as stages, sim_stages() as sims, \
            build_stages() as builds:
        start = time.perf_counter()
        report = run_conformance(kernels=kernel_set, config=config,
                                 jobs=jobs, progress=None)
        matrix_s = time.perf_counter() - start
    stages = {**stages, **sims, **builds}
    if jobs > 1:
        stages = dict.fromkeys(stages)
    stages = {"matrix_s": round(matrix_s, 4), **stages}
    refinement = tdma_refinement(kernels, config)

    payload = report.to_dict()
    return {
        "schema": "bench_wcet_conformance/v1",
        "mode": "smoke" if smoke else "full",
        "kernels": list(kernels),
        "conformance": payload["summary"],
        "scenarios": payload["scenarios"],
        "tdma_refinement": refinement,
        "stages": stages,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="performance-suite subset (CI-sized)")
    parser.add_argument("--output", default="BENCH_wcet.json",
                        help="where to write the JSON report")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the conformance matrix")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 20 "
                             "functions by cumulative time")
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        metavar="N",
                        help="fail if the peak resident set exceeds N MB")
    args = parser.parse_args(argv)

    jobs = args.jobs
    if args.profile and jobs > 1:
        # Worker processes are invisible to the parent's profiler; a
        # parallel profile would show nothing but pool waits.
        print("--profile runs single-process (ignoring --jobs) so the "
              "dump shows conformance work, not IPC waits", file=sys.stderr)
        jobs = 1
    report = profiled(lambda: run_benchmark(smoke=args.smoke, jobs=jobs),
                      args.profile)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    summary = report["conformance"]
    refinement = report["tdma_refinement"]
    print(f"{summary['checked']} core-scenarios: "
          f"{summary['violations']} violations, mean tightness "
          f"{summary['mean_tightness']}, worst {summary['max_tightness']} "
          f"({summary['max_tightness_scenario']})")
    print(f"weighted TDMA ({REFINEMENT_CORES} cores, weights "
          f"{':'.join(map(str, REFINEMENT_WEIGHTS))}): refined mean "
          f"tightness {refinement['mean_refined_tightness']} vs blanket "
          f"{refinement['mean_blanket_tightness']} "
          f"(-{refinement['bound_reduction_pct']}%)")
    stages = report["stages"]
    counts = ("stage counts need --jobs 1" if stages["analyses"] is None
              else f"{stages['analyses']} analyses in {stages['analysis_s']} "
                   f"s, {stages['cache_analyses']} cache analyses, "
                   f"{stages['ipet_solves']} IPET solves of "
                   f"{stages['ipet_instances']} distinct instances, "
                   f"{stages['recordings']} recordings and "
                   f"{stages['plain_sim_runs']} plain runs in "
                   f"{stages['sim_s']} s, {stages['builds']} kernel builds "
                   f"in {stages['build_s']} s, {stages['compiles']} "
                   f"compiles in {stages['compile_s']} s")
    print(f"matrix {stages['matrix_s']} s: {counts}")
    print(f"peak RSS {report['peak_rss_mb']} MB")
    print(f"wrote {args.output}")

    failed = False
    if summary["violations"]:
        print("SOUNDNESS VIOLATION: a simulated execution exceeded its "
              "static WCET bound — failing", file=sys.stderr)
        failed = True
    if not refinement["refined_strictly_tighter"]:
        print("TIGHTNESS REGRESSION: the refined per-core TDMA bound is not "
              "strictly tighter than the blanket period-1 bound — failing",
              file=sys.stderr)
        failed = True
    if not refinement["refined_all_sound"]:
        print("SOUNDNESS VIOLATION: a refined TDMA bound fell below its "
              "co-simulated execution — failing", file=sys.stderr)
        failed = True
    if args.max_rss_mb is not None and report["peak_rss_mb"] > args.max_rss_mb:
        print(f"MEMORY REGRESSION: peak RSS {report['peak_rss_mb']} MB "
              f"exceeds --max-rss-mb {args.max_rss_mb:g} — failing",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
