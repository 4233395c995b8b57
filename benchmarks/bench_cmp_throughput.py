"""Multicore co-simulation throughput: event-driven vs quantum scheduling.

Co-simulates a mixed workload on 1/2/4/8 cores under TDMA and round-robin
arbitration with *both* interleaving schedulers — the event-driven default
(``scheduler="event"``, which records one trace per image and replays it)
and the quantum-polling reference (``scheduler="reference"``) — measures
aggregate simulated bundles per second of wall time, records the scheduler
activity (slices / releases / recorded traces per run), verifies the TDMA
decoupling property (co-simulated per-core cycles identical to each core
simulated alone on its port of a ``TdmaBusArbiter``) *and* the scheduler
equivalence (event and reference timing bit-identical), and emits a machine-readable ``BENCH_cmp.json``
(schema v5)::

    python benchmarks/bench_cmp_throughput.py [--smoke] [--output PATH]
                                              [--min-speedup X] [--profile]

The event scheduler is timed twice per configuration: *cold* runs start
from images without cached traces, so every run records its traces before
replaying them (what the first co-simulation of a fresh image costs);
*warm* runs reuse the traces the previous run cached (what every further
arbiter or core count of the same image costs).  A warm run still replays:
the replay memo, which would answer a rerun of the same traces under the
same arbitration without replaying, is dropped before every run.  Host
speed swings between timing loops, so the cold and quantum rows are each
the median of :data:`REPEATS` loops, taken in interleaved cold/quantum
pairs, with their quartiles; ``cold_vs_quantum_speedup`` is the median of
the pairs' ratios.

The ``method_cache_sweep`` stage times a seeded ``repro.explore`` sweep
(jobs=1, no WCET) of scaled kernels over method-cache sizes, one and two
cores, from cold images.  It reports the recordings made, the traces
reused from another method cache and the candidates rejected because that
method cache fills differently, the co-simulations replayed and those
answered from the replay memo, ``record_s``, the time spent on trace
cache misses (recording, or checking a candidate), and ``replay_s``, the
time the event scheduler spent replaying traces, all read from
:data:`repro.cmp.replay.trace_counts`; ``wall_s`` also covers compiling
and the runner.  On a source without some of those counters the stage
reports the others.  A committed report may also carry a ``baseline``: the
same script's report on an earlier commit's source, for comparison; the
script never writes it.

``--smoke`` runs every configuration once (fast enough for CI); the
decoupling and scheduler-equivalence gates still apply, so a CI step
catches an interference leak or a scheduler divergence even without stable
timing.  ``--min-speedup X`` additionally fails the run when the measured
``cold_vs_quantum_speedup`` (the median ratio) on the 4-core TDMA mix
falls below ``X`` (the CI perf gate).  ``--profile`` dumps the top 20
functions by cumulative time so future performance work starts from data.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import profiled  # noqa: E402
from repro import PatmosConfig, compile_and_link  # noqa: E402
from repro.cmp import MulticoreSystem  # noqa: E402
from repro.cmp import replay  # noqa: E402
from repro.cmp.replay import traces_of  # noqa: E402
from repro.explore import ExplorationRunner, ParameterSpace  # noqa: E402
from repro.memory import TdmaBusArbiter  # noqa: E402
from repro.sim.cycle import CycleSimulator  # noqa: E402
from repro.workloads import build_kernel  # noqa: E402
from repro.workloads import images as images_module  # noqa: E402

CORE_COUNTS = (1, 2, 4, 8)
ARBITERS = ("tdma", "round_robin")
#: Mixed per-core programs (repeated to the core count) so the cores'
#: clocks diverge the way a real workload mix does.
MIX = ("vector_sum", "stream_checksum", "fir_filter", "saturate")


#: The method-cache sweep stage: scaled kernels (seeded data), the sizes
#: (call_tree's method cache evicts below 1024 B, large_function's at
#: every size) and the repetitions of a full run.
SWEEP_KERNELS = {
    "matmul": {"n": 8},
    "bubble_sort": {"n": 24},
    "fir_filter": {"taps": 8, "n": 128},
    "stream_checksum": {"n": 256},
    "call_tree": {"iterations": 64},
    "large_function": {},
}
SWEEP_SIZES = (256, 512, 1024, 2048, 4096)
SWEEP_SEED = 7
SWEEP_REPEATS = 5
#: Interleaved cold/quantum timing loops per configuration (full mode).
REPEATS = 5
#: Counters of :data:`repro.cmp.replay.trace_counts` the sweep reports.
SWEEP_COUNTS = ("recorded", "reused", "rejected", "replays",
                "replays_reused")


def _images(config):
    images = []
    for name in MIX:
        image, _ = compile_and_link(build_kernel(name).program, config)
        images.append(image)
    return images


def _measure(images, config, arbiter: str, scheduler: str,
             min_seconds: float, cold: bool = False):
    """Run one co-simulation repeatedly; returns (report_row, result).

    ``cold`` drops the images' cached traces before every run; otherwise
    only their replay memo is dropped, so every run replays.
    """
    forget = getattr(replay, "forget_replays", None)
    elapsed = 0.0
    bundles = 0
    runs = 0
    result = None
    while elapsed < min_seconds or result is None:
        for image in images:
            if cold:
                traces_of(image).clear()
            elif forget is not None:
                forget(image)
        system = MulticoreSystem(images, config, arbiter=arbiter,
                                 scheduler=scheduler)
        started = time.perf_counter()
        result = system.run(analyse=False, strict=True)
        elapsed += time.perf_counter() - started
        bundles += sum(core.sim.bundles for core in result.cores)
        runs += 1
    stats = result.scheduler_stats or {}
    row = {
        "bundles_per_run": sum(core.sim.bundles for core in result.cores),
        "bundles_per_sec": round(bundles / elapsed, 1),
        "wall_s_per_run": round(elapsed / runs, 6),
        "makespan": result.makespan,
        "arbitration_wait_cycles":
            result.system_stats()["totals"]["arbitration_cycles"],
        "slices": stats.get("slices"),
        "releases": stats.get("releases"),
        "recorded": stats.get("recorded"),
    }
    return row, result


def _quartiles(values: list) -> list:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _median_row(rows: list) -> dict:
    """One row for several timing loops of a configuration: the median
    throughput and time per run, the throughput's quartiles and the
    number of loops."""
    row = dict(rows[0])
    rates = [r["bundles_per_sec"] for r in rows]
    q1, median, q3 = _quartiles(rates)
    row.update(
        bundles_per_sec=round(median, 1),
        bundles_per_sec_quartiles=[round(q1, 1), round(q3, 1)],
        wall_s_per_run=round(statistics.median(
            r["wall_s_per_run"] for r in rows), 6),
        repeats=len(rows))
    return row


def _measure_pairs(images, config, arbiter: str, min_seconds: float,
                   repeats: int):
    """Interleaved cold event and quantum timing loops.

    Returns the cold row, the quantum row and its result, and the median
    of the pairs' cold/quantum throughput ratios: a pair's two loops run
    back to back, so a swing of the host's speed moves both.
    """
    colds, quanta, ratios = [], [], []
    for _ in range(repeats):
        cold, _ = _measure(images, config, arbiter, "event", min_seconds,
                           cold=True)
        quantum, reference = _measure(images, config, arbiter, "reference",
                                      min_seconds)
        colds.append(cold)
        quanta.append(quantum)
        ratios.append(cold["bundles_per_sec"] / quantum["bundles_per_sec"])
    return (_median_row(colds), _median_row(quanta), reference,
            round(statistics.median(ratios), 2))


def _sweep_space() -> ParameterSpace:
    rng = random.Random(SWEEP_SEED)
    params = {}
    for kernel, sizes in SWEEP_KERNELS.items():
        params[kernel] = dict(sizes)
        if kernel not in ("call_tree", "large_function"):  # no data
            params[kernel]["seed"] = rng.randrange(1, 2 ** 31)
    return (ParameterSpace(list(SWEEP_KERNELS), kernel_params=params,
                           analyse_wcet=False)
            .axis("cores", [1, 2])
            .axis("method_cache_size", list(SWEEP_SIZES)))


def _sweep_once(space: ParameterSpace) -> dict:
    """One cold sweep: its cells, wall time and trace-cache activity."""
    counts = getattr(replay, "trace_counts", None)
    before = dict(counts or {})
    images_module._images.clear()  # cold: every image compiles, no trace
    try:
        started = time.perf_counter()
        outcome = ExplorationRunner(jobs=1, cache=None).run(space)
        wall_s = time.perf_counter() - started
    finally:
        images_module._images.clear()
    if not outcome.ok:
        raise RuntimeError(f"method-cache sweep failed: {outcome.failures}")
    run = {"cells": len(outcome.results), "wall_s": wall_s}
    if counts is not None:
        run.update({name: counts[name] - before[name]
                    for name in SWEEP_COUNTS if name in counts},
                   record_s=counts["miss_s"] - before["miss_s"],
                   replay_s=counts["replay_s"] - before["replay_s"])
    return run


def run_sweep_stage(smoke: bool) -> dict:
    """The method-cache sweep stage: counts of one run, median times."""
    space = _sweep_space()
    runs = [_sweep_once(space) for _ in range(1 if smoke else SWEEP_REPEATS)]
    stage = {"seed": SWEEP_SEED, "kernels": SWEEP_KERNELS,
             "method_cache_sizes": list(SWEEP_SIZES), "cores": [1, 2],
             "repeats": len(runs)}
    for name in ("cells",) + SWEEP_COUNTS:
        if name in runs[0]:
            stage[name] = runs[0][name]
    for name in ("wall_s", "record_s", "replay_s"):
        if name in runs[0]:
            stage[name] = round(statistics.median(run[name]
                                                  for run in runs), 6)
    print("method-cache sweep: " + ", ".join(
        f"{name} {stage[name]}" for name in
        ("cells",) + SWEEP_COUNTS + ("record_s", "replay_s", "wall_s")
        if name in stage))
    return stage


def run_benchmark(smoke: bool) -> dict:
    config = PatmosConfig()
    base_images = _images(config)
    min_seconds = 0.0 if smoke else 0.3
    repeats = 1 if smoke else REPEATS
    report: dict = {
        "schema": "bench_cmp_throughput/v5",
        "mode": "smoke" if smoke else "full",
        "mix": list(MIX),
        "cores": {},
    }
    divergences = 0
    for cores in CORE_COUNTS:
        images = [base_images[i % len(MIX)] for i in range(cores)]
        per_arbiter = {}
        for arbiter in ARBITERS:
            cold, quantum, reference, speedup = _measure_pairs(
                images, config, arbiter, min_seconds, repeats)
            warm, event = _measure(images, config, arbiter, "event",
                                   min_seconds)
            cell: dict = {"event": {"cold": cold, "warm": warm},
                          "reference": quantum,
                          "cold_vs_quantum_speedup": speedup,
                          "warm_vs_quantum_speedup": round(
                              warm["bundles_per_sec"]
                              / quantum["bundles_per_sec"], 2)}
            # Scheduler-equivalence gate: the event-driven and quantum
            # schedulers must report bit-identical per-core timing.
            cell["schedulers_match"] = (
                event.observed_by_core() == reference.observed_by_core()
                and event.arbiter_stats == reference.arbiter_stats)
            if not cell["schedulers_match"]:
                divergences += 1
                print(f"SCHEDULER DIVERGENCE at {cores} cores/{arbiter}: "
                      f"event {event.observed_by_core()} != reference "
                      f"{reference.observed_by_core()}", file=sys.stderr)
            if arbiter == "tdma":
                # The decoupling gate: every TDMA-co-simulated core must
                # match a run of the core alone on its port of the TDMA
                # arbiter, cycle for cycle.
                expected = [
                    CycleSimulator(image, config=config, strict=True,
                                   arbiter=TdmaBusArbiter(event.schedule)
                                   .port(core_id), core_id=core_id)
                    .run().cycles
                    for core_id, image in enumerate(images)]
                cell["decoupling_ok"] = (
                    event.observed_by_core() == expected
                    and reference.observed_by_core() == expected)
                if not cell["decoupling_ok"]:
                    divergences += 1
                    print(f"DECOUPLING FAILURE at {cores} cores: cosim "
                          f"{event.observed_by_core()} != independent "
                          f"{expected}", file=sys.stderr)
            per_arbiter[arbiter] = cell
            print(f"{cores} cores  {arbiter:12s} "
                  f"cold {cold['bundles_per_sec'] / 1e3:8.1f}k  "
                  f"warm {warm['bundles_per_sec'] / 1e3:8.1f}k  "
                  f"quantum {quantum['bundles_per_sec'] / 1e3:8.1f}k  "
                  f"speedup {cell['cold_vs_quantum_speedup']:5.2f}x cold "
                  f"{cell['warm_vs_quantum_speedup']:5.2f}x warm  "
                  f"{'ok' if cell['schedulers_match'] and cell.get('decoupling_ok', True) else 'DIVERGED'}")
        report["cores"][str(cores)] = per_arbiter
    report["decoupling"] = {
        "checked": len(CORE_COUNTS) + len(CORE_COUNTS) * len(ARBITERS),
        "divergences": divergences,
    }
    report["method_cache_sweep"] = run_sweep_stage(smoke)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single run per configuration; decoupling and "
                             "equivalence gates only")
    parser.add_argument("--output", default="BENCH_cmp.json",
                        help="where to write the JSON report")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless cold event runs (recording "
                             "included) are at least X times faster than "
                             "the quantum scheduler on the 4-core TDMA mix "
                             "(median of the interleaved pairs' ratios)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 20 "
                             "functions by cumulative time")
    args = parser.parse_args(argv)

    report = profiled(lambda: run_benchmark(smoke=args.smoke), args.profile)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if report["decoupling"]["divergences"]:
        print("co-simulation diverged (decoupling or scheduler "
              "equivalence) — failing", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        speedup = report["cores"]["4"]["tdma"]["cold_vs_quantum_speedup"]
        if speedup < args.min_speedup:
            print(f"PERF REGRESSION: cold event runs only {speedup:.2f}x "
                  f"the quantum scheduler on the 4-core TDMA mix "
                  f"(required {args.min_speedup:.2f}x) — failing",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
