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
(schema v3)::

    python benchmarks/bench_cmp_throughput.py [--smoke] [--output PATH]
                                              [--min-speedup X] [--profile]

The event scheduler is timed twice per configuration: *cold* runs start
from images without cached traces, so every run records its traces before
replaying them (what the first co-simulation of a fresh image costs);
*warm* runs reuse the traces the previous run cached (what every further
arbiter or core count of the same image costs).

``--smoke`` runs every configuration once (fast enough for CI); the
decoupling and scheduler-equivalence gates still apply, so a CI step
catches an interference leak or a scheduler divergence even without stable
timing.  ``--min-speedup X`` additionally fails the run when the measured
``cold_vs_quantum_speedup`` on the 4-core TDMA mix falls below ``X`` (the
CI perf gate).  ``--profile`` dumps the top 20 functions by cumulative time
so future performance work starts from data.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import profiled  # noqa: E402
from repro import PatmosConfig, compile_and_link  # noqa: E402
from repro.cmp import MulticoreSystem  # noqa: E402
from repro.cmp.replay import traces_of  # noqa: E402
from repro.memory import TdmaBusArbiter  # noqa: E402
from repro.sim.cycle import CycleSimulator  # noqa: E402
from repro.workloads import build_kernel  # noqa: E402

CORE_COUNTS = (1, 2, 4, 8)
ARBITERS = ("tdma", "round_robin")
#: Mixed per-core programs (repeated to the core count) so the cores'
#: clocks diverge the way a real workload mix does.
MIX = ("vector_sum", "stream_checksum", "fir_filter", "saturate")


def _images(config):
    images = []
    for name in MIX:
        image, _ = compile_and_link(build_kernel(name).program, config)
        images.append(image)
    return images


def _measure(images, config, arbiter: str, scheduler: str,
             min_seconds: float, cold: bool = False):
    """Run one co-simulation repeatedly; returns (report_row, result).

    ``cold`` drops the images' cached traces before every run.
    """
    elapsed = 0.0
    bundles = 0
    runs = 0
    result = None
    while elapsed < min_seconds or result is None:
        if cold:
            for image in images:
                traces_of(image).clear()
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


def run_benchmark(smoke: bool) -> dict:
    config = PatmosConfig()
    base_images = _images(config)
    min_seconds = 0.0 if smoke else 0.3
    report: dict = {
        "schema": "bench_cmp_throughput/v3",
        "mode": "smoke" if smoke else "full",
        "mix": list(MIX),
        "cores": {},
    }
    divergences = 0
    for cores in CORE_COUNTS:
        images = [base_images[i % len(MIX)] for i in range(cores)]
        per_arbiter = {}
        for arbiter in ARBITERS:
            cold, _ = _measure(images, config, arbiter, "event",
                               min_seconds, cold=True)
            warm, event = _measure(images, config, arbiter, "event",
                                   min_seconds)
            quantum, reference = _measure(images, config, arbiter,
                                          "reference", min_seconds)
            cell: dict = {"event": {"cold": cold, "warm": warm},
                          "reference": quantum}
            for kind, row in (("cold", cold), ("warm", warm)):
                cell[f"{kind}_vs_quantum_speedup"] = round(
                    row["bundles_per_sec"] / quantum["bundles_per_sec"], 2)
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
                             "the quantum scheduler on the 4-core TDMA mix")
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
