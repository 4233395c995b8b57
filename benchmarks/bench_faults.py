"""Fault-injection campaign benchmark and zero-overhead gate.

Two measurements, one machine-readable ``BENCH_faults.json``:

* **campaign** — a seeded fault campaign (:func:`repro.faults.
  run_fault_campaign`): memory bit flips corrected by SEC-DED ECC and bus
  transfer errors absorbed by bounded retries, every cell checked against
  its fault-aware WCET bound and its reference output.  The campaign runs
  twice and must produce the same determinism hash (same seed ⇒ same
  faults ⇒ same outcomes).
* **overhead** — the cost of *carrying* the fault machinery when nothing
  is injected: the same co-simulation with no plan vs an empty
  :class:`~repro.faults.FaultPlan`.  A sample of a side is the CPU time of
  K warm co-simulations, K calibrated so that a baseline sample takes at
  least 100 ms; each of N samples interleaves the two sides run by run, and
  each side keeps its best.  Warm runs reuse the recorded traces, but the
  replay memo is dropped before every run, so each run replays them.  The
  empty plan must stay bit-identical and (with ``--max-overhead``) within a
  few percent of the baseline — resilience hooks must not tax the
  fault-free fast path.

::

    python benchmarks/bench_faults.py [--smoke] [--seed N]
                                      [--max-overhead PCT] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import PatmosConfig, compile_and_link  # noqa: E402
from repro.cmp import MulticoreSystem  # noqa: E402
from repro.cmp.replay import forget_replays  # noqa: E402
from repro.faults import FaultPlan, run_fault_campaign  # noqa: E402
from repro.workloads import build_kernel  # noqa: E402


#: A timed sample runs this long at least, so that a few milliseconds of
#: host noise cannot decide the overhead gate.
MIN_SAMPLE_S = 0.1


def _cosimulate(images, config, faults) -> list:
    """Per-core cycles of one warm co-simulation."""
    system = MulticoreSystem(images, config, arbiter="tdma", faults=faults)
    return system.run(analyse=False).observed_by_core()


def _forget_replays(images) -> None:
    """Keep the images' traces but drop their replay memo, so that the
    next co-simulation times a real replay."""
    for image in images:
        forget_replays(image)


def _calibrate(images, config) -> int:
    """Co-simulations per sample: double until that many baseline runs
    take at least :data:`MIN_SAMPLE_S` of CPU time."""
    runs = 1
    while True:
        started = time.process_time()
        for _ in range(runs):
            _forget_replays(images)
            _cosimulate(images, config, None)
        if time.process_time() - started >= MIN_SAMPLE_S:
            return runs
        runs *= 2


def _sample_pair(images, config, runs: int) -> tuple[float, float, bool]:
    """CPU seconds of ``runs`` baseline and ``runs`` empty-plan runs.

    The two sides alternate run by run (in ABBA order), so a drift of the
    host's speed over the sample slows both sides alike.  Also returns
    whether every pair of runs gave the same per-core cycles.
    """
    plans = {"baseline": None, "empty": FaultPlan()}
    sides = tuple(plans)
    seconds = dict.fromkeys(plans, 0.0)
    cycles = {}
    identical = True
    for index in range(runs):
        for side in sides if index % 2 == 0 else sides[::-1]:
            _forget_replays(images)
            started = time.process_time()
            cycles[side] = _cosimulate(images, config, plans[side])
            seconds[side] += time.process_time() - started
        identical = identical and cycles["baseline"] == cycles["empty"]
    return seconds["baseline"], seconds["empty"], identical


def measure_overhead(config, smoke: bool) -> dict:
    """Empty-plan vs plan-free CPU time of warm 4-core co-simulations.

    One sample of a side is ``runs_per_sample`` co-simulations, calibrated
    once so that a baseline sample takes at least :data:`MIN_SAMPLE_S`.
    Each sample interleaves the two sides run by run, ``samples`` samples
    are taken, and each side keeps its best.
    """
    image, _ = compile_and_link(build_kernel("vector_sum").program, config)
    images = [image] * 4
    samples = 9 if smoke else 15
    runs = _calibrate(images, config)  # also records the warm traces
    baseline_s = empty_s = float("inf")
    bit_identical = True
    for _ in range(samples):
        baseline, empty, identical = _sample_pair(images, config, runs)
        baseline_s = min(baseline_s, baseline)
        empty_s = min(empty_s, empty)
        bit_identical = bit_identical and identical
    overhead_pct = ((empty_s - baseline_s) / baseline_s) * 100.0
    return {
        "kernel": "vector_sum",
        "cores": len(images),
        "runs_per_sample": runs,
        "samples": samples,
        "baseline_cpu_s": round(baseline_s, 6),
        "empty_plan_cpu_s": round(empty_s, 6),
        "overhead_pct": round(overhead_pct, 2),
        "bit_identical": bit_identical,
    }


def run_benchmark(seed: int, smoke: bool) -> dict:
    config = PatmosConfig()
    kernels = ("vector_sum",) if smoke else ("vector_sum", "checksum",
                                             "saturate")
    cores = (2,) if smoke else (2, 4)
    campaign_kwargs = dict(seed=seed, kernels=kernels, cores=cores,
                           memory_flips=3, bus_errors=3, config=config)
    first = run_fault_campaign(**campaign_kwargs)
    second = run_fault_campaign(**campaign_kwargs)
    counts = first.counts()
    overhead = measure_overhead(config, smoke)
    report = {
        "schema": "bench_faults/v1",
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "campaign": first.to_dict(),
        "faults": {
            "planned": sum(cell.faults_planned for cell in first.cells),
            "corrected": counts.get("corrected", 0),
            "retried": counts.get("retried", 0),
            "flipped": counts.get("flipped", 0),
            "unrecovered": counts.get("unrecovered", 0),
        },
        "wcet_violations": sum(cell.violations for cell in first.cells),
        "determinism_hash": first.determinism_hash(),
        "determinism_ok": (first.determinism_hash()
                           == second.determinism_hash()),
        "overhead": overhead,
    }
    print(first.table())
    print()
    print(first.summary())
    print(f"  empty-plan overhead: {overhead['overhead_pct']:+.2f}% "
          f"(bit-identical: {overhead['bit_identical']})")
    print(f"  determinism        : "
          f"{'stable' if report['determinism_ok'] else 'UNSTABLE'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small matrix, fewer timing repeats (CI-sized); "
                             "all correctness gates still apply")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail when the empty-plan run is more than PCT "
                             "percent slower than the fault-free baseline")
    parser.add_argument("--output", default="BENCH_faults.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = run_benchmark(seed=args.seed, smoke=args.smoke)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    failed = False
    if not report["campaign"]["ok"]:
        print("fault campaign FAILED (violations, unrecovered faults or "
              "broken outputs)", file=sys.stderr)
        failed = True
    if not report["determinism_ok"]:
        print("campaign is not reproducible: two runs with the same seed "
              "produced different fault logs", file=sys.stderr)
        failed = True
    if not report["overhead"]["bit_identical"]:
        print("empty fault plan changed the simulated timing — the "
              "zero-overhead gate requires bit-identity", file=sys.stderr)
        failed = True
    if (args.max_overhead is not None
            and report["overhead"]["overhead_pct"] > args.max_overhead):
        print(f"PERF REGRESSION: empty-plan overhead "
              f"{report['overhead']['overhead_pct']:.2f}% exceeds the "
              f"allowed {args.max_overhead:.2f}%", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
