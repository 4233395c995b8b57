"""Simulator hot-loop throughput: reference interpreter vs micro-op engine.

Runs the workloads of the E2 (dual-issue), E3 (pipeline timing) and E7
(single-path) experiments on both execution engines (``reference``
interpreter, ``fast`` micro-op engine), on both simulator classes
(functional = no timing hooks, the pure hot-loop measure; cycle = the full
memory hierarchy) and in both decode variants (``plain``, the constructor
default, and ``strict``, the schedule-checking variant that ``repro.verify``,
``repro.explore`` and the perfbench workloads run), measures bundles/sec and
the cold decode time of each workload, verifies that the engines produce
identical results, and emits a machine-readable ``BENCH_sim.json``
(schema v4)::

    python benchmarks/bench_sim_throughput.py [--smoke] [--output PATH]
    python benchmarks/bench_sim_throughput.py \
        --kernels checksum,fir_filter,matmul,saturate --min-speedup 5.0

``--smoke`` runs each workload once per engine and decode variant (fast
enough for CI) and the process exits non-zero if any workload loses golden
equivalence in either variant, so a CI step catches an engine regression
even without stable timing.  The full mode times repeated runs and reports
per-workload and aggregate speed-ups.

``--min-speedup X`` gates the *functional-simulator mean fast-over-reference*
ratio of the plain variant: the run fails if the micro-op engine is less
than ``X`` times the reference interpreter's hot-loop throughput averaged
over the selected workloads.  (The cycle simulator's and the strict
variant's ratios are reported too; the cycle simulator's runtime is
dominated by the shared timing hooks, which no engine can specialise
away.)  ``--kernels`` restricts the workload set (by label) so CI can gate
a small, timing-stable subset.

``decode_s`` is the best cold :func:`~repro.sim.engine.decode_image` time
of a workload's image per variant (its decode cache emptied before each
timing); the summary sums it over the workloads.

If a previously committed report exists (``--baseline``, default the
repository's ``BENCH_sim.json``), its summary is embedded for comparison;
the baseline never gates — absolute machine speed is not reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CompileOptions, CycleSimulator, FunctionalSimulator, \
    PatmosConfig, compile_and_link  # noqa: E402
from repro.sim import ENGINES, decode_image  # noqa: E402
from repro.workloads import PERFORMANCE_SUITE, build_kernel  # noqa: E402
from repro.workloads.kernels import build_linear_search, build_saturate, \
    build_checksum, build_vector_sum  # noqa: E402

SIMS = (("functional", FunctionalSimulator), ("cycle", CycleSimulator))

#: Decode variants: ``strict`` is the one verify and explore run.
VARIANTS = (("plain", False), ("strict", True))

#: The experiment workloads the ISSUE's acceptance criterion names.
EXPERIMENTS: dict[str, list[tuple[str, object, CompileOptions]]] = {
    "E2": [(name, None, CompileOptions(dual_issue=True))
           for name in PERFORMANCE_SUITE],
    "E3": [
        ("checksum_24", build_checksum(24), CompileOptions()),
        ("vector_sum_16", build_vector_sum(16), CompileOptions()),
        ("linear_search_sp", build_linear_search(24, key_index=20),
         CompileOptions(single_path=True)),
    ],
    "E7": [
        ("linear_search_sp_32", build_linear_search(32, key_index=17),
         CompileOptions(single_path=True)),
        ("saturate_ifc", build_saturate(24),
         CompileOptions(if_convert=True)),
    ],
}


def _canonical(result) -> dict:
    return {
        "cycles": result.cycles,
        "bundles": result.bundles,
        "instructions": result.instructions,
        "nops": result.nops,
        "output": result.output,
        "stalls": result.stalls.to_dict(),
        "block_counts": sorted(
            (list(k), v) for k, v in result.block_counts.items()),
        "call_counts": result.call_counts,
        "cache_stats": result.cache_stats,
        "halted": result.halted,
    }


def _measure(image, config, sim_cls, engine: str, strict: bool,
             min_seconds: float) -> tuple[float, int, dict]:
    """Return (best bundles/sec, bundles per run, canonical result)."""
    # Warm-up run: triggers the one-time decode pass and gives us the result
    # for the equivalence check.  Only run() is timed — construction cost is
    # engine-independent and compilation is amortised over a sweep.
    warm = sim_cls(image, config=config, strict=strict, engine=engine).run()
    best = 0.0
    elapsed = 0.0
    while elapsed < min_seconds or best == 0.0:
        sim = sim_cls(image, config=config, strict=strict, engine=engine)
        started = time.perf_counter()
        result = sim.run()
        run_elapsed = time.perf_counter() - started
        elapsed += run_elapsed
        rate = result.bundles / run_elapsed if run_elapsed > 0 else 0.0
        if rate > best:
            best = rate
    return best, warm.bundles, _canonical(warm)


def _decode_seconds(image, config, strict: bool, repeats: int) -> float:
    """Best cold decode time of ``image`` over ``repeats`` timings."""
    best = math.inf
    for _ in range(repeats):
        image._caches.pop("predecoded", None)  # as if the image were new
        started = time.perf_counter()
        decode_image(image, config.pipeline, strict, False)
        best = min(best, time.perf_counter() - started)
    return best


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _geomean(values) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def _load_baseline(path: Path) -> dict | None:
    """The committed report's summary, normalised across schema versions."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    summary = data.get("summary", {})
    if data.get("schema") in ("bench_sim_throughput/v2",
                              "bench_sim_throughput/v3",
                              "bench_sim_throughput/v4"):
        keep = summary
    else:
        # v1 timed the cycle simulator and reported fast-vs-reference only.
        keep = {"cycle": {
            "mean_fast_over_reference": summary.get("geomean_speedup")}}
    return {"path": str(path), "schema": data.get("schema"),
            "mode": data.get("mode"), "summary": keep}


def _summary(values: list[float], rates: list[float]) -> dict:
    return {
        "mean_fast_over_reference": round(_mean(values), 3),
        "geomean_fast_over_reference": round(_geomean(values), 3),
        "min_fast_over_reference": round(min(values), 3),
        "geomean_fast_bundles_per_sec": round(_geomean(rates), 1),
    }


def run_benchmark(smoke: bool, kernels: list[str] | None) -> dict:
    config = PatmosConfig()
    min_seconds = 0.0 if smoke else 0.3
    decode_repeats = 1 if smoke else 20
    report: dict = {
        "schema": "bench_sim_throughput/v4",
        "mode": "smoke" if smoke else "full",
        "engines": list(ENGINES),
        "simulators": [name for name, _ in SIMS],
        "variants": [name for name, _ in VARIANTS],
        "experiments": {},
    }
    ratios = {(sim_name, variant): [] for sim_name, _ in SIMS
              for variant, _ in VARIANTS}
    rates = {key: [] for key in ratios}
    decode_total = {variant: 0.0 for variant, _ in VARIANTS}
    failures = 0
    checked = 0
    selected = 0
    for exp_name, cases in EXPERIMENTS.items():
        workloads = {}
        for label, kernel, options in cases:
            if kernels is not None and label not in kernels:
                continue
            selected += 1
            if kernel is None:
                kernel = build_kernel(label)
            image, _ = compile_and_link(kernel.program, config, options)
            record: dict = {"decode_s": {}}
            for variant, strict in VARIANTS:
                seconds = _decode_seconds(image, config, strict,
                                          decode_repeats)
                record["decode_s"][variant] = float(f"{seconds:.4g}")
                decode_total[variant] += seconds
            equivalent = True
            for sim_name, sim_cls in SIMS:
                record[sim_name] = {}
                for variant, strict in VARIANTS:
                    throughput = {}
                    results = {}
                    for engine in ENGINES:
                        bps, bundles, canonical = _measure(
                            image, config, sim_cls, engine, strict,
                            min_seconds)
                        throughput[engine] = round(bps, 1)
                        results[engine] = canonical
                        record["bundles"] = bundles
                    checked += 1
                    variant_equivalent = all(
                        results[engine] == results["reference"]
                        for engine in ENGINES)
                    if not variant_equivalent:
                        failures += 1
                        equivalent = False
                        print(f"EQUIVALENCE FAILURE: {exp_name}/{label} "
                              f"({sim_name}, {variant})", file=sys.stderr)
                    speedup = {"fast_over_reference": round(_ratio(
                        throughput["fast"], throughput["reference"]), 3)}
                    ratios[sim_name, variant].append(
                        speedup["fast_over_reference"])
                    rates[sim_name, variant].append(throughput["fast"])
                    record[sim_name][variant] = {
                        "throughput_bundles_per_sec": throughput,
                        "speedup": speedup,
                    }
                    print(f"{exp_name:3s} {label:22s} {sim_name:10s} "
                          f"{variant:6s} "
                          f"ref {throughput['reference'] / 1e3:8.1f}k/s  "
                          f"fast {throughput['fast'] / 1e3:8.1f}k/s  "
                          f"f/r {speedup['fast_over_reference']:6.2f}x  "
                          f"{'ok' if variant_equivalent else 'MISMATCH'}")
            print(f"{exp_name:3s} {label:22s} decode     "
                  f"plain {record['decode_s']['plain'] * 1e3:7.3f} ms  "
                  f"strict {record['decode_s']['strict'] * 1e3:7.3f} ms")
            record["equivalent"] = equivalent
            workloads[label] = record
        if not workloads:
            continue
        fr = [w["functional"]["plain"]["speedup"]["fast_over_reference"]
              for w in workloads.values()]
        report["experiments"][exp_name] = {
            "workloads": workloads,
            "functional_mean_fast_over_reference": round(_mean(fr), 3),
            "functional_min_fast_over_reference": round(min(fr), 3),
        }
    if kernels is not None and selected < len(kernels):
        known = {label for cases in EXPERIMENTS.values()
                 for label, _, _ in cases}
        missing = sorted(set(kernels) - known)
        raise SystemExit(f"error: unknown workload labels {missing}; "
                         f"available: {sorted(known)}")
    report["equivalence"] = {"checked": checked, "failures": failures}
    # The plain variant keeps the top-level keys the speed-up gate and
    # earlier reports use; the strict variant sits beside it.
    report["summary"] = {
        sim_name: _summary(ratios[sim_name, "plain"],
                           rates[sim_name, "plain"])
        for sim_name, _ in SIMS
    }
    report["summary"]["strict"] = {
        sim_name: _summary(ratios[sim_name, "strict"],
                           rates[sim_name, "strict"])
        for sim_name, _ in SIMS
    }
    report["summary"]["decode_s"] = {
        variant: float(f"{seconds:.4g}")
        for variant, seconds in decode_total.items()}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single run per workload; equivalence gate only")
    parser.add_argument("--output", default="BENCH_sim.json",
                        help="where to write the JSON report")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated workload labels to run "
                             "(default: all)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the functional simulator's mean "
                             "fast/reference speedup is >= X")
    parser.add_argument("--baseline", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_sim.json"),
        help="committed report to embed for comparison (informational)")
    args = parser.parse_args(argv)

    kernels = ([name.strip() for name in args.kernels.split(",")
                if name.strip()] if args.kernels else None)
    report = run_benchmark(smoke=args.smoke, kernels=kernels)
    baseline = _load_baseline(Path(args.baseline))
    report["baseline"] = baseline
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    functional = summary["functional"]
    print(f"\nwrote {args.output}:")
    for variant, sims in (("plain", summary), ("strict", summary["strict"])):
        for sim_name, _ in SIMS:
            line = sims[sim_name]
            print(f"  {sim_name:10s} {variant:6s} mean fast/ref "
                  f"{line['mean_fast_over_reference']}x, geomean fast "
                  f"{line['geomean_fast_bundles_per_sec'] / 1e3:.1f}k "
                  f"bundles/s")
    print(f"  decode: plain {summary['decode_s']['plain'] * 1e3:.2f} ms, "
          f"strict {summary['decode_s']['strict'] * 1e3:.2f} ms")
    if baseline and isinstance(baseline["summary"].get("functional"), dict):
        base_functional = baseline["summary"]["functional"]
        print(f"  baseline functional mean fast/ref: "
              f"{base_functional.get('mean_fast_over_reference')}x")
    if report["equivalence"]["failures"]:
        print("an engine lost golden equivalence — failing", file=sys.stderr)
        return 1
    if (args.min_speedup is not None
            and functional["mean_fast_over_reference"] < args.min_speedup):
        print(f"engine perf gate FAILED: functional mean fast/reference "
              f"{functional['mean_fast_over_reference']}x < "
              f"{args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
