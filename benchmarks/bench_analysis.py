"""Static-analysis benchmark: loop-bound inference coverage and tightness.

Measures, over the full workload suite, what the abstract-interpretation
value analysis buys the WCET story:

* **inference coverage** — per kernel, how many loops infer a bound and
  how each audits against the manual annotation (match / adopted /
  flagged / unbounded);
* **annotation-free verification** — every manual ``loop_bound``
  annotation is deleted and the kernel re-analysed; the gate requires the
  inferred-only WCET to be a sound bound on the simulated execution and
  records its delta against the annotated bound;
* **tightness** — WCET with the analysis enabled vs disabled, against
  simulated cycles, so a regression that loosens bounds is visible;
* **lint statistics** — findings per kernel;
* **stages** — what the WCET path spends on the analysis facts, over the
  suite and over seeded loop-free ALU programs: facts seconds, fixpoints
  run and programs whose clobber summaries were built.  A function's
  fixpoint runs only where a loop bound needs it, so a loop-free program
  should show neither.

Emits machine-readable ``BENCH_analysis.json``::

    python benchmarks/bench_analysis.py [--output PATH] [--kernels all]

The run fails (exit 1) when any kernel's inferred-only WCET drops below
its simulated cycles (an unsound bound), when inference coverage falls
below the committed floor, or when enabling the analysis loosens any
bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import analyse_program, lint_program  # noqa: E402
from repro.analysis import facts as facts_module  # noqa: E402
from repro.analysis.loopbounds import STATUS_MATCH  # noqa: E402
from repro.compiler.passes import compile_and_link  # noqa: E402
from repro.sim.cycle import CycleSimulator  # noqa: E402
from repro.wcet.analyzer import WcetOptions, analyze_wcet  # noqa: E402
from repro.workloads.suite import build_kernel, resolve_kernels  # noqa: E402
from repro.workloads.synthetic import random_alu_kernel  # noqa: E402

#: Committed floor: fraction of suite loops whose inferred bound equals
#: the manual annotation.  The suite currently sits at 1.0.
MIN_MATCH_FRACTION = 0.5

#: Seeded loop-free programs of the stages section: (seed, length).
ALU_PROGRAMS = tuple((seed, 32 + 40 * seed) for seed in range(8))
#: Repetitions of the timed facts stage; the fastest one is reported.
STAGE_REPEATS = 5


def _strip_annotations(program):
    for function in program.functions.values():
        for block in function.blocks:
            block.loop_bound = None


def bench_kernel(name: str) -> dict:
    kernel = build_kernel(name)
    facts = analyse_program(kernel.program)
    audits = facts.loop_audits()
    findings = lint_program(kernel.program, facts=facts)

    image, _ = compile_and_link(kernel.program)
    sim = CycleSimulator(image).run()

    t0 = time.perf_counter()
    with_analysis = analyze_wcet(image, options=WcetOptions(analysis=True))
    analysis_seconds = time.perf_counter() - t0
    without = analyze_wcet(image, options=WcetOptions(analysis=False))

    stripped_kernel = build_kernel(name)
    _strip_annotations(stripped_kernel.program)
    stripped_image, _ = compile_and_link(stripped_kernel.program)
    try:
        inferred_only = analyze_wcet(stripped_image).wcet_cycles
    except Exception:  # noqa: BLE001 - recorded, and gated below
        inferred_only = None

    status_counts: dict[str, int] = {}
    for audit in audits:
        status_counts[audit.status] = status_counts.get(audit.status, 0) + 1

    return {
        "loops": len(audits),
        "audit_statuses": status_counts,
        "lint_findings": len(findings),
        "simulated_cycles": sim.cycles,
        "wcet_with_analysis": with_analysis.wcet_cycles,
        "wcet_without_analysis": without.wcet_cycles,
        "wcet_inferred_only": inferred_only,
        "tightness_with_analysis": round(
            with_analysis.wcet_cycles / sim.cycles, 4) if sim.cycles else None,
        "analysis_seconds": round(analysis_seconds, 4),
    }


@contextmanager
def facts_counters():
    """Count the fixpoints the facts run and the summaries they build.

    Wraps the facts module's entry points from outside the program.
    """
    counts = {"fixpoints": 0, "summaries": 0}
    keys = {"analyse_function": "fixpoints", "clobber_summaries": "summaries"}
    patched = {name: getattr(facts_module, name) for name in keys}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, real in patched.items():
        setattr(facts_module, name, counted(keys[name], real))
    try:
        yield counts
    finally:
        for name, real in patched.items():
            setattr(facts_module, name, real)


def bench_stage(programs) -> dict:
    """Facts cost of the WCET analysis of ``programs`` (compiled here).

    ``fixpoints`` and ``programs_with_summaries`` count the work one cold
    WCET analysis per image does; ``facts_s`` is the fastest of
    :data:`STAGE_REPEATS` timed passes of the uncached facts over all
    images.
    """
    images = [compile_and_link(program)[0] for program in programs]
    stage = {"programs": len(images), "functions": 0, "looped_functions": 0,
             "fixpoints": 0, "programs_with_summaries": 0}
    for image in images:
        with facts_counters() as counts:
            analyze_wcet(image)
        stage["fixpoints"] += counts["fixpoints"]
        stage["programs_with_summaries"] += counts["summaries"] > 0
        for func in analyse_program(image.program).functions.values():
            stage["functions"] += 1
            stage["looped_functions"] += bool(func.cfg.natural_loops())
    passes = []
    for _ in range(STAGE_REPEATS):
        start = time.perf_counter()
        for image in images:
            analyse_program(image.program)
        passes.append(time.perf_counter() - start)
    stage["facts_s"] = round(min(passes), 4)
    return stage


def bench_stages(names) -> dict:
    return {
        "suite": bench_stage([build_kernel(name).program for name in names]),
        "loop_free_alu": bench_stage([
            random_alu_kernel(seed, length=length).program
            for seed, length in ALU_PROGRAMS]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", nargs="+", default=["all"])
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_analysis.json")
    args = parser.parse_args(argv)

    names = resolve_kernels(args.kernels)
    kernels = {}
    failures = []
    for name in names:
        result = bench_kernel(name)
        kernels[name] = result
        sim_cycles = result["simulated_cycles"]
        for label, key in (("analysis-on", "wcet_with_analysis"),
                           ("inferred-only", "wcet_inferred_only")):
            bound = result[key]
            if bound is not None and bound < sim_cycles:
                failures.append(
                    f"{name}: {label} WCET {bound} < simulated {sim_cycles}")
        if result["wcet_with_analysis"] > result["wcet_without_analysis"]:
            failures.append(f"{name}: analysis loosened the bound")
        print(f"  {name:<22} loops={result['loops']} "
              f"wcet={result['wcet_with_analysis']} "
              f"sim={sim_cycles} "
              f"inferred_only={result['wcet_inferred_only']}")

    total_loops = sum(k["loops"] for k in kernels.values())
    matched = sum(k["audit_statuses"].get(STATUS_MATCH, 0)
                  for k in kernels.values())
    verified_without_annotations = sum(
        1 for k in kernels.values()
        if k["wcet_inferred_only"] is not None
        and k["wcet_inferred_only"] >= k["simulated_cycles"])
    match_fraction = matched / total_loops if total_loops else 1.0
    if match_fraction < MIN_MATCH_FRACTION:
        failures.append(
            f"inference coverage {match_fraction:.2f} below floor "
            f"{MIN_MATCH_FRACTION}")

    stages = bench_stages(names)
    report = {
        "schema": "bench_analysis/v1",
        "kernels": kernels,
        "stages": stages,
        "summary": {
            "kernel_count": len(kernels),
            "loops": total_loops,
            "loops_matching_annotation": matched,
            "match_fraction": round(match_fraction, 4),
            "kernels_verified_without_annotations":
                verified_without_annotations,
            "lint_findings": sum(
                k["lint_findings"] for k in kernels.values()),
        },
        "gates": {
            "min_match_fraction": MIN_MATCH_FRACTION,
            "failures": failures,
        },
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.output}")
    print(f"loops: {matched}/{total_loops} infer exactly; "
          f"{verified_without_annotations}/{len(kernels)} kernels verify "
          "with annotations deleted")
    for group, stage in stages.items():
        print(f"{group}: {stage['programs']} programs, facts "
              f"{stage['facts_s']} s, {stage['fixpoints']} fixpoints for "
              f"{stage['functions']} functions ({stage['looped_functions']} "
              f"with loops), summaries built for "
              f"{stage['programs_with_summaries']} programs")
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
