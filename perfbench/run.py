"""End-to-end benchmark of the Patmos reproduction's cell pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_matrix --seed 1 \
        --seconds 38 --trace 0

Every pass runs in a fresh process with fresh run, generated-code and
result-cache directories under ``.perfbench/`` in the checkout, so no pass
is warmed by another one or by ``~/.cache/repro``; memoisation inside a
pass still counts.  Passes repeat until ``--seconds`` of measuring is used
(at least one).  With ``--trace 1`` untraced and traced passes alternate:
the traced ones give the per-layer metrics, the difference in wall time
gives the tracing overhead.

The host's speed swings from second to second, so every process of a pass
times a fixed reference slice in the background (``hostspeed.py``), and the
pass's host times are scaled to the reference speed before the medians are
taken; set-up time too, from a sampler that starts with the pass process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over passes) with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``correct`` requires every simulated output to match its reference, every
WCET bound to cover its observation, no failed cell, and the digest of the
simulated statistics to be identical in every pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import stats
import workloads

#: End-to-end metrics and their units (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_bundles_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_p75_ms": "ms",
}

#: Per-layer metrics and their units (reported with ``--trace 1``).
PER_LAYER = {
    "setup.import_s": "s",
    "workloads.build_s": "s",
    "workloads.self_s": "s",
    "compiler.calls": "count",
    "compiler.s": "s",
    "compiler.schedule_s": "s",
    "compiler.dependence_s": "s",
    "compiler.dependence_calls": "count",
    "compiler.split_s": "s",
    "compiler.bundles_out": "count",
    "compiler.slot_utilisation": "ratio",
    "compiler.repeat_ratio": "ratio",
    "compiler.self_s": "s",
    "program.link_s": "s",
    "program.dominators_calls": "count",
    "program.dominators_s": "s",
    "program.natural_loops_calls": "count",
    "program.natural_loops_s": "s",
    "program.self_s": "s",
    "sim.runs": "count",
    "sim.run_s": "s",
    "sim.bundles": "count",
    "sim.self_s": "s",
    "cmp.runs": "count",
    "cmp.run_s": "s",
    "cmp.bundles": "count",
    "cmp.bundles_per_s": "1/s",
    "cmp.arbitration_cycles": "cycles",
    "cmp.self_s": "s",
    "memory.allocations": "count",
    "memory.alloc_s": "s",
    "memory.allocated_mb": "MB",
    "analysis.facts_calls": "count",
    "analysis.facts_s": "s",
    "analysis.self_s": "s",
    "wcet.analyses": "count",
    "wcet.self_s": "s",
    "wcet.ipet_solves": "count",
    "wcet.ipet_build_s": "s",
    "wcet.milp_s": "s",
    "wcet.repeat_ratio": "ratio",
    "wcet.tightness_mean": "ratio",
    "rtos.runs": "count",
    "rtos.run_s": "s",
    "rtos.self_s": "s",
    "verify.core_scenarios": "count",
    "verify.loopcheck_s": "s",
    "verify.self_s": "s",
    "explore.points": "count",
    "explore.executed": "count",
    "explore.cache_hits": "count",
    "explore.cache_save_s": "s",
    "jobs.cells": "count",
    "jobs.lost_workers": "count",
    "jobs.journal_records": "count",
    "jobs.journal_bytes": "bytes",
    "jobs.journal_s": "s",
    "jobs.worker_utilisation": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "host.slice_s": "s",
}

#: Every run ends within 180 s; passes stop starting well before that.
HARD_LIMIT_S = 170.0
#: Set-up is measured at least this many times per run (median reported).
SETUP_SAMPLES = 5
#: Set-up-only passes run before the timed passes (they also warm the
#: interpreter's bytecode cache of a fresh checkout).
SETUP_FIRST = 2

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")


class BenchError(Exception):
    """A pass could not produce a result."""


def _child_env(scratch: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_RUNS_DIR": str(scratch / "runs"),
        "REPRO_JIT_CACHE_DIR": str(scratch / "jit"),
        "TMPDIR": str(scratch / "tmp"),
    })
    return env


def run_child(scratch: Path, workload: str, seed: int, deadline: float,
              traced: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh process group and return its result."""
    (scratch / "tmp").mkdir(parents=True)
    out = scratch / "result.json"
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), "--scratch", str(scratch),
               "--out", str(out)]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    # Child output goes to stderr: the last stdout line belongs to the run.
    process = subprocess.Popen(command, env=_child_env(scratch), cwd=scratch,
                               stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchError(f"{workload} pass exceeded the time limit")
    finally:
        # Sweep workers share the pass's process group; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError(f"{workload} pass exited with code {code}")
    result = json.loads(out.read_text())
    result["duration_s"] = time.perf_counter() - started
    result["traced"] = traced
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def _host_facts() -> str:
    versions = []
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions.append(f"{package}={metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package}=missing")
    return (f"host: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            + " ".join(versions))


def _scaled_wall(passes: list[dict]) -> list[float]:
    return [p["wall_s"] * p["scale"] for p in passes]


def end_to_end(plain: list[dict], setup_samples: list[float]) -> dict:
    """Medians over the untraced passes, each pass's host times scaled to
    the reference host speed."""
    # Cells (each already scaled by the host speed around it) pool over
    # passes: the pool holds more samples per percentile.
    cells = [cell for p in plain for cell in p["cells_ms"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(_scaled_wall(plain)),
        "cpu_s": statistics.median([p["cpu_s"] * p["scale"] for p in plain]),
        "peak_rss_mb": statistics.median(
            [p["peak_rss_mb"] for p in plain]),
        "sim_bundles_per_s": statistics.median(
            [p["bundles"] / wall for p, wall in zip(plain,
                                                    _scaled_wall(plain))]),
        "cell_p50_ms": stats.percentile(cells, 500),
        "cell_p75_ms": stats.percentile(cells, 750),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(_scaled_wall(traced))
                             - statistics.median(_scaled_wall(plain)))
        elif name == "host.slice_s":
            metrics[name] = statistics.median(
                [hostspeed.REFERENCE_SLICE_S / p["scale"] for p in traced])
        else:
            metrics[name] = statistics.median(
                [p["layer"][name] for p in traced])
    return metrics


def print_spans(table: dict) -> None:
    """The first traced pass's spans, summed per name over all processes."""
    print(f"{'span':24s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}")
    for name, (calls, inclusive, own) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        print(f"{name:24s} {calls:8d} {inclusive:12.4f} {own:10.4f}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            base: Path) -> tuple[list[dict], list[float]]:
    """Run the set-up samples and the timed passes of one run."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    counter = itertools.count()

    def child(**kwargs) -> dict:
        return run_child(base / f"pass-{next(counter)}", workload, seed,
                         deadline, **kwargs)

    def setup_s(result: dict) -> float:
        return result["setup_s"] * result["setup_scale"]

    setup = [setup_s(child(setup_only=True)) for _ in range(SETUP_FIRST)]
    passes: list[dict] = []
    kinds = itertools.cycle([False, True] if trace else [False])
    measuring = time.perf_counter()
    while True:
        passes.append(child(traced=next(kinds)))
        typical = statistics.median([p["duration_s"] for p in passes])
        complete = not trace or any(p["traced"] for p in passes)
        now = time.perf_counter()
        if complete and now - measuring + typical > seconds:
            break
        if now + typical > deadline:
            if not complete:
                raise BenchError("no time left for a traced pass")
            break
    setup.extend(setup_s(p) for p in passes)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_s(child(setup_only=True)))
    return passes, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        passes, setup = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), base)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and len(digests) == 1

    pooled = sum(len(p["cells_ms"]) for p in plain)
    top = stats.highest_percentile(pooled)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setup)} set-up samples")
    print(f"cells pooled over untraced passes: {pooled}; highest percentile "
          f"with >= {stats.MIN_BEYOND} samples beyond it: "
          + (f"p{top / 10:g}" if top else "none"))
    print(f"digest {args.workload} seed={args.seed}: {' '.join(digests)}"
          + (" (identical in every pass)" if len(digests) == 1
             else " (MISMATCH between passes)"))
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"wall_s of {label} passes as measured (x scale to the "
                  "reference speed, host slices): "
                  + " ".join(f"{p['wall_s']:.3f} (x{p['scale']:.3f}, "
                             f"{p['slices']})" for p in group))
    tightness = plain[0]["tightness"] if plain else None
    if tightness is not None:
        print(f"wcet tightness mean (bound/observed): {tightness:.6f}")
    print(_host_facts())

    if args.trace:
        print_spans(traced[0]["spans"])
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain, setup), END_TO_END
    for name, value in values.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
