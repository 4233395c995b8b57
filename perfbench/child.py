"""One benchmark pass in a fresh process: set up, run one workload, report.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/child.py --workload NAME --seed N --scratch DIR \
        --out FILE [--traced] [--setup-only]

Set-up is the import of the program plus the generation of the inputs.
The timed phase is one :func:`workloads.execute`, during which a
:class:`hostspeed.Sampler` in this process and in every sweep worker times
the host's speed.  The pass writes one JSON object to ``--out``; a library
error inside the workload is reported there as a failed cell, anything
else ends the process with a traceback.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hostspeed  # noqa: E402

# Set-up is timed from here on, so its host speed is sampled from here on.
_SETUP_SAMPLER = hostspeed.Sampler().start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _journal_stats(runs_root: Path) -> tuple[int, int]:
    records = size = 0
    for path in runs_root.glob("*/journal.jsonl"):
        data = path.read_bytes()
        records += data.count(b"\n")
        size += len(data)
    return records, size


def run_pass(workload: str, seed: int, scratch: Path, traced: bool,
             setup_only: bool) -> dict:
    workloads.import_modules()
    imported = time.perf_counter()
    inputs = workloads.generate(workload, seed)
    built = time.perf_counter()
    result = {"import_s": imported - _STARTED, "build_s": built - imported,
              "setup_s": built - _STARTED,
              "setup_scale": hostspeed.scale(_SETUP_SAMPLER.stop())}
    if setup_only:
        return result

    from repro.errors import ReproError
    tracer = probes.Tracer()
    worker_dir = scratch / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    probes.install(tracer, traced=traced, worker_dir=worker_dir)

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    sampler = hostspeed.Sampler().start()
    started = time.perf_counter()
    try:
        outcome = workloads.execute(workload, inputs, scratch, tracer)
    except ReproError as exc:
        outcome = workloads.Outcome(attempted=1, failed=1,
                                    records=[type(exc).__name__, str(exc)])
    wall_s = time.perf_counter() - started
    slices = sampler.stop()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    probes.collect_workers(tracer, worker_dir)
    slices = slices + tracer.host_slices
    worker_cpu_s = _cpu_s(children_after) - _cpu_s(children_before)
    result.update({
        "wall_s": wall_s,
        "cpu_s": _cpu_s(self_after) - _cpu_s(self_before) + worker_cpu_s,
        "peak_rss_mb": max(self_after.ru_maxrss,
                           children_after.ru_maxrss) / 1024,
        "bundles": tracer.sim_bundles(),
        # Each cell is scaled by the host speed around it, not the pass's.
        "cells_ms": [
            1000 * (end - start) * factor for (start, end), factor in zip(
                tracer.cells, hostspeed.local_scales(tracer.cells, slices))],
        "slices": len(slices),
        "scale": hostspeed.scale(slices),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": stats.digest(outcome.records),
        "tightness": outcome.tightness,
    })
    if traced:
        layer = probes.layer_metrics(tracer, wall_s)
        layer.update(dict.fromkeys(workloads.LAYER_COUNTS, 0))
        layer.update(outcome.layer)
        records, size = _journal_stats(scratch / "runs")
        layer.update({
            "workloads.build_s": result["build_s"],
            "setup.import_s": result["import_s"],
            "wcet.tightness_mean": outcome.tightness or 0.0,
            "jobs.journal_records": records,
            "jobs.journal_bytes": size,
            "jobs.worker_utilisation": (
                worker_cpu_s / (outcome.workers * wall_s)
                if outcome.workers else 0.0),
        })
        result["layer"] = layer
        result["spans"] = probes.span_table(tracer)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.scratch, args.traced,
                      args.setup_only)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
