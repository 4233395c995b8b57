"""Durable job engine benchmark: journal overhead and crash recovery.

Two measurements, one machine-readable ``BENCH_jobs.json``:

* **overhead** — the cost of journaling a sweep: the same synthetic cell
  load run through :func:`repro.jobs.run_jobs` with and without an
  append-only journal, best-of-N wall time.  The write-ahead log buys
  resumability with flush-per-record durability; with ``--max-overhead``
  it must stay within a few percent of the bare run (default gate: 5%).
* **recovery** — the point of the journal: a sweep "crashes" after a
  prefix of its cells committed, and the resumed run must re-execute
  *only* the unfinished cells while replaying the committed ones from
  the journal, ending with every cell done exactly once.

::

    python benchmarks/bench_jobs.py [--smoke] [--max-overhead PCT]
                                    [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.jobs import (  # noqa: E402
    JobCell,
    Journal,
    replay_journal,
    run_jobs,
)

#: Iterations of the synthetic cell body — sized so one cell costs on the
#: order of a short simulation step, not so little that timing noise
#: dominates the journal's per-record cost.
CELL_WORK = 40_000


def synthetic_cell(payload: int) -> int:
    """A deterministic compute-bound stand-in for one sweep cell."""
    acc = 0
    for i in range(CELL_WORK):
        acc = (acc + i * i) & 0xFFFFFFFF
    return acc ^ payload


def _cells(count: int) -> list[JobCell]:
    return [JobCell(key=f"cell/{i}", label=f"cell {i}", payload=i)
            for i in range(count)]


def _run_once(cells, journal_path) -> float:
    journal = Journal(journal_path) if journal_path is not None else None
    started = time.perf_counter()
    outcome = run_jobs(cells, synthetic_cell, journal=journal)
    elapsed = time.perf_counter() - started
    if journal is not None:
        journal.close()
    assert len(outcome.results) == len(cells)
    return elapsed


def measure_overhead(work_dir: Path, cells: int, repeats: int) -> dict:
    """Best-of-N wall time of the same sweep, bare vs journaled."""
    load = _cells(cells)
    bare_s = float("inf")
    journaled_s = float("inf")
    for index in range(repeats):
        bare_s = min(bare_s, _run_once(load, None))
        path = work_dir / f"overhead-{index}.jsonl"
        journaled_s = min(journaled_s, _run_once(load, path))
    overhead_pct = ((journaled_s - bare_s) / bare_s) * 100.0
    return {
        "cells": cells,
        "repeats": repeats,
        "bare_wall_s": round(bare_s, 6),
        "journaled_wall_s": round(journaled_s, 6),
        "overhead_pct": round(overhead_pct, 2),
    }


def measure_recovery(work_dir: Path, cells: int, crash_after: int) -> dict:
    """Crash a sweep after ``crash_after`` committed cells; resume it."""
    load = _cells(cells)
    journal_path = work_dir / "recovery.jsonl"

    # First epoch: the journal records a prefix of done cells, then the
    # "crash" (journal simply stops, exactly like a SIGKILL).
    journal = Journal(journal_path)
    run_jobs(load[:crash_after], synthetic_cell, journal=journal)
    journal.close()

    # Resume: run_jobs delivers the journaled cells and runs the rest.
    replay = replay_journal(journal_path)
    journal = Journal(journal_path)
    outcome = run_jobs(load, synthetic_cell, journal=journal, replay=replay)
    journal.close()

    final = replay_journal(journal_path)
    return {
        "cells": cells,
        "done_before_crash": len(replay.done),
        "re_executed": outcome.executed,
        "replayed": len(outcome.results) - outcome.executed,
        "all_done_after_resume": len(final.done) == cells,
        "only_pending_re_executed": outcome.executed == cells - crash_after,
    }


def run_benchmark(smoke: bool, work_dir: Path) -> dict:
    cells = 60 if smoke else 240
    repeats = 3 if smoke else 5
    overhead = measure_overhead(work_dir, cells, repeats)
    recovery = measure_recovery(work_dir, cells // 2, cells // 6)
    report = {
        "schema": "bench_jobs/v1",
        "mode": "smoke" if smoke else "full",
        "overhead": overhead,
        "recovery": recovery,
    }
    print(f"journal overhead   : {overhead['overhead_pct']:+.2f}% "
          f"({overhead['cells']} cells, "
          f"{overhead['bare_wall_s']:.3f}s bare vs "
          f"{overhead['journaled_wall_s']:.3f}s journaled)")
    print(f"crash recovery     : {recovery['replayed']} cells replayed, "
          f"{recovery['re_executed']} re-executed, "
          f"complete: {recovery['all_done_after_resume']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer cells and timing repeats (CI-sized); "
                             "all correctness gates still apply")
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail when the journaled sweep is more than "
                             "PCT percent slower than the bare sweep")
    parser.add_argument("--output", default="BENCH_jobs.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    import tempfile
    with tempfile.TemporaryDirectory(prefix="bench-jobs-") as work_dir:
        report = run_benchmark(smoke=args.smoke, work_dir=Path(work_dir))
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    failed = False
    if not report["recovery"]["all_done_after_resume"]:
        print("recovery FAILED: resumed sweep did not complete every cell",
              file=sys.stderr)
        failed = True
    if not report["recovery"]["only_pending_re_executed"]:
        print("recovery FAILED: resume re-executed cells the journal had "
              "already committed", file=sys.stderr)
        failed = True
    if args.max_overhead is not None and \
            report["overhead"]["overhead_pct"] > args.max_overhead:
        print(f"journal overhead {report['overhead']['overhead_pct']:.2f}% "
              f"exceeds the {args.max_overhead:g}% gate", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
