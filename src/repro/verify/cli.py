"""Command-line front end: ``python -m repro.verify``.

Runs the WCET-vs-simulation conformance matrix and exits non-zero if any
static bound fails to cover its observed execution::

    python -m repro.verify                          # full matrix
    python -m repro.verify --kernels performance    # a suite subset
    python -m repro.verify --json report.json       # machine-readable report
    python -m repro.verify --arbiters single,tdma2  # arbiter subset
    python -m repro.verify --jobs 4                 # parallel matrix
    python -m repro.verify --faults                 # seeded fault campaign

``--kernels`` accepts kernel and suite names (``performance``, ``branchy``,
``all``); ``--variants``/``--arbiters`` filter the cache-model and arbiter
columns of the matrix by name.

``--faults`` switches to the fault-injection campaign
(:func:`repro.faults.run_fault_campaign`): every cell runs fault-free, then
under a seeded fault plan with ECC and bounded bus retries, and must stay
within its fault-aware WCET bound with outputs intact.  ``--json`` then
writes the campaign report (the CI ``BENCH_faults.json`` artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError, SweepInterrupted
from ..jobs import RunDirectory, open_for_resume
from ..sim.base import ENGINES
from ..workloads.suite import resolve_kernels
from .harness import count_cells, run_conformance
from .scenarios import (DEFAULT_ARBITERS, DEFAULT_RTOS_SCENARIOS,
                        DEFAULT_VARIANTS)


def _select(available, requested: Optional[str], what: str):
    """Filter a column tuple by a comma-separated name list."""
    if requested is None:
        return available
    by_name = {item.name: item for item in available}
    selected = []
    for name in requested.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in by_name:
            raise ReproError(
                f"unknown {what} {name!r}; available: {sorted(by_name)}")
        selected.append(by_name[name])
    if not selected:
        raise ReproError(f"no {what}s selected")
    return tuple(selected)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential WCET soundness conformance harness.")
    parser.add_argument("--kernels", default="all",
                        help="comma-separated kernel or suite names "
                             "(default: all)")
    parser.add_argument("--variants", default=None,
                        help="comma-separated cache-model variant names "
                             f"(default: all of "
                             f"{[v.name for v in DEFAULT_VARIANTS]})")
    parser.add_argument("--arbiters", default=None,
                        help="comma-separated arbiter configuration names "
                             f"(default: all of "
                             f"{[a.name for a in DEFAULT_ARBITERS]})")
    parser.add_argument("--no-rtos", action="store_true",
                        help="skip the RTOS response-time soundness cells")
    parser.add_argument("--engine", default="fast",
                        choices=ENGINES,
                        help="execution engine for the simulated side of "
                             "the matrix (default: fast); the report must "
                             "be identical across engines")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the matrix (default: 1); "
                             "the report is identical to a sequential run")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run from its journal; "
                             "the run id alone rebuilds the matrix "
                             "(list runs with 'python -m repro.jobs list')")
    parser.add_argument("--runs-root", default=None, metavar="DIR",
                        help="root of the durable run directories (default: "
                             "$REPRO_RUNS_DIR or ~/.cache/repro/runs)")
    parser.add_argument("--no-journal", action="store_true",
                        help="skip the durable run journal (the run "
                             "cannot be resumed)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the machine-readable report here")
    parser.add_argument("--table", action="store_true",
                        help="print the full per-core conformance table")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")
    parser.add_argument("--faults", action="store_true",
                        help="run the seeded fault-injection campaign "
                             "instead of the conformance matrix (--kernels "
                             "selects the campaign kernels)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="N",
                        help="campaign seed (default: 0); the same seed "
                             "reproduces the same faults and outcomes")
    return parser


def _run_faults(args, kernels) -> int:
    """The ``--faults`` mode: seeded campaign, zero-violation gate."""
    from ..faults import run_fault_campaign
    from ..faults.campaign import DEFAULT_KERNELS

    # An explicit --kernels selects the campaign kernels; the default
    # ("all") means the campaign's own small, quick kernel set, not the
    # entire workload suite.
    if args.kernels.strip() == "all":
        kernels = DEFAULT_KERNELS
    report = run_fault_campaign(
        seed=args.fault_seed, kernels=kernels,
        progress=None if args.quiet else (
            lambda cell: print(f"faulting {cell}")))
    if args.table:
        print()
        print(report.table())
    print()
    print(report.summary())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Usage errors (unknown kernels/variants/arbiters) are reported cleanly
    # before the run; only this validation may catch KeyError (the error
    # resolve_kernels raises), so a genuine KeyError bug inside the harness
    # still produces a traceback instead of masquerading as a typo.
    run_dir = None
    try:
        if args.resume is not None:
            run_dir = open_for_resume(args.resume, "verify", args.runs_root)
            matrix = run_dir.meta["matrix"]
            args.kernels = ",".join(matrix["kernels"])
            args.variants = ",".join(matrix["variants"])
            args.arbiters = ",".join(matrix["arbiters"])
            args.no_rtos = bool(matrix.get("no_rtos", False))
            args.engine = matrix.get("engine", args.engine)
            # Checked here, before mark_resumed appends to the journal: a
            # run recorded under an engine this version lacks must fail
            # without touching it.
            if args.engine not in ENGINES:
                raise ReproError(
                    f"run {args.resume} was recorded with unknown engine "
                    f"{args.engine!r}; available: {list(ENGINES)}")
        variants = _select(DEFAULT_VARIANTS, args.variants, "variant")
        arbiters = _select(DEFAULT_ARBITERS, args.arbiters, "arbiter")
        kernels = resolve_kernels(
            name.strip() for name in args.kernels.split(",") if name.strip())
        if not kernels:
            # An empty selection must never let the soundness gate pass
            # vacuously (0 scenarios checked, exit 0).
            raise ReproError("no kernels selected")
        if args.jobs < 1:
            raise ReproError("--jobs must be at least 1")
    except (ReproError, KeyError) as exc:
        # A KeyError's args[0] is the message (str() would add repr quotes).
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.faults:
        try:
            return _run_faults(args, kernels)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        rtos_scenarios = () if args.no_rtos else DEFAULT_RTOS_SCENARIOS
        cells = count_cells(kernels, variants, arbiters, rtos_scenarios)
        if args.resume:
            run_dir.mark_resumed(cells)
            if not args.quiet:
                print(f"resuming run {run_dir.run_id}")
        elif not args.no_journal:
            matrix = {"kernels": list(kernels),
                      "variants": [v.name for v in variants],
                      "arbiters": [a.name for a in arbiters],
                      "no_rtos": bool(args.no_rtos),
                      "engine": args.engine}
            run_dir = RunDirectory.create("verify", matrix, cells=cells,
                                          root=args.runs_root)
            if not args.quiet:
                print(f"run id: {run_dir.run_id} "
                      f"(resume with --resume {run_dir.run_id})")
        report = run_conformance(
            kernels=kernels, variants=variants, arbiters=arbiters,
            rtos_scenarios=rtos_scenarios,
            jobs=args.jobs, engine=args.engine,
            progress=None if args.quiet else print,
            run_dir=run_dir, resume=bool(args.resume))
    except SweepInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if exc.resume_argv:
            print(f"resume with: python -m repro.verify {exc.resume_argv}",
                  file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if run_dir is not None:
            run_dir.close()

    if args.table:
        print()
        print(report.table())
        if report.loop_checks:
            print()
            print(report.loops_table())
    print()
    print(report.summary())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    # Failed cells mean the matrix is incomplete: that must fail the gate
    # even with zero violations among the scenarios that did run.  An
    # unsound loop-bound fact fails it too, even when every end-to-end
    # cycle bound happens to hold.
    return 1 if (report.violations() or report.failures
                 or report.loop_violations()) else 0
