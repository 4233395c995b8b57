"""Command-line front end: ``python -m repro.explore``.

Example::

    python -m repro.explore --kernels vector_sum,fir_filter \\
        --axis method_cache_size=1024,2048,4096

Each ``--axis name=v1,v2,...`` adds one swept dimension (see
:mod:`repro.explore.space` for the accepted names); ``--kernels`` accepts
kernel names and suite names (``performance``, ``branchy``, ``all``).
Results are cached in ``--cache`` (default ``.explore-cache.json``) so a
repeated sweep reports cache hits instead of re-simulating.

Sweeps are durable by default: every cell state transition is journaled in
a run directory (``$REPRO_RUNS_DIR`` or ``~/.cache/repro/runs``), and a
killed or interrupted sweep resumes with ``--resume RUN_ID`` — the run id
alone rebuilds the sweep from the journal's metadata and re-executes only
the cells that never finished.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import ReproError, SweepInterrupted
from ..jobs import TIMEOUT_CLASSES, RunDirectory
from .cache import ResultCache
from .pareto import DEFAULT_OBJECTIVES, Objective
from .runner import ExplorationRunner
from .space import ParameterSpace

_KNOWN_OBJECTIVES = {
    "wcet": Objective("wcet_cycles"),
    "wcet_cycles": Objective("wcet_cycles"),
    "cycles": Objective("cycles"),
    "fmax": Objective("fmax_mhz", maximize=True),
    "fmax_mhz": Objective("fmax_mhz", maximize=True),
    "stalls": Objective("stall_cycles"),
    "stall_cycles": Objective("stall_cycles"),
    "interference": Objective("arbitration_cycles"),
    "arbitration_cycles": Objective("arbitration_cycles"),
    "words": Objective("words_transferred"),
    "words_transferred": Objective("words_transferred"),
}


def coerce_value(text: str):
    """Parse one axis value: int, float, bool or bare string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text.strip()


def parse_axis(spec: str) -> tuple[str, list]:
    """Parse one ``--axis name=v1,v2,...`` argument."""
    name, sep, values = spec.partition("=")
    name = name.strip()
    if not sep or not name or not values.strip():
        raise argparse.ArgumentTypeError(
            f"axis must look like 'name=v1,v2,...', got {spec!r}")
    return name, [coerce_value(value) for value in values.split(",")]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Design-space exploration over the Patmos model: sweep "
                    "architecture and compiler parameters, collect cycle "
                    "counts and WCET bounds, report the Pareto frontier.")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated kernel or suite names "
                             "(suites: performance, branchy, all); "
                             "required unless --resume is given")
    parser.add_argument("--axis", action="append", default=[],
                        type=parse_axis, metavar="NAME=V1,V2,...",
                        help="add one swept dimension; repeatable "
                             "(e.g. method_cache_size=1024,2048,4096; "
                             "multicore axes: cores=1,2,4, "
                             "arbiter=tdma,round_robin,priority, "
                             "slot_cycles=14,28, slot_weights=1:1:2:2 "
                             "with colon-separated per-core weights)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted sweep from its journal; "
                             "the run id alone rebuilds the sweep "
                             "(list runs with 'python -m repro.jobs list')")
    parser.add_argument("--runs-root", default=None, metavar="DIR",
                        help="root of the durable run directories (default: "
                             "$REPRO_RUNS_DIR or ~/.cache/repro/runs)")
    parser.add_argument("--no-journal", action="store_true",
                        help="skip the durable run journal (the sweep "
                             "cannot be resumed)")
    parser.add_argument("--timeout-class", default="unbounded",
                        choices=sorted(TIMEOUT_CLASSES),
                        help="per-cell wall-clock budget class "
                             "(default: unbounded)")
    parser.add_argument("--cache", default=".explore-cache.json",
                        metavar="PATH",
                        help="result cache file "
                             "(default: .explore-cache.json)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--no-wcet", action="store_true",
                        help="skip the static WCET analysis")
    parser.add_argument("--no-pareto", action="store_true",
                        help="skip the Pareto-frontier summary")
    parser.add_argument("--objectives", default=None,
                        metavar="NAME[,NAME...]",
                        help="Pareto objectives (wcet, cycles, fmax, stalls, "
                             "interference, words; default: wcet,cycles,fmax)")
    return parser


def _objectives(arg: Optional[str], with_wcet: bool) -> tuple[Objective, ...]:
    if arg is None:
        if with_wcet:
            return DEFAULT_OBJECTIVES
        return tuple(obj for obj in DEFAULT_OBJECTIVES
                     if obj.name != "wcet_cycles")
    objectives = []
    for name in arg.split(","):
        name = name.strip().lower()
        if name not in _KNOWN_OBJECTIVES:
            raise ReproError(
                f"unknown objective {name!r}; choose from "
                f"{sorted(set(_KNOWN_OBJECTIVES))}")
        objectives.append(_KNOWN_OBJECTIVES[name])
    return tuple(objectives)


def _build_matrix(args) -> dict:
    """The sweep-defining matrix: what --resume must be able to rebuild."""
    kernels = [name.strip() for name in args.kernels.split(",")
               if name.strip()]
    return {"kernels": kernels,
            "axes": [[name, list(values)] for name, values in args.axis],
            "analyse_wcet": not args.no_wcet}


def _space_from_matrix(matrix: dict) -> ParameterSpace:
    space = ParameterSpace(list(matrix["kernels"]),
                           analyse_wcet=bool(matrix.get("analyse_wcet",
                                                        True)))
    for name, values in matrix.get("axes", []):
        space.axis(name, values)
    return space


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    run_dir = None
    try:
        if args.resume is not None and not args.resume.strip():
            # An empty id (e.g. a failed command substitution in CI) must
            # not silently degrade into a fresh full sweep.
            raise ReproError("--resume requires a run id")
        if args.resume:
            run_dir = RunDirectory.open(args.resume, root=args.runs_root)
            meta = run_dir.meta
            if meta.get("kind") != "explore":
                raise ReproError(
                    f"run {args.resume} is a {meta.get('kind')!r} run; "
                    f"resume it with python -m repro.{meta.get('kind')}")
            matrix = meta["matrix"]
        else:
            if not args.kernels:
                print("error: --kernels is required unless --resume is "
                      "given", file=sys.stderr)
                return 1
            matrix = _build_matrix(args)
        space = _space_from_matrix(matrix)
        # Expanding checks every axis value (a resumed run may name an
        # engine or arbiter this version lacks) before the journal is
        # created or appended to.
        specs = space.specs()
        analyse_wcet = bool(matrix.get("analyse_wcet", True))
        # Validate the objectives before the sweep so a typo fails fast
        # instead of after a potentially long simulation run.
        objectives = _objectives(args.objectives, analyse_wcet)

        cache = None if args.no_cache else ResultCache(args.cache)
        runner = ExplorationRunner(jobs=args.jobs, cache=cache,
                                   timeout_class=args.timeout_class)
        if args.resume:
            run_dir.mark_resumed(len(space))
            print(f"resuming run {run_dir.run_id}")
        elif not args.no_journal:
            run_dir = RunDirectory.create("explore", matrix,
                                          cells=len(space),
                                          root=args.runs_root)
            print(f"run id: {run_dir.run_id} "
                  f"(resume with --resume {run_dir.run_id})")
        print(f"exploring {len(space)} design points "
              f"({len(space.kernels)} kernels x "
              f"{len(space) // max(len(space.kernels), 1)} configurations)")
        outcome = runner.run(specs, run_dir=run_dir,
                             resume=bool(args.resume))

        print()
        print(outcome.table())
        print()
        if not args.no_pareto:
            print(outcome.pareto_summary(objectives))
            print()
        print(outcome.summary())
        if cache is not None:
            print(f"result cache: {cache.path} ({len(cache)} entries)")
        if not outcome.ok:
            print()
            print(outcome.failure_summary(), file=sys.stderr)
            print(f"error: sweep completed with {len(outcome.failures)} "
                  f"failed design point(s); see the failure summary above",
                  file=sys.stderr)
            return 2
    except SweepInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if exc.resume_argv:
            print(f"resume with: python -m repro.explore {exc.resume_argv}",
                  file=sys.stderr)
        return 130
    except (ReproError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        if run_dir is not None:
            run_dir.close()
    return 0
