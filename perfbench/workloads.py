"""The benchmark's three workloads: inputs from a seed, one timed execution.

Each workload is a cell pipeline a user of the reproduction waits on —
kernel build, compile, link, simulate or co-simulate, value analysis, block
costing, IPET solve, verdict — weighted differently:

* ``verify_matrix``: the default ``run_conformance`` matrix, journaled, at
  ``jobs=1``.  WCET analysis and the compiler do most of the work.  The
  seed offsets the RTOS task-set seeds; the kernel matrix is fixed.
* ``explore_cosim``: a 96-point journaled ``ExplorationRunner(jobs=2)``
  sweep of scaled, seeded kernels over cores x arbiter x method-cache size,
  without WCET analysis.  Co-simulation does most of the work, in two
  worker processes; 84 cells compile 12 distinct images.
* ``compile_synth``: 41 seeded unique programs (straight-line ALU blocks of
  up to about 400 instructions, scaled loop kernels), each compiled,
  simulated in strict mode and analysed.  Nothing repeats, so memoisation
  cannot help; the O(n^2) scheduler dominates.

:func:`generate` runs during set-up and builds every input from the seed;
:func:`execute` is the timed phase and receives only those inputs.
"""

from __future__ import annotations

import dataclasses
import importlib
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify_matrix", "explore_cosim", "compile_synth")

#: Imported during set-up by every workload, so set-up time compares alike.
MODULES = (
    "repro", "repro.verify.harness", "repro.explore", "repro.rtos.system",
    "repro.jobs", "repro.workloads.synthetic", "repro.workloads.kernels",
    "scipy.optimize",
)

#: explore_cosim kernels, scaled up from the suite defaults.
EXPLORE_KERNELS = {
    "matmul": {"n": 12},
    "bubble_sort": {"n": 48},
    "fir_filter": {"taps": 16, "n": 256},
    "stream_checksum": {"n": 512},
    "pointer_chase": {"n": 384},
    "call_tree": {"iterations": 128},
}
EXPLORE_AXES = (
    ("cores", (1, 2, 4, 8)),
    ("arbiter", ("tdma", "round_robin")),
    ("method_cache_size", (1024, 4096)),
)
EXPLORE_JOBS = 2

#: compile_synth program shapes.  The seed picks each program's contents,
#: its loop trip counts and the order, never its shape, so that every seed
#: costs about the same to compile.
#: Straight-line ALU block lengths, skewed towards short blocks because
#: compile time grows as n^2.  An 800-instruction block would overflow a
#: 2 KB method-cache region and fail to compile.
#: 29 of them make 41 programs: an odd count puts the pooled p50 in the
#: middle of one program's copies instead of between two programs whose
#: times differ by a third.
SYNTH_ALU_LENGTHS = tuple(32 + round(368 * ((i + 0.5) / 29) ** 3)
                          for i in range(29))
#: (blocks, instructions per block) of the large_function programs.
SYNTH_LARGE_FUNCTIONS = ((16, 32), (24, 28), (32, 24), (40, 20), (48, 16),
                         (64, 12))
#: (leaf functions, instructions per leaf) of the call_tree programs.
SYNTH_CALL_TREES = ((4, 48), (6, 40), (8, 32), (10, 24), (12, 16), (12, 48))

#: Per-layer counts read off the workloads' own reports (0 where absent).
LAYER_COUNTS = ("verify.core_scenarios", "explore.points", "explore.executed",
                "explore.cache_hits")


@dataclass
class Outcome:
    """What one timed execution produced, for the gates and the digest."""

    attempted: int
    failed: int
    #: Simulated statistics per cell, in a deterministic order.
    records: list = field(default_factory=list)
    #: Mean WCET bound over observed cycles (None without WCET analysis).
    tightness: float | None = None
    #: Worker processes the workload ran beside the pass process.
    workers: int = 0
    #: Workload-level per-layer figures (counts read off the reports).
    layer: dict = field(default_factory=dict)


def import_modules() -> None:
    for name in MODULES:
        importlib.import_module(name)


def generate(name: str, seed: int):
    """Build the workload's inputs from ``seed`` (same seed, same inputs)."""
    return _GENERATORS[name](seed)


def execute(name: str, inputs, scratch: Path, tracer) -> Outcome:
    """Run the workload once on ``inputs``; ``scratch`` is a fresh dir."""
    return _EXECUTORS[name](inputs, scratch, tracer)


# ----------------------------------------------------------------------
# verify_matrix
# ----------------------------------------------------------------------

def _generate_verify(seed: int):
    from repro.verify.scenarios import DEFAULT_RTOS_SCENARIOS
    stride = len(DEFAULT_RTOS_SCENARIOS)
    return tuple(dataclasses.replace(scenario,
                                     seed=scenario.seed + stride * seed)
                 for scenario in DEFAULT_RTOS_SCENARIOS)


def _execute_verify(rtos_scenarios, scratch: Path, tracer) -> Outcome:
    from repro.jobs import RunDirectory
    from repro.verify.harness import count_cells, run_conformance
    matrix = {"workload": "verify_matrix",
              "rtos": [dataclasses.asdict(s) for s in rtos_scenarios]}
    run_dir = RunDirectory.create(
        "verify", matrix, count_cells(rtos_scenarios=rtos_scenarios),
        root=scratch / "runs")
    try:
        report = run_conformance(rtos_scenarios=rtos_scenarios, jobs=1,
                                 run_dir=run_dir)
    finally:
        run_dir.close()
    failed = (len(report.violations()) + len(report.loop_violations())
              + len(report.failures))
    return Outcome(
        attempted=len(report.outcomes) + len(report.loop_checks),
        failed=failed,
        records=[[o.to_dict() for o in report.outcomes],
                 [c.to_dict() for c in report.loop_checks],
                 tracer.sims],
        tightness=report.mean_tightness(),
        layer={"verify.core_scenarios": len(report.outcomes)})


# ----------------------------------------------------------------------
# explore_cosim
# ----------------------------------------------------------------------

def _generate_explore(seed: int):
    from repro.explore import ParameterSpace
    rng = random.Random(seed)
    params = {}
    for kernel, sizes in EXPLORE_KERNELS.items():
        params[kernel] = dict(sizes)
        if kernel != "call_tree":  # call_tree has no data to seed
            params[kernel]["seed"] = rng.randrange(1, 2 ** 31)
    space = ParameterSpace(list(EXPLORE_KERNELS), kernel_params=params,
                           analyse_wcet=False)
    for axis, values in EXPLORE_AXES:
        space.axis(axis, values)
    return space


def _execute_explore(space, scratch: Path, tracer) -> Outcome:
    from repro.explore import ExplorationRunner, ResultCache
    from repro.jobs import RunDirectory
    points = len(space)
    matrix = {"workload": "explore_cosim",
              "kernel_params": space.kernel_params,
              "axes": [[axis.name, list(axis.values)] for axis in space.axes]}
    run_dir = RunDirectory.create("explore", matrix, points,
                                  root=scratch / "runs")
    runner = ExplorationRunner(jobs=EXPLORE_JOBS,
                               cache=ResultCache(scratch / "results.json"))
    try:
        result = runner.run(space, run_dir=run_dir)
    finally:
        run_dir.close()
    missing = points - len(result.results) - len(result.failures)
    return Outcome(
        attempted=points,
        failed=len(result.failures) + max(missing, 0),
        records=[[r.key, r.cores, r.cycles, r.bundles, r.instructions,
                  r.stall_cycles, r.arbitration_cycles, r.words_transferred,
                  r.write_stall_cycles] for r in result.results],
        workers=EXPLORE_JOBS,
        layer={"explore.points": points,
               "explore.executed": result.cache_misses,
               "explore.cache_hits": result.cache_hits})


# ----------------------------------------------------------------------
# compile_synth
# ----------------------------------------------------------------------

def _generate_synth(seed: int):
    from repro.workloads.kernels import build_call_tree, build_large_function
    from repro.workloads.synthetic import random_alu_kernel
    rng = random.Random(seed)
    shapes = ([("alu", length) for length in SYNTH_ALU_LENGTHS]
              + [("large_function", shape) for shape in SYNTH_LARGE_FUNCTIONS]
              + [("call_tree", shape) for shape in SYNTH_CALL_TREES])
    rng.shuffle(shapes)
    kernels = []
    for kind, shape in shapes:
        if kind == "alu":
            kernels.append(random_alu_kernel(rng.randrange(2 ** 31),
                                             length=shape))
        elif kind == "large_function":
            blocks, per_block = shape
            kernels.append(build_large_function(
                blocks=blocks, instructions_per_block=per_block,
                iterations=5))
        else:
            functions, pad = shape
            kernels.append(build_call_tree(
                num_functions=functions, iterations=48,
                pad_instructions=pad))
    return kernels


def _execute_synth(kernels, scratch: Path, tracer) -> Outcome:
    from time import perf_counter

    from repro.compiler.passes import compile_and_link
    from repro.config import DEFAULT_CONFIG
    from repro.errors import ReproError
    from repro.sim.cycle import CycleSimulator
    from repro.wcet.analyzer import analyze_wcet
    failed = 0
    records = []
    ratios = []
    for index, kernel in enumerate(kernels):
        started = perf_counter()
        try:
            image, _ = compile_and_link(kernel.program, DEFAULT_CONFIG)
            sim = CycleSimulator(image, config=DEFAULT_CONFIG,
                                 strict=True).run()
            wcet = analyze_wcet(image, DEFAULT_CONFIG).wcet_cycles
        except ReproError as exc:
            failed += 1
            records.append([index, kernel.name, type(exc).__name__])
            continue
        finally:
            tracer.cells.append([started, perf_counter()])
        if sim.output != kernel.expected_output or wcet < sim.cycles:
            failed += 1
        records.append([index, kernel.name, sim.cycles, sim.bundles, wcet])
        ratios.append(wcet / sim.cycles)
    return Outcome(attempted=len(kernels), failed=failed, records=records,
                   tightness=sum(ratios) / len(ratios) if ratios else None)


_GENERATORS = {"verify_matrix": _generate_verify,
               "explore_cosim": _generate_explore,
               "compile_synth": _generate_synth}
_EXECUTORS = {"verify_matrix": _execute_verify,
              "explore_cosim": _execute_explore,
              "compile_synth": _execute_synth}
