"""E9 — Chip multiprocessor with TDMA memory arbitration (Sections 1–3).

Claims reproduced: replicating the Patmos pipeline and arbitrating the shared
main memory with a static TDMA schedule keeps every core's WCET bounded and
independent of the other cores' behaviour; the per-core WCET grows
predictably (roughly linearly in the TDMA period) with the core count.
"""

from harness import print_table

from repro import PatmosConfig, compile_and_link
from repro.cmp import MulticoreSystem, single_core_reference
from repro.workloads import build_kernel


def _measure():
    config = PatmosConfig()
    rows = []
    bounds = []
    kernel = build_kernel("vector_sum", n=24, seed=3)
    image, _ = compile_and_link(kernel.program, config)
    alone = single_core_reference(image, config)
    rows.append([1, alone.observed_cycles, alone.wcet_cycles,
                 f"{alone.wcet_cycles / alone.observed_cycles:.2f}"])
    bounds.append(alone.wcet_cycles)
    for cores in (2, 4, 8):
        images = []
        kernels = []
        for core in range(cores):
            k = build_kernel("vector_sum", n=24, seed=core + 3)
            img, _ = compile_and_link(k.program, config)
            images.append(img)
            kernels.append(k)
        system = MulticoreSystem(images, config)
        result = system.run(analyse=True)
        core0 = result.cores[0]
        assert core0.sim.output == kernels[0].expected_output
        assert core0.wcet_cycles >= core0.observed_cycles
        rows.append([cores, core0.observed_cycles, core0.wcet_cycles,
                     f"{core0.wcet_cycles / core0.observed_cycles:.2f}"])
        bounds.append(core0.wcet_cycles)
    return rows, bounds


def test_e9_tdma_scaling(benchmark):
    rows, bounds = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_table("E9: per-core WCET and observed cycles vs core count (vector_sum)",
                ["cores", "observed (core 0)", "WCET bound", "bound/observed"],
                rows)
    # Bounds grow monotonically with the number of cores but stay finite and
    # sound; the growth comes only from the TDMA period.
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    benchmark.extra_info["bound_1_core"] = bounds[0]
    benchmark.extra_info["bound_8_cores"] = bounds[-1]
