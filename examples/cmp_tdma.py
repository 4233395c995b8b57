"""Chip-multiprocessor scenario: four Patmos cores sharing memory via TDMA.

Each core runs a different kernel; the TDMA arbiter makes the worst-case
memory latency of every core independent of what the other cores do, so each
core keeps an individually computed, sound WCET bound.

Run with ``python examples/cmp_tdma.py``.
"""

from repro import compile_and_link
from repro.cmp import MulticoreSystem, default_tdma_schedule, single_core_reference
from repro.workloads import build_kernel

CORE_KERNELS = ("vector_sum", "checksum", "fir_filter", "saturate")


def main() -> None:
    kernels = [build_kernel(name) for name in CORE_KERNELS]
    images = [compile_and_link(kernel.program)[0] for kernel in kernels]

    schedule = default_tdma_schedule(len(images))
    print(f"TDMA schedule: {schedule.num_cores} slots of "
          f"{schedule.slot_cycles} cycles (period {schedule.period})\n")

    system = MulticoreSystem(images, schedule=schedule)
    shared = system.run(analyse=True)

    print(f"{'core':4s} {'kernel':12s} {'alone':>8s} {'shared':>8s} "
          f"{'WCET bound':>11s} {'bound/shared':>13s}")
    for kernel, image, core in zip(kernels, images, shared.cores):
        alone = single_core_reference(image)
        assert core.sim.output == kernel.expected_output
        print(f"{core.core_id:<4d} {kernel.name:12s} "
              f"{alone.observed_cycles:8d} {core.observed_cycles:8d} "
              f"{core.wcet_cycles:11d} "
              f"{core.wcet_cycles / core.observed_cycles:13.2f}")

    print(f"\nmakespan of the 4-core system: {shared.makespan} cycles")
    print("every observed execution stays below its statically computed bound,")
    print("and the bound of one core never depends on the other cores' code.")


if __name__ == "__main__":
    main()
