"""Shared-memory multicore co-simulation: TDMA versus round-robin.

Four Patmos cores run a mixed workload against one shared main memory.  The
same mix is co-simulated twice — once under the paper's static TDMA
arbitration and once under a work-conserving round-robin arbiter — and each
core is also simulated completely alone on its port of the TDMA arbiter.

The point of the experiment is the paper's CMP claim made visible:

* under TDMA, the interleaved co-simulation reports *exactly* the cycles of
  the independent per-core runs (timing is decoupled from the co-runners,
  so per-core WCET analysis stays valid);
* under round-robin, the cores are usually faster on average but their
  timing now depends on what the other cores do — re-run with a different
  mix and the numbers move.

Run with ``python examples/multicore.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CycleSimulator, compile_and_link
from repro.cmp import MulticoreSystem
from repro.memory import TdmaBusArbiter
from repro.workloads import build_kernel

CORE_KERNELS = ("vector_sum", "stream_checksum", "fir_filter", "saturate")


def main() -> None:
    kernels = [build_kernel(name) for name in CORE_KERNELS]
    images = [compile_and_link(kernel.program)[0] for kernel in kernels]

    tdma = MulticoreSystem(images, arbiter="tdma").run(analyse=True)
    rr = MulticoreSystem(images, arbiter="round_robin").run(analyse=True)
    alone = [CycleSimulator(image, arbiter=TdmaBusArbiter(tdma.schedule)
                            .port(core_id), core_id=core_id).run().cycles
             for core_id, image in enumerate(images)]

    print("4-core mix on one shared memory "
          f"(TDMA period {tdma.schedule.period} cycles)\n")
    print(f"{'core':4s} {'kernel':16s} {'alone(TDMA)':>11s} "
          f"{'cosim TDMA':>10s} {'cosim RR':>9s} {'WCET(TDMA)':>11s} "
          f"{'WCET(RR)':>9s}")
    for kernel, alone_cycles, t_core, r_core in zip(kernels, alone,
                                                    tdma.cores, rr.cores):
        assert t_core.sim.output == kernel.expected_output
        assert r_core.sim.output == kernel.expected_output
        print(f"{t_core.core_id:<4d} {kernel.name:16s} "
              f"{alone_cycles:11d} {t_core.observed_cycles:10d} "
              f"{r_core.observed_cycles:9d} {t_core.wcet_cycles:11d} "
              f"{r_core.wcet_cycles:9d}")

    assert tdma.observed_by_core() == alone
    print("\nTDMA co-simulation == independent simulation on every core:")
    print("  the arbiter decouples the cores, the bounds stay per-core.")
    print(f"round-robin makespan {rr.makespan} vs TDMA {tdma.makespan}: "
          "faster on average,")
    print("  but each core's timing now depends on its co-runners.")

    totals = rr.system_stats()["totals"]
    print(f"\nround-robin interference: "
          f"{totals['arbitration_cycles']} arbitration wait cycles, "
          f"{totals['words_transferred']} words through the controllers.")


if __name__ == "__main__":
    main()
