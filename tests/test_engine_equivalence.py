"""Golden-equivalence harness: fast engine vs reference interpreter.

The fast engine of :mod:`repro.sim.engine` must be observationally identical
to the reference ``_step``/``_execute`` interpreter.  This suite proves it by
running every kernel of :mod:`repro.workloads` on both engines — functional
and cycle-accurate, strict on/off, trace on/off — and comparing the complete
:class:`~repro.sim.results.SimResult` (cycles, stalls by category, output,
block/call counts, cache statistics and the trace), plus targeted checks of
the error paths (strict schedule violations, stack-window violations,
``max_bundles``) and of the satellite fast paths the engine relies on.
"""

from __future__ import annotations

import pytest

from repro import (
    CompileOptions,
    CycleSimulator,
    FunctionalSimulator,
    PatmosConfig,
    compile_and_link,
)
from repro.errors import (
    MemoryAccessError,
    ScheduleViolation,
    SimulationError,
)
from repro.isa import Bundle, Instruction, Opcode
from repro.memory.main_memory import MainMemory
from repro.memory.scratchpad import Scratchpad
from repro.program import link
from repro.program.basic_block import BasicBlock
from repro.program.function import Function
from repro.program.program import Program
from repro.workloads.suite import KERNEL_BUILDERS, build_kernel

MODES = tuple((strict, trace) for strict in (False, True)
              for trace in (False, True))

#: The engines checked against the reference interpreter.
ENGINES = ("fast",)


def canonical(result):
    """Everything a SimResult observes, as one comparable value."""
    return {
        "cycles": result.cycles,
        "bundles": result.bundles,
        "instructions": result.instructions,
        "nops": result.nops,
        "output": result.output,
        "stalls": result.stalls.to_dict(),
        "block_counts": result.block_counts,
        "call_counts": result.call_counts,
        "cache_stats": result.cache_stats,
        "halted": result.halted,
        "trace": None if result.trace is None else
                 [(t.cycle, t.addr, t.text) for t in result.trace],
    }


@pytest.fixture(scope="module")
def compiled_kernels():
    config = PatmosConfig()
    compiled = {}
    for name in KERNEL_BUILDERS:
        kernel = build_kernel(name)
        image, _ = compile_and_link(kernel.program, config, CompileOptions())
        compiled[name] = (image, kernel)
    return config, compiled


@pytest.mark.parametrize("sim_cls", (FunctionalSimulator, CycleSimulator))
@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_golden_equivalence(compiled_kernels, name, sim_cls):
    config, compiled = compiled_kernels
    image, kernel = compiled[name]
    for strict, trace in MODES:
        ref = sim_cls(image, config=config, strict=strict, trace=trace,
                      engine="reference").run()
        for engine in ENGINES:
            got = sim_cls(image, config=config, strict=strict, trace=trace,
                          engine=engine).run()
            assert canonical(got) == canonical(ref), \
                f"{name}: {engine} diverges with strict={strict}, " \
                f"trace={trace}"
            assert got.output == kernel.expected_output


def _raw_image(bundle_lists):
    instrs = [i for bundle in bundle_lists for i in bundle]
    block = BasicBlock(label="entry", instrs=instrs,
                       bundles=[Bundle(*b) for b in bundle_lists])
    function = Function(name="main", blocks=[block])
    program = Program(name="raw", functions={"main": function}, entry="main")
    return link(program, PatmosConfig())


class TestErrorPathEquivalence:
    def test_strict_violation_raised_by_both_engines(self):
        image = _raw_image([
            [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
            [Instruction(Opcode.ADD, rd=2, rs1=1, rs2=0)],
            [Instruction(Opcode.HALT)],
        ])
        for engine in ("reference",) + ENGINES:
            with pytest.raises(ScheduleViolation):
                FunctionalSimulator(image, strict=True, engine=engine).run()

    def test_non_strict_stale_read_identical(self):
        image = _raw_image([
            [Instruction(Opcode.LIL, rd=1, imm=999)],
            [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
            [Instruction(Opcode.ADD, rd=2, rs1=1, rs2=0)],
            [Instruction(Opcode.OUT, rs1=2)],
            [Instruction(Opcode.HALT)],
        ])
        outputs = [FunctionalSimulator(image, engine=engine).run().output
                   for engine in ("reference",) + ENGINES]
        assert all(output == [999] for output in outputs)

    def test_max_bundles_raised_by_both_engines(self):
        image = _raw_image([
            [Instruction(Opcode.BR, target="entry")],
            [Instruction(Opcode.NOP)],
            [Instruction(Opcode.NOP)],
        ])
        for engine in ("reference",) + ENGINES:
            with pytest.raises(SimulationError):
                FunctionalSimulator(image, engine=engine).run(max_bundles=100)

    def test_unknown_engine_rejected(self):
        image = _raw_image([[Instruction(Opcode.HALT)]])
        with pytest.raises(SimulationError):
            FunctionalSimulator(image, engine="turbo")


class TestDecodeReuse:
    def test_decode_is_cached_per_image(self):
        from repro.sim.engine import decode_image
        image = _raw_image([[Instruction(Opcode.HALT)]])
        pipeline = PatmosConfig().pipeline
        first = decode_image(image, pipeline, False, False)
        again = decode_image(image, pipeline, False, False)
        assert first is again
        strict = decode_image(image, pipeline, True, False)
        assert strict is not first

    def test_repeated_runs_share_state_correctly(self):
        config = PatmosConfig()
        kernel = build_kernel("vector_sum")
        image, _ = compile_and_link(kernel.program, config, CompileOptions())
        results = [CycleSimulator(image, config=config, strict=True).run()
                   for _ in range(2)]
        assert canonical(results[0]) == canonical(results[1])


class TestSatelliteFastPaths:
    def test_memory_word_fast_path(self):
        memory = MainMemory(64)
        memory.write_u32(8, 0xDEAD_BEEF)
        assert memory.read_u32(8) == 0xDEAD_BEEF
        assert memory.read(8, 4, signed=True) == -559038737
        with pytest.raises(MemoryAccessError):
            memory.read_u32(6)  # misaligned
        with pytest.raises(MemoryAccessError):
            memory.read_u32(64)  # out of range
        with pytest.raises(MemoryAccessError):
            memory.write_u32(-4, 1)

    def test_scratchpad_word_fast_path_counts_accesses(self):
        spad = Scratchpad(PatmosConfig().scratchpad)
        spad.write_u32(0, 7)
        assert spad.read_u32(0) == 7
        assert spad.accesses == 2
        with pytest.raises(MemoryAccessError):
            spad.read_u32(PatmosConfig().scratchpad.size_bytes)

    def test_function_containing_bisect(self):
        config = PatmosConfig()
        kernel = build_kernel("call_tree")
        image, _ = compile_and_link(kernel.program, config, CompileOptions())
        from repro.errors import LinkError
        for record in image.functions:
            assert image.function_containing(record.entry_addr) is record
            last = record.entry_addr + record.size_bytes - 4
            assert image.function_containing(last).name == record.name
        with pytest.raises(LinkError):
            image.function_containing(image.functions[0].entry_addr - 4)
        end = max(f.entry_addr + f.size_bytes for f in image.functions)
        with pytest.raises(LinkError):
            image.function_containing(end)
