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

import copy

import pytest

from repro import (
    CompileOptions,
    CycleSimulator,
    FunctionalSimulator,
    PatmosConfig,
    compile_and_link,
)
from repro.errors import (
    LinkError,
    MemoryAccessError,
    ScheduleViolation,
    SimulationError,
)
from repro.isa import Bundle, Guard, Instruction, Opcode
from repro.memory.main_memory import MainMemory
from repro.memory.scratchpad import Scratchpad
from repro.program import link
from repro.program.basic_block import BasicBlock
from repro.program.function import Function
from repro.program.linker import FunctionRecord
from repro.program.program import Program
from repro.sim.engine import K_ALU_RI_S, K_ALU_RR_S, K_CHECK1, R_BLOCK, \
    R_BUNDLE, R_FUNC, R_UOPS, _function_slots, _uop_may_arbitrate, \
    decode_image
from repro.workloads.kernels import build_large_function
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


def _between_slices(sim):
    """What a caller can read between two ``run_step`` slices: the result
    and the reference-format in-flight state, copied (the interpreter
    counts a pending control transfer down in place).  Pending writes are
    compared by due bundle (the interpreter keeps them in scheduling
    order)."""
    pending = sorted(sim._pending_writes, key=lambda write: write.due_issue)
    return (canonical(sim.result()), pending,
            copy.copy(sim._pending_control),
            copy.copy(sim._pending_main_load), sim._pc,
            sim._current_func.name)


@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_sliced_stepping_only_mirrors_state(compiled_kernels, name, strict):
    """Stepping a core in 1- and 7-cycle slices, reading ``result()`` and
    the pending writes after every slice, changes nothing.

    The fast engine resumes the simulator's one engine context across all
    slices and exports after each, so the export must only ever mirror the
    context, never feed back into it: every snapshot equals the reference
    interpreter's at the same slice boundary, and each sliced run ends
    with the result of an unsliced one.
    """
    config, compiled = compiled_kernels
    image, _ = compiled[name]
    whole = canonical(CycleSimulator(image, config=config, strict=strict,
                                     engine="reference").run())
    for width in (1, 7):
        snapshots = {}
        for engine in ("reference",) + ENGINES:
            sim = CycleSimulator(image, config=config, strict=strict,
                                 engine=engine)
            taken = []
            while sim.run_step(until_cycle=sim.cycles + width) != "halted":
                taken.append(_between_slices(sim))
            taken.append(_between_slices(sim))
            assert taken[-1][0] == whole, \
                f"{name}: {engine} in {width}-cycle slices diverges"
            snapshots[engine] = taken
        for engine in ENGINES:
            assert snapshots[engine] == snapshots["reference"], \
                f"{name}: {engine} state between {width}-cycle slices"
        assert len(snapshots["reference"]) > 1


def test_halted_state_survives_result_and_rerun():
    """Reading the result of a halted simulator releases its engine
    context; running it again must neither step nor lose the in-flight
    state it halted with."""
    image = _raw_image([
        [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
        [Instruction(Opcode.HALT)],
    ])
    states = []
    for engine in ("reference",) + ENGINES:
        sim = FunctionalSimulator(image, engine=engine)
        first = canonical(sim.run())
        pending = list(sim._pending_writes)
        assert pending  # the load's result is still in flight at the halt
        assert canonical(sim.run()) == first
        assert sim._pending_writes == pending
        states.append((first, pending))
    assert all(state == states[0] for state in states)


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

    # The strict decode turns an ALU instruction with rd != 0 into one fused
    # check-and-execute micro-op; each case below must raise at the same
    # bundle, with the same post-mortem state, as the reference.
    STRICT_VIOLATIONS = {
        "stale_rs1_into_addi": ([
            [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
            [Instruction(Opcode.ADDI, rd=2, rs1=1, imm=1)],
            [Instruction(Opcode.HALT)],
        ], K_ALU_RI_S),
        "stale_rs2_into_add": ([
            [Instruction(Opcode.LIL, rd=3, imm=7)],
            [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
            [Instruction(Opcode.ADD, rd=2, rs1=3, rs2=1)],
            [Instruction(Opcode.HALT)],
        ], K_ALU_RR_S),
        "guard_pending_from_compare": ([
            [Instruction(Opcode.CMPIEQ, pd=1, rs1=0, imm=0),
             Instruction(Opcode.ADDI, guard=Guard(1), rd=2, rs1=0, imm=1)],
            [Instruction(Opcode.HALT)],
        ], K_ALU_RI_S),
        "slot2_reads_slot1_result": ([
            [Instruction(Opcode.ADDI, rd=1, rs1=0, imm=5),
             Instruction(Opcode.ADDI, rd=2, rs1=1, imm=1)],
            [Instruction(Opcode.HALT)],
        ], K_ALU_RI_S),
        "r0_destination_checks_alone": ([
            [Instruction(Opcode.LWC, rd=1, rs1=0, imm=0)],
            [Instruction(Opcode.ADDI, rd=0, rs1=1, imm=1)],
            [Instruction(Opcode.HALT)],
        ], K_CHECK1),
    }

    @pytest.mark.parametrize("case", sorted(STRICT_VIOLATIONS))
    def test_fused_strict_violation_matches_reference(self, case):
        bundles, kind = self.STRICT_VIOLATIONS[case]
        image = _raw_image(bundles)
        program = decode_image(image, PatmosConfig().pipeline, True, False)
        violating = bundles[-2][-1]
        record = [r for r in program.table if r is not None][-2]
        assert record[R_BUNDLE].slots[-1] == violating
        assert record[R_UOPS][-1][0] == kind
        if kind == K_CHECK1:  # r0 is dead: nothing executes after the check
            assert [u[0] for u in record[R_UOPS]] == [K_CHECK1]
        # Neither a fused op nor a check can reach the shared bus.
        assert not any(_uop_may_arbitrate(u, True, True, False, True)
                       for u in record[R_UOPS])
        states = []
        for engine in ("reference",) + ENGINES:
            sim = FunctionalSimulator(image, strict=True, engine=engine)
            with pytest.raises(ScheduleViolation):
                sim.run()
            states.append((sim.issued, sim.cycles, list(sim.state.regs),
                           list(sim.state.preds), sim._pending_writes))
        assert all(state == states[0] for state in states)
        assert states[0][0] == len(bundles) - 2  # the violating bundle

    @pytest.mark.parametrize("strict", (False, True))
    @pytest.mark.parametrize("field,value", (("rs1", 40), ("rs2", -1),
                                             ("rd", 32)))
    def test_out_of_range_register_rejected_at_decode(self, strict, field,
                                                      value):
        instr = Instruction(Opcode.ADD, rd=2, rs1=1, rs2=3)
        object.__setattr__(instr, field, value)
        image = _raw_image([[instr], [Instruction(Opcode.HALT)]])
        with pytest.raises(SimulationError,
                           match="index out of range at decode"):
            FunctionalSimulator(image, strict=strict, engine="fast").run()


class TestDecodeReuse:
    def test_decode_is_cached_per_image(self):
        image = _raw_image([[Instruction(Opcode.HALT)]])
        pipeline = PatmosConfig().pipeline
        first = decode_image(image, pipeline, False, False)
        again = decode_image(image, pipeline, False, False)
        assert first is again
        strict = decode_image(image, pipeline, True, False)
        assert strict is not first

    @staticmethod
    def _assert_records_match_lookups(image):
        """Every table slot's function and block key against the image's
        own lookups (``function_containing`` / ``block_at``)."""
        for strict in (False, True):
            program = decode_image(image, PatmosConfig().pipeline, strict,
                                   False)
            for index, record in enumerate(program.table):
                addr = program.base + 4 * index
                if record is None:
                    assert addr not in image.bundles
                    continue
                try:
                    expected = image.function_containing(addr)
                except LinkError:
                    expected = None
                assert record[R_FUNC] is expected, hex(addr)
                block = image.block_at(addr)
                assert record[R_BLOCK] == (
                    None if block is None else (block.function, block.label))

    @pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
    def test_function_and_block_of_every_record(self, compiled_kernels,
                                                name):
        _, compiled = compiled_kernels
        self._assert_records_match_lookups(compiled[name][0])

    def test_function_of_every_record_with_split_subfunctions(self):
        config = PatmosConfig()
        kernel = build_large_function(blocks=48, instructions_per_block=24,
                                      iterations=1)
        image, _ = compile_and_link(kernel.program, config, CompileOptions())
        assert any(record.is_subfunction for record in image.functions)
        self._assert_records_match_lookups(image)

    def test_function_walk_follows_the_bisect_rule(self):
        # Records that share an entry, overrun the next entry, are empty,
        # start off the bundle grid or leave gaps: every address must still
        # map as function_containing maps it (the later record of a shared
        # entry wins, a record ends at the next entry, a gap has no
        # function).
        config = PatmosConfig()
        image, _ = compile_and_link(build_kernel("call_tree").program, config,
                                    CompileOptions())
        main, work = sorted(image.functions, key=lambda f: f.entry_addr)[:2]
        image.functions = [
            FunctionRecord(f.name, f.entry_addr, 4 if f is main else
                           f.size_bytes + 64)
            for f in image.functions] + [
            FunctionRecord("shadow", main.entry_addr, 12),
            FunctionRecord("empty", main.entry_addr + 8, 0),
            FunctionRecord("unaligned", work.entry_addr + 6, 8)]
        image._index()
        image._caches.clear()
        self._assert_records_match_lookups(image)
        # Every word address, not only those where a bundle starts.
        base = min(image.bundles)
        length = (max(image.bundles) - base) // 4 + 1
        for index, record in enumerate(_function_slots(image, base, length)):
            try:
                expected = image.function_containing(base + 4 * index)
            except LinkError:
                expected = None
            assert record is expected, hex(base + 4 * index)

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
        for record in image.functions:
            assert image.function_containing(record.entry_addr) is record
            last = record.entry_addr + record.size_bytes - 4
            assert image.function_containing(last).name == record.name
        with pytest.raises(LinkError):
            image.function_containing(image.functions[0].entry_addr - 4)
        end = max(f.entry_addr + f.size_bytes for f in image.functions)
        with pytest.raises(LinkError):
            image.function_containing(end)
