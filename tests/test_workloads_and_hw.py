"""Workload correctness on both simulators, the FPGA model, CMP and assembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CompileOptions,
    CycleSimulator,
    FunctionalSimulator,
    PatmosConfig,
    assemble,
    compile_and_link,
    disassemble_image,
    disassemble_program,
)
from repro.cmp import MulticoreSystem, default_tdma_schedule, single_core_reference
from repro.errors import AssemblerError
from repro.hw import (
    CYCLONE_II_LIKE,
    DoubleClockedBramRegisterFile,
    FlipFlopRegisterFile,
    RegisterFilePorts,
    ReplicatedBramRegisterFile,
    VIRTEX5_SPEED2,
    compare_register_files,
    device_by_name,
    estimate_pipeline_timing,
    estimate_resources,
)
from repro.workloads import (
    KERNEL_BUILDERS,
    build_kernel,
    build_vector_sum,
    random_alu_kernel,
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_kernel_matches_reference_on_both_simulators(name, config):
    kernel = build_kernel(name)
    image, _ = compile_and_link(kernel.program, config)
    cycle = CycleSimulator(image, strict=True).run()
    functional = FunctionalSimulator(image, strict=True).run()
    assert cycle.output == kernel.expected_output
    assert functional.output == kernel.expected_output
    assert cycle.halted and functional.halted
    # Timing differs, architectural behaviour does not.
    assert cycle.instructions == functional.instructions


@pytest.mark.parametrize("name", ("vector_sum", "saturate", "call_tree"))
def test_kernels_run_single_issue(name, config):
    kernel = build_kernel(name)
    image, _ = compile_and_link(kernel.program, config,
                                CompileOptions(dual_issue=False))
    result = CycleSimulator(image, strict=True).run()
    assert result.output == kernel.expected_output


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_random_alu_kernels_agree_with_reference(seed):
    kernel = random_alu_kernel(seed, length=30)
    image, _ = compile_and_link(kernel.program, PatmosConfig())
    cycle = CycleSimulator(image, strict=True).run()
    functional = FunctionalSimulator(image, strict=True).run()
    assert cycle.output == kernel.expected_output
    assert functional.output == kernel.expected_output


# ---------------------------------------------------------------------------
# Assembler
# ---------------------------------------------------------------------------


class TestAssembler:
    SOURCE = """
        ; simple summation
        .data values const 1 2 3 4
        .entry main

        .func main
            addl r1 = r0, values
            lil r2 = 4
            lil r3 = 0
        loop:
            lwc r4 = [r1 + 0]
            add r3 = r3, r4
            addi r1 = r1, 4
            subi r2 = r2, 1
            cmpineq p1 = r2, 0
            (p1) br loop
            .loopbound loop 4
            out r3
            halt
    """

    def test_assemble_and_run(self, config):
        program = assemble(self.SOURCE)
        image, _ = compile_and_link(program, config)
        result = CycleSimulator(image, strict=True).run()
        assert result.output == [10]

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblerError) as err:
            assemble(".func main\n    bogus r1 = r2, r3\n")
        assert "line 2" in str(err.value)

    def test_instruction_outside_function_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("add r1 = r2, r3\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".wat main\n")

    def test_bad_data_space_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data x rom 1 2\n")

    @pytest.mark.parametrize("name", ("vector_sum", "saturate", "stack_chain",
                                      "stream_checksum", "mixed_access"))
    def test_disassemble_assemble_round_trip(self, name, config):
        kernel = build_kernel(name)
        text = disassemble_program(kernel.program)
        program = assemble(text)
        image, _ = compile_and_link(program, config)
        result = CycleSimulator(image, strict=True).run()
        assert result.output == kernel.expected_output

    def test_disassemble_image(self, config):
        kernel = build_vector_sum(8)
        image, _ = compile_and_link(kernel.program, config)
        text = disassemble_image(image)
        assert "<main>" in text
        assert "halt" in text


# ---------------------------------------------------------------------------
# CMP / TDMA
# ---------------------------------------------------------------------------


class TestCmp:
    def _images(self, count, config):
        images = []
        for index in range(count):
            kernel = build_kernel("vector_sum", n=16, seed=index + 1)
            image, _ = compile_and_link(kernel.program, config)
            images.append((image, kernel))
        return images

    def test_all_cores_produce_correct_results(self, config):
        pairs = self._images(3, config)
        system = MulticoreSystem([image for image, _ in pairs], config)
        result = system.run(analyse=True)
        assert result.num_cores == 3
        for core, (_, kernel) in zip(result.cores, pairs):
            assert core.sim.output == kernel.expected_output
            assert core.wcet_cycles >= core.observed_cycles

    def test_tdma_slows_down_but_stays_bounded(self, config):
        pairs = self._images(4, config)
        image = pairs[0][0]
        alone = single_core_reference(image, config)
        system = MulticoreSystem([img for img, _ in pairs], config)
        shared = system.run(analyse=True)
        core0 = shared.cores[0]
        assert core0.observed_cycles >= alone.observed_cycles
        assert core0.wcet_cycles >= alone.wcet_cycles
        assert core0.observed_cycles <= core0.wcet_cycles

    def test_default_schedule_has_burst_slots(self, config):
        schedule = default_tdma_schedule(4, config)
        assert schedule.num_cores == 4
        assert schedule.slot_cycles == config.memory.burst_cycles()


# ---------------------------------------------------------------------------
# FPGA hardware model (experiment E1 claims)
# ---------------------------------------------------------------------------


class TestHardwareModel:
    def test_tdm_register_file_uses_two_brams(self):
        report = DoubleClockedBramRegisterFile(VIRTEX5_SPEED2).report(
            RegisterFilePorts())
        assert report.block_rams == 2
        assert report.max_system_mhz > 200.0

    def test_replicated_register_file_uses_many_brams(self):
        report = ReplicatedBramRegisterFile(VIRTEX5_SPEED2).report(
            RegisterFilePorts())
        assert report.block_rams == 8

    def test_flip_flop_register_file_is_resource_heavy(self):
        ff = FlipFlopRegisterFile(VIRTEX5_SPEED2).report(RegisterFilePorts())
        tdm = DoubleClockedBramRegisterFile(VIRTEX5_SPEED2).report(
            RegisterFilePorts())
        assert ff.lut_estimate > 5 * tdm.lut_estimate

    def test_pipeline_exceeds_200mhz_with_alu_critical_path(self):
        report = estimate_pipeline_timing(VIRTEX5_SPEED2)
        assert report.max_frequency_mhz > 200.0
        assert report.critical_stage.name == "execute"
        assert "execute" in report.limited_by

    def test_slower_device_is_register_file_or_logic_limited(self):
        report = estimate_pipeline_timing(CYCLONE_II_LIKE)
        assert report.max_frequency_mhz < 200.0

    def test_single_issue_is_not_slower_than_dual_issue(self):
        dual = estimate_pipeline_timing(VIRTEX5_SPEED2, dual_issue=True)
        single = estimate_pipeline_timing(VIRTEX5_SPEED2, dual_issue=False)
        assert single.max_frequency_mhz >= dual.max_frequency_mhz

    def test_compare_register_files_reports_all_variants(self):
        reports = compare_register_files(VIRTEX5_SPEED2)
        names = {report.name for report in reports}
        assert names == {"flip-flop", "replicated-bram", "double-clocked-tdm"}

    def test_resource_report(self, config):
        report = estimate_resources(VIRTEX5_SPEED2, config)
        assert report.register_file_brams == 2
        assert report.total_brams > report.register_file_brams

    def test_device_lookup(self):
        assert device_by_name("Virtex-5 (speed grade -2)") is VIRTEX5_SPEED2
        with pytest.raises(Exception):
            device_by_name("unknown device")

    def test_summary_renders(self):
        report = estimate_pipeline_timing(VIRTEX5_SPEED2)
        text = report.summary()
        assert "f_max" in text and "Virtex-5" in text
