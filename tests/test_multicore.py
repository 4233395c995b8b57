"""Golden tests for the shared-memory multicore co-simulation.

The headline property is the paper's CMP claim made empirical: under TDMA
arbitration, for *every* workload kernel, a core's cycles, bus statistics
and output are the same whatever its co-runners run, and the same as a run
of the core alone on its port of the TDMA arbiter — while under round-robin
arbitration the same system's timing provably depends on what the
co-runners do.
"""

import pytest

from repro import PatmosConfig, ProgramBuilder, compile_and_link
from repro.cmp import MulticoreSystem, default_tdma_schedule
from repro.config import MemoryConfig
from repro.errors import ConfigError
from repro.memory import MainMemory, TdmaBusArbiter, TdmaSchedule
from repro.sim.cycle import CycleSimulator
from repro.workloads import build_kernel
from repro.workloads.suite import KERNEL_BUILDERS

CONFIG = PatmosConfig()
#: A memory-heavy co-runner whose traffic must not disturb TDMA timing.
CO_RUNNER = "stream_checksum"
SCHEDULERS = ("event", "reference")


def _image(kernel):
    image, _ = compile_and_link(kernel.program, CONFIG)
    return image


@pytest.fixture(scope="module")
def images():
    """One compiled image per kernel (module-cached: compilation dominates)."""
    return {name: _image(build_kernel(name)) for name in KERNEL_BUILDERS}


@pytest.fixture(scope="module")
def idle():
    """A co-runner that halts at once and so never uses the bus."""
    builder = ProgramBuilder("idle")
    builder.function("main").halt()
    image, _ = compile_and_link(builder.build(), CONFIG)
    return image


@pytest.fixture(scope="module")
def expected_outputs():
    return {name: build_kernel(name).expected_output
            for name in KERNEL_BUILDERS}


def _observed(core_id, cycles, stats, output):
    """A core's cycles, arbiter statistics and output, for comparison."""
    return (cycles, tuple(stats[key][core_id] for key in
                          ("requests", "wait_cycles", "busy_cycles")),
            output)


def _alone(image, schedule, core_id=0):
    """One core run alone on its port of a fresh TDMA arbiter."""
    arbiter = TdmaBusArbiter(schedule)
    sim = CycleSimulator(image, config=CONFIG, strict=True,
                         arbiter=arbiter.port(core_id),
                         core_id=core_id).run()
    return _observed(core_id, sim.cycles, arbiter.stats_summary(),
                     sim.output)


def _cosim(images, schedule, scheduler):
    """Per-core observations of one TDMA co-simulation of ``images``."""
    result = MulticoreSystem(images, CONFIG, schedule=schedule,
                             scheduler=scheduler).run(analyse=False,
                                                      strict=True)
    return [_observed(core.core_id, core.observed_cycles,
                      result.arbiter_stats, core.sim.output)
            for core in result.cores]


class TestTdmaDecoupling:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
    def test_cosim_equals_independent_simulation(self, kernel, images, idle,
                                                 expected_outputs):
        """The golden decoupling property, for every workload kernel: core
        0 observes the same timing next to idle and memory-heavy co-runners,
        on both schedulers, as alone on its port."""
        for cores in (2, 4):
            schedule = default_tdma_schedule(cores, CONFIG)
            alone = _alone(images[kernel], schedule)
            assert alone[2] == expected_outputs[kernel]
            for co_runner in (idle, images[CO_RUNNER]):
                mix = [images[kernel]] + [co_runner] * (cores - 1)
                for scheduler in SCHEDULERS:
                    observed = _cosim(mix, schedule, scheduler)
                    assert observed[0] == alone, (cores, scheduler)
            # Functional behaviour survives the shared-memory banks.
            assert observed[1][2] == expected_outputs[CO_RUNNER]

    def test_four_core_mix(self, images, expected_outputs):
        mix = ["vector_sum", "checksum", "fir_filter", "saturate"]
        quad = [images[name] for name in mix]
        schedule = default_tdma_schedule(len(mix), CONFIG)
        observed = _cosim(quad, schedule, "event")
        assert observed == [_alone(image, schedule, core_id)
                            for core_id, image in enumerate(quad)]
        result = MulticoreSystem(quad, CONFIG).run(analyse=True, strict=True)
        for core, name in zip(result.cores, mix):
            assert core.sim.output == expected_outputs[name]
            assert core.wcet_cycles >= core.observed_cycles

    def test_weighted_slots_keep_decoupling(self, images, idle):
        schedule = TdmaSchedule(num_cores=2,
                                slot_cycles=CONFIG.memory.burst_cycles(),
                                slot_weights=(1, 2))
        pair = [images["vector_sum"], images[CO_RUNNER]]
        expected = [_alone(image, schedule, core_id)
                    for core_id, image in enumerate(pair)]
        for scheduler in SCHEDULERS:
            assert _cosim(pair, schedule, scheduler) == expected
            assert (_cosim([pair[0], idle], schedule, scheduler)[0]
                    == expected[0])


class TestRoundRobinInterference:
    def test_timing_depends_on_co_runner(self, images):
        """The counterexample: round-robin timing varies with co-runner
        traffic, which is exactly what defeats per-core WCET analysis."""
        heavy = MulticoreSystem(
            [images["vector_sum"], images[CO_RUNNER]], CONFIG,
            arbiter="round_robin").run(analyse=False, strict=True)
        light = MulticoreSystem(
            [images["vector_sum"], images["saturate"]], CONFIG,
            arbiter="round_robin").run(analyse=False, strict=True)
        assert (heavy.observed_by_core()[0]
                != light.observed_by_core()[0])

    def test_wcet_bound_covers_observed(self, images):
        result = MulticoreSystem(
            [images["vector_sum"], images[CO_RUNNER]], CONFIG,
            arbiter="round_robin").run(analyse=True, strict=True)
        for core in result.cores:
            assert core.wcet_cycles is not None
            assert core.wcet_cycles >= core.observed_cycles


class TestPriorityArbitration:
    def test_only_top_core_gets_a_bound(self, images):
        result = MulticoreSystem(
            [images["vector_sum"], images[CO_RUNNER]], CONFIG,
            arbiter="priority").run(analyse=True, strict=True)
        assert result.cores[0].wcet_cycles is not None
        assert result.cores[0].wcet_cycles >= result.cores[0].observed_cycles
        assert result.cores[1].wcet_cycles is None

    def test_top_core_bound_sound_under_queueing(self, images):
        """With three memory-heavy co-runners the lower-priority queue is
        long, but the top core's bound must still cover its observed time
        (it jumps the queue, waiting one in-flight transfer at most)."""
        result = MulticoreSystem(
            [images["vector_sum"]] + [images[CO_RUNNER]] * 3, CONFIG,
            arbiter="priority").run(analyse=True, strict=True)
        top = result.cores[0]
        assert top.wcet_cycles is not None
        assert top.wcet_cycles >= top.observed_cycles


class TestSystemConstruction:
    def test_under_provisioned_slot_rejected(self, images):
        burst = CONFIG.memory.burst_cycles()
        schedule = TdmaSchedule(num_cores=2, slot_cycles=burst - 1)
        with pytest.raises(ConfigError, match="shorter than one burst"):
            MulticoreSystem([images["vector_sum"]] * 2, CONFIG,
                            schedule=schedule)
        with pytest.raises(ConfigError, match="shorter than one burst"):
            MulticoreSystem.homogeneous(images["vector_sum"], 2, CONFIG,
                                        slot_cycles=burst - 1)

    def test_under_provisioned_weighted_slot_rejected(self, images):
        burst = CONFIG.memory.burst_cycles()
        # Weight 1 on a half-burst base slot under-provisions core 0 only.
        schedule = TdmaSchedule(num_cores=2, slot_cycles=burst // 2,
                                slot_weights=(1, 2))
        with pytest.raises(ConfigError, match="core 0"):
            MulticoreSystem([images["vector_sum"]] * 2, CONFIG,
                            schedule=schedule)

    def test_undersized_arbiter_instance_rejected(self, images):
        from repro.memory import RoundRobinArbiter
        with pytest.raises(ConfigError, match="serves 2 cores"):
            MulticoreSystem([images["vector_sum"]] * 4, CONFIG,
                            arbiter=RoundRobinArbiter(2))

    def test_ignored_argument_combinations_rejected(self, images):
        pair = [images["vector_sum"]] * 2
        with pytest.raises(ConfigError, match="TDMA schedule makes no"):
            MulticoreSystem(pair, CONFIG, arbiter="round_robin",
                            slot_weights=(1, 3))
        with pytest.raises(ConfigError, match="priorities make no sense"):
            MulticoreSystem(pair, CONFIG, arbiter="tdma", priorities=[1, 0])
        with pytest.raises(ConfigError, match="not both"):
            MulticoreSystem(pair, CONFIG,
                            schedule=default_tdma_schedule(2, CONFIG),
                            slot_weights=(1, 2))
        with pytest.raises(ConfigError, match="not both"):
            MulticoreSystem.homogeneous(
                pair[0], 2, CONFIG, slot_cycles=28,
                schedule=default_tdma_schedule(2, CONFIG))
        from repro.memory import RoundRobinArbiter
        with pytest.raises(ConfigError, match="configure the arbiter"):
            MulticoreSystem(pair, CONFIG, arbiter=RoundRobinArbiter(2),
                            priorities=[0, 1])

    def test_mismatched_memory_config_rejected(self, images):
        other = PatmosConfig(memory=MemoryConfig(burst_words=8))
        with pytest.raises(ConfigError, match="MemoryConfig"):
            MulticoreSystem([images["vector_sum"]] * 2,
                            configs=[CONFIG, other])

    def test_heterogeneous_cache_configs_allowed(self, images):
        small = PatmosConfig(
            method_cache=CONFIG.method_cache.__class__(size_bytes=1024,
                                                       num_blocks=4))
        result = MulticoreSystem(
            [images["vector_sum"], images["checksum"]],
            configs=[CONFIG, small]).run(analyse=False, strict=True)
        assert len(result.cores) == 2


class TestSteppingApi:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_chunked_stepping_equals_one_shot_run(self, images, engine):
        """run_step in small cycle quanta must reproduce run() exactly."""
        image = images["vector_sum"]
        reference = CycleSimulator(image, config=CONFIG, strict=True,
                                   engine=engine).run()
        sim = CycleSimulator(image, config=CONFIG, strict=True, engine=engine)
        steps = 0
        while True:
            reason = sim.run_step(until_cycle=sim.cycles + 7)
            steps += 1
            assert steps < 10_000
            if reason == "halted":
                break
        chunked = sim.result()
        assert chunked.cycles == reference.cycles
        assert chunked.output == reference.output
        assert chunked.block_counts == reference.block_counts
        assert chunked.stalls.to_dict() == reference.stalls.to_dict()

    def test_memory_event_stepping(self, images):
        """With an arbiter attached, stepping yields on arbitrated
        transfers and the cycle horizon is respected otherwise."""
        image = images[CO_RUNNER]
        schedule = default_tdma_schedule(2, CONFIG)
        arbiter = TdmaBusArbiter(schedule)
        sim = CycleSimulator(image, config=CONFIG, arbiter=arbiter.port(0),
                             core_id=0)
        events = 0
        while True:
            before = sim.cycles
            reason = sim.run_step(until_cycle=sim.cycles + 50,
                                  stop_on_memory_event=True)
            if reason == "halted":
                break
            if reason == "memory_event":
                events += 1
            else:
                assert reason == "cycle_limit"
                assert sim.cycles >= before + 50
        assert events > 0
        # The stepped run still matches an uninterrupted one.
        alone = CycleSimulator(image, config=CONFIG,
                               arbiter=TdmaBusArbiter(schedule).port(0),
                               core_id=0).run()
        assert sim.result().cycles == alone.cycles


class TestSharedMemoryBanks:
    def test_views_alias_backing_storage(self):
        shared = MainMemory(1024)
        bank0 = MainMemory.view(shared, 0, 512)
        bank1 = MainMemory.view(shared, 512, 512)
        bank0.write_word(16, 0xAAAA)
        bank1.write_word(16, 0xBBBB)
        assert shared.read_word(16) == 0xAAAA
        assert shared.read_word(512 + 16) == 0xBBBB
        assert bank0.read_word(16) == 0xAAAA  # banks stay disjoint

    def test_bank_bounds_enforced(self):
        shared = MainMemory(1024)
        bank = MainMemory.view(shared, 512, 512)
        from repro.errors import MemoryAccessError
        with pytest.raises(MemoryAccessError):
            bank.read_word(512)
        with pytest.raises(MemoryAccessError):
            MainMemory.view(shared, 768, 512)
        with pytest.raises(MemoryAccessError, match="positive"):
            MainMemory.view(shared, 512, -4)
        with pytest.raises(MemoryAccessError, match="whole words"):
            MainMemory.view(shared, 0, 10)

    def test_system_stats_aggregate(self, images):
        result = MulticoreSystem(
            [images["vector_sum"], images[CO_RUNNER]], CONFIG,
            arbiter="round_robin").run(analyse=False)
        stats = result.system_stats()
        assert stats["arbiter"] == "round_robin"
        assert stats["makespan"] == result.makespan
        assert len(stats["per_core"]) == 2
        total = sum(row["arbitration_cycles"] for row in stats["per_core"])
        assert stats["totals"]["arbitration_cycles"] == total
        assert stats["arbiter_stats"]["kind"] == "round_robin"
