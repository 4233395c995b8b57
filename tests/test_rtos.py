"""RTOS layer: interrupts, preemptive task execution, response-time bounds.

The matrix at the heart of this suite checks the two load-bearing claims of
``repro.rtos``:

* **Golden determinism** — an interrupt-laden multi-task co-simulation is
  bit-identical between the event-driven and the quantum-polling reference
  schedulers (and between the fast engine and the reference interpreter),
  for every arbiter and task-scheduling policy.
* **Response-time soundness** — every observed response time stays within
  the end-to-end analytical bound (fixed-priority RTA / the TDMA-slot
  cyclic analogue on top of arbiter-aware per-task WCETs), across seeded
  random task sets.
"""

import pytest

from repro import PatmosConfig
from repro.errors import RtosError
from repro.rtos import (
    RtosOptions,
    RtosSystem,
    TaskSet,
    TaskTiming,
    build_timeline,
    fp_response_times,
    synthesize_tasksets,
    task_from_kernel,
    tdma_slot_response_times,
)
from repro.workloads import build_kernel
from repro.workloads import images as images_module
from repro.workloads.suite import SUITES

CONFIG = PatmosConfig()


@pytest.fixture(scope="module")
def tasksets_by_seed():
    """Synthesized 2-core task sets, cached per seed (compilation + WCET
    dominate; every test run reuses the same frozen task sets)."""
    cache = {}

    def get(seed, tasks_per_core=3, **kwargs):
        key = (seed, tasks_per_core, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = synthesize_tasksets(
                2, tasks_per_core, seed=seed, **kwargs)
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# Task model
# ---------------------------------------------------------------------------


class TestTaskModel:
    def test_implicit_deadline_equals_period(self):
        task = task_from_kernel(build_kernel("crc_step"), period=500,
                                priority=0)
        assert task.deadline == 500
        assert task.expected_output  # kernel reference output attached

    def test_validation_errors(self):
        kernel = build_kernel("crc_step")
        with pytest.raises(RtosError):
            task_from_kernel(kernel, period=0, priority=0)
        with pytest.raises(RtosError):
            task_from_kernel(kernel, period=10, priority=0, kind="aperiodic")
        with pytest.raises(RtosError):
            task_from_kernel(kernel, period=10, priority=0, offset=-1)
        task = task_from_kernel(kernel, period=10, priority=0)
        with pytest.raises(RtosError):
            TaskSet((task, task))  # duplicate names
        with pytest.raises(RtosError):
            TaskSet(())

    def test_rate_monotonic_orders_by_period(self):
        kernel = build_kernel("crc_step")
        tasks = tuple(
            task_from_kernel(kernel, period=period, priority=9,
                             name=f"t{i}")
            for i, period in enumerate((700, 300, 500)))
        ranked = TaskSet(tasks).rate_monotonic()
        assert [task.priority for task in ranked.tasks] == [2, 0, 1]

    def test_hyperperiod(self):
        kernel = build_kernel("crc_step")
        tasks = tuple(
            task_from_kernel(kernel, period=period, priority=i,
                             name=f"t{i}")
            for i, period in enumerate((4, 6)))
        assert TaskSet(tasks).hyperperiod() == 12

    def test_options_validation(self):
        with pytest.raises(RtosError):
            RtosOptions(interrupt_entry_cycles=-1)
        with pytest.raises(RtosError):
            RtosOptions(task_slot_cycles=0)
        derived = RtosOptions.for_config(CONFIG)
        assert derived.interrupt_entry_cycles > 0
        assert derived.context_switch_cycles > 0

    def test_synthesize_is_deterministic(self, tasksets_by_seed):
        a = synthesize_tasksets(2, 3, seed=5)
        b = synthesize_tasksets(2, 3, seed=5)
        assert [(t.name, t.period, t.offset, t.kind, t.priority)
                for ts in a for t in ts] == \
               [(t.name, t.period, t.offset, t.kind, t.priority)
                for ts in b for t in ts]

    def test_synthesize_compiles_each_body_once(self, monkeypatch):
        images_module._images.clear()
        compiles = []
        compile_and_link = images_module.compile_and_link

        def counting_compile(*args, **kwargs):
            compiles.append(args[0])
            return compile_and_link(*args, **kwargs)

        monkeypatch.setattr(images_module, "compile_and_link",
                            counting_compile)
        first = synthesize_tasksets(2, 3, seed=5)
        assert len(compiles) == len(SUITES["rtos"])
        second = synthesize_tasksets(1, 2, seed=6)
        assert len(compiles) == len(SUITES["rtos"])
        images = {}
        for taskset in first + second:
            for task in taskset:
                body = task.name.split("_", 2)[2]  # c<core>_t<index>_<body>
                assert images.setdefault(body, task.image) is task.image
                assert task.expected_output == tuple(
                    build_kernel(body).expected_output)

    def test_synthesize_rejects_bad_parameters(self):
        with pytest.raises(RtosError):
            synthesize_tasksets(0, 3)
        with pytest.raises(RtosError):
            synthesize_tasksets(1, 1, utilisation=1.5)
        with pytest.raises(RtosError):
            synthesize_tasksets(1, 1, priority_assignment="lottery")

    def test_rtos_suite_registered(self):
        assert SUITES["rtos"] == ("control_update", "sensor_filter",
                                  "crc_step", "actuator_ramp")


# ---------------------------------------------------------------------------
# Interrupt timelines
# ---------------------------------------------------------------------------


class TestInterrupts:
    def _taskset(self):
        kernel = build_kernel("crc_step")
        timer = task_from_kernel(kernel, period=100, priority=0,
                                 name="timer", offset=10)
        sporadic = task_from_kernel(kernel, period=150, priority=1,
                                    name="io", kind="sporadic", jitter=40)
        return TaskSet((timer, sporadic))

    def test_timer_releases_are_periodic(self):
        timeline = build_timeline(self._taskset(), horizon=450)
        timer = [e.time for e in timeline if e.task_index == 0]
        assert timer == [10, 110, 210, 310, 410]

    def test_sporadic_spacing_at_least_period(self):
        timeline = build_timeline(self._taskset(), horizon=2000, seed=3)
        times = [e.time for e in timeline if e.task_index == 1]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps and all(150 <= gap <= 190 for gap in gaps)

    def test_timeline_sorted_and_deterministic(self):
        a = build_timeline(self._taskset(), horizon=1000, core_id=1, seed=7)
        b = build_timeline(self._taskset(), horizon=1000, core_id=1, seed=7)
        assert a == b
        assert a == sorted(a)
        with pytest.raises(RtosError):
            build_timeline(self._taskset(), horizon=0)


# ---------------------------------------------------------------------------
# Pure response-time analysis
# ---------------------------------------------------------------------------

ZERO_COST = RtosOptions(interrupt_entry_cycles=0, interrupt_exit_cycles=0,
                        context_switch_cycles=0, preemption_reload_cycles=0,
                        task_slot_cycles=50)


class TestResponseTimeAnalysis:
    def test_classical_fp_fixpoint(self):
        # Textbook example with zero overheads/blocking: R0 = 10,
        # R1 = 20 + ceil(R1/50)*10 -> 30, R2 = 40 + 2*10 + 1*20 -> 80.
        timings = [
            TaskTiming("a", period=50, deadline=50, priority=0,
                       wcet_cycles=10),
            TaskTiming("b", period=100, deadline=100, priority=1,
                       wcet_cycles=20),
            TaskTiming("c", period=200, deadline=200, priority=2,
                       wcet_cycles=40),
        ]
        assert fp_response_times(timings, ZERO_COST, 0) == [10, 30, 80]

    def test_fp_overheads_increase_bounds(self):
        timings = [TaskTiming("a", period=500, deadline=500, priority=0,
                              wcet_cycles=100)]
        cheap = fp_response_times(timings, ZERO_COST, 0)[0]
        costly = fp_response_times(
            timings, RtosOptions(context_switch_cycles=10), 25)[0]
        assert costly > cheap

    def test_fp_no_convergence_returns_none(self):
        # Utilisation > 1: the recurrence exceeds the validity limit.
        timings = [
            TaskTiming("a", period=10, deadline=10, priority=0,
                       wcet_cycles=8),
            TaskTiming("b", period=20, deadline=20, priority=1,
                       wcet_cycles=10),
        ]
        assert fp_response_times(timings, ZERO_COST, 0)[1] is None

    def test_fp_propagates_unbounded_inputs(self):
        timings = [
            TaskTiming("a", period=50, deadline=50, priority=0,
                       wcet_cycles=None),
            TaskTiming("b", period=100, deadline=100, priority=1,
                       wcet_cycles=10),
        ]
        bounds = fp_response_times(timings, ZERO_COST, 0)
        assert bounds[0] is None
        assert bounds[1] is None  # hp task has no C_j either
        assert fp_response_times(
            [timings[1]], ZERO_COST, None) == [None]

    def test_equal_priority_ties_break_by_index(self):
        # Task 1 has equal priority but larger index: task 0 is in hp(1),
        # task 1 is NOT in hp(0) (matches the dispatcher's (priority, index)
        # key), so only task 1 sees interference.
        timings = [
            TaskTiming("a", period=100, deadline=100, priority=0,
                       wcet_cycles=10),
            TaskTiming("b", period=100, deadline=100, priority=0,
                       wcet_cycles=10),
        ]
        assert fp_response_times(timings, ZERO_COST, 0) == [10, 20]

    def test_tdma_slot_bounds_are_table_period_multiples(self):
        timings = [
            TaskTiming("a", period=400, deadline=400, priority=0,
                       wcet_cycles=60),
            TaskTiming("b", period=400, deadline=400, priority=1,
                       wcet_cycles=30),
        ]
        bounds = tdma_slot_response_times(timings, ZERO_COST, 0)
        table_period = ZERO_COST.task_slot_cycles * 2
        assert all(bound is not None and bound % table_period == 0
                   for bound in bounds)
        # 60 cycles of demand need two 50-cycle slots -> 2 table periods.
        assert bounds[0] == 2 * table_period

    def test_tdma_slot_overhead_swallows_slot(self):
        timings = [TaskTiming("a", period=400, deadline=400, priority=0,
                              wcet_cycles=10)]
        options = RtosOptions(context_switch_cycles=60, task_slot_cycles=50)
        assert tdma_slot_response_times(timings, options, 0) == [None]
        assert tdma_slot_response_times(timings, ZERO_COST, None) == [None]


# ---------------------------------------------------------------------------
# Golden determinism: event vs reference scheduler, fast vs reference engine
# ---------------------------------------------------------------------------


def _run(tasksets, seed, **kwargs):
    system = RtosSystem(tasksets, seed=seed, **kwargs)
    result = system.run()
    return result, bytes(system.shared_memory._data)


class TestGoldenDeterminism:
    @pytest.mark.parametrize("arbiter", ["tdma", "round_robin", "priority"])
    @pytest.mark.parametrize("policy", ["fixed_priority", "tdma_slot"])
    def test_event_reference_bit_identical(self, tasksets_by_seed, arbiter,
                                           policy):
        tasksets = tasksets_by_seed(1)  # mixes periodic and sporadic tasks
        res_e, mem_e = _run(tasksets, 1, arbiter=arbiter, policy=policy,
                            scheduler="event")
        res_r, mem_r = _run(tasksets, 1, arbiter=arbiter, policy=policy,
                            scheduler="reference")
        assert res_e.scheduler == "event"
        assert res_r.scheduler == "reference"
        assert res_e.timing_dict() == res_r.timing_dict()
        assert mem_e == mem_r

    def test_fast_reference_engine_identical(self, tasksets_by_seed):
        tasksets = tasksets_by_seed(0, tasks_per_core=2)
        res_f, mem_f = _run(tasksets, 0, arbiter="round_robin",
                            engine="fast")
        res_r, mem_r = _run(tasksets, 0, arbiter="round_robin",
                            engine="reference")
        assert res_f.timing_dict() == res_r.timing_dict()
        assert mem_f == mem_r

    def test_interrupts_preempt_and_complete(self, tasksets_by_seed):
        result, _ = _run(tasksets_by_seed(1), 1)
        stats = result.scheduler_stats
        assert stats["scheduler"] == "event"
        per_core = {row["core"]: row for row in result.per_core}
        assert all(row["interrupts"] >= row["jobs_completed"] > 0
                   for row in per_core.values())
        # Every released job ran to completion within the horizon.
        assert all(task.completed == task.jobs for task in result.tasks)


# ---------------------------------------------------------------------------
# End-to-end response-time soundness
# ---------------------------------------------------------------------------


class TestResponseTimeSoundness:
    def test_acceptance_two_cores_six_tasks_fp_tdma(self, tasksets_by_seed):
        """The headline scenario: 2 cores x 3 tasks, fixed priority, TDMA
        arbitration — every task bounded, every observation within bound."""
        result, _ = _run(tasksets_by_seed(0), 0, arbiter="tdma",
                         policy="fixed_priority")
        assert len(result.tasks) == 6
        assert result.violations() == []
        assert all(task.rta_bound is not None for task in result.tasks)
        assert all(task.sound for task in result.tasks)
        assert all(task.max_response is not None for task in result.tasks)

    @pytest.mark.parametrize("seed", range(4))
    def test_property_observed_within_bounds(self, tasksets_by_seed, seed):
        """Seeded property: across random task sets (mixed kinds, random
        priorities at higher utilisation), no observed response time ever
        exceeds a computed bound."""
        tasksets = tasksets_by_seed(
            seed, utilisation=0.5,
            priority_assignment="random" if seed % 2 else "rate_monotonic")
        result, _ = _run(tasksets, seed)
        assert result.violations() == []
        for task in result.tasks:
            if task.rta_bound is not None and task.max_response is not None:
                assert task.max_response <= task.rta_bound

    def test_tdma_slot_policy_sound(self, tasksets_by_seed):
        # Wide slots + low utilisation so one slot covers a whole job and
        # the cyclic bound (a table-period multiple) fits within a period.
        tasksets = tasksets_by_seed(1, tasks_per_core=2, utilisation=0.25)
        result, _ = _run(tasksets, 1, policy="tdma_slot",
                         options=RtosOptions(task_slot_cycles=600))
        assert result.violations() == []
        bounded = [t for t in result.tasks if t.rta_bound is not None]
        assert len(bounded) == 4  # the cyclic analysis bounds every task
        assert all(t.sound for t in bounded)
        table_period = 2 * 600
        assert all(t.rta_bound % table_period == 0 for t in bounded)

    def test_priority_arbiter_unbounded_by_design(self, tasksets_by_seed):
        result, _ = _run(tasksets_by_seed(3, tasks_per_core=2), 3,
                         arbiter="priority")
        by_core = {}
        for task in result.tasks:
            by_core.setdefault(task.core, []).append(task)
        # Core 0 is the top-priority core: bounded and sound.  Core 1 has
        # no WCET bound under priority arbitration, hence no RTA bound.
        assert all(t.rta_bound is not None and t.sound
                   for t in by_core[0])
        assert all(t.rta_bound is None and t.wcet_cycles is None
                   for t in by_core[1])
        assert result.violations() == []


# ---------------------------------------------------------------------------
# System plumbing, metrics and functional checking
# ---------------------------------------------------------------------------


class TestSystemPlumbing:
    def test_validation(self, tasksets_by_seed):
        with pytest.raises(RtosError):
            RtosSystem([])
        with pytest.raises(RtosError):
            RtosSystem(tasksets_by_seed(0), policy="edf")
        with pytest.raises(RtosError):
            RtosSystem(tasksets_by_seed(0), horizon=-5)

    def test_idle_cycles_reported_distinct_from_stalls(self,
                                                       tasksets_by_seed):
        result, _ = _run(tasksets_by_seed(0), 0)
        sim_metrics = None
        for row in result.per_core:
            assert row["idle_cycles"] > 0
        # The aggregate SimResult carries idle cycles as its own metric,
        # not folded into the stall breakdown.
        system = RtosSystem(tasksets_by_seed(0), seed=0)
        system.run()
        sim_metrics = system._runtimes[0].result().metrics()
        assert sim_metrics["idle_cycles"] > 0
        assert sim_metrics["idle_cycles"] != sim_metrics["stall_cycles"]
        assert "idle cycles" in system._runtimes[0].result().summary()

    def test_functional_mismatch_raises(self):
        kernel = build_kernel("crc_step")
        import dataclasses
        task = task_from_kernel(kernel, period=2000, priority=0)
        broken = dataclasses.replace(task, expected_output=(0xdead,))
        system = RtosSystem([TaskSet((broken,))])
        with pytest.raises(RtosError, match="output"):
            system.run()

    def test_to_dict_schema_and_blocking(self, tasksets_by_seed):
        result, _ = _run(tasksets_by_seed(0), 0)
        data = result.to_dict()
        assert data["schema"] == "repro.rtos/v1"
        assert data["violations"] == 0
        assert len(data["tasks"]) == 6
        assert all(isinstance(b, int) for b in data["blocking"])
        assert "sound" in data["tasks"][0]
        # timing_dict drops only the scheduler identity.
        trimmed = result.timing_dict()
        assert "scheduler" not in trimmed and "makespan" in trimmed

    def test_cli_smoke(self, tmp_path, tasksets_by_seed, capsys):
        from repro.rtos.cli import main
        out = tmp_path / "rtos.json"
        code = main(["--cores", "2", "--tasks", "2", "--table",
                     "--json", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "violations  : 0" in captured.out

    def test_explore_taskset_axes(self):
        from repro.explore import ExplorationRunner, ParameterSpace
        space = (ParameterSpace(["control_update"])
                 .axis("cores", [2])
                 .axis("taskset_utilisation", [0.4])
                 .axis("task_policy", ["fixed_priority"]))
        specs = space.specs()
        assert len(specs) == 1
        assert dict(specs[0].rtos)["utilisation"] == 0.4
        # rtos parameters are part of the cache key.
        plain = (ParameterSpace(["control_update"])
                 .axis("cores", [2])).specs()[0]
        assert specs[0].key() != plain.key()
        result = ExplorationRunner().run(space)
        record = result.results[0]
        assert record.rtos["violations"] == 0
        assert record.rtos["jobs_completed"] > 0
        assert record.cycles > 0

    def test_verify_rtos_cells(self):
        from repro.verify import ConformanceHarness, RtosScenario
        harness = ConformanceHarness()
        outcomes = harness.run_rtos_scenario(
            RtosScenario("cell", cores=2, tasks_per_core=2))
        assert len(outcomes) == 4
        assert all(o.sound for o in outcomes)
        assert all(o.variant == "rtos_fixed_priority" for o in outcomes)
