"""Tests of the fault-injection subsystem (repro.faults) — PR 7.

Four layers:

* the plan model — seeded generation, serialisation round-trips, content
  hashes, validation;
* the injection mechanics threaded through the co-simulation — ECC
  correction, raw bit flips, bounded bus retries, the unrecoverable path,
  and above all the *zero-overhead gate*: an empty plan must be
  bit-identical to a fault-free run on both schedulers;
* the watchdog (cycle and wall-clock budgets raising a structured
  :class:`SimulationTimeout`);
* the RTOS fault layer — interrupt storms and WCET-overrun policies, with
  event and reference schedulers agreeing on every timing figure.
"""


import pytest

from repro.compiler import compile_and_link
from repro.config import DEFAULT_CONFIG
from repro.cmp.system import MulticoreSystem
from repro.errors import (FaultInjectionError, ReproError,
                          SimulationTimeout)
from repro.faults import (BusFault, FaultPlan, MemoryFault, OverrunFault,
                          StormFault, run_fault_campaign)
from repro.workloads.suite import build_kernel

CONFIG = DEFAULT_CONFIG


def _image(kernel="vector_sum"):
    built = build_kernel(kernel)
    image, _ = compile_and_link(built.program, CONFIG)
    return image, built.expected_output


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        kwargs = dict(num_cores=2, horizon=1000,
                      bank_bytes=CONFIG.memory.size_bytes,
                      memory_flips=4, bus_errors=3, storms=2, overruns=2)
        one = FaultPlan.generate(7, **kwargs)
        two = FaultPlan.generate(7, **kwargs)
        assert one == two
        assert one.content_hash() == two.content_hash()
        assert FaultPlan.generate(8, **kwargs) != one

    def test_roundtrip_and_hash(self):
        plan = FaultPlan.generate(3, 2, 500, CONFIG.memory.size_bytes,
                                  memory_flips=2, bus_errors=2, storms=1,
                                  overruns=1, ecc=True)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.content_hash() == plan.content_hash()
        assert len(again) == len(plan) > 0
        assert not plan.empty
        assert FaultPlan().empty

    def test_validate_rejects_out_of_range_events(self):
        bad_core = FaultPlan(memory_faults=(
            MemoryFault(cycle=0, core_id=9, addr=0, bit=0),))
        with pytest.raises(FaultInjectionError):
            bad_core.validate(2, CONFIG.memory.size_bytes)
        bad_addr = FaultPlan(memory_faults=(
            MemoryFault(cycle=0, core_id=0,
                        addr=CONFIG.memory.size_bytes, bit=0),))
        with pytest.raises(FaultInjectionError):
            bad_addr.validate(2, CONFIG.memory.size_bytes)

    def test_fault_overhead_counts_planned_ecc_corrections(self):
        plan = FaultPlan(memory_faults=(
            MemoryFault(cycle=10, core_id=0, addr=4, bit=1),
            MemoryFault(cycle=20, core_id=0, addr=8, bit=2),
            MemoryFault(cycle=30, core_id=1, addr=12, bit=3),
        ), ecc=True, ecc_latency_cycles=5)
        assert plan.fault_overhead_cycles(0) == 10
        assert plan.fault_overhead_cycles(1) == 5
        assert FaultPlan().fault_overhead_cycles(0) == 0


class TestEmptyPlanBitIdentity:
    """The zero-overhead gate: an empty plan changes nothing, anywhere."""

    @pytest.mark.parametrize("scheduler", ["event", "reference"])
    @pytest.mark.parametrize("arbiter", ["tdma", "round_robin"])
    def test_empty_plan_bit_identical(self, scheduler, arbiter):
        image, expected = _image()
        runs = []
        for faults in (None, FaultPlan()):
            system = MulticoreSystem([image] * 2, CONFIG, arbiter=arbiter,
                                     scheduler=scheduler,
                                     faults=faults)
            result = system.run(analyse=False)
            runs.append((result.observed_by_core(),
                         system.shared_memory.image_digest(),
                         result.system_stats(),
                         [list(core.sim.output) for core in result.cores]))
        baseline, with_empty_plan = runs
        assert with_empty_plan == baseline
        assert [out == expected for out in baseline[3]] == [True, True]

    def test_empty_plan_has_no_fault_log(self):
        image, _ = _image()
        result = MulticoreSystem([image] * 2, CONFIG,
                                 faults=FaultPlan()).run(analyse=False)
        assert result.fault_log is None


class TestMemoryFaultInjection:
    def _run(self, plan, cores=2, kernel="vector_sum", **run_kwargs):
        image, expected = _image(kernel)
        system = MulticoreSystem([image] * cores, CONFIG,
                                 faults=plan)
        result = system.run(analyse=False, **run_kwargs)
        return system, result, expected

    def test_ecc_corrects_and_charges_latency(self):
        baseline_sys, baseline, expected = self._run(None)

        def faulted(latency):
            plan = FaultPlan(memory_faults=(
                MemoryFault(cycle=50, core_id=0, addr=16, bit=3),
                MemoryFault(cycle=90, core_id=1, addr=64, bit=0),
            ), ecc=True, ecc_latency_cycles=latency)
            return self._run(plan)

        system, result, _ = faulted(7)
        assert result.fault_log.counts() == {"corrected": 2}
        # ECC leaves the data untouched: the final memory image and the
        # outputs match the fault-free run exactly.
        assert (system.shared_memory.image_digest()
                == baseline_sys.shared_memory.image_digest())
        assert all(core.sim.output == expected for core in result.cores)
        # The correction latency lands on the flipped cores' clocks: a much
        # larger latency must make both cores strictly slower (the exact
        # delta also folds in TDMA slot realignment, so only monotonicity
        # is architectural).
        _, slow, _ = faulted(2000)
        assert slow.observed_by_core()[0] > result.observed_by_core()[0]
        assert slow.observed_by_core()[1] > result.observed_by_core()[1]
        assert (slow.observed_by_core()[0]
                > baseline.observed_by_core()[0])

    def test_uncorrected_flip_changes_memory_image(self):
        baseline_sys, _, _ = self._run(None)
        # A flip in an address region the kernel never rewrites: the damage
        # must be visible in the final image.
        heap = CONFIG.memory_map.heap_base
        plan = FaultPlan(memory_faults=(
            MemoryFault(cycle=10, core_id=0, addr=heap + 128, bit=5),))
        system, result, _ = self._run(plan)
        assert result.fault_log.counts() == {"flipped": 1}
        assert (system.shared_memory.image_digest()
                != baseline_sys.shared_memory.image_digest())

    def test_post_halt_flips_drain_onto_final_image(self):
        # A flip scheduled far beyond the makespan still lands on the final
        # memory image, without extending execution.
        _, baseline, _ = self._run(None)
        heap = CONFIG.memory_map.heap_base
        plan = FaultPlan(memory_faults=(
            MemoryFault(cycle=10_000_000, core_id=0,
                        addr=heap + 256, bit=1),))
        system, result, _ = self._run(plan)
        assert result.fault_log.counts() == {"flipped": 1}
        assert result.observed_by_core() == baseline.observed_by_core()

    def test_same_seed_same_log(self):
        image, _ = _image()
        plan = FaultPlan.generate(11, 2, 600, CONFIG.memory.size_bytes,
                                  memory_flips=3, bus_errors=2, ecc=True)
        hashes = set()
        for _ in range(2):
            system = MulticoreSystem([image] * 2, CONFIG,
                                     faults=plan)
            result = system.run(analyse=False)
            hashes.add(result.fault_log.determinism_hash())
        assert len(hashes) == 1

    def test_plan_validated_against_system(self):
        image, _ = _image()
        plan = FaultPlan(memory_faults=(
            MemoryFault(cycle=0, core_id=7, addr=0, bit=0),))
        with pytest.raises(FaultInjectionError):
            MulticoreSystem([image] * 2, CONFIG, faults=plan)


class TestMemoryFlipEngines:
    """Memory-flip plans take the quantum loop on both engines.  On the fast
    engine every core resumes one held engine context across its slices,
    so that context must see each ECC charge the loop puts on the core's
    clock and each flip written into the shared memory in place, exactly as
    the reference interpreter does."""

    @staticmethod
    def _plan(image, cores, ecc):
        # Flip bits of the kernel's own data, spread over all cores, so the
        # flips change what the cores compute and the ECC charges land
        # between their bus requests.  A charge longer than a TDMA period
        # cannot vanish into a wait for the core's next slot.
        data = sorted(image.initial_memory)
        return FaultPlan(memory_faults=tuple(
            MemoryFault(cycle=30 + 41 * k, core_id=k % cores,
                        addr=data[(5 * k) % len(data)], bit=k % 8)
            for k in range(3 * cores)), ecc=ecc, ecc_latency_cycles=97)

    @pytest.mark.parametrize("arbiter", ["tdma", "round_robin", "priority"])
    @pytest.mark.parametrize("cores", [2, 4])
    @pytest.mark.parametrize("ecc", [False, True])
    def test_fast_engine_matches_reference(self, arbiter, cores, ecc):
        image, _ = _image("checksum")
        plan = self._plan(image, cores, ecc)
        runs = {}
        for engine in ("fast", "reference"):
            system = MulticoreSystem([image] * cores, CONFIG,
                                     arbiter=arbiter, engine=engine,
                                     faults=plan)
            result = system.run(analyse=False)
            assert result.scheduler == "reference"
            runs[engine] = ([core.sim for core in result.cores],
                            result.arbiter_stats,
                            result.fault_log.determinism_hash(),
                            system.shared_memory.image_digest())
        assert runs["fast"] == runs["reference"]
        counts = result.fault_log.counts()
        assert counts == ({"corrected": 3 * cores} if ecc
                          else {"flipped": 3 * cores})
        baseline = MulticoreSystem([image] * cores, CONFIG, arbiter=arbiter,
                                   scheduler="reference").run(analyse=False)
        if ecc:  # the charges moved every clock
            assert all(core.cycles > clean for core, clean in zip(
                runs["fast"][0], baseline.observed_by_core()))
        else:  # the flips changed what the cores compute
            assert [core.output for core in runs["fast"][0]] != \
                [core.sim.output for core in baseline.cores]


class TestBusFaultInjection:
    def test_bounded_retry_delays_only_the_faulted_core(self):
        image, _ = _image()
        baseline = MulticoreSystem([image] * 2, CONFIG,
                                   arbiter="tdma").run(analyse=False)
        plan = FaultPlan(bus_faults=(BusFault(core_id=0, index=2, errors=2),),
                        bus_retry_limit=2)
        result = MulticoreSystem([image] * 2, CONFIG, arbiter="tdma",
                                 faults=plan).run(analyse=False)
        assert result.fault_log.counts() == {"retried": 1}
        assert (result.observed_by_core()[0]
                > baseline.observed_by_core()[0])
        # The TDMA decoupling property holds under faults: the other
        # core's timing is untouched by core 0's retries.
        assert (result.observed_by_core()[1]
                == baseline.observed_by_core()[1])

    def test_exhausted_retries_raise_unrecovered(self):
        image, _ = _image()
        plan = FaultPlan(bus_faults=(BusFault(core_id=0, index=1, errors=5),),
                        bus_retry_limit=1)
        system = MulticoreSystem([image] * 2, CONFIG,
                                 faults=plan)
        with pytest.raises(FaultInjectionError) as info:
            system.run(analyse=False)
        assert info.value.core_id == 0
        assert system.fault_log.counts() == {"unrecovered": 1}

    def test_retries_stay_inside_fault_aware_wcet(self):
        from repro.wcet.analyzer import analyze_wcet
        image, _ = _image()
        plan = FaultPlan(bus_faults=(
            BusFault(core_id=0, index=1, errors=2),
            BusFault(core_id=0, index=5, errors=1),
        ), bus_retry_limit=2)
        system = MulticoreSystem([image] * 2, CONFIG, arbiter="tdma",
                                 faults=plan)
        result = system.run(analyse=False)
        for core_id in range(2):
            options = system.wcet_options_for_core(
                core_id, bus_retry_limit=plan.bus_retry_limit,
                fault_overhead_cycles=plan.fault_overhead_cycles(core_id))
            bound = analyze_wcet(image, config=CONFIG,
                                 options=options).wcet_cycles
            assert result.observed_by_core()[core_id] <= bound


class TestBusFaultSchedulers:
    """Bus plans replay through the fault-wrapped ports: the event
    scheduler must match quantum polling fault for fault."""

    def _run(self, plan, arbiter, scheduler):
        image, _ = _image()
        system = MulticoreSystem([image] * 2, CONFIG, arbiter=arbiter,
                                 scheduler=scheduler,
                                 faults=plan)
        return system, system.run(analyse=False)

    @pytest.mark.parametrize("arbiter", ["tdma", "round_robin"])
    def test_retried_plan_identical_on_both_schedulers(self, arbiter):
        plan = FaultPlan(bus_faults=(
            BusFault(core_id=0, index=0, errors=1),
            BusFault(core_id=0, index=3, errors=2),
            BusFault(core_id=1, index=2, errors=2),
        ), bus_retry_limit=2)
        runs = {}
        for scheduler in ("event", "reference"):
            system, result = self._run(plan, arbiter, scheduler)
            assert result.scheduler == scheduler
            assert result.fault_log.counts() == {"retried": 3}
            # Append order across cores is scheduler-dependent (see
            # FaultLog.determinism_hash); the records themselves are not.
            records = sorted((record.to_dict() for record in result.fault_log),
                             key=lambda row: (row["core"], row["cycle"]))
            runs[scheduler] = (result.observed_by_core(),
                               result.arbiter_stats, records,
                               [core.sim.metrics() for core in result.cores],
                               system.shared_memory.image_digest())
        assert runs["event"] == runs["reference"]

    @pytest.mark.parametrize("arbiter", ["tdma", "round_robin"])
    def test_unrecovered_plan_raises_alike_on_both_schedulers(self, arbiter):
        plan = FaultPlan(bus_faults=(BusFault(core_id=1, index=3, errors=4),),
                         bus_retry_limit=1)
        raised = {}
        for scheduler in ("event", "reference"):
            with pytest.raises(FaultInjectionError) as info:
                self._run(plan, arbiter, scheduler)
            raised[scheduler] = (info.value.core_id, info.value.cycle,
                                 str(info.value))
        assert raised["event"] == raised["reference"]
        assert raised["event"][0] == 1


class TestWatchdog:
    @pytest.mark.parametrize("scheduler", ["event", "reference"])
    def test_cycle_budget_raises_structured_timeout(self, scheduler):
        image, _ = _image()
        system = MulticoreSystem([image] * 2, CONFIG,
                                 scheduler=scheduler)
        with pytest.raises(SimulationTimeout) as info:
            system.run(analyse=False, max_cycles=50)
        assert info.value.kind == "cycles"
        assert info.value.limit == 50
        assert info.value.context()["cycle"] >= 50

    def test_wall_clock_budget(self):
        # The reference scheduler probes the deadline every slice, so an
        # already-expired budget trips on the very first one.  (The event
        # fast path only probes between chunks, so a program shorter than
        # one chunk may legitimately finish first there.)
        image, _ = _image()
        system = MulticoreSystem([image] * 2, CONFIG,
                                 scheduler="reference")
        with pytest.raises(SimulationTimeout) as info:
            system.run(analyse=False, max_wall_s=0.0)
        assert info.value.kind == "wall_clock"

    def test_generous_budget_changes_nothing(self):
        image, _ = _image()
        baseline = MulticoreSystem([image] * 2, CONFIG).run(analyse=False)
        watched = MulticoreSystem([image] * 2, CONFIG).run(
            analyse=False, max_cycles=10_000_000, max_wall_s=600.0)
        assert (watched.observed_by_core()
                == baseline.observed_by_core())


class TestRtosFaults:
    def _system(self, policy, faults, scheduler="event", factor=1.05):
        from repro.rtos.system import RtosSystem
        from repro.rtos.task import RtosOptions, task_from_kernel

        kernel = build_kernel("vector_sum")
        task = task_from_kernel(kernel, period=4000, priority=0,
                                config=CONFIG)
        options = RtosOptions(overrun_policy=policy, watchdog_factor=factor)
        return RtosSystem([[task], [task]], config=CONFIG, horizon=8000,
                          options=options, scheduler=scheduler,
                          faults=faults)

    def test_storm_releases_are_logged_and_delivered(self):
        plan = FaultPlan(storm_faults=(
            StormFault(core_id=0, task_index=0, time=500, count=2,
                       spacing=40),))
        result = self._system("kill_and_log", plan).run(analyse=False)
        assert result.fault_log.counts()["released"] == 2
        storm_core = result.per_core[0]
        calm_core = result.per_core[1]
        assert storm_core["interrupts"] > calm_core["interrupts"]

    @pytest.mark.parametrize("policy,outcome_key", [
        ("kill_and_log", "killed"),
        ("skip_next_release", "overrun"),
        ("degrade", "degraded"),
    ])
    def test_overrun_policies(self, policy, outcome_key):
        plan = FaultPlan(overrun_faults=(
            OverrunFault(core_id=0, task_index=0, job_index=0,
                         extra_cycles=50_000),))
        result = self._system(policy, plan).run(analyse=False)
        assert result.fault_log.counts()[outcome_key] == 1
        task = result.tasks[0]
        if policy == "kill_and_log":
            assert task.killed == 1
        elif policy == "skip_next_release":
            assert task.shed == 1

    @pytest.mark.parametrize("policy", ["kill_and_log",
                                        "skip_next_release", "degrade"])
    def test_schedulers_agree_under_faults(self, policy):
        plan = FaultPlan(
            storm_faults=(StormFault(core_id=0, task_index=0, time=700,
                                     count=2, spacing=60),),
            overrun_faults=(OverrunFault(core_id=1, task_index=0,
                                         job_index=0,
                                         extra_cycles=50_000),),
            bus_faults=(BusFault(core_id=0, index=3, errors=1),))
        runs = {}
        for scheduler in ("event", "reference"):
            result = self._system(policy, plan,
                                  scheduler=scheduler).run(analyse=False)
            runs[scheduler] = (result.timing_dict(),
                               result.fault_log.determinism_hash())
        assert runs["event"] == runs["reference"]

    def test_rtos_rejects_memory_flips(self):
        plan = FaultPlan(memory_faults=(
            MemoryFault(cycle=0, core_id=0, addr=0, bit=0),))
        with pytest.raises((FaultInjectionError, ReproError)):
            self._system("kill_and_log", plan)


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fault_campaign(seed=5, kernels=("vector_sum",),
                                  cores=(2,), memory_flips=2, bus_errors=2)

    def test_campaign_stays_inside_fault_aware_bounds(self, report):
        assert report.ok
        assert report.violations() == []
        counts = report.counts()
        assert counts.get("unrecovered", 0) == 0
        assert counts.get("corrected", 0) + counts.get("retried", 0) > 0
        for cell in report.cells:
            assert cell.outputs_ok
            assert max(cell.faulted_cycles) >= max(cell.baseline_cycles)

    def test_campaign_is_reproducible(self, report):
        again = run_fault_campaign(seed=5, kernels=("vector_sum",),
                                   cores=(2,), memory_flips=2, bus_errors=2)
        assert again.determinism_hash() == report.determinism_hash()
        one, two = report.to_dict(), again.to_dict()
        one.pop("elapsed_s"), two.pop("elapsed_s")
        assert one == two

    def test_report_serialises_and_renders(self, report):
        import json
        payload = report.to_dict()
        assert payload["schema"] == "repro.faults/v1"
        assert payload["ok"] is True
        json.dumps(payload)
        assert "fault campaign" in report.summary()
        assert "vector_sum/2core/tdma" in report.table()

    def test_cell_errors_are_contained(self, monkeypatch):
        from repro.faults import campaign as campaign_module

        real = campaign_module._run_cell

        def boom(*args, **kwargs):
            cell = real(*args, **kwargs)
            cell.error = "SimulationError: injected for the test"
            return cell
        monkeypatch.setattr(campaign_module, "_run_cell", boom)
        report = run_fault_campaign(seed=0, kernels=("vector_sum",),
                                    cores=(2,))
        assert not report.ok
        assert "FAILURES" in report.summary()


class TestWcetFaultModel:
    def test_retry_limit_inflates_the_bound(self):
        from repro.wcet.analyzer import WcetOptions, analyze_wcet
        image, _ = _image()
        plain = analyze_wcet(image, config=CONFIG).wcet_cycles
        retried = analyze_wcet(
            image, config=CONFIG,
            options=WcetOptions(bus_retry_limit=2)).wcet_cycles
        overhead = analyze_wcet(
            image, config=CONFIG,
            options=WcetOptions(fault_overhead_cycles=123)).wcet_cycles
        assert retried > plain
        assert overhead == plain + 123

    def test_negative_options_rejected(self):
        from repro.errors import WcetError
        from repro.wcet.analyzer import WcetOptions, analyze_wcet
        image, _ = _image()
        for bad in (WcetOptions(bus_retry_limit=-1),
                    WcetOptions(fault_overhead_cycles=-1)):
            with pytest.raises(WcetError):
                analyze_wcet(image, config=CONFIG, options=bad)


class TestErrorTaxonomy:
    def test_simulation_timeout_context(self):
        exc = SimulationTimeout("boom", kind="cycles", limit=10, cycle=12,
                                core_id=1)
        assert exc.context() == {"kind": "cycles", "limit": 10,
                                 "cycle": 12, "core": 1,
                                 "max_cycles": 10, "max_wall_s": None,
                                 "cycles_completed": 12}

    def test_simulation_timeout_structured_budgets(self):
        # Both armed budgets survive structurally regardless of which fired,
        # so journal entries can report how far a timed-out cell got.
        exc = SimulationTimeout("boom", kind="wall_clock", limit=2.5,
                                cycle=900, core_id=0, max_cycles=1000,
                                max_wall_s=2.5)
        assert exc.max_cycles == 1000
        assert exc.max_wall_s == 2.5
        assert exc.cycles_completed == 900
        assert exc.context()["max_wall_s"] == 2.5
        # The fired budget doubles as the matching structured field when
        # only ``limit`` was supplied (legacy raise sites).
        legacy = SimulationTimeout("boom", kind="wall_clock", limit=1.0)
        assert legacy.max_wall_s == 1.0
        assert legacy.max_cycles is None

    def test_failed_cell_from_exception(self):
        from repro.errors import FailedCell, WorkerCrashed
        exc = WorkerCrashed("died", cell_key="k", attempts=3)
        cell = FailedCell.from_exception("k", "label", exc, attempts=3)
        assert cell.error == "WorkerCrashed"
        assert cell.context == {"cell_key": "k", "attempts": 3}
        assert "after 3 attempts" in cell.summary()
        assert cell.to_dict()["attempts"] == 3
