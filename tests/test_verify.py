"""Tests of the WCET soundness conformance subsystem (repro.verify).

Two layers: the harness mechanics (matrix expansion, per-core outcomes,
violation detection, report/CLI plumbing) and soundness *as a property* —
seeded-random synthetic programs checked ``wcet >= simulated`` across the
cache-mode and arbiter axes, so a regression in either the analyzer or the
simulator trips the property rather than a hand-picked example.
"""

import copy
import dataclasses
import json
import os
from dataclasses import fields

import pytest

from repro import PatmosConfig, compile_and_link
from repro.cmp import MulticoreSystem
from repro.cmp import replay as replay_module
from repro.cmp.replay import (TraceRecorder, run_alone, trace_key,
                               traces_of)
from repro.errors import (ExplorationError, SimulationError,
                          VerificationError, WcetError)
from repro.explore import ExperimentSpec, ParameterSpace
from repro.jobs import RunDirectory
from repro.memory import TdmaBusArbiter, TdmaSchedule
from repro.sim.cycle import CycleSimulator
from repro.verify import (
    DEFAULT_ARBITERS,
    DEFAULT_RTOS_SCENARIOS,
    DEFAULT_VARIANTS,
    ArbiterConfig,
    CacheModelVariant,
    ConformanceHarness,
    ConformanceReport,
    Scenario,
    ScenarioOutcome,
    build_scenarios,
    run_conformance,
)
from repro.verify.cli import main
from repro.verify.loopcheck import check_loops
from repro.wcet import WcetOptions, analyze_wcet
from repro.workloads import build_kernel
from repro.workloads.synthetic import random_alu_kernel

CONFIG = PatmosConfig()

#: A fast sub-matrix used by the harness-mechanics tests.
FAST_ARBITERS = tuple(a for a in DEFAULT_ARBITERS
                      if a.name in ("single", "tdma2", "priority2"))

#: An engine value older runs may have recorded; no layer accepts it now.
REMOVED_ENGINE = "jit"


class TestScenarioMatrix:
    def test_full_matrix_is_crossed(self):
        scenarios = build_scenarios(["vector_sum", "fir_filter"])
        assert len(scenarios) == 2 * len(DEFAULT_VARIANTS) * len(DEFAULT_ARBITERS)
        labels = {scenario.label() for scenario in scenarios}
        assert len(labels) == len(scenarios)

    def test_suite_names_resolve(self):
        scenarios = build_scenarios(["performance"],
                                    arbiters=FAST_ARBITERS[:1])
        assert {s.kernel for s in scenarios} >= {"vector_sum", "matmul"}

    def test_weighted_tdma_schedule(self):
        weighted = next(a for a in DEFAULT_ARBITERS if a.slot_weights)
        schedule = weighted.schedule(CONFIG)
        assert schedule.num_cores == weighted.cores
        assert schedule.slot_weights == weighted.slot_weights
        # Non-TDMA configs have no schedule.
        rr = next(a for a in DEFAULT_ARBITERS if a.kind == "round_robin")
        assert rr.schedule(CONFIG) is None


class TestHarness:
    @pytest.fixture(scope="class")
    def report(self):
        return run_conformance(kernels=["vector_sum", "stack_chain"],
                               arbiters=FAST_ARBITERS, rtos_scenarios=())

    def test_zero_violations(self, report):
        assert report.violations() == []
        assert all(outcome.tightness >= 1.0 for outcome in report.bounded())

    def test_priority_non_top_core_unbounded(self, report):
        unbounded = report.unbounded()
        assert unbounded, "priority scenarios must record unbounded cores"
        assert all(outcome.arbiter == "priority2" and outcome.core_id != 0
                   for outcome in unbounded)
        assert all(outcome.sound is None for outcome in unbounded)

    def test_every_core_of_every_scenario_reported(self, report):
        expected = sum(arbiter.cores for arbiter in FAST_ARBITERS)
        assert len(report.outcomes) == 2 * len(DEFAULT_VARIANTS) * expected

    def test_report_serialization(self, report):
        payload = report.to_dict()
        assert payload["schema"] == "repro.verify/v2"
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["checked"] == len(report.outcomes)
        assert payload["summary"]["loops_checked"] == len(report.loop_checks)
        assert payload["summary"]["loop_violations"] == 0
        json.dumps(payload)  # JSON-serializable end to end
        assert "bound/obs" in report.table()
        assert "0 soundness violations" in report.summary()

    def test_simulations_shared_across_analysis_variants(self):
        harness = ConformanceHarness(config=CONFIG)
        default, naive = (
            harness.run_scenario(Scenario("stack_chain", variant,
                                          FAST_ARBITERS[0]))
            for variant in (CacheModelVariant("default"),
                            CacheModelVariant(
                                "stack_naive",
                                wcet_overrides=(("stack_cache", "naive"),))))
        # One simulation (same hardware), two analyses: observations equal,
        # the naive stack bound at least as loose.
        assert default[0].cycles == naive[0].cycles
        assert naive[0].wcet_cycles >= default[0].wcet_cycles
        assert len(harness._sims) == 1

    def test_simulations_not_shared_across_arbiter_geometries(self):
        """Two arbiter configs sharing a display name must not reuse each
        other's simulation (the memo is keyed by config value, not name)."""
        harness = ConformanceHarness(config=CONFIG)
        narrow = ArbiterConfig("tdma2", kind="tdma", cores=2)
        wide = ArbiterConfig("tdma2", kind="tdma", cores=2,
                             slot_cycles=4 * CONFIG.memory.burst_cycles())
        variant = CacheModelVariant("default")
        first = harness.run_scenario(Scenario("stream_checksum", variant,
                                              narrow))
        second = harness.run_scenario(Scenario("stream_checksum", variant,
                                               wide))
        assert len(harness._sims) == 2
        # Different slot geometry, different observed timing.
        assert ([o.cycles for o in first] != [o.cycles for o in second])

    def test_memoised_simulations_keep_no_systems(self):
        """The memo holds per-core cycles and options, never a system with
        its shared memory; the options still match the system's own."""
        harness = ConformanceHarness(config=CONFIG)
        icache = next(v for v in DEFAULT_VARIANTS
                      if v.name == "conventional_icache")
        for arbiter in DEFAULT_ARBITERS:
            outcomes = harness.run_scenario(
                Scenario("vector_sum", icache, arbiter))
            if arbiter.cores == 1:
                continue
            system = MulticoreSystem(
                [harness._image("vector_sum")] * arbiter.cores, CONFIG,
                arbiter=arbiter.kind, schedule=arbiter.schedule(CONFIG),
                hierarchy_options=icache.hierarchy_options())
            for outcome in outcomes:
                options = system.wcet_options_for_core(
                    outcome.core_id, **dict(icache.wcet_overrides))
                assert outcome.wcet_cycles == (
                    None if options is None else analyze_wcet(
                        harness._image("vector_sum"), CONFIG,
                        options=options).wcet_cycles)
        assert len(harness._sims) == len(DEFAULT_ARBITERS)
        for cycles, options in harness._sims.values():
            assert all(isinstance(c, int) for c in cycles)
            assert all(o is None or isinstance(o, WcetOptions)
                       for o in options)
            assert not any(isinstance(part, MulticoreSystem)
                           for part in (cycles, options, *cycles, *options))

    def test_functional_mismatch_raises(self):
        harness = ConformanceHarness(config=CONFIG)
        harness._image("vector_sum")
        harness._expected["vector_sum"] = [-1]  # sabotage the reference
        with pytest.raises(VerificationError, match="functional mismatch"):
            harness.run_scenario(Scenario("vector_sum",
                                          CacheModelVariant("default"),
                                          FAST_ARBITERS[0]))

    def test_violation_detection(self):
        outcome = ScenarioOutcome(kernel="k", variant="v", arbiter="a",
                                  cores=1, core_id=0, cycles=100,
                                  wcet_cycles=99)
        report = ConformanceReport(outcomes=[outcome])
        assert outcome.sound is False
        assert report.violations() == [outcome]
        assert "VIOLATION" in report.summary()


class TestCli:
    def test_json_report_and_exit_code(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["--kernels", "vector_sum", "--arbiters", "single,tdma2",
                     "--quiet", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["violations"] == 0
        assert "soundness violations" in capsys.readouterr().out

    def test_unknown_selection_rejected(self, capsys):
        assert main(["--arbiters", "fifo"]) == 2
        assert "unknown arbiter" in capsys.readouterr().err

    def test_unknown_kernel_rejected_cleanly(self, capsys):
        assert main(["--kernels", "no_such_kernel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown kernel")

    def test_empty_kernel_selection_rejected(self, capsys):
        """The gate must never pass vacuously on an empty matrix."""
        assert main(["--kernels", ","]) == 2
        assert "no kernels selected" in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["--kernels", "vector_sum", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_removed_engine_rejected(self, capsys):
        """The simulator, the explore engine axis and the verify CLI all
        reject an engine outside ``repro.sim.ENGINES``."""
        image, _ = compile_and_link(build_kernel("vector_sum").program,
                                    CONFIG)
        with pytest.raises(SimulationError, match=REMOVED_ENGINE):
            CycleSimulator(image, config=CONFIG, engine=REMOVED_ENGINE)
        with pytest.raises(ExplorationError, match=REMOVED_ENGINE):
            (ParameterSpace(["vector_sum"])
             .axis("engine", [REMOVED_ENGINE])).specs()
        with pytest.raises(SystemExit) as exit_info:
            main(["--engine", REMOVED_ENGINE])
        assert exit_info.value.code == 2
        assert REMOVED_ENGINE in capsys.readouterr().err

    def test_resume_with_unknown_engine_leaves_journal_untouched(
            self, tmp_path, capsys):
        """A pending run recorded under an unknown engine fails before the
        resume marker is appended to its journal."""
        matrix = {"kernels": ["vector_sum"],
                  "variants": [DEFAULT_VARIANTS[0].name],
                  "arbiters": ["single"], "no_rtos": True,
                  "engine": REMOVED_ENGINE}
        run = RunDirectory.create("verify", matrix, cells=1, root=tmp_path)
        run.close()
        before = run.journal_path.read_bytes()
        code = main(["--resume", run.run_id, "--runs-root", str(tmp_path),
                     "--quiet"])
        assert code == 2
        assert f"unknown engine {REMOVED_ENGINE!r}" in \
            capsys.readouterr().err
        assert run.journal_path.read_bytes() == before


    def test_resume_rejects_empty_and_wrong_kind_ids(self, tmp_path,
                                                     capsys):
        """An empty ``--resume`` id must not start a fresh sweep (which would
        rewrite the journal of this very matrix), and an explore run must
        not resume here; both fail before any journal is touched."""
        matrix = {"kernels": ["vector_sum"],
                  "variants": [DEFAULT_VARIANTS[0].name],
                  "arbiters": ["single"], "no_rtos": True, "engine": "fast"}
        verify_run = RunDirectory.create("verify", matrix, cells=2,
                                         root=tmp_path)
        explore_run = RunDirectory.create("explore", {"kernels": ["x"]},
                                          cells=1, root=tmp_path)
        for run in (verify_run, explore_run):
            run.close()
        before = [run.journal_path.read_bytes()
                  for run in (verify_run, explore_run)]
        common = ["--runs-root", str(tmp_path), "--quiet"]
        assert main(["--resume", "", "--kernels", "vector_sum",
                     "--variants", DEFAULT_VARIANTS[0].name,
                     "--arbiters", "single", "--no-rtos", *common]) == 2
        assert "--resume requires a run id" in capsys.readouterr().err
        assert main(["--resume", explore_run.run_id, *common]) == 2
        assert "is a 'explore' run" in capsys.readouterr().err
        assert [run.journal_path.read_bytes()
                for run in (verify_run, explore_run)] == before


class TestParallelMatrix:
    def test_parallel_report_identical_to_sequential(self):
        """--jobs fan-out must not change the report, only its wall-clock.

        Outcomes are compared field by field in order; only the measured
        ``elapsed_s`` (inherently non-deterministic, even between two
        sequential runs) is excluded.
        """
        kwargs = dict(kernels=["vector_sum", "saturate", "stack_chain"],
                      rtos_scenarios=DEFAULT_RTOS_SCENARIOS[:1])
        sequential = run_conformance(**kwargs)
        parallel = run_conformance(jobs=3, **kwargs)
        sequential_dict = sequential.to_dict()
        parallel_dict = parallel.to_dict()
        sequential_dict["summary"].pop("elapsed_s")
        parallel_dict["summary"].pop("elapsed_s")
        assert parallel_dict == sequential_dict

    def test_calling_process_runs_no_cell(self, monkeypatch, tmp_path):
        """At ``jobs=2`` every compile, loop check and RTOS cell runs in a
        pool worker: each call logs its process id to a file, and none is
        the calling process's."""
        from repro.verify import harness as harness_module

        log = tmp_path / "calls.log"

        def logged(name, function):
            def wrapper(*args, **kwargs):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {name}\n")
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness_module, "compile_and_link", logged(
            "compile_and_link", harness_module.compile_and_link))
        for name in ("run_loop_checks", "run_rtos_scenario"):
            monkeypatch.setattr(ConformanceHarness, name,
                                logged(name, getattr(ConformanceHarness,
                                                     name)))
        report = run_conformance(kernels=["vector_sum", "saturate"],
                                 arbiters=FAST_ARBITERS,
                                 rtos_scenarios=DEFAULT_RTOS_SCENARIOS[:2],
                                 jobs=2)
        assert report.loop_checks and not report.failures
        calls = [line.split() for line in log.read_text().splitlines()]
        assert {name for _, name in calls} == {
            "compile_and_link", "run_loop_checks", "run_rtos_scenario"}
        assert [name for pid, name in calls if int(pid) == os.getpid()] == []

    def test_parallel_progress_covers_every_scenario(self):
        lines: list[str] = []
        report = run_conformance(kernels=["vector_sum"], jobs=2,
                                 rtos_scenarios=(),
                                 progress=lines.append)
        scenarios = {(o.kernel, o.variant, o.arbiter)
                     for o in report.outcomes}
        # One line per scenario plus one loop-bound line per kernel.
        assert len(lines) == len(build_scenarios(["vector_sum"])) + 1
        assert len(scenarios) == len(lines) - 1
        assert any("loop bounds" in line for line in lines)

    def test_jobs_must_be_positive(self):
        with pytest.raises(VerificationError):
            run_conformance(kernels=["vector_sum"], jobs=0)

    def test_killed_worker_contained_as_failed_cell(self, monkeypatch):
        """A worker dying mid-group must not abort the parallel matrix.

        The poisoned group (icache × tdma4w) kills every worker that
        touches it; it must end up as a structured FailedCell while every
        other group's outcomes still arrive, and the incomplete report
        must fail the gate even though no *checked* bound was violated.
        """
        import signal

        from repro.verify import harness as harness_module

        real = harness_module._run_scenario_group

        def die_on_target(group):
            if any(s.variant.hardware == "icache"
                   and s.arbiter.name == "tdma4w" for s in group):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(group)
        # Forked pool workers call through _run_cell and inherit this.
        monkeypatch.setattr(harness_module, "_run_scenario_group",
                            die_on_target)
        monkeypatch.setattr(harness_module, "_RETRY_BACKOFF_S", 0.0)

        report = run_conformance(kernels=["vector_sum"], jobs=2,
                                 rtos_scenarios=())
        assert len(report.failures) == 1
        cell = report.failures[0]
        assert cell.error == "WorkerCrashed"
        assert cell.attempts == 1 + harness_module._MAX_GROUP_RETRIES
        assert cell.context["scenarios"]  # which scenarios went missing
        # Every other group completed; only the poisoned one is absent.
        assert not any(o.variant == "conventional_icache"
                       and o.arbiter == "tdma4w" for o in report.outcomes)
        others = run_conformance(kernels=["vector_sum"], rtos_scenarios=())
        missing = sum(1 for o in others.outcomes
                      if o.variant == "conventional_icache"
                      and o.arbiter == "tdma4w")
        assert missing > 0
        assert len(report.outcomes) == len(others.outcomes) - missing
        assert report.to_dict()["summary"]["failed_cells"] == 1
        assert not report.violations()


#: Kernels of the recording-reuse tests; ``bubble_sort`` has nested loops.
REUSE_KERNELS = ("vector_sum", "stack_chain", "bubble_sort")


@pytest.fixture
def sim_counts(monkeypatch):
    """Counts plain ``CycleSimulator.run`` calls and the recordings made
    (by image and trace key), wrapped from outside the program."""
    counts = {"plain_runs": 0, "recordings": []}
    run = CycleSimulator.run
    recording = TraceRecorder.recording

    def counted_run(self, *args, **kwargs):
        counts["plain_runs"] += 1
        return run(self, *args, **kwargs)

    def counted_recording(self):
        counts["recordings"].append((id(self.image), trace_key(
            self.config, self._hierarchy_options, self.strict)))
        return recording(self)

    monkeypatch.setattr(CycleSimulator, "run", counted_run)
    monkeypatch.setattr(TraceRecorder, "recording", counted_recording)
    return counts


def _report_dict(report: ConformanceReport) -> dict:
    payload = report.to_dict()
    payload["summary"].pop("elapsed_s")
    return payload


class TestRecordingReuse:
    """A kernel run alone on the fast engine is its co-simulation recording."""

    def test_fast_matrix_records_once_per_kernel_and_hardware(
            self, sim_counts):
        report = run_conformance(kernels=REUSE_KERNELS, rtos_scenarios=())
        assert report.loop_checks
        assert sim_counts["plain_runs"] == 0
        hardwares = {variant.hardware for variant in DEFAULT_VARIANTS}
        recordings = sim_counts["recordings"]
        assert len(set(recordings)) == len(recordings)
        assert len(recordings) == len(REUSE_KERNELS) * len(hardwares)

    def test_report_equals_cold_recordings_and_the_interpreter(
            self, monkeypatch, sim_counts):
        warm = _report_dict(run_conformance(kernels=REUSE_KERNELS,
                                            rtos_scenarios=()))
        warm_recordings = len(sim_counts["recordings"])
        reference = _report_dict(run_conformance(
            kernels=REUSE_KERNELS, rtos_scenarios=(), engine="reference"))
        assert len(sim_counts["recordings"]) == warm_recordings

        run_scenario = ConformanceHarness.run_scenario
        run_loop_checks = ConformanceHarness.run_loop_checks

        def cold_scenario(self, scenario):
            traces_of(self._image(scenario.kernel)).clear()
            return run_scenario(self, scenario)

        def cold_loop_checks(self, kernel):
            traces_of(self._image(kernel)).clear()
            return run_loop_checks(self, kernel)

        monkeypatch.setattr(ConformanceHarness, "run_scenario",
                            cold_scenario)
        monkeypatch.setattr(ConformanceHarness, "run_loop_checks",
                            cold_loop_checks)
        cold = _report_dict(run_conformance(kernels=REUSE_KERNELS,
                                            rtos_scenarios=()))
        # Clearing before every cell made the cold run record again.
        assert len(sim_counts["recordings"]) > 2 * warm_recordings
        assert warm == cold
        assert warm == reference

    def test_single_core_cells_and_loop_checks_equal_plain_runs(self):
        """Each hardware's single-core cycles and every loop check equal a
        plain interpreter run of that hardware, built outside the harness."""
        report = run_conformance(kernels=REUSE_KERNELS,
                                 arbiters=FAST_ARBITERS[:1],
                                 rtos_scenarios=())
        hardware_of = {v.name: v.hardware for v in DEFAULT_VARIANTS}
        hierarchies = {v.hardware: v.hierarchy_options()
                       for v in DEFAULT_VARIANTS}
        loop_checks = []
        for kernel in REUSE_KERNELS:
            image, _ = compile_and_link(build_kernel(kernel).program, CONFIG)
            plain = {hardware: CycleSimulator(
                image, config=CONFIG, strict=True, engine="reference",
                hierarchy_options=hierarchy).run()
                for hardware, hierarchy in hierarchies.items()}
            for outcome in report.outcomes:
                if outcome.kernel == kernel:
                    assert outcome.cycles == \
                        plain[hardware_of[outcome.variant]].cycles
            loop_checks += check_loops(kernel, image.program,
                                       plain["default"].block_counts,
                                       plain["default"].call_counts)
        assert ([check.to_dict() for check in report.loop_checks]
                == [check.to_dict() for check in loop_checks])

    def test_loop_checks_leave_the_shared_recording_unchanged(self):
        harness = ConformanceHarness(config=CONFIG)
        image = harness._image("bubble_sort")
        shared = run_alone(image, CONFIG, strict=True)
        before = (copy.deepcopy(shared.block_counts),
                  copy.deepcopy(shared.call_counts))
        assert harness.run_loop_checks("bubble_sort")
        assert run_alone(image, CONFIG, strict=True) is shared
        assert (shared.block_counts, shared.call_counts) == before

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_only_the_reference_engine_runs_the_interpreter(
            self, monkeypatch, engine):
        built = []

        class Spy(CycleSimulator):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("engine"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(replay_module, "CycleSimulator", Spy)
        harness = ConformanceHarness(config=CONFIG, engine=engine)
        harness.run_scenario(Scenario("vector_sum",
                                      CacheModelVariant("default"),
                                      FAST_ARBITERS[0]))
        harness.run_loop_checks("vector_sum")
        recorded = traces_of(harness._image("vector_sum"))
        if engine == "fast":
            assert built == [] and len(recorded) == 1
        else:
            assert built == ["reference", "reference"] and not recorded


#: WCET option variants of the property test (the cache-mode axis).
PROPERTY_VARIANTS = [
    {},
    {"method_cache": "always_miss"},
    {"stack_cache": "naive"},
    {"conventional_icache": True},
    {"unified_data_cache": True},
]


class TestSoundnessProperty:
    """wcet >= simulated for seeded-random programs across the axes."""

    @pytest.mark.parametrize("seed", [7, 23, 91])
    def test_synthetic_sound_across_cache_modes(self, seed):
        kernel = random_alu_kernel(seed, length=60)
        image, _ = compile_and_link(kernel.program, CONFIG)
        observed = CycleSimulator(image, config=CONFIG, strict=True).run()
        assert observed.output == kernel.expected_output
        for overrides in PROPERTY_VARIANTS:
            result = analyze_wcet(image, CONFIG,
                                  options=WcetOptions(**overrides))
            assert result.wcet_cycles >= observed.cycles, overrides

    @pytest.mark.parametrize("seed", [7, 23])
    def test_synthetic_sound_across_arbiters(self, seed):
        kernel = random_alu_kernel(seed, length=50)
        image, _ = compile_and_link(kernel.program, CONFIG)
        for arbiter in ("tdma", "round_robin", "priority"):
            system = MulticoreSystem([image] * 2, CONFIG, arbiter=arbiter)
            result = system.run(analyse=True, strict=True)
            for core in result.cores:
                if core.wcet is None:
                    assert arbiter == "priority" and core.core_id != 0
                    continue
                assert core.wcet_cycles >= core.observed_cycles, (
                    seed, arbiter, core.core_id)

    def test_baseline_hierarchy_analysed_consistently(self):
        """Regression: run(analyse=True) on a system simulating a baseline
        cache organisation must analyse that same organisation — with the
        unified D$ simulated but the split-cache analysis applied, the
        reported bound fell below the observed cycles of its own run."""
        from repro.caches.hierarchy import HierarchyOptions
        from repro.workloads import build_kernel
        image, _ = compile_and_link(build_kernel("stack_chain").program,
                                    CONFIG)
        for hierarchy in (HierarchyOptions(unified_data_cache=True),
                          HierarchyOptions(conventional_icache=True)):
            system = MulticoreSystem([image] * 2, CONFIG, arbiter="tdma",
                                     hierarchy_options=hierarchy)
            result = system.run(analyse=True, strict=True)
            for core in result.cores:
                assert core.wcet_cycles >= core.observed_cycles, hierarchy
        # The implied fields are reflected in the options themselves.
        system = MulticoreSystem(
            [image] * 2, CONFIG,
            hierarchy_options=HierarchyOptions(unified_data_cache=True))
        assert system.wcet_options_for_core(0).unified_data_cache

    def test_weighted_tdma_cosim_sound_per_core(self):
        kernel = random_alu_kernel(5, length=40)
        image, _ = compile_and_link(kernel.program, CONFIG)
        schedule = TdmaSchedule(num_cores=3,
                                slot_cycles=CONFIG.memory.burst_cycles(),
                                slot_weights=(1, 3, 2))
        system = MulticoreSystem([image] * 3, CONFIG, schedule=schedule)
        result = system.run(analyse=True, strict=True)
        for core in result.cores:
            assert core.wcet_cycles >= core.observed_cycles


class TestRefinedTdmaBound:
    """The core-aware interference model: tighter yet still sound."""

    @pytest.fixture(scope="class")
    def image(self):
        from repro.workloads import build_kernel
        image, _ = compile_and_link(build_kernel("stream_checksum").program,
                                    CONFIG)
        return image

    def test_refined_tighter_than_blanket_on_weighted_schedule(self, image):
        burst = CONFIG.memory.burst_cycles()
        # Slot exactly one burst: a weight-1 core's refined bound degenerates
        # to the blanket period - 1 (every transfer is a whole burst), while
        # the weighted core's stays strictly tighter.
        tight = TdmaSchedule(num_cores=4, slot_cycles=burst,
                             slot_weights=(1, 2, 1, 1))
        blanket = analyze_wcet(image, CONFIG, options=WcetOptions(tdma=tight))
        bounds = [analyze_wcet(image, CONFIG,
                               options=WcetOptions(tdma=tight,
                                                   tdma_core_id=core))
                  .wcet_cycles for core in range(4)]
        assert all(bound <= blanket.wcet_cycles for bound in bounds)
        assert bounds[1] < blanket.wcet_cycles
        # With head-room in the slot every core's bound tightens strictly.
        roomy = TdmaSchedule(num_cores=4, slot_cycles=2 * burst,
                             slot_weights=(1, 2, 1, 1))
        blanket = analyze_wcet(image, CONFIG, options=WcetOptions(tdma=roomy))
        for core in range(4):
            refined = analyze_wcet(
                image, CONFIG,
                options=WcetOptions(tdma=roomy, tdma_core_id=core))
            assert refined.wcet_cycles < blanket.wcet_cycles, core

    def test_refined_bound_still_covers_cosim(self, image):
        schedule = TdmaSchedule(num_cores=2,
                                slot_cycles=CONFIG.memory.burst_cycles(),
                                slot_weights=(1, 2))
        system = MulticoreSystem([image] * 2, CONFIG, schedule=schedule)
        result = system.run(analyse=True, strict=True)
        for core in result.cores:
            assert core.wcet.options.tdma_core_id == core.core_id
            assert core.wcet_cycles >= core.observed_cycles

    def test_out_of_range_core_rejected(self, image):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=28)
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            analyze_wcet(image, CONFIG,
                         options=WcetOptions(tdma=schedule, tdma_core_id=5))

    def test_unschedulable_transfer_rejected(self, image):
        # A slot shorter than one burst can never fit a burst transfer: the
        # refined analysis must refuse rather than emit a meaningless bound.
        schedule = TdmaSchedule(num_cores=2, slot_cycles=5)
        with pytest.raises(WcetError, match="cannot fit"):
            analyze_wcet(image, CONFIG,
                         options=WcetOptions(tdma=schedule, tdma_core_id=0))


class TestOptionsCacheKeyAudit:
    def test_to_dict_covers_every_field(self):
        """Every WcetOptions field must appear in the serialized cache key,
        so the explore result cache can never serve a stale bound across an
        option change (the regression this PR fixes for tdma_core_id)."""
        options = WcetOptions()
        assert set(options.to_dict()) == {f.name for f in fields(options)}

    def test_core_id_changes_the_key(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=28)
        base = WcetOptions(tdma=schedule)
        refined = dataclasses.replace(base, tdma_core_id=1)
        assert base.to_dict() != refined.to_dict()

    def test_for_arbiter_plumbs_core_id(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=28)
        options = WcetOptions.for_arbiter("tdma", 2, schedule=schedule,
                                          core_id=1)
        assert options.tdma_core_id == 1
        # Explicit overrides win over the plumbed core id.
        overridden = WcetOptions.for_arbiter("tdma", 2, schedule=schedule,
                                             core_id=1, tdma_core_id=None)
        assert overridden.tdma_core_id is None
        # Single-core systems never carry interference options.
        assert WcetOptions.for_arbiter("tdma", 1).tdma is None

    def test_for_arbiter_rejects_tdma_without_schedule(self):
        """Schedule-less multicore TDMA options would charge no bus wait:
        on 4-core matmul they gave the single-core bound (1,358 cycles)
        where the default schedule's core 0 bound is 2,953."""
        for cores in (2, 4):
            for core_id in (None, 0):
                with pytest.raises(WcetError, match="needs its schedule"):
                    WcetOptions.for_arbiter("tdma", cores, core_id=core_id)
        image, _ = compile_and_link(build_kernel("matmul").program, CONFIG)
        system = MulticoreSystem([image] * 4, CONFIG)
        options = system.wcet_options_for_core(0)
        assert analyze_wcet(image, CONFIG, options=options).wcet_cycles \
            > analyze_wcet(image, CONFIG).wcet_cycles

    @pytest.mark.parametrize("cores", [2, 4])
    def test_callers_always_pass_a_tdma_schedule(self, cores):
        image, _ = compile_and_link(build_kernel("vector_sum").program,
                                    CONFIG)
        schedule = TdmaSchedule(num_cores=cores, slot_cycles=28)
        systems = [
            MulticoreSystem([image] * cores, CONFIG),
            MulticoreSystem([image] * cores, CONFIG,
                            slot_weights=tuple(range(1, cores + 1))),
            MulticoreSystem([image] * cores, CONFIG, schedule=schedule),
            MulticoreSystem([image] * cores, CONFIG,
                            arbiter=TdmaBusArbiter(schedule)),
        ]
        for system in systems:
            for core_id in range(cores):
                options = system.wcet_options_for_core(core_id)
                assert options.tdma is system.schedule is not None
                assert options.tdma_core_id == core_id
        for weights in (None, (1, 2)):
            spec = ExperimentSpec(kernel="vector_sum", config=CONFIG,
                                  cores=cores, arbiter="tdma",
                                  slot_weights=weights)
            assert spec.wcet_options().tdma == spec.tdma_schedule() is not None
