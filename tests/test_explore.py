"""Tests for the design-space exploration subsystem (repro.explore)."""

import json
import os

import pytest

from repro.cmp import replay as replay_module
from repro.cmp.replay import TraceRecorder
from repro.config import PatmosConfig
from repro.errors import ExplorationError
from repro.explore import (
    ExperimentSpec,
    ExplorationRunner,
    Objective,
    ParameterSpace,
    ResultCache,
    SpecResult,
    execute_spec,
    pareto_frontier,
    pareto_table,
    resolve_axis,
)
from repro.explore import runner as runner_module
from repro.explore.cli import coerce_value, main, parse_axis
from repro.jobs import RunDirectory
from repro.sim.cycle import CycleSimulator


class TestAxisResolution:
    def test_alias(self):
        assert resolve_axis("method_cache_size") == (
            "config", "method_cache.size_bytes")

    def test_dotted_path(self):
        assert resolve_axis("stack_cache.size_bytes") == (
            "config", "stack_cache.size_bytes")

    def test_compile_option(self):
        assert resolve_axis("single_path") == ("compile", "single_path")

    def test_cores_and_slot(self):
        assert resolve_axis("cores") == ("cores", None)
        assert resolve_axis("slot_cycles") == ("slot_cycles", None)

    def test_multicore_axes(self):
        assert resolve_axis("arbiter") == ("arbiter", None)
        assert resolve_axis("slot_weights") == ("slot_weights", None)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExplorationError, match="unknown axis"):
            resolve_axis("bogus_axis")


class TestParameterSpace:
    def test_expansion_count_and_order(self):
        space = (ParameterSpace(["vector_sum", "fir_filter"])
                 .axis("method_cache_size", [1024, 2048])
                 .axis("single_path", [False, True]))
        specs = space.specs()
        assert len(specs) == len(space) == 8
        # Kernel-major, then axis-declaration order.
        assert [spec.kernel for spec in specs[:4]] == ["vector_sum"] * 4
        assert specs[0].parameters == (("method_cache_size", 1024),
                                       ("single_path", False))
        assert specs[1].parameters == (("method_cache_size", 1024),
                                       ("single_path", True))

    def test_axes_are_applied(self):
        space = (ParameterSpace(["vector_sum"])
                 .axis("method_cache_size", [2048])
                 .axis("single_path", [True])
                 .axis("cores", [2])
                 .axis("slot_cycles", [28]))
        (spec,) = space.specs()
        assert spec.config.method_cache.size_bytes == 2048
        assert spec.options.single_path
        assert spec.cores == 2
        assert spec.slot_cycles == 28

    def test_suite_names_expand(self):
        space = ParameterSpace(["branchy"])
        assert space.kernels == ("saturate", "linear_search", "bubble_sort")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            ParameterSpace(["not_a_kernel"])

    def test_duplicate_axis_rejected(self):
        space = ParameterSpace(["vector_sum"]).axis("cores", [1, 2])
        with pytest.raises(ExplorationError, match="duplicate"):
            space.axis("cores", [4])

    def test_empty_axis_rejected(self):
        with pytest.raises(ExplorationError, match="no values"):
            ParameterSpace(["vector_sum"]).axis("cores", [])

    def test_invalid_override_value_rejected_at_expansion(self):
        from repro.errors import ConfigError
        space = (ParameterSpace(["vector_sum"])
                 .axis("method_cache_size", [1000]))  # not a block multiple
        with pytest.raises(ConfigError):
            space.specs()


class TestSpecKey:
    def test_key_is_stable(self):
        def make():
            return (ParameterSpace(["vector_sum"])
                    .axis("method_cache_size", [2048])).specs()[0]
        assert make().key() == make().key()

    def test_key_distinguishes_content(self):
        specs = (ParameterSpace(["vector_sum"])
                 .axis("method_cache_size", [1024, 2048])).specs()
        assert specs[0].key() != specs[1].key()

    def test_key_ignores_display_parameters(self):
        config = PatmosConfig()
        a = ExperimentSpec(kernel="vector_sum", config=config,
                           parameters=(("label", 1),))
        b = ExperimentSpec(kernel="vector_sum", config=config,
                           parameters=(("other", 2),))
        assert a.key() == b.key()

    def test_key_covers_wcet_options(self):
        config = PatmosConfig()
        a = ExperimentSpec(kernel="vector_sum", config=config)
        b = ExperimentSpec(kernel="vector_sum", config=config,
                           wcet_overrides=(("method_cache", "always_miss"),))
        assert a.key() != b.key()

    def test_key_covers_engine(self):
        """Engines are required to agree, but results from different
        engines must still never alias in a shared cache."""
        config = PatmosConfig()
        keys = {ExperimentSpec(kernel="vector_sum", config=config,
                               engine=engine).key()
                for engine in ("reference", "fast")}
        assert len(keys) == 2

    def test_unknown_engine_rejected(self):
        from repro.errors import ExplorationError
        with pytest.raises(ExplorationError):
            (ParameterSpace(["vector_sum"])
             .axis("engine", ["turbo"])).specs()


class TestRunner:
    def test_serial_run_is_sound(self):
        space = (ParameterSpace(["vector_sum"])
                 .axis("method_cache_size", [1024, 4096]))
        outcome = ExplorationRunner().run(space)
        assert len(outcome) == 2
        for result in outcome.results:
            assert result.cycles > 0
            assert result.wcet_cycles >= result.cycles
            assert result.fmax_mhz > 0
            assert not result.from_cache
        assert outcome.cache_hits == 0
        assert outcome.cache_misses == 2

    def test_parallel_results_identical_to_serial(self):
        def sweep(jobs):
            space = (ParameterSpace(["vector_sum", "saturate"])
                     .axis("method_cache_size", [1024, 2048])
                     .axis("single_path", [False, True]))
            return ExplorationRunner(jobs=jobs).run(space)

        serial = sweep(1)
        parallel = sweep(4)
        assert (json.dumps(serial.to_records(), sort_keys=True)
                == json.dumps(parallel.to_records(), sort_keys=True))

    def test_cmp_spec_uses_makespan(self):
        single = (ParameterSpace(["vector_sum"])).specs()[0]
        cmp_spec = (ParameterSpace(["vector_sum"])
                    .axis("cores", [4])).specs()[0]
        alone = execute_spec(single)
        shared = execute_spec(cmp_spec)
        assert shared.cores == 4
        # Sharing memory via TDMA can only slow a core down.
        assert shared.cycles >= alone.cycles
        assert shared.wcet_cycles >= alone.wcet_cycles

    def test_single_core_points_dedupe_and_keep_labels(self):
        # Arbitration axes cannot affect one core: the specs share a key,
        # the sweep runs the point once, and each row keeps its own label.
        space = (ParameterSpace(["vector_sum"], analyse_wcet=False)
                 .axis("cores", [1])
                 .axis("arbiter", ["tdma", "round_robin"]))
        specs = space.specs()
        assert specs[0].key() == specs[1].key()
        outcome = ExplorationRunner().run(space)
        assert outcome.cache_misses == 1  # executed once, shared twice
        assert [r.parameters["arbiter"] for r in outcome.results] == [
            "tdma", "round_robin"]
        assert outcome.results[0].cycles == outcome.results[1].cycles

    def test_non_tdma_points_ignore_slot_geometry_in_key(self):
        specs = (ParameterSpace(["vector_sum"])
                 .axis("cores", [2])
                 .axis("arbiter", ["round_robin"])
                 .axis("slot_cycles", [14, 28])).specs()
        assert specs[0].key() == specs[1].key()

    def test_arbiter_axis_runs_cosim(self):
        specs = (ParameterSpace(["vector_sum"])
                 .axis("cores", [2])
                 .axis("arbiter", ["tdma", "round_robin"])).specs()
        assert [spec.arbiter for spec in specs] == ["tdma", "round_robin"]
        assert specs[0].key() != specs[1].key()
        tdma, rr = (execute_spec(spec) for spec in specs)
        assert tdma.arbiter == "tdma" and rr.arbiter == "round_robin"
        # Round-robin is work-conserving: with identical co-runners it can
        # only be as fast or faster than waiting for fixed TDMA slots.
        assert rr.cycles <= tdma.cycles
        # Interference metrics are surfaced for Pareto ranking.
        assert tdma.arbitration_cycles > 0
        frontier = pareto_frontier(
            [tdma, rr], (Objective("arbitration_cycles"),))
        assert frontier == [rr]

    def test_slot_weights_axis(self):
        specs = (ParameterSpace(["vector_sum"])
                 .axis("cores", [2])
                 .axis("slot_weights", ["1:1", "1:3"])).specs()
        assert specs[0].slot_weights == (1, 1)
        assert specs[1].slot_weights == (1, 3)
        assert specs[0].key() != specs[1].key()
        uniform, weighted = (execute_spec(spec) for spec in specs)
        # Shrinking core 0's share of the period can only slow it down.
        assert weighted.cycles >= uniform.cycles

    def test_bad_arbiter_and_weights_rejected(self):
        with pytest.raises(ExplorationError, match="unknown arbiter"):
            (ParameterSpace(["vector_sum"])
             .axis("arbiter", ["fifo"])).specs()
        with pytest.raises(ExplorationError, match="slot_weights"):
            (ParameterSpace(["vector_sum"])
             .axis("slot_weights", ["1:x"])).specs()

    def test_priority_spec_has_no_makespan_bound(self):
        # Only the top-priority core is analysable, so no bound can cover
        # the design point's reported makespan: the record must say so
        # instead of pairing the top core's bound with another core's time.
        spec = (ParameterSpace(["vector_sum"])
                .axis("cores", [2])
                .axis("arbiter", ["priority"])).specs()[0]
        result = execute_spec(spec)
        assert result.wcet_cycles is None
        assert result.cycles > 0

    def test_zero_slot_cycles_rejected(self):
        from repro.errors import ConfigError
        spec = (ParameterSpace(["vector_sum"])
                .axis("cores", [2])
                .axis("slot_cycles", [0])).specs()[0]
        with pytest.raises(ConfigError, match="slot length"):
            execute_spec(spec)

    def test_failed_spec_keeps_earlier_results_in_cache(self, tmp_path,
                                                        monkeypatch):
        specs = (ParameterSpace(["vector_sum", "fir_filter"])).specs()
        real = execute_spec

        def fail_on_fir(spec):
            if spec.kernel == "fir_filter":
                raise RuntimeError("worker died")
            return real(spec)
        monkeypatch.setattr(runner_module, "execute_spec", fail_on_fir)

        path = tmp_path / "cache.json"
        with pytest.raises(RuntimeError):
            ExplorationRunner(cache=ResultCache(path)).run(specs)
        # The completed vector_sum point survived the crash.
        survivor = ResultCache(path)
        assert len(survivor) == 1
        assert survivor.get(specs[0].key()) is not None

    def test_worker_errors_become_failed_cells(self, tmp_path):
        # A design point raising a library error no longer aborts the
        # sweep: it becomes a structured FailedCell — and so does every
        # duplicate spec sharing its key.
        space = (ParameterSpace(["vector_sum"])
                 .axis("cores", [2, 2])  # duplicate values, both invalid slot
                 .axis("slot_cycles", [1]))
        outcome = ExplorationRunner(jobs=2).run(space)
        assert not outcome.ok
        assert outcome.results == []
        assert len(outcome.failures) == 2
        assert all(cell.error == "ConfigError" for cell in outcome.failures)
        assert "failed" in outcome.summary()
        assert "ConfigError" in outcome.failure_summary()

    def test_failed_cells_do_not_abort_or_cache(self, tmp_path,
                                                monkeypatch):
        # One bad point in a sweep: the good points complete and are
        # cached, the bad one is reported, nothing of it enters the cache.
        from repro.errors import ExplorationError as ExploreError
        specs = (ParameterSpace(["vector_sum", "fir_filter"])).specs()
        real = execute_spec

        def fail_on_fir(spec):
            if spec.kernel == "fir_filter":
                raise ExploreError("bad design point")
            return real(spec)
        monkeypatch.setattr(runner_module, "execute_spec", fail_on_fir)

        path = tmp_path / "cache.json"
        outcome = ExplorationRunner(cache=ResultCache(path)).run(specs)
        assert len(outcome.results) == 1
        assert outcome.results[0].kernel == "vector_sum"
        assert len(outcome.failures) == 1
        assert outcome.failures[0].error == "ExplorationError"
        assert "bad design point" in outcome.failures[0].message
        survivor = ResultCache(path)
        assert len(survivor) == 1
        assert survivor.get(outcome.results[0].key) is not None
        assert survivor.get(outcome.failures[0].key) is None

    def test_no_wcet_mode(self):
        space = ParameterSpace(["vector_sum"], analyse_wcet=False)
        outcome = ExplorationRunner().run(space)
        assert outcome.results[0].wcet_cycles is None

    def test_table_renders(self):
        space = ParameterSpace(["vector_sum"])
        outcome = ExplorationRunner().run(space)
        table = outcome.table()
        assert "vector_sum" in table
        assert "WCET" in table


class TestImageMemo:
    """A process compiles and records each image of a sweep once."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        runner_module._images.clear()
        yield
        runner_module._images.clear()

    @staticmethod
    def _space():
        return (ParameterSpace(["vector_sum"])
                .axis("cores", [1, 2, 4])
                .axis("arbiter", ["tdma", "round_robin"])
                .axis("method_cache_size", [1024, 4096]))

    @staticmethod
    def _counted(monkeypatch):
        """Count compiles and trace recordings."""
        counts = {"compiled": 0, "recorded": 0}
        compile_and_link = runner_module.compile_and_link
        recording = TraceRecorder.recording

        def counting_compile(*args, **kwargs):
            counts["compiled"] += 1
            return compile_and_link(*args, **kwargs)

        def counting_recording(self):
            counts["recorded"] += 1
            return recording(self)

        monkeypatch.setattr(runner_module, "compile_and_link",
                            counting_compile)
        monkeypatch.setattr(TraceRecorder, "recording", counting_recording)
        return counts

    def test_one_compile_and_recording_per_image(self, monkeypatch):
        counts = self._counted(monkeypatch)
        memo = ExplorationRunner().run(self._space())
        assert memo.ok and memo.cache_misses == 10
        assert counts == {"compiled": 2, "recorded": 2}

        execute = runner_module.execute_spec

        def without_memo(spec):
            runner_module._images.clear()
            return execute(spec)

        monkeypatch.setattr(runner_module, "execute_spec", without_memo)
        counts.update(compiled=0, recorded=0)
        fresh = ExplorationRunner().run(self._space())
        assert counts == {"compiled": 10, "recorded": 10}
        assert fresh.to_records() == memo.to_records()

    def test_parallel_sweep_matches_serial(self):
        serial = ExplorationRunner(jobs=1).run(self._space())
        runner_module._images.clear()  # workers compile and record afresh
        parallel = ExplorationRunner(jobs=2).run(self._space())
        assert parallel.ok and parallel.to_records() == serial.to_records()

    def test_workers_compile_each_image_once(self, monkeypatch, tmp_path):
        """Cells lease to the worker holding their image: every image is
        compiled once, plus at most one steal at the tail of the sweep."""
        log = tmp_path / "compiles"
        compile_and_link = runner_module.compile_and_link

        def logging_compile(*args, **kwargs):
            with open(log, "a") as handle:  # one line per worker compile
                handle.write(f"{os.getpid()}\n")
            return compile_and_link(*args, **kwargs)

        monkeypatch.setattr(runner_module, "compile_and_link",
                            logging_compile)
        # Cores outermost: consecutive cells alternate between images.
        space = (ParameterSpace(["vector_sum"], analyse_wcet=False)
                 .axis("cores", [1, 2])
                 .axis("method_cache_size", [1024, 2048, 4096]))
        result = ExplorationRunner(jobs=2).run(space)
        assert result.ok and len(result) == 6
        assert len(log.read_text().split()) <= 3 + 1

    def test_memo_is_bounded(self, monkeypatch):
        counts = self._counted(monkeypatch)
        sizes = [1024 * (i + 1) for i in range(runner_module._IMAGE_MEMO_SIZE
                                                + 1)]
        space = (ParameterSpace(["vector_sum"], analyse_wcet=False)
                 .axis("method_cache_size", sizes))
        ExplorationRunner().run(space)
        assert len(runner_module._images) == runner_module._IMAGE_MEMO_SIZE
        # The least recently used image was dropped; the others are kept.
        ExplorationRunner().run(ParameterSpace(
            ["vector_sum"], analyse_wcet=False)
            .axis("method_cache_size", [sizes[-1], sizes[0]]))
        assert counts["compiled"] == len(sizes) + 1

    def test_only_the_reference_engine_runs_the_interpreter(self,
                                                            monkeypatch):
        built = []

        class Spy(CycleSimulator):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("engine"))
                super().__init__(*args, **kwargs)

        # Cells run an image alone through run_alone.
        monkeypatch.setattr(replay_module, "CycleSimulator", Spy)
        fast, reference = (ParameterSpace(["vector_sum"])
                           .axis("engine", ["fast", "reference"])).specs()
        fast_result = execute_spec(fast)
        assert built == []
        reference_result = execute_spec(reference)
        assert built == ["reference"]
        assert ({**fast_result.to_record(), "key": None, "parameters": None}
                == {**reference_result.to_record(), "key": None,
                    "parameters": None})

    def test_mutating_a_result_leaves_the_next_cell_unchanged(self):
        single, dual = (ParameterSpace(["vector_sum"], analyse_wcet=False)
                        .axis("cores", [1, 2])).specs()
        expected = [execute_spec(single).to_record()]
        runner_module._images.clear()
        expected.append(execute_spec(dual).to_record())
        runner_module._images.clear()
        first = execute_spec(single)
        for counters in first.cache_stats.values():
            for name in counters:
                counters[name] += 1000
        assert execute_spec(single).to_record() == expected[0]
        assert execute_spec(dual).to_record() == expected[1]


class TestCrashContainment:
    """A worker killed mid-cell must not abort the sweep (PR 7)."""

    def test_killed_worker_becomes_failed_cell(self, monkeypatch):
        import os
        import signal

        specs = ParameterSpace(["vector_sum", "fir_filter"]).specs()
        real = execute_spec

        def die_on_fir(spec):
            if spec.kernel == "fir_filter":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec)
        # Forked pool workers call through runner_module._spec_worker and
        # inherit this replacement.
        monkeypatch.setattr(runner_module, "execute_spec", die_on_fir)

        runner = ExplorationRunner(jobs=2, max_retries=1,
                                   retry_backoff_s=0.0)
        outcome = runner.run(specs)
        # The innocent cell completed (round 0 or its isolated retry);
        # the poisoned cell became a structured failure record.
        assert [r.kernel for r in outcome.results] == ["vector_sum"]
        assert len(outcome.failures) == 1
        cell = outcome.failures[0]
        assert cell.error == "WorkerCrashed"
        assert cell.attempts == 2       # initial run + one retry
        assert cell.context["attempts"] == 2
        assert "worker process died" in cell.message
        assert not outcome.ok

    def test_killed_worker_failure_is_deterministic(self, monkeypatch):
        import os
        import signal

        specs = ParameterSpace(["vector_sum", "fir_filter"]).specs()
        real = execute_spec

        def die_on_fir(spec):
            if spec.kernel == "fir_filter":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec)
        monkeypatch.setattr(runner_module, "execute_spec", die_on_fir)

        # max_retries >= 1 so an innocent cell whose future merely shared
        # the broken pool always recovers on its isolated retry.
        records = []
        for _ in range(2):
            outcome = ExplorationRunner(
                jobs=2, max_retries=1, retry_backoff_s=0.0).run(specs)
            assert [r.kernel for r in outcome.results] == ["vector_sum"]
            assert len(outcome.failures) == 1
            records.append(outcome.failures[0].to_dict())
        assert records[0] == records[1]

    def test_cli_reports_failures_and_exits_nonzero(self, monkeypatch,
                                                    tmp_path, capsys):
        from repro.errors import ExplorationError as ExploreError
        real = execute_spec

        def fail_on_fir(spec):
            if spec.kernel == "fir_filter":
                raise ExploreError("bad design point")
            return real(spec)
        monkeypatch.setattr(runner_module, "execute_spec", fail_on_fir)

        code = main(["--kernels", "vector_sum,fir_filter", "--no-cache",
                     "--no-pareto"])
        assert code == 2
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "bad design point" in err


class TestResultCache:
    def _space(self):
        return (ParameterSpace(["vector_sum", "fir_filter"])
                .axis("method_cache_size", [1024, 2048]))

    def test_second_run_hits_without_resimulating(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        first = ExplorationRunner(cache=ResultCache(path)).run(self._space())
        assert first.cache_misses == 4
        assert path.exists()

        # Any attempt to simulate again is an error: all four design points
        # must come from the cache.
        def boom(spec):
            raise AssertionError(f"re-simulated {spec.label()}")
        monkeypatch.setattr(runner_module, "execute_spec", boom)

        second = ExplorationRunner(cache=ResultCache(path)).run(self._space())
        assert second.cache_hits == 4
        assert second.cache_misses == 0
        assert all(result.from_cache for result in second.results)
        assert (json.dumps(first.to_records(), sort_keys=True)
                == json.dumps(second.to_records(), sort_keys=True))

    def test_partial_overlap_only_runs_new_points(self, tmp_path):
        path = tmp_path / "cache.json"
        ExplorationRunner(cache=ResultCache(path)).run(self._space())
        wider = (ParameterSpace(["vector_sum", "fir_filter"])
                 .axis("method_cache_size", [1024, 2048, 4096]))
        outcome = ExplorationRunner(cache=ResultCache(path)).run(wider)
        assert outcome.cache_hits == 4
        assert outcome.cache_misses == 2

    def test_corrupt_cache_quarantined(self, tmp_path):
        # An unreadable cache file no longer aborts the sweep: it is moved
        # into quarantine/ with a warning and the cache continues empty.
        path = tmp_path / "cache.json"
        path.write_text("{not json", encoding="utf-8")
        cache = ResultCache(path)
        with pytest.warns(RuntimeWarning, match="corrupt result cache"):
            assert cache.get("anything") is None
        assert not path.exists()
        quarantined = list(cache.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_text(encoding="utf-8") == "{not json"
        # The quarantined file survives saves of fresh results ...
        cache.put("k1", {"cycles": 1})
        cache.save()
        assert ResultCache(path).get("k1") == {"cycles": 1}
        assert quarantined[0].exists()
        # ... and clear() empties the quarantine along with the entries.
        cache.clear()
        cache.save()
        assert list(cache.quarantine_dir.iterdir()) == []
        assert len(ResultCache(path)) == 0

    def test_second_corruption_keeps_both_quarantined_files(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        for content in ("{first", "{second"):
            path.write_text(content, encoding="utf-8")
            cache._entries = None  # force a reload
            with pytest.warns(RuntimeWarning):
                cache.get("anything")
        names = sorted(f.name for f in cache.quarantine_dir.iterdir())
        assert names == ["cache.json", "cache.json.1"]

    def test_incompatible_version_discarded(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": {"k": {}}}),
                        encoding="utf-8")
        cache = ResultCache(path)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_atomic_save_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "cache.json"
        cache = ResultCache(path)
        cache.put("k1", {"cycles": 1})
        cache.save()
        fresh = ResultCache(path)
        assert fresh.get("k1") == {"cycles": 1}
        assert "k1" in fresh

    def test_save_merges_concurrent_writers(self, tmp_path):
        """Two sweeps sharing one cache file must not clobber each other:
        records another process persisted after our load survive our save."""
        path = tmp_path / "cache.json"
        ours = ResultCache(path)
        assert ours.get("k1") is None  # load the (empty) file first

        theirs = ResultCache(path)
        theirs.put("k_other", {"cycles": 7})
        theirs.save()

        ours.put("k1", {"cycles": 1})
        ours.save()

        fresh = ResultCache(path)
        assert fresh.get("k1") == {"cycles": 1}
        assert fresh.get("k_other") == {"cycles": 7}

    def test_save_keeps_newest_record_per_key(self, tmp_path):
        """On a key conflict the writer's own record wins (it is newer than
        the state it loaded), while untouched keys take the disk's newer
        version."""
        path = tmp_path / "cache.json"
        seed = ResultCache(path)
        seed.put("shared", {"cycles": 1})
        seed.put("untouched", {"cycles": 1})
        seed.save()

        ours = ResultCache(path)
        assert len(ours) == 2  # loaded both

        theirs = ResultCache(path)
        theirs.put("shared", {"cycles": 2})
        theirs.put("untouched", {"cycles": 2})
        theirs.save()

        ours.put("shared", {"cycles": 3})
        ours.save()

        fresh = ResultCache(path)
        assert fresh.get("shared") == {"cycles": 3}       # ours is newest
        assert fresh.get("untouched") == {"cycles": 2}    # theirs is newest

    def test_save_merge_survives_corrupt_concurrent_file(self, tmp_path):
        path = tmp_path / "cache.json"
        ours = ResultCache(path)
        ours.put("k1", {"cycles": 1})
        path.write_text("{not json", encoding="utf-8")  # concurrent torn write
        ours.save()  # must not raise, must not lose our record
        fresh = ResultCache(path)
        assert fresh.get("k1") == {"cycles": 1}

    def test_clear_empties_the_file(self, tmp_path):
        path = tmp_path / "cache.json"
        seed = ResultCache(path)
        seed.put("k1", {"cycles": 1})
        seed.save()
        seed.clear()
        seed.save()
        fresh = ResultCache(path)
        assert len(fresh) == 0  # an explicit clear does not merge back


class TestPareto:
    # Hand-built fixture: minimize "wcet" and "cycles", maximize "fmax".
    POINTS = [
        {"kernel": "a", "wcet": 100, "cycles": 50, "fmax": 200.0},
        {"kernel": "b", "wcet": 80, "cycles": 60, "fmax": 200.0},
        {"kernel": "c", "wcet": 100, "cycles": 50, "fmax": 250.0},  # dominates a
        {"kernel": "d", "wcet": 120, "cycles": 70, "fmax": 150.0},  # dominated
        {"kernel": "e", "wcet": 80, "cycles": 60, "fmax": 200.0},   # ties b
    ]
    OBJECTIVES = (Objective("wcet"), Objective("cycles"),
                  Objective("fmax", maximize=True))

    def test_frontier_on_fixture(self):
        frontier = pareto_frontier(self.POINTS, self.OBJECTIVES)
        assert [p["kernel"] for p in frontier] == ["b", "c", "e"]

    def test_single_objective(self):
        frontier = pareto_frontier(self.POINTS, (Objective("wcet"),))
        assert [p["kernel"] for p in frontier] == ["b", "e"]

    def test_maximize_objective(self):
        frontier = pareto_frontier(self.POINTS,
                                   (Objective("fmax", maximize=True),))
        assert [p["kernel"] for p in frontier] == ["c"]

    def test_missing_objective_skipped(self):
        points = [{"kernel": "a", "wcet": None, "cycles": 10},
                  {"kernel": "b", "wcet": 5, "cycles": 20}]
        frontier = pareto_frontier(
            points, (Objective("wcet"), Objective("cycles")))
        # "wcet" is undefined on point a, so only "cycles" ranks the points.
        assert [p["kernel"] for p in frontier] == ["a"]

    def test_all_objectives_missing_is_an_error(self):
        points = [{"kernel": "a", "wcet": None}]
        with pytest.raises(ExplorationError, match="no objective"):
            pareto_frontier(points, (Objective("wcet"),))

    def test_empty_input(self):
        assert pareto_frontier([], self.OBJECTIVES) == []

    def test_table_lists_frontier_only(self):
        table = pareto_table(self.POINTS, self.OBJECTIVES)
        assert "3 of 5 design points" in table
        assert "d" not in [line.split()[0] for line in table.splitlines()[2:]]

    def test_frontier_of_real_results(self):
        space = (ParameterSpace(["vector_sum"])
                 .axis("method_cache_size", [1024, 4096]))
        outcome = ExplorationRunner().run(space)
        frontier = outcome.frontier()
        assert frontier  # never empty on non-empty input
        assert all(isinstance(result, SpecResult) for result in frontier)


class TestCli:
    def test_coerce_value(self):
        assert coerce_value("1024") == 1024
        assert coerce_value("1.5") == 1.5
        assert coerce_value("true") is True
        assert coerce_value("fifo") == "fifo"

    def test_parse_axis(self):
        name, values = parse_axis("method_cache_size=1024,2048")
        assert name == "method_cache_size"
        assert values == [1024, 2048]
        with pytest.raises(Exception):
            parse_axis("no_equals_sign")

    def test_sweep_then_cached_sweep(self, tmp_path, capsys):
        argv = ["--kernels", "vector_sum,fir_filter",
                "--axis", "method_cache_size=1024,2048,4096",
                "--cache", str(tmp_path / "cache.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "6 design points" in first
        assert "0 cache hits, 6 executed" in first
        assert "Pareto frontier" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "6 cache hits, 0 executed" in second
        # Identical result rows (only the trailing "cached" column differs).
        def rows(text):
            return [line.split()[:-1] for line in text.splitlines()
                    if line.startswith(("vector_sum", "fir_filter"))]
        assert rows(first) == rows(second)

    def test_unknown_kernel_reports_error(self, tmp_path, capsys):
        code = main(["--kernels", "nope", "--no-cache"])
        assert code == 1
        assert "unknown kernel" in capsys.readouterr().err

    def test_no_wcet_objectives(self, tmp_path, capsys):
        code = main(["--kernels", "vector_sum", "--no-wcet",
                     "--cache", str(tmp_path / "cache.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wcet_cycles" not in out

    def test_resume_with_unknown_engine_leaves_journal_untouched(
            self, tmp_path, capsys):
        """Every axis value of a resumed sweep is checked before the resume
        marker is appended to its journal."""
        engine = "jit"  # an engine value older runs may have recorded
        matrix = {"kernels": ["vector_sum"],
                  "axes": [["engine", [engine]]], "analyse_wcet": False}
        run = RunDirectory.create("explore", matrix, cells=1, root=tmp_path)
        run.close()
        before = run.journal_path.read_bytes()
        code = main(["--resume", run.run_id, "--runs-root", str(tmp_path),
                     "--no-cache"])
        assert code == 1
        assert f"unknown engine {engine!r}" in capsys.readouterr().err
        assert run.journal_path.read_bytes() == before

    def test_resume_rejects_empty_and_wrong_kind_ids(self, tmp_path,
                                                     capsys):
        """An empty ``--resume`` id must not start a fresh sweep (which would
        rewrite the journal of this very matrix), and a verify run must not
        resume here; both fail before any journal is touched."""
        matrix = {"kernels": ["vector_sum"], "axes": [],
                  "analyse_wcet": False}
        explore_run = RunDirectory.create("explore", matrix, cells=1,
                                          root=tmp_path)
        verify_run = RunDirectory.create("verify", {"kernels": ["x"]},
                                         cells=1, root=tmp_path)
        for run in (explore_run, verify_run):
            run.close()
        before = [run.journal_path.read_bytes()
                  for run in (explore_run, verify_run)]
        common = ["--runs-root", str(tmp_path), "--no-cache"]
        assert main(["--resume", "", "--kernels", "vector_sum",
                     "--no-wcet", *common]) == 1
        assert "--resume requires a run id" in capsys.readouterr().err
        assert main(["--resume", verify_run.run_id, *common]) == 1
        assert "is a 'verify' run" in capsys.readouterr().err
        assert [run.journal_path.read_bytes()
                for run in (explore_run, verify_run)] == before

    def test_unknown_objective_fails_before_sweeping(self, capsys):
        code = main(["--kernels", "vector_sum", "--no-cache",
                     "--objectives", "bogus"])
        assert code == 1
        captured = capsys.readouterr()
        assert "unknown objective" in captured.err
        # The typo is caught before any design point is simulated.
        assert "design points in" not in captured.out
