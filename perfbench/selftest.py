"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 500)
        self.assertEqual(stats.highest_percentile(39), 500)
        self.assertEqual(stats.highest_percentile(40), 750)
        self.assertEqual(stats.highest_percentile(100), 900)
        self.assertEqual(stats.highest_percentile(450), 950)
        self.assertEqual(stats.highest_percentile(1000), 990)
        self.assertEqual(stats.highest_percentile(10000), 999)

    def test_nearest_rank_leaves_the_stated_count_beyond(self):
        samples = list(range(40, 0, -1))
        p75 = stats.percentile(samples, 750)
        self.assertEqual(p75, 30)
        self.assertEqual(sum(1 for s in samples if s > p75),
                         stats.MIN_BEYOND)
        self.assertEqual(stats.percentile(samples, 500), 20)
        self.assertEqual(stats.percentile([7.0], 999), 7.0)


class SpanSelfTime(unittest.TestCase):
    # name, start, end, parent
    SPANS = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0],
             ["d", 11.0, 12.0, -1]]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(probes.self_times(self.SPANS),
                         [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_self_times_add_up_to_top_level_time(self):
        self.assertEqual(sum(probes.self_times(self.SPANS)),
                         probes.top_level_time(self.SPANS))

    def test_inclusive_time_counts_recursion_once(self):
        spans = [["x", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0],
                 ["y", 2.0, 3.0, 1]]
        self.assertEqual(dict(probes.inclusive_times(spans)),
                         {"x": 10.0, "y": 1.0})

    def test_wrappers_record_nesting(self):
        tracer = probes.Tracer()

        def inner(value):
            return value + 1

        wrapped_inner = probes._wrap(
            tracer, probes.Probe("layer.inner", "m", "inner"), inner)

        def outer(value):
            return wrapped_inner(value) * 2

        wrapped_outer = probes._wrap(
            tracer, probes.Probe("layer.outer", "m", "outer"), outer)
        self.assertEqual(wrapped_outer(1), 4)
        self.assertEqual([span[probes.NAME] for span in tracer.spans],
                         ["layer.outer", "layer.inner"])
        self.assertEqual([span[probes.PARENT] for span in tracer.spans],
                         [-1, 0])
        own = probes.self_times(tracer.spans)
        outer_span, inner_span = tracer.spans
        self.assertAlmostEqual(
            own[0], (outer_span[probes.END] - outer_span[probes.START])
            - (inner_span[probes.END] - inner_span[probes.START]))
        self.assertEqual(tracer.stack, [])

    def test_worker_dump_merges_into_parent(self):
        import tempfile
        parent = probes.Tracer()
        worker = probes.Tracer()
        worker.spans.append(["sim.run", 0.0, 2.0, -1])
        worker.sims.append([10, 4])
        worker.cells.append([0.0, 0.5])
        worker.keys["compile"].append("k")
        worker.host_slices.append([0.2, 0.003])
        with tempfile.TemporaryDirectory() as tmp:
            worker.dump(Path(tmp) / "worker-1.json")
            self.assertEqual(probes.collect_workers(parent, Path(tmp)), 1)
        self.assertEqual(parent.sim_bundles(), 4)
        self.assertEqual(parent.cells, [[0.0, 0.5]])
        self.assertEqual(parent.host_slices, [[0.2, 0.003]])
        metrics = probes.layer_metrics(parent, wall_s=3.0)
        self.assertEqual(metrics["sim.runs"], 1)
        self.assertEqual(metrics["sim.self_s"], 2.0)
        # Worker spans run beside the pass, not inside its wall time.
        self.assertEqual(metrics["trace.unattributed_s"], 3.0)


class HostSpeedScaling(unittest.TestCase):
    REF = hostspeed.REFERENCE_SLICE_S

    def test_scale_is_reference_over_mean_slice(self):
        self.assertEqual(hostspeed.scale([]), 1.0)
        self.assertAlmostEqual(
            hostspeed.scale([[1.0, 2 * self.REF], [2.0, 2 * self.REF]]), 0.5)

    def test_local_scale_prefers_slices_inside_the_window(self):
        slices = ([[float(t), self.REF] for t in range(10)]
                  + [[float(t), 2 * self.REF] for t in range(10, 20)])
        scales = hostspeed.local_scales([[0.0, 9.5], [10.0, 19.5]], slices,
                                        nearest=2)
        self.assertEqual([round(s, 9) for s in scales], [1.0, 0.5])
        # A short window with no slice inside takes the nearest ones.
        scales = hostspeed.local_scales([[14.2, 14.3], [9.4, 9.45]], slices,
                                        nearest=2)
        self.assertEqual([round(s, 9) for s in scales], [0.5, round(2 / 3, 9)])

    def test_sampler_times_slices_until_stopped(self):
        sampler = hostspeed.Sampler().start()
        deadline = time.perf_counter() + 3 * hostspeed.INTERVAL_S + 0.05
        while time.perf_counter() < deadline:
            pass
        slices = sampler.stop()
        self.assertGreaterEqual(len(slices), 2)
        self.assertTrue(all(spent > 0 for _, spent in slices))


class DigestDeterminism(unittest.TestCase):
    def test_digest_ignores_key_order_and_sees_values(self):
        self.assertEqual(stats.digest([{"a": 1, "b": 2}]),
                         stats.digest([{"b": 2, "a": 1}]))
        self.assertNotEqual(stats.digest([{"a": 1}]),
                            stats.digest([{"a": 2}]))

    def test_repeated_execution_gives_the_same_digest(self):
        kernels = workloads.generate("compile_synth", 3)
        small = sorted(kernels,
                       key=lambda k: k.program.instruction_count())[:3]
        digests = []
        for _ in range(2):
            outcome = workloads.execute("compile_synth", small, Path("."),
                                        probes.Tracer())
            self.assertEqual(outcome.failed, 0)
            digests.append(stats.digest(outcome.records))
        self.assertEqual(digests[0], digests[1])


class SeedPlumbing(unittest.TestCase):
    @staticmethod
    def _programs(seed):
        return [(str(k.program), k.expected_output)
                for k in workloads.generate("compile_synth", seed)]

    def test_same_seed_same_programs(self):
        self.assertEqual(self._programs(5), self._programs(5))

    def test_other_seed_other_programs(self):
        first, second = self._programs(5), self._programs(6)
        self.assertEqual(len(first), len(second))
        self.assertGreaterEqual(len(first), 40)
        self.assertNotEqual(first, second)

    def test_seed_reaches_the_other_workloads(self):
        for name in ("verify_matrix", "explore_cosim"):
            def inputs(seed):
                value = workloads.generate(name, seed)
                return repr(getattr(value, "kernel_params", value))
            self.assertEqual(inputs(1), inputs(1), name)
            self.assertNotEqual(inputs(1), inputs(2), name)


class BenchmarkDefinition(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        path = ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
