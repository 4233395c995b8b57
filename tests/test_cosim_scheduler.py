"""Golden equivalence of the event-driven and quantum co-sim schedulers.

The event-driven scheduler (``scheduler="event"``) must be a pure
performance optimisation: for every workload kernel, every arbitration
policy and every core count, its per-core cycle counts, complete simulation
metrics (stall breakdowns, cache statistics, outputs), shared-arbiter
statistics and final shared-memory image must be *bit-identical* to the
quantum-polling reference scheduler (``scheduler="reference"``), on the
default cache organisation and on the conventional-I-cache, unified-data-
cache and entry-less-store-buffer ones.  The suite also covers the edge
paths — halting order, ``max_bundles`` exhaustion, strict-mode runs,
heterogeneous configurations and the engine fallback — and the trace cache
the event scheduler replays from: one recording per image, config,
organisation and strictness, dropped by pickling, and the bundle budget and
cycle watchdog on cached traces.  A trace reused under another method-cache
configuration equals a fresh recording there, and every configuration
whose method cache fills differently records again.  A recording's result
is the core's run alone, field for field, which is what lets single-core
exploration points report it instead of simulating again.  A rerun of the
same traces under the same arbitration restores the first replay from the
replay memo; it equals a fresh replay and the quantum scheduler, hands out
results of its own, and never serves changed traces, memory timing,
store-buffer sizes or arbitration, a fault plan, an armed watchdog or a
caller's arbiter object.

The event-driven fast engine is also checked directly against quantum
polling of the reference interpreter, on every matrix cell and on the
heterogeneous mix, so both the scheduler and the engine differ between
the two runs.
"""

import copy
import dataclasses
import pickle
import random

import pytest

from repro import PatmosConfig, compile_and_link
from repro.caches.hierarchy import HierarchyOptions
from repro.cmp import MulticoreSystem
from repro.cmp import replay as replay_module
from repro.cmp.replay import (P_SPLIT, P_STORE, P_WMEM, P_WRITE,
                              TraceRecorder, recorded_trace, run_alone,
                              traces_of)
from repro.errors import (CompilerError, ConfigError, SimulationError,
                          SimulationTimeout)
from repro.explore import ExplorationRunner, ParameterSpace
from repro.faults import BusFault, FaultPlan, MemoryFault
from repro.memory import RoundRobinArbiter, TdmaSchedule
from repro.program import DataSpace, ProgramBuilder
from repro.sim.cycle import CycleSimulator
from repro.sim.results import SimResult
from repro.workloads import build_kernel
from repro.workloads import images as images_module
from repro.workloads.suite import KERNEL_BUILDERS

CONFIG = PatmosConfig()

CORE_COUNTS = (1, 2, 4, 8)

#: Arbiter columns of the golden matrix: TDMA, *weighted* TDMA, round-robin
#: and priority — the policies with genuinely different tie-break and grant
#: behaviour.  Weighted TDMA uses a 2x-burst base slot so the weight-1
#: slots still fit one burst transfer at every core count.
def _arbiter_kwargs(name, cores):
    if name == "tdma":
        return {"arbiter": "tdma"}
    if name == "tdma_weighted":
        slot = 2 * CONFIG.memory.burst_cycles()
        weights = tuple(2 if core == 0 else 1 for core in range(cores))
        return {"arbiter": "tdma",
                "schedule": TdmaSchedule(num_cores=cores, slot_cycles=slot,
                                         slot_weights=weights)}
    if name == "round_robin":
        return {"arbiter": "round_robin"}
    if name == "priority":
        # Non-identity priorities so the service order differs from core
        # order (exercises the static tie-rank path).
        return {"arbiter": "priority",
                "priorities": tuple(reversed(range(cores)))}
    raise AssertionError(name)


ARBITER_NAMES = ("tdma", "tdma_weighted", "round_robin", "priority")


@pytest.fixture(scope="module")
def images():
    """One compiled image per kernel (module-cached: compilation dominates)."""
    return {name: compile_and_link(build_kernel(name).program, CONFIG)[0]
            for name in KERNEL_BUILDERS}


def _run(images_for_cores, scheduler, arbiter_name, cores, strict=True,
         max_bundles=2_000_000, **extra):
    kwargs = _arbiter_kwargs(arbiter_name, cores)
    kwargs.update(extra)
    system = MulticoreSystem(images_for_cores, CONFIG,
                             scheduler=scheduler, **kwargs)
    result = system.run(analyse=False, strict=strict,
                        max_bundles=max_bundles)
    return system, result


def _assert_identical(images_for_cores, arbiter_name, cores,
                      reference_engine="fast", **extra):
    """The event-scheduled fast engine and the quantum-polled
    ``reference_engine`` must be bit-identical on one cell."""
    event_system, event = _run(images_for_cores, "event", arbiter_name,
                               cores, **extra)
    ref_system, reference = _run(images_for_cores, "reference", arbiter_name,
                                 cores, engine=reference_engine, **extra)
    assert event.scheduler == "event"
    assert reference.scheduler == "reference"
    assert event.observed_by_core() == reference.observed_by_core()
    assert event.arbiter_stats == reference.arbiter_stats
    for event_core, ref_core in zip(event.cores, reference.cores):
        assert event_core.sim.metrics() == ref_core.sim.metrics()
        assert event_core.sim.output == ref_core.sim.output
    assert bytes(event_system.shared_memory._data) == \
        bytes(ref_system.shared_memory._data)
    return event, reference


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
@pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
def test_schedulers_identical_across_core_counts(images, kernel,
                                                 arbiter_name):
    """Event and reference scheduling agree for every matrix cell."""
    image = images[kernel]
    for cores in CORE_COUNTS:
        _assert_identical([image] * cores, arbiter_name, cores)


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
@pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
def test_engines_identical_across_core_counts(images, kernel, arbiter_name):
    """The event-driven fast engine agrees with the quantum-polled
    reference interpreter on every matrix cell."""
    image = images[kernel]
    for cores in CORE_COUNTS:
        _assert_identical([image] * cores, arbiter_name, cores,
                          reference_engine="reference")


@pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
def test_fast_engine_matches_reference_interpreter(images, arbiter_name):
    """Direct engine-vs-interpreter check: the event-driven fast-engine
    co-simulation against quantum polling of the reference interpreter."""
    mix = [images["vector_sum"], images["stream_checksum"],
           images["fir_filter"], images["saturate"]]
    _assert_identical(mix, arbiter_name, 4, reference_engine="reference")


@pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
def test_schedulers_identical_on_heterogeneous_mix(images, arbiter_name):
    """A mixed workload (diverging clocks, staggered halts) stays identical."""
    mix = [images["vector_sum"], images["stream_checksum"],
           images["fir_filter"], images["saturate"]]
    for cores in (2, 4, 8):
        _assert_identical([mix[i % len(mix)] for i in range(cores)],
                          arbiter_name, cores)


#: The cache organisations the verify and explore matrices simulate besides
#: the default: the conventional I-cache baseline, the unified data cache
#: (write-through stack stores) and an entry-less store buffer (every store
#: arbitrates for the bus).
ORGANISATIONS = {
    "conventional_icache": {
        "hierarchy_options": HierarchyOptions(conventional_icache=True)},
    "unified_data_cache": {
        "hierarchy_options": HierarchyOptions(unified_data_cache=True)},
    "no_store_buffer": {"config": dataclasses.replace(
        CONFIG, pipeline=dataclasses.replace(CONFIG.pipeline,
                                             store_buffer_entries=0))},
}


#: Kernels that between them make every kind of timing-dependent point:
#: method-cache fills, data-cache fills and write-through stores, stack
#: spills and fills, split loads and their wmem waits.
ORGANISATION_KERNELS = ("bubble_sort", "call_tree", "mixed_access",
                        "pointer_chase", "stack_chain", "stream_checksum")


@pytest.mark.parametrize("organisation", sorted(ORGANISATIONS))
@pytest.mark.parametrize("arbiter_name", ("tdma", "round_robin", "priority"))
def test_schedulers_identical_across_organisations(images, organisation,
                                                   arbiter_name):
    """Replay and quantum polling agree on every other cache organisation."""
    extra = dict(ORGANISATIONS[organisation])
    config = extra.pop("config", CONFIG)
    for kernel in ORGANISATION_KERNELS:
        for cores in (2, 4):
            _assert_identical([images[kernel]] * cores, arbiter_name, cores,
                              configs=[config] * cores, **extra)


def test_event_scheduler_is_the_default(images):
    system = MulticoreSystem([images["vector_sum"]] * 2, CONFIG)
    result = system.run(analyse=False)
    assert result.scheduler == "event"
    assert result.scheduler_stats["scheduler"] == "event"
    assert system.shared_memory is not None


def test_unknown_scheduler_rejected(images):
    with pytest.raises(ConfigError):
        MulticoreSystem([images["vector_sum"]], CONFIG,
                        scheduler="optimistic")


def test_reference_engine_falls_back_to_quantum_scheduler(images):
    """scheduler="event" needs the fast engine; the interpreter falls back —
    with identical timing, which is exactly what the fallback relies on."""
    image = images["stream_checksum"]
    fallback = MulticoreSystem([image] * 2, CONFIG,
                               scheduler="event", engine="reference")
    result = fallback.run(analyse=False, strict=True)
    assert result.scheduler == "reference"
    event = MulticoreSystem([image] * 2, CONFIG).run(
        analyse=False, strict=True)
    assert result.observed_by_core() == event.observed_by_core()


@pytest.mark.parametrize("scheduler", ("event", "reference"))
def test_max_bundles_exhaustion_raises(images, scheduler):
    """Both schedulers surface the engine's bundle-budget error."""
    mix = [images["vector_sum"], images["stream_checksum"]]
    with pytest.raises(SimulationError):
        _run(mix, scheduler, "round_robin", 2, max_bundles=20)


@pytest.mark.parametrize("arbiter_name", ("tdma", "round_robin"))
def test_staggered_halting_last_core_runs_free(images, arbiter_name):
    """Cores halting at very different times (the last one free-running to
    completion in the event scheduler) keep the equivalence."""
    # large_function runs ~30x longer than saturate, so three cores halt
    # early and one long tail exercises the single-survivor fast path.
    mix = [images["saturate"], images["saturate"], images["saturate"],
           images["large_function"]]
    event, reference = _assert_identical(mix, arbiter_name, 4)
    cycles = event.observed_by_core()
    assert max(cycles) > 2 * min(cycles)  # the tail is genuinely staggered


def test_scheduler_stats_recorded(images):
    mix = [images["vector_sum"], images["fir_filter"]]
    _, event = _run(mix, "event", "round_robin", 2)
    _, reference = _run(mix, "reference", "round_robin", 2)
    assert event.scheduler_stats["slices"] > 0
    assert event.scheduler_stats["releases"] >= 0
    # The entire point: the event scheduler re-enters the engine far less
    # often than quantum polling.
    assert event.scheduler_stats["slices"] < \
        reference.scheduler_stats["slices"]


# ---------------------------------------------------------------------------
# Trace recording and reuse
# ---------------------------------------------------------------------------

NO_STORE_BUFFER = ORGANISATIONS["no_store_buffer"]["config"]


def _fresh_image(kernel="vector_sum"):
    """An image no co-simulation has recorded a trace on yet."""
    return compile_and_link(build_kernel(kernel).program, CONFIG)[0]


def _recorded(images_for_cores, arbiter_name, **extra):
    """Traces the event scheduler had to record for one run."""
    _, result = _run(images_for_cores, "event", arbiter_name,
                     len(images_for_cores), **extra)
    return result.scheduler_stats["recorded"]


def test_plain_cores_replay_and_never_pause(images, monkeypatch):
    """Replay is the one event path of plain cores; the pause protocol of
    ``_schedule_event`` is left to the RTOS task runtimes."""
    def forbidden(*args, **kwargs):
        raise AssertionError("plain cores reached _schedule_event")

    monkeypatch.setattr(MulticoreSystem, "_schedule_event", forbidden)
    mix = [images["vector_sum"], images["stream_checksum"]]
    for arbiter_name in ARBITER_NAMES:
        _, result = _run(mix, "event", arbiter_name, 2)
        assert result.scheduler == "event"


def test_one_recording_per_image_config_hierarchy_and_strictness():
    image = _fresh_image()
    assert _recorded([image] * 2, "tdma") == 1
    for arbiter_name in ARBITER_NAMES:
        for cores in CORE_COUNTS:
            assert _recorded([image] * cores, arbiter_name) == 0
    # Each other organisation, config or strictness is its own recording.
    unified = HierarchyOptions(unified_data_cache=True)
    assert _recorded([image] * 2, "tdma", hierarchy_options=unified) == 1
    assert _recorded([image] * 4, "round_robin",
                     hierarchy_options=unified) == 0
    assert _recorded([image] * 2, "tdma", configs=[NO_STORE_BUFFER] * 2) == 1
    assert _recorded([image] * 2, "priority", strict=False) == 1
    assert _recorded([image] * 2, "round_robin", strict=False) == 0


def test_heterogeneous_mix_records_one_trace_per_distinct_image():
    first, second = _fresh_image("vector_sum"), _fresh_image("saturate")
    assert _recorded([first, second, first, second], "round_robin") == 2
    assert _recorded([second, first], "tdma") == 0
    # Heterogeneous configs on one image: one trace per config.
    assert _recorded([first, first], "tdma",
                     configs=[CONFIG, NO_STORE_BUFFER]) == 1


#: The cache organisations of the verify matrix, by their hierarchy options.
HIERARCHIES = {
    "default": HierarchyOptions(),
    "unified_data_cache": HierarchyOptions(unified_data_cache=True),
    "conventional_icache": HierarchyOptions(conventional_icache=True),
    "ideal_data_caches": HierarchyOptions(ideal_data_caches=True),
}


@pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
def test_recording_result_is_the_core_run_alone(images, hierarchy):
    """The premise of single-core points reading the recording: its result
    equals a plain single-core run, field for field."""
    options = HIERARCHIES[hierarchy]
    for kernel in sorted(KERNEL_BUILDERS):
        image = images[kernel]
        trace, _ = recorded_trace(image, CONFIG, True, options)
        alone = CycleSimulator(image, CONFIG, strict=True,
                               hierarchy_options=options).run()
        for field in dataclasses.fields(SimResult):
            assert (getattr(trace.result, field.name)
                    == getattr(alone, field.name)), (kernel, field.name)


def test_recorded_trace_records_once():
    image = _fresh_image()
    trace, fresh = recorded_trace(image, CONFIG, True)
    assert fresh
    assert recorded_trace(image, CONFIG, True) == (trace, False)
    assert _recorded([image] * 2, "round_robin") == 0
    with pytest.raises(SimulationError):
        recorded_trace(image, CONFIG, True, max_bundles=trace.bundles - 1)


def test_pickling_an_image_drops_its_traces():
    image = _fresh_image()
    _, original = _run([image] * 2, "event", "round_robin", 2)
    copy = pickle.loads(pickle.dumps(image))
    assert traces_of(image)
    assert not traces_of(copy)
    _, again = _run([copy] * 2, "event", "round_robin", 2)
    assert again.scheduler_stats["recorded"] == 1
    assert again.observed_by_core() == original.observed_by_core()


def test_cached_trace_honours_a_smaller_bundle_budget():
    """A cached trace longer than ``max_bundles`` raises exactly like the
    run that has to record it."""
    with pytest.raises(SimulationError) as fresh:
        _run([_fresh_image()] * 2, "event", "round_robin", 2, max_bundles=20)
    image = _fresh_image()
    _, result = _run([image] * 2, "event", "round_robin", 2)
    with pytest.raises(SimulationError) as cached:
        _run([image] * 2, "event", "round_robin", 2, max_bundles=20)
    assert type(cached.value) is type(fresh.value)
    assert str(cached.value) == str(fresh.value)
    # The budget is inclusive, as in the engine.
    bundles = result.cores[0].sim.bundles
    _run([image] * 2, "event", "round_robin", 2, max_bundles=bundles)
    with pytest.raises(SimulationError):
        _run([image] * 2, "event", "round_robin", 2, max_bundles=bundles - 1)


@pytest.mark.parametrize("arbiter_name", ("tdma", "round_robin"))
def test_replay_watchdog_raises_structured_timeout(arbiter_name):
    image = _fresh_image()
    _, result = _run([image] * 2, "event", arbiter_name, 2)
    makespan = result.makespan
    system = MulticoreSystem([image] * 2, CONFIG,
                             **_arbiter_kwargs(arbiter_name, 2))
    for limit in (50, makespan - 1):
        with pytest.raises(SimulationTimeout) as info:
            system.run(analyse=False, strict=True, max_cycles=limit)
        assert info.value.kind == "cycles"
        assert info.value.limit == limit
        assert info.value.context()["cycle"] >= limit
    # A budget the slowest core just meets changes nothing.
    watched = system.run(analyse=False, strict=True, max_cycles=makespan)
    assert watched.scheduler_stats["recorded"] == 0
    assert watched.observed_by_core() == result.observed_by_core()


def _store_stream(n=6):
    """Bursts of uncached stores, a write-through object store and a split
    load per iteration: the store buffer fills, and the split load waits
    for it to drain."""
    b = ProgramBuilder("store_stream")
    b.zeros("buffer", 5 * n, space=DataSpace.HEAP)
    b.zeros("last", 1, space=DataSpace.HEAP)
    f = b.function("main")
    f.li("r1", "buffer")
    f.li("r6", "last")
    f.li("r2", n)
    f.li("r3", 7)
    f.li("r5", 0)
    f.label("loop")
    for offset in range(0, 20, 4):
        f.emit("swm", "r1", offset, "r3")
    f.emit("swo", "r6", 0, "r3")
    f.emit("lwm", "r4", "r1", 8)
    f.emit("addi", "r3", "r3", 1)
    f.emit("wmem")
    f.emit("add", "r5", "r5", "r4")
    f.emit("addi", "r1", "r1", 20)
    f.emit("subi", "r2", "r2", 1)
    f.emit("cmpineq", "p1", "r2", 0)
    f.br("loop", pred="p1")
    f.loop_bound("loop", n)
    f.out("r5")
    f.halt()
    return compile_and_link(b.build(), CONFIG)[0], [sum(range(7, 7 + n))]


@pytest.mark.parametrize("entries", (0, 1, 4))
@pytest.mark.parametrize("arbiter_name", ("tdma", "round_robin", "priority"))
def test_store_buffer_and_split_loads_replay_identically(images, entries,
                                                         arbiter_name):
    """Uncached stores, write-through stores and draining split loads
    replay like quantum polling at every store-buffer size."""
    image, expected = _store_stream()
    config = dataclasses.replace(CONFIG, pipeline=dataclasses.replace(
        CONFIG.pipeline, store_buffer_entries=entries))
    for mix in ([image] * 2, [image, images["stream_checksum"]] * 2):
        event, _ = _assert_identical(mix, arbiter_name, len(mix),
                                     configs=[config] * len(mix))
        assert event.cores[0].sim.output == expected
    (trace,) = traces_of(image).values()
    assert {P_STORE, P_WRITE, P_SPLIT, P_WMEM} <= set(trace.kinds)


# ---------------------------------------------------------------------------
# One recording across method-cache configurations
# ---------------------------------------------------------------------------

#: Method-cache sizes of the reuse tests; each kernel starts at the smallest
#: it compiles for.
METHOD_CACHE_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)


def _with_method_cache(size, replacement="fifo"):
    return dataclasses.replace(CONFIG, method_cache=dataclasses.replace(
        CONFIG.method_cache, size_bytes=size, replacement=replacement))


@pytest.fixture
def memo():
    """An empty image memo, emptied again afterwards."""
    images_module._images.clear()
    yield images_module
    images_module._images.clear()


@pytest.fixture
def counts():
    """What :func:`recorded_trace` does during the test."""
    before = dict(replay_module.trace_counts)

    def delta():
        return {name: replay_module.trace_counts[name] - before[name]
                for name in ("recorded", "reused", "rejected")}
    return delta


def _recording(trace):
    return (trace.cycles, trace.kinds, trace.values, trace.result,
            trace.memory)


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
def test_reused_trace_equals_a_fresh_recording(kernel, memo, counts):
    """Over every method-cache size and both replacement policies, the
    trace :func:`recorded_trace` hands out equals a fresh recording, and it
    records exactly the configurations no earlier one of equal content
    recorded identically."""
    earlier = []  # (content hash, fresh recording) per configuration
    recorded = expected = 0
    for replacement in ("fifo", "lru"):
        compiled = False
        for size in METHOD_CACHE_SIZES:
            config = _with_method_cache(size, replacement)
            try:
                image, _ = memo.compiled_kernel(kernel, (), config)
            except CompilerError:
                assert not compiled, (kernel, size)  # only below the first
                continue
            compiled = True
            recorder = TraceRecorder(image, config, True)
            recorder.run_step()
            fresh = _recording(recorder.recording())
            trace, made = recorded_trace(image, config, True)
            assert _recording(trace) == fresh, (kernel, size, replacement)
            alone = run_alone(image, config, True)
            reference = run_alone(image, config, True, engine="reference")
            for field in dataclasses.fields(SimResult):
                assert (getattr(alone, field.name)
                        == getattr(reference, field.name)), (kernel, size)
            content = image.content_hash()
            recorded += made
            expected += (content, fresh) not in earlier
            earlier.append((content, fresh))
    assert len(memo._images) == len(earlier)  # the memo kept every image
    assert recorded == expected == counts()["recorded"]
    assert counts()["reused"] == len(earlier) - recorded


def test_method_cache_that_evicts_records_again(memo, counts):
    """call_tree compiles to equal content from 512 B up, but at 512 B its
    method cache evicts: that size records again, and the sizes that fill
    as 1024 B does reuse its trace."""
    images = {size: memo.compiled_kernel("call_tree", (),
                                         _with_method_cache(size))[0]
              for size in (256, 512, 1024, 2048, 4096)}
    assert images[512].content_hash() == images[4096].content_hash()
    assert images[256].content_hash() != images[4096].content_hash()
    made = {}
    for size in (1024, 512, 2048, 256, 4096):
        trace, made[size] = recorded_trace(images[size],
                                           _with_method_cache(size), True)
        evictions = trace.result.cache_stats["method_cache"]["evictions"]
        assert (evictions > 0) == (size <= 512)
    assert made == {1024: True, 512: True, 2048: False, 256: True,
                    4096: False}
    # 512 B was checked against 1024 B and rejected; 2048 B and 4096 B were
    # each accepted at their first candidate.
    assert counts() == {"recorded": 3, "reused": 2, "rejected": 1}
    shared = traces_of(images[1024])[
        replay_module.trace_key(_with_method_cache(1024), None, True)]
    for size in (2048, 4096):
        assert traces_of(images[size])[replay_module.trace_key(
            _with_method_cache(size), None, True)] is shared


def test_eviction_that_changes_no_stall_records_again(memo, counts):
    """main calls two leaves once each.  At 256 B under LRU the second
    leaf's fill evicts the first, which is never called again: every access
    stalls as at 512 B, but the statistics differ, so 256 B records."""
    params = (("iterations", 1), ("num_functions", 2),
              ("pad_instructions", 24))
    traces = {}
    images = []
    for size in (512, 256):
        config = _with_method_cache(size, "lru")
        image, _ = memo.compiled_kernel("call_tree", params, config)
        images.append(image)
        traces[size], made = recorded_trace(image, config, True)
        assert made
    assert traces_of(images[0]) is traces_of(images[1])
    assert counts() == {"recorded": 2, "reused": 0, "rejected": 1}
    assert traces[256].method_stalls == traces[512].method_stalls
    assert [traces[size].result.cache_stats["method_cache"]["evictions"]
            for size in (512, 256)] == [0, 1]


def test_images_of_different_content_never_share_a_trace(memo, counts,
                                                          monkeypatch):
    """Only images of equal content share a trace cache, even when every
    cheap fingerprint of the images matches."""
    monkeypatch.setattr(memo, "_code_size", lambda image: (0, 0))
    images = {size: memo.compiled_kernel("call_tree", (),
                                         _with_method_cache(size))[0]
              for size in (1024, 256, 512)}
    assert images[256].content_hash() != images[512].content_hash()
    assert traces_of(images[512]) is traces_of(images[1024])
    assert traces_of(images[256]) is not traces_of(images[1024])
    made = [recorded_trace(images[size], _with_method_cache(size), True)[1]
            for size in (1024, 256)]
    assert made == [True, True]
    assert counts() == {"recorded": 2, "reused": 0, "rejected": 0}


def test_images_compiled_outside_the_memo_share_nothing(counts):
    """An image linked directly has its own trace cache: nothing is
    offered to it from another image, and no image is hashed."""
    first = compile_and_link(build_kernel("vector_sum").program,
                             _with_method_cache(4096))[0]
    second = compile_and_link(build_kernel("vector_sum").program,
                              _with_method_cache(1024))[0]
    for image, size in ((first, 4096), (second, 1024)):
        assert recorded_trace(image, _with_method_cache(size), True)[1]
    assert counts() == {"recorded": 2, "reused": 0, "rejected": 0}
    assert "content_hash" not in first._caches


# ---------------------------------------------------------------------------
# One replay per distinct set of traces and arbitration
# ---------------------------------------------------------------------------

@pytest.fixture
def replays():
    """How many co-simulations the test replayed and reused."""
    before = dict(replay_module.trace_counts)

    def delta():
        return {name: replay_module.trace_counts[name] - before[name]
                for name in ("replays", "replays_reused")}
    return delta


def _observed(system, result):
    """Everything a co-simulation reports: per-core results, arbiter
    statistics and final state, and the shared memory's contents."""
    return ([core.sim for core in result.cores], result.arbiter_stats,
            system._arbiter_template.snapshot(),
            bytes(system.shared_memory._data))


def _forget(images_for_cores):
    for image in images_for_cores:
        replay_module.forget_replays(image)


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
def test_memo_hit_equals_a_fresh_replay(kernel, memo, replays):
    """Under twin method-cache configs, on 2 and 4 cores and under every
    arbiter, a memo hit equals a fresh replay (memo dropped) and the
    quantum scheduler: per-core results, arbiter statistics and state, and
    the shared memory."""
    twins = {}
    for size in (2048, 4096):
        config = _with_method_cache(size)
        twins[size] = (memo.compiled_kernel(kernel, (), config)[0], config)
    shared = (recorded_trace(*twins[2048], True)[0]
              is recorded_trace(*twins[4096], True)[0])
    hits = 0
    for arbiter_name in ("tdma", "round_robin", "priority"):
        for cores in (2, 4):
            kwargs = _arbiter_kwargs(arbiter_name, cores)
            for size in (2048, 4096, 4096):
                image, config = twins[size]
                mix = [image] * cores

                def run(scheduler="event"):
                    system = MulticoreSystem(mix, config,
                                             scheduler=scheduler, **kwargs)
                    return system, system.run(analyse=False, strict=True)
                before = replays()["replays_reused"]
                hit_system, hit = run()
                hits += replays()["replays_reused"] - before
                _forget(mix)
                fresh_system, fresh = run()
                assert replays()["replays_reused"] == hits
                quantum = _observed(*run("reference"))
                assert _observed(hit_system, hit) == \
                    _observed(fresh_system, fresh) == quantum, \
                    (kernel, arbiter_name, cores, size)
                assert hit.scheduler_stats == fresh.scheduler_stats
    # Every cell's second 4096 B run hits; so does the first one when the
    # twins share a trace.
    assert hits == 6 * (2 if shared else 1)


def _cell(image, config=CONFIG, arbiter_name="round_robin", cores=2,
          **extra):
    """Run one co-simulation; returns its observed outcome."""
    kwargs = _arbiter_kwargs(arbiter_name, cores)
    kwargs.update(extra)
    system = MulticoreSystem([image] * cores, config, **kwargs)
    return _observed(system, system.run(analyse=False, strict=True))


def _changed(base, **fields):
    return dataclasses.replace(CONFIG, **{
        name: dataclasses.replace(getattr(CONFIG, name), **values)
        for name, values in fields.items()}) if fields else base


@pytest.mark.parametrize("entries", (0, 1, 4))
def test_store_buffer_sizes_never_share_a_replay(entries, replays):
    image, _ = _store_stream()
    configs = [_changed(CONFIG, pipeline={"store_buffer_entries": size})
               for size in (0, 1, 4) if size != entries]
    config = _changed(CONFIG, pipeline={"store_buffer_entries": entries})
    for other in configs:
        _cell(image, other)
    outcome = _cell(image, config)
    assert replays() == {"replays": 3, "replays_reused": 0}
    assert outcome == _cell(image, config, scheduler="reference")


def test_changed_memory_timing_never_shares_a_replay(replays):
    image = _fresh_image("stream_checksum")
    slow = _changed(CONFIG, memory={"setup_cycles": 9})
    _cell(image)
    outcome = _cell(image, slow)
    assert replays() == {"replays": 2, "replays_reused": 0}
    assert outcome == _cell(image, slow, scheduler="reference")


@pytest.mark.parametrize("arbiter_name, before, after", (
    ("tdma", {}, {"schedule": TdmaSchedule(2, 28)}),
    ("tdma", {}, {"schedule": TdmaSchedule(2, 14, (2, 1))}),
    ("tdma", {"schedule": TdmaSchedule(2, 14, (2, 1))},
     {"schedule": TdmaSchedule(2, 14, (1, 2))}),
    ("priority", {"priorities": (1, 0)}, {"priorities": (0, 1)}),
    ("priority", {"priorities": (0, 1)}, {"priorities": (1, 0)}),
    ("round_robin", {}, {"cores": 4}),
))
def test_changed_arbitration_never_shares_a_replay(arbiter_name, before,
                                                   after, replays):
    """Same traces, other arbitration: slot cycles, slot weights,
    priorities or the core count."""
    image = _fresh_image("stream_checksum")
    _cell(image, arbiter_name=arbiter_name, **before)
    outcome = _cell(image, arbiter_name=arbiter_name, **after)
    assert replays() == {"replays": 2, "replays_reused": 0}
    assert outcome == _cell(image, arbiter_name=arbiter_name,
                            scheduler="reference", **after)
    # The same arbitration again is a hit.
    assert _cell(image, arbiter_name=arbiter_name, **after) == outcome
    assert replays() == {"replays": 2, "replays_reused": 1}


def test_different_traces_never_share_a_replay(memo, replays):
    """call_tree at 512 B evicts, so its trace is not the 1024 B one."""
    images = {size: memo.compiled_kernel("call_tree", (),
                                         _with_method_cache(size))[0]
              for size in (1024, 512)}
    assert traces_of(images[512]) is traces_of(images[1024])
    _cell(images[1024], _with_method_cache(1024))
    outcome = _cell(images[512], _with_method_cache(512))
    assert replays() == {"replays": 2, "replays_reused": 0}
    assert outcome == _cell(images[512], _with_method_cache(512),
                            scheduler="reference")


@pytest.mark.parametrize("bypass", ("bus_faults", "memory_flips",
                                    "max_cycles", "max_wall_s",
                                    "arbiter_object"))
def test_bypassed_runs_never_hit(bypass, replays):
    """Fault plans, an armed watchdog and a caller's arbiter object always
    replay (or, for memory flips, take the quantum loop)."""
    image = _fresh_image("stream_checksum")
    mix = [image] * 2
    kwargs, run_kwargs = {"arbiter": "round_robin"}, {}
    if bypass == "bus_faults":
        kwargs["faults"] = FaultPlan(bus_faults=(BusFault(0, 1),))
    elif bypass == "memory_flips":
        kwargs["faults"] = FaultPlan(ecc=True, memory_faults=(
            MemoryFault(cycle=10, core_id=0, addr=4, bit=1),))
    elif bypass == "arbiter_object":
        kwargs["arbiter"] = RoundRobinArbiter(2)
    else:
        run_kwargs[bypass] = 10 ** 9
    results = []
    for _ in range(3):
        system = MulticoreSystem(mix, CONFIG, **kwargs)
        results.append(_observed(system, system.run(
            analyse=False, strict=True, **run_kwargs)))
    assert results[0] == results[1] == results[2]
    expected = 0 if bypass == "memory_flips" else 3
    assert replays() == {"replays": expected, "replays_reused": 0}
    # The plain run of the same cell afterwards is a miss, then a hit.
    _cell(image)
    _cell(image)
    assert replays() == {"replays": expected + 1, "replays_reused": 1}


def test_hits_hand_out_independent_results(replays):
    image = _fresh_image("fir_filter")
    system = MulticoreSystem([image] * 2, CONFIG, arbiter="round_robin")
    fresh = system.run(analyse=False, strict=True)
    expected = copy.deepcopy([core.sim for core in fresh.cores])
    assert fresh.scheduler_stats["recorded"] == 1
    stats = {**fresh.scheduler_stats, "recorded": 0}  # this call's own
    for _ in range(2):
        hit = system.run(analyse=False, strict=True)
        assert [core.sim for core in hit.cores] == expected
        assert hit.scheduler_stats == stats
        for sim in [core.sim for core in hit.cores] + \
                [core.sim for core in fresh.cores]:
            sim.output.append(-1)
            sim.stalls.arbitration += 1
            sim.block_counts.clear()
            sim.call_counts["spurious"] = 1
            for counters in sim.cache_stats.values():
                counters.clear()
        hit.scheduler_stats["slices"] = -1
    assert replays() == {"replays": 1, "replays_reused": 2}


def test_clearing_the_traces_replays_again(replays):
    image = _fresh_image("stream_checksum")
    first = _cell(image)
    traces_of(image).clear()
    system = MulticoreSystem([image] * 2, CONFIG, arbiter="round_robin")
    result = system.run(analyse=False, strict=True)
    assert result.scheduler_stats["recorded"] == 1
    assert _observed(system, result) == first
    assert replays() == {"replays": 2, "replays_reused": 0}
    # A hit still honours a smaller bundle budget.
    bundles = result.cores[0].sim.bundles
    with pytest.raises(SimulationError, match="did not halt"):
        system.run(analyse=False, strict=True, max_bundles=bundles - 1)
    assert system.run(analyse=False, strict=True).scheduler_stats[
        "recorded"] == 0
    assert replays() == {"replays": 2, "replays_reused": 1}


#: The space of perfbench's ``explore_cosim`` workload (scaled kernels,
#: data seeded from the workload seed).
EXPLORE_COSIM_KERNELS = {
    "matmul": {"n": 12},
    "bubble_sort": {"n": 48},
    "fir_filter": {"taps": 16, "n": 256},
    "stream_checksum": {"n": 512},
    "pointer_chase": {"n": 384},
    "call_tree": {"iterations": 128},
}


def test_explore_cosim_sweep_reuses_half_its_replays(memo, replays):
    """At jobs=1 on seed 7, the 4096 B points of the 72 multicore cells
    replay the 1024 B traces under the same arbitration: 36 reuse."""
    rng = random.Random(7)
    params = {}
    for kernel, sizes in EXPLORE_COSIM_KERNELS.items():
        params[kernel] = dict(sizes)
        if kernel != "call_tree":
            params[kernel]["seed"] = rng.randrange(1, 2 ** 31)
    space = (ParameterSpace(list(EXPLORE_COSIM_KERNELS),
                            kernel_params=params, analyse_wcet=False)
             .axis("cores", [1, 2, 4, 8])
             .axis("arbiter", ["tdma", "round_robin"])
             .axis("method_cache_size", [1024, 4096]))
    outcome = ExplorationRunner(jobs=1, cache=None).run(space)
    assert outcome.ok and len(outcome.results) == 96
    assert replays() == {"replays": 36, "replays_reused": 36}
