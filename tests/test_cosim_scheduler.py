"""Golden equivalence of the event-driven and quantum co-sim schedulers.

The event-driven scheduler (``scheduler="event"``) must be a pure
performance optimisation: for every workload kernel, every arbitration
policy and every core count, its per-core cycle counts, complete simulation
metrics (stall breakdowns, cache statistics, outputs), shared-arbiter
statistics and final shared-memory image must be *bit-identical* to the
quantum-polling reference scheduler (``scheduler="reference"``).  The suite
also covers the edge paths — halting order, ``max_bundles`` exhaustion,
strict-mode runs, heterogeneous configurations and the engine fallback.

The event-driven fast engine is also checked directly against quantum
polling of the reference interpreter, on every matrix cell and on the
heterogeneous mix, so both the scheduler and the engine differ between
the two runs.
"""

import pytest

from repro import PatmosConfig, compile_and_link
from repro.cmp import MulticoreSystem
from repro.errors import ConfigError, SimulationError
from repro.memory import TdmaSchedule
from repro.workloads import build_kernel
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
    system = MulticoreSystem(images_for_cores, CONFIG, mode="cosim",
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


def test_event_scheduler_is_the_default(images):
    system = MulticoreSystem([images["vector_sum"]] * 2, CONFIG,
                             mode="cosim")
    result = system.run(analyse=False)
    assert result.scheduler == "event"
    assert result.scheduler_stats["scheduler"] == "event"
    assert system.shared_memory is not None


def test_unknown_scheduler_rejected(images):
    with pytest.raises(ConfigError):
        MulticoreSystem([images["vector_sum"]], CONFIG, mode="cosim",
                        scheduler="optimistic")


def test_reference_engine_falls_back_to_quantum_scheduler(images):
    """scheduler="event" needs the fast engine; the interpreter falls back —
    with identical timing, which is exactly what the fallback relies on."""
    image = images["stream_checksum"]
    fallback = MulticoreSystem([image] * 2, CONFIG, mode="cosim",
                               scheduler="event", engine="reference")
    result = fallback.run(analyse=False, strict=True)
    assert result.scheduler == "reference"
    event = MulticoreSystem([image] * 2, CONFIG, mode="cosim").run(
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
    assert reference.scheduler_stats["quantum"] == 1
    # The entire point: the event scheduler re-enters the engine far less
    # often than quantum polling.
    assert event.scheduler_stats["slices"] < \
        reference.scheduler_stats["slices"]
