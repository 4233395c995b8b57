"""Record once, replay per core: trace-driven co-simulation of plain cores.

Patmos is statically scheduled, and in a co-simulation every core runs on a
private bank of the shared memory.  Without faults or interrupts a core's
control flow, its data and its cache hit/miss sequence therefore never
depend on timing.  Only three things do:

* the wait of every transfer the shared arbiter grants (method-cache fills,
  data-cache line fills, stack spills and fills, split loads, and stores
  when the store buffer has no entries);
* the store-buffer stall of every buffered store, which depends on when the
  earlier stores drain;
* the ``wmem`` stall of every split load, which depends on when the load's
  transfer was granted and on the drains it had to wait for.

:class:`TraceRecorder` runs a core once, alone and with zero-wait
arbitration, on the fast engine, and records those *points* in order, each
at the start cycle of its bundle.  The result is a :class:`CoreTrace`: the
points, the timing-independent :class:`~repro.sim.results.SimResult` fields
and the final bank contents.  :class:`TraceReplay` then re-derives every
wait, store-buffer stall and ``wmem`` stall of one core against its real
arbiter port, shifting the recorded timeline by the extra delay accumulated
so far.  Memory and control instructions issue only in a bundle's first
slot (Section 3.1), so a bundle makes at most one point, and a point's
replayed stamp is its recorded cycle plus the extra delay of the points
before it.

The scheduler in :mod:`repro.cmp.system` decides the global order in which
the replays reach the shared arbiter.  Replaying a trace interprets no
bundles, so the cost of a co-simulation scales with the number of bus
events, not with the number of bundles the cores issue.

Each (image, config, hierarchy, strict) is recorded once, and a recording
can also serve other method-cache configurations.  The method cache loads
whole functions, and only at call, return and ``brcf`` (Section 3.3), so
the only thing its configuration changes in a recording is the stall of
those accesses.  A recording also logs every method-cache access: the
function and the stall it cost.  Images of equal content linked for
configs that differ only in the method cache may share one trace cache
(:func:`share_traces`; the image memo of :mod:`repro.workloads.images`
does so).  When such a cache has no trace for a key, :func:`recorded_trace`
takes one recorded under another method-cache configuration, replays its
log through a fresh :class:`~repro.caches.method_cache.MethodCache` of the
requested configuration and reuses the trace if every access stalls as
logged and the final statistics are equal: then every point, the result
and the bank contents are those a new recording would give (a trace-driven
cache evaluation in the manner of Mattson et al., 1970).  Otherwise it
records as usual.

A co-simulation of plain cores is then a pure function of its cores' traces
and of the arbitration: the arbiter's kind and geometry, and each core's
memory timing and store-buffer size, the only parts of its config a
:class:`TraceReplay` reads.  So each distinct set of traces and arbitration
is replayed once.
:meth:`~repro.cmp.system.MulticoreSystem._schedule_replay` keeps the
:class:`ReplayOutcome` of every core, the scheduler statistics and the
arbiter's final state in :attr:`CoreTrace.replays` of the first core's
trace, and a later co-simulation of the same traces under the same
arbitration returns those instead of replaying again.  The memo lives and
dies with the trace, so clearing :func:`traces_of` an image drops it too.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..caches.hierarchy import HierarchyOptions
from ..caches.method_cache import MethodCache
from ..config import PatmosConfig
from ..errors import SimulationError
from ..memory.controller import MemoryController
from ..memory.main_memory import PAGE_BYTES, MainMemory
from ..program.linker import FunctionRecord, Image
from ..sim.cycle import CycleSimulator
from ..sim.results import SimResult, StallBreakdown

# Point kinds.  Kinds below P_STORE always make an arbitrated request;
# stores do so only when the store buffer has no entries.
P_METHOD = 0       # method-cache fill; value = bus cycles
P_DATA = 1         # data-cache line fill; value = bus cycles
P_STACK = 2        # stack-cache spill or fill; value = bus cycles
P_SPLIT = 3        # split-load start; value = bus cycles
P_STORE = 4        # uncached store; value = recorded store-buffer stall
P_WRITE = 5        # write-through store; value = recorded store-buffer stall
P_WMEM = 6         # wmem completing a split load; value = recorded stall

_ARBITRATED_KINDS = {"method_cache": P_METHOD, "data_cache": P_DATA,
                     "stack_cache": P_STACK, "split_load_wait": P_SPLIT}
_STORE_KINDS = {"store_buffer": P_STORE, "data_cache": P_WRITE}


def trace_key(config: PatmosConfig,
              hierarchy_options: Optional[HierarchyOptions],
              strict: bool) -> tuple:
    """Cache key of a core's trace on its image."""
    options = hierarchy_options or HierarchyOptions()
    return (config, options.unified_data_cache, options.conventional_icache,
            options.ideal_data_caches, options.icache_config, strict)


def traces_of(image: Image) -> dict:
    """The traces cached on ``image``, by :func:`trace_key`.

    Only complete recordings belong here.  The cache may be shared with
    images of equal content (:func:`share_traces`).  Pickling an image
    drops it, and clearing the dict makes the next co-simulation record
    and replay again.
    """
    return image._caches.setdefault("cosim_traces", {})


def share_traces(image: Image, twin: Image) -> None:
    """Give ``image`` the trace cache of ``twin``, an image of equal content
    linked for a config that differs only in the method cache, so that
    :func:`recorded_trace` can offer ``image`` the twin's recordings."""
    image._caches["cosim_traces"] = traces_of(twin)


def forget_replays(image: Image) -> None:
    """Drop the replay memo (:attr:`CoreTrace.replays`) of ``image``'s
    traces but keep the traces, so that the next co-simulation replays
    without recording."""
    for trace in traces_of(image).values():
        trace.replays.clear()


#: What :func:`recorded_trace` has done in this process: traces recorded,
#: traces reused from another method-cache configuration, candidates whose
#: method-cache accesses did not replay identically, and the seconds spent
#: on cache misses (recording, or checking candidates); and what the event
#: scheduler of :mod:`repro.cmp.system` has done: co-simulations replayed,
#: co-simulations answered from :attr:`CoreTrace.replays`, and the seconds
#: spent replaying.
trace_counts = {"recorded": 0, "reused": 0, "rejected": 0, "miss_s": 0.0,
                "replays": 0, "replays_reused": 0, "replay_s": 0.0}


def recorded_trace(image: Image, config: PatmosConfig, strict: bool,
                   hierarchy_options: Optional[HierarchyOptions] = None,
                   max_bundles: int = 2_000_000,
                   drive: Optional[Callable[[TraceRecorder], None]] = None
                   ) -> tuple[CoreTrace, bool]:
    """The trace of ``image`` run alone on ``config``, cached or recorded now.

    Returns the trace and whether this call recorded it.  A trace not yet
    cached for ``config`` is reused when the cache holds one recorded under
    another method-cache configuration whose method-cache accesses replay
    on ``config``'s method cache with the same stalls and statistics (the
    module docstring says why that suffices); otherwise it is recorded: a
    :class:`TraceRecorder` runs to its halt, driven by ``drive`` (a
    co-simulation steps it under its watchdog), by default within
    ``max_bundles``.  Only a recording that halted is cached; a cached or
    reused trace longer than ``max_bundles`` raises as its run would have.
    The trace's ``result`` equals that of the same core run alone by
    :class:`~repro.sim.cycle.CycleSimulator`; it is shared, so callers copy
    before they mutate it.
    """
    traces = traces_of(image)
    key = trace_key(config, hierarchy_options, strict)
    trace = traces.get(key)
    if trace is None:
        started = time.perf_counter()
        try:
            # A conventional instruction cache takes its size from the
            # method cache's, so only cores with a method cache reuse.
            if hierarchy_options is None or \
                    not hierarchy_options.conventional_icache:
                trace = _reusable_trace(traces, key)
            if trace is None:
                recorder = TraceRecorder(image, config, strict,
                                         hierarchy_options)
                if drive is None:
                    recorder.run_step(max_bundles=max_bundles)
                else:
                    drive(recorder)
                trace = traces[key] = recorder.recording()
                trace_counts["recorded"] += 1
                return trace, True
            traces[key] = trace
        finally:
            trace_counts["miss_s"] += time.perf_counter() - started
    if trace.bundles > max_bundles:
        raise SimulationError(
            f"program did not halt within {max_bundles} bundles")
    return trace, False


def _reusable_trace(traces: dict, key: tuple) -> Optional[CoreTrace]:
    """A trace in ``traces`` recorded under a key that differs from ``key``
    only in the method cache and that a recording under ``key`` would
    equal, or ``None``."""
    config = key[0]
    method_cache = config.method_cache
    for other_key, trace in traces.items():
        other = other_key[0]
        if other.method_cache == method_cache or other_key[1:] != key[1:] \
                or replace(other, method_cache=method_cache) != config:
            continue
        if _replays_identically(trace, config):
            trace_counts["reused"] += 1
            return trace
        trace_counts["rejected"] += 1
    return None


def _replays_identically(trace: CoreTrace, config: PatmosConfig) -> bool:
    """Whether ``trace``'s method-cache accesses, replayed on ``config``'s
    method cache, stall exactly as recorded and end with its statistics."""
    cache = MethodCache(config.method_cache, config.memory)
    access = cache.access
    for record, stall in zip(trace.method_functions, trace.method_stalls):
        if access(record.name, record.size_bytes).stall_cycles != stall:
            return False
    return vars(cache.stats) == trace.result.cache_stats["method_cache"]


def run_alone(image: Image, config: PatmosConfig, strict: bool,
              hierarchy_options: Optional[HierarchyOptions] = None,
              engine: str = "fast") -> SimResult:
    """The result of ``image`` run alone on one core of ``config``.

    On the fast engine this is the result of the image's recording
    (:func:`recorded_trace`), so every single-core cell, loop check and
    co-simulation of one (image, config, hierarchy, strict) shares one run,
    and so do method-cache configurations that change no fill; the result
    is shared and read-only.  Any other engine runs a fresh
    :class:`~repro.sim.cycle.CycleSimulator`, the oracle.
    """
    if engine == "fast":
        return recorded_trace(image, config, strict,
                              hierarchy_options)[0].result
    return CycleSimulator(image, config=config, strict=strict,
                          hierarchy_options=hierarchy_options,
                          engine=engine).run()


@dataclass
class CoreTrace:
    """One core's timing-dependent points and its timing-independent result."""

    #: Recorded start cycle of the bundle of each point.
    cycles: array
    #: Point kind (``P_*``) of each point.
    kinds: array
    #: Bus cycles of a request, or the recorded stall of a store or wmem.
    values: array
    #: The zero-wait run's result; every field but the clock and the
    #: timing-dependent stalls holds for any replay.
    result: SimResult
    #: Final contents of the core's bank
    #: (:meth:`~repro.memory.main_memory.MainMemory.nonzero_regions`).
    memory: tuple
    #: The function of every method-cache access, in order.
    method_functions: list[FunctionRecord]
    #: The stall each of those accesses cost (0 for a hit).
    method_stalls: array
    #: Finished co-simulations whose first core ran this trace, by the
    #: traces and arbitration they replayed (the module docstring says
    #: why that suffices); filled by the event scheduler.
    replays: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def bundles(self) -> int:
        return self.result.bundles


class _TrackedMemory(MainMemory):
    """Main memory that remembers which pages were ever written."""

    def __init__(self, size_bytes: int):
        super().__init__(size_bytes)
        self.pages: set[int] = set()

    def write(self, addr: int, value: int, width: int) -> None:
        self.pages.add(addr // PAGE_BYTES)
        super().write(addr, value, width)

    def write_u32(self, addr: int, value: int) -> None:
        self.pages.add(addr // PAGE_BYTES)
        super().write_u32(addr, value)


class TraceRecorder(CycleSimulator):
    """A core run alone with zero-wait arbitration, recording its points
    and its method-cache accesses.

    Drive it with :meth:`run_step` (the fast engine) and call
    :meth:`recording` once it has halted.
    """

    def __init__(self, image: Image, config: PatmosConfig, strict: bool,
                 hierarchy_options: Optional[HierarchyOptions] = None):
        super().__init__(image, config=config, strict=strict,
                         hierarchy_options=hierarchy_options,
                         memory=_TrackedMemory(config.memory.size_bytes))
        self._cycles = array("q")
        self._kinds = array("b")
        self._values = array("q")
        self._method_functions: list[FunctionRecord] = []
        self._method_stalls = array("q")

    def _point(self, kind: int, value: int) -> None:
        self._cycles.append(self.cycles)
        self._kinds.append(kind)
        self._values.append(value)

    def _arbitration(self, words: int, stall: str) -> int:
        self._point(_ARBITRATED_KINDS[stall], self._bus_cycles(words))
        return 0

    def _method_cache_stall(self, record: FunctionRecord) -> int:
        stall = super()._method_cache_stall(record)
        self._method_functions.append(record)
        self._method_stalls.append(stall)
        return stall

    def _buffer_store(self, stall: str) -> int:
        # No arbiter is attached, so a store into an entry-less buffer costs
        # its bare write cycles here; the replay adds the wait.
        cycles = super()._buffer_store(stall)
        self._point(_STORE_KINDS[stall], cycles)
        return cycles

    def _split_load_wait(self, ready_cycle: int) -> int:
        cycles = super()._split_load_wait(ready_cycle)
        self._point(P_WMEM, cycles)
        return cycles

    def recording(self) -> CoreTrace:
        """The recording of this (halted) run."""
        return CoreTrace(cycles=self._cycles, kinds=self._kinds,
                         values=self._values, result=self.result(),
                         memory=self.memory.nonzero_regions(
                             self.memory.pages),
                         method_functions=self._method_functions,
                         method_stalls=self._method_stalls)


class TraceReplay:
    """Replays one :class:`CoreTrace` against a core's arbiter port.

    The store buffer is the real :class:`MemoryController` one, fed the
    replayed stamps; requests go through ``port`` (an
    :class:`~repro.memory.arbiter.ArbiterPort`, fault-wrapped when a bus
    plan is armed).  :meth:`advance` replays up to the next bundle that
    makes a request and returns its stamp, so a scheduler can hand the
    shared arbiter the requests of all cores in global order.
    """

    def __init__(self, trace: CoreTrace, port, config: PatmosConfig):
        self.trace = trace
        self.port = port
        entries = config.pipeline.store_buffer_entries
        self.controller = MemoryController(None, config.memory, arbiter=port,
                                           store_buffer_entries=entries)
        self.split_cycles = config.memory.transfer_cycles(1)
        #: Kinds below this one make arbitrated requests.
        self.request_limit = P_WMEM if entries == 0 else P_STORE
        self.pos = 0
        #: Replayed minus recorded clock after the points replayed so far.
        self.shift = 0
        #: Replayed ready cycle of the outstanding split load.
        self.ready = 0
        #: Extra stall per point kind, and the arbitration waits of fills,
        #: spills and split loads.
        self.extra = [0] * (P_WMEM + 1)
        self.arbitration = 0

    @property
    def cycles(self) -> int:
        """The replayed clock once the trace is exhausted."""
        return self.trace.result.cycles + self.shift

    def advance(self, granted: bool = True,
                ordered: bool = True) -> Optional[int]:
        """Replay up to the next request; return its stamp.

        ``granted`` replays the request the core stopped at (the scheduler
        serving it); ``ordered=False`` replays to the end without stopping,
        for arbiters whose grants do not depend on request order.  Returns
        ``None`` once the trace is exhausted.
        """
        trace = self.trace
        cycles = trace.cycles
        kinds = trace.kinds
        values = trace.values
        n = len(cycles)
        i = self.pos
        limit = self.request_limit if ordered else -1
        shift = self.shift
        extra = self.extra
        port = self.port
        controller = self.controller
        try:
            while i < n:
                k = kinds[i]
                stamp = cycles[i] + shift
                if k < limit and not granted:
                    return stamp
                granted = False
                if k < P_SPLIT:
                    wait = port.arbitration_delay(stamp, values[i])
                    self.arbitration += wait
                    extra[k] += wait
                    shift += wait
                elif k == P_SPLIT:
                    wait = port.arbitration_delay(stamp, values[i])
                    self.arbitration += wait
                    self.ready = (stamp + self.split_cycles + wait
                                  + controller.drain_cycles(stamp))
                elif k == P_WMEM:
                    stall = self.ready - stamp
                    delta = (stall if stall > 0 else 0) - values[i]
                    extra[k] += delta
                    shift += delta
                else:
                    delta = controller.buffer_store(stamp) - values[i]
                    extra[k] += delta
                    shift += delta
                i += 1
            return None
        finally:
            self.pos = i
            self.shift = shift

    def outcome(self) -> ReplayOutcome:
        """What this (finished) replay adds to its trace's result."""
        store_stats = self.controller.stats
        return ReplayOutcome(self.trace, self.shift, tuple(self.extra),
                             self.arbitration,
                             store_stats.write_stall_cycles,
                             store_stats.arbitration_cycles)


@dataclass(frozen=True, slots=True)
class ReplayOutcome:
    """The end state of a finished :class:`TraceReplay`: the shift of its
    clock, the extra stall per point kind, the arbitration waits and the
    store buffer's statistics.  It is all a core's result needs besides
    the trace, so the replay memo keeps it instead of the replay."""

    trace: CoreTrace
    shift: int
    extra: tuple
    arbitration: int
    write_stall_cycles: int
    arbitration_cycles: int

    def result(self) -> SimResult:
        """The core's result: the recording's, on the replayed clock; a
        new object on every call."""
        recorded = self.trace.result
        extra = self.extra
        stalls = StallBreakdown(**recorded.stalls.to_dict())
        stalls.method_cache += extra[P_METHOD]
        stalls.data_cache += extra[P_DATA] + extra[P_WRITE]
        stalls.stack_cache += extra[P_STACK]
        stalls.store_buffer += extra[P_STORE]
        stalls.split_load_wait += extra[P_WMEM]
        stalls.arbitration = self.arbitration
        cache_stats = {name: dict(counters)
                       for name, counters in recorded.cache_stats.items()}
        cache_stats["memory_controller"].update(
            write_stall_cycles=self.write_stall_cycles,
            arbitration_cycles=self.arbitration_cycles)
        return SimResult(
            cycles=recorded.cycles + self.shift, bundles=recorded.bundles,
            instructions=recorded.instructions, nops=recorded.nops,
            output=list(recorded.output), stalls=stalls,
            block_counts=dict(recorded.block_counts),
            call_counts=dict(recorded.call_counts),
            cache_stats=cache_stats, halted=recorded.halted,
            issue_width=recorded.issue_width)
