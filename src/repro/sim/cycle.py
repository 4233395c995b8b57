"""Cycle-accurate Patmos simulator with the time-predictable memory hierarchy.

On top of the architectural semantics of :class:`~repro.sim.base.BaseSimulator`
this simulator charges stall cycles for:

* method-cache fills at call, return and ``brcf`` (or per-fetch misses of the
  conventional instruction-cache baseline);
* misses in the static/constant cache and the object/heap cache;
* stack-cache spill and fill traffic caused by ``sres``/``sens``;
* split main-memory loads (the ``wmem`` wait time) and the store buffer;
* TDMA arbitration delays when the core is part of a chip multiprocessor.

The pipeline itself never stalls for hazards: operand delays are exposed at
the ISA level and must be respected by the compiler (checked with
``strict=True``).
"""

from __future__ import annotations

from typing import Optional

from ..config import PatmosConfig
from ..caches.hierarchy import CacheHierarchy, HierarchyOptions
from ..caches.stack_cache import StackCache
from ..isa.instruction import Bundle
from ..isa.opcodes import MemType, Opcode
from ..memory.controller import MemoryController
from ..program.linker import FunctionRecord, Image
from .base import BaseSimulator


class CycleSimulator(BaseSimulator):
    """Cycle-accurate simulator of one Patmos core."""

    def __init__(self, image: Image, config: Optional[PatmosConfig] = None,
                 strict: bool = False, trace: bool = False,
                 hierarchy_options: Optional[HierarchyOptions] = None,
                 arbiter=None, core_id: int = 0, engine: str = "fast",
                 memory=None):
        self._hierarchy_options = hierarchy_options or HierarchyOptions()
        self._config_for_hierarchy = config
        super().__init__(image, config=config, strict=strict, trace=trace,
                         engine=engine, memory=memory)
        self.core_id = core_id
        self.hierarchy = CacheHierarchy(self.config, self._hierarchy_options)
        # Share the single stack-cache model between hierarchy and executor.
        self.hierarchy.stack_cache = self.stack_cache
        self.controller = MemoryController(
            self.memory, self.config.memory,
            arbiter=arbiter,
            store_buffer_entries=self.config.pipeline.store_buffer_entries)

    # ------------------------------------------------------------------
    # Timing hooks
    # ------------------------------------------------------------------

    def _on_start(self) -> None:
        # Loading the entry function into the method cache is the first
        # memory transfer of a real system; charge it so that method-cache
        # statistics cover the whole execution.
        entry = self.image.function_at(self.image.entry_addr)
        stall = self._method_cache_stall(entry)
        self.stalls.method_cache += stall
        self.cycles += stall

    def _make_stack_cache(self) -> StackCache:
        return StackCache(self.config.stack_cache, self.config.memory,
                          self.config.memory_map.stack_top)

    def _memory_event_source(self):
        # Every arbitrated transfer ticks the arbiter's ``events`` counter
        # (ArbiterPort and its fault-injecting wrapper both count), which is
        # what run-until-memory-event stepping watches.
        arbiter = self.controller.arbiter
        if arbiter is not None and hasattr(arbiter, "events"):
            return arbiter
        return None

    def _fetch_stall(self, addr: int, bundle: Bundle) -> int:
        if self.hierarchy.uses_method_cache:
            return 0
        stall = self.hierarchy.fetch_stall(addr)
        if bundle.size_bytes > 4:
            stall += self.hierarchy.fetch_stall(addr + 4)
        return stall

    def _engine_fetch_hook(self):
        # With the method cache, instruction fetch never stalls per bundle
        # (fills are charged at call/return/brcf); let the fast engine skip
        # the per-fetch call entirely in that configuration — unless a
        # subclass overrode _fetch_stall, whose behaviour must be preserved.
        if self.hierarchy.uses_method_cache and \
                type(self)._fetch_stall is CycleSimulator._fetch_stall:
            return None
        return self._fetch_stall

    def _count_bus_words(self, words: int) -> None:
        """Account main-memory bus traffic (cache fills, spills, splits).

        The memory controller's own stats only cover the store traffic
        routed through it; fills, spills and split loads are priced by the
        hooks below, so they record their word counts here to keep
        ``ControllerStats.words_transferred`` a genuine bus-traffic metric.
        """
        self.controller.stats.words_transferred += words

    def _method_cache_stall(self, record: FunctionRecord) -> int:
        method_cache = self.hierarchy.method_cache
        if method_cache is None or method_cache.hit(record.name):
            return 0
        result = method_cache.access(record.name, record.size_bytes)
        self._count_bus_words(result.fill_words)
        return result.stall_cycles + self._arbitration(result.fill_words,
                                                       "method_cache")

    def _bus_cycles(self, words: int) -> int:
        """Bus occupancy of one arbitrated transfer (at most one burst)."""
        memory = self.config.memory
        return min(memory.transfer_cycles(min(words, memory.burst_words)),
                   memory.burst_cycles())

    def _arbitration(self, words: int, stall: str) -> int:
        """Arbitration wait of a ``words``-word transfer issued this bundle.

        ``stall`` names the :class:`~repro.sim.results.StallBreakdown` field
        the wait ends up in (``"split_load_wait"`` for a split load, whose
        wait only moves its ready cycle); the trace recorder of
        :mod:`repro.cmp.replay` keys its points on it.
        """
        if self.controller.arbiter is None:
            return 0
        wait = self.controller.arbiter.arbitration_delay(
            self.cycles, self._bus_cycles(words))
        self.stalls.arbitration += wait
        return wait

    def _buffer_store(self, stall: str) -> int:
        """Store-buffer stall of one store issued this bundle.

        ``stall`` names the stall field charged, as for :meth:`_arbitration`.
        """
        return self.controller.buffer_store(self.cycles)

    def _cached_read_stall(self, mem_type: MemType, addr: int) -> int:
        if mem_type is MemType.LOCAL:
            return self.scratchpad.access_cycles()
        stall = self.hierarchy.data_read(mem_type, addr)
        if stall > 0:
            line_words = self.config.static_cache.line_bytes // 4
            self._count_bus_words(line_words)
            stall += self._arbitration(line_words, "data_cache")
        return stall

    def _cached_write_stall(self, mem_type: MemType, addr: int) -> int:
        if mem_type is MemType.LOCAL:
            return self.scratchpad.access_cycles()
        stall = self.hierarchy.data_write(mem_type, addr)
        # Write-through traffic (static/object caches — and stack data when
        # the unified baseline is used) goes through the store buffer.  Stack
        # cache writes stay on chip; their memory traffic happens at spill
        # time and is charged by the sres instruction.
        write_through = mem_type in (MemType.STATIC, MemType.OBJECT) or (
            mem_type is MemType.STACK
            and self._hierarchy_options.unified_data_cache)
        if write_through:
            stall += self._buffer_store("data_cache")
        return stall

    def _stack_control_stall(self, opcode: Opcode, words: int) -> int:
        # Compute the spill/fill cost without mutating the stack cache twice:
        # peek at the occupancy change the base class is about to apply.
        cache = self.stack_cache
        if opcode is Opcode.SRES:
            new_occupancy = cache.occupancy_bytes + 4 * words
            spill_bytes = max(0, new_occupancy - cache.size_bytes)
            stall = self.config.memory.transfer_cycles(spill_bytes // 4)
            if spill_bytes:
                self._count_bus_words(spill_bytes // 4)
                stall += self._arbitration(spill_bytes // 4, "stack_cache")
            return stall
        if opcode is Opcode.SENS:
            fill_bytes = max(0, 4 * words - cache.occupancy_bytes)
            stall = self.config.memory.transfer_cycles(fill_bytes // 4)
            if fill_bytes:
                self._count_bus_words(fill_bytes // 4)
                stall += self._arbitration(fill_bytes // 4, "stack_cache")
            return stall
        return 0

    def _main_store_stall(self, addr: int, value: int, width: int) -> int:
        # The base simulator writes the value to memory; only the write-buffer
        # timing is charged here.
        return self._buffer_store("store_buffer")

    def _split_load_latency(self) -> int:
        self._count_bus_words(1)
        latency = self.config.memory.transfer_cycles(1)
        latency += self._arbitration(1, "split_load_wait")
        # A load must not overtake buffered stores to main memory.
        latency += self.controller.drain_cycles(self.cycles)
        return latency

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _cache_stats(self) -> dict[str, dict]:
        stats = self.hierarchy.stats_summary()
        stats["stack_cache"] = vars(self.stack_cache.stats).copy()
        stats["memory_controller"] = vars(self.controller.stats).copy()
        return stats
