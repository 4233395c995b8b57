"""Cache hierarchy wiring for one Patmos core.

:class:`CacheHierarchy` bundles the typed caches of one core (method cache,
stack cache, static/constant cache, object cache, scratchpad) and offers the
dispatch used by the cycle-accurate simulator: given a typed memory access it
selects the right cache and returns the stall cycles.

Two baseline organisations are provided for the experiments:

* ``unified_data_cache=True`` routes *all* typed data accesses (static,
  object and stack) through a single conventional cache — the baseline for
  experiment E5;
* ``conventional_icache=True`` replaces the method cache by a conventional
  set-associative instruction cache accessed on every fetch — the baseline
  for experiment E4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PatmosConfig, SetAssocCacheConfig
from ..isa.opcodes import MemType
from .method_cache import MethodCache
from .set_assoc import IdealCache, SetAssociativeCache
from .stack_cache import StackCache


@dataclass
class HierarchyOptions:
    """Cache-organisation variants used by the experiments."""

    unified_data_cache: bool = False
    conventional_icache: bool = False
    ideal_data_caches: bool = False
    icache_config: Optional[SetAssocCacheConfig] = None


class CacheHierarchy:
    """All caches of one Patmos core."""

    def __init__(self, config: PatmosConfig,
                 options: Optional[HierarchyOptions] = None):
        self.config = config
        self.options = options or HierarchyOptions()

        self.method_cache: Optional[MethodCache] = None
        self.icache: Optional[SetAssociativeCache] = None
        if self.options.conventional_icache:
            icache_config = self.options.icache_config or SetAssocCacheConfig(
                size_bytes=config.method_cache.size_bytes,
                line_bytes=16,
                associativity=2,
            )
            self.icache = SetAssociativeCache(
                icache_config, config.memory, name="icache")
        else:
            self.method_cache = MethodCache(config.method_cache, config.memory)

        self.stack_cache = StackCache(
            config.stack_cache, config.memory, config.memory_map.stack_top)

        if self.options.ideal_data_caches:
            self.static_cache = IdealCache("static")
            self.object_cache = IdealCache("object")
        elif self.options.unified_data_cache:
            unified = SetAssociativeCache(
                config.static_cache, config.memory, name="unified")
            self.static_cache = unified
            self.object_cache = unified
        else:
            self.static_cache = SetAssociativeCache(
                config.static_cache, config.memory, name="static")
            self.object_cache = SetAssociativeCache(
                config.data_cache, config.memory, name="object")

    # -- instruction side ---------------------------------------------------------

    def fetch_stall(self, addr: int) -> int:
        """Stall cycles of one instruction fetch: a conventional
        instruction-cache access, or 0 with the method cache."""
        if self.icache is None:
            return 0
        return self.icache.read_stall(addr)

    @property
    def uses_method_cache(self) -> bool:
        return self.method_cache is not None

    # -- data side ------------------------------------------------------------------

    def data_cache_for(self, mem_type: MemType):
        """Return the cache object serving a typed access (or None for main/SP)."""
        if mem_type is MemType.STATIC:
            return self.static_cache
        if mem_type is MemType.OBJECT:
            return self.object_cache
        if mem_type is MemType.STACK:
            return self.stack_cache
        return None

    def data_read(self, mem_type: MemType, addr: int) -> int:
        """Stall cycles of a typed data read (cache side only)."""
        if mem_type is MemType.STACK:
            if self.options.unified_data_cache:
                # Baseline: stack data competes with everything else in the
                # single unified cache.
                return self.static_cache.read_stall(addr)
            # Stack-cache hits are guaranteed by construction; the check that
            # the access falls into the cached window happens in the simulator.
            return 0
        if mem_type is MemType.STATIC:
            return self.static_cache.read_stall(addr)
        if mem_type is MemType.OBJECT:
            return self.object_cache.read_stall(addr)
        return 0

    def data_write(self, mem_type: MemType, addr: int) -> int:
        """Stall cycles of a typed data write (cache side only)."""
        if mem_type is MemType.STACK:
            if self.options.unified_data_cache:
                return self.static_cache.write_stall(addr)
            return 0
        if mem_type is MemType.STATIC:
            return self.static_cache.write_stall(addr)
        if mem_type is MemType.OBJECT:
            return self.object_cache.write_stall(addr)
        return 0

    # -- statistics -------------------------------------------------------------------

    def stats_summary(self) -> dict[str, dict]:
        """Per-cache statistics as plain dictionaries (for reports)."""
        summary: dict[str, dict] = {}
        if self.method_cache is not None:
            summary["method_cache"] = vars(self.method_cache.stats).copy()
        if self.icache is not None:
            summary["icache"] = vars(self.icache.stats).copy()
        summary["stack_cache"] = vars(self.stack_cache.stats).copy()
        summary["static_cache"] = vars(self.static_cache.stats).copy()
        if self.object_cache is not self.static_cache:
            summary["object_cache"] = vars(self.object_cache.stats).copy()
        return summary
