"""Method cache: the time-predictable instruction cache of Patmos.

The method cache (Schoeberl 2004, adopted in Section 3.3 of the paper) loads
*whole functions* at call and return.  Because instruction-cache misses can
then only occur at call, return and ``brcf`` instructions, the WCET analysis
does not have to model cache state at every instruction fetch — which is the
central analysability argument for this organisation.

The cache is organised in fixed-size blocks.  A function occupies a
contiguous group of ``ceil(size / block_bytes)`` blocks; on a miss, enough
victim functions are evicted (FIFO or LRU order) to make room, and the fill
stalls the pipeline for the burst-transfer time of the whole function.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryConfig, MethodCacheConfig
from .stats import CacheStats


@dataclass(eq=False)
class _Entry:
    name: str
    size_bytes: int
    blocks: int
    last_use: int


@dataclass
class MethodCacheResult:
    """Outcome of a method-cache access."""

    hit: bool
    stall_cycles: int
    fill_words: int = 0
    evicted: tuple[str, ...] = ()
    oversized: bool = False


class MethodCache:
    """A method cache with FIFO or LRU replacement at function granularity."""

    def __init__(self, config: MethodCacheConfig, memory_config: MemoryConfig):
        self.config = config
        self.memory_config = memory_config
        self.stats = CacheStats()
        #: Resident functions in replacement order (front = next victim).
        self._entries: list[_Entry] = []
        #: The same entries by name, kept in step with ``_entries``.
        self._index: dict[str, _Entry] = {}
        self._lru = config.replacement == "lru"
        self._access_counter = 0

    # -- queries -------------------------------------------------------------------

    def blocks_for(self, size_bytes: int) -> int:
        """Number of cache blocks a function of ``size_bytes`` occupies."""
        if size_bytes <= 0:
            return 1
        return -(-size_bytes // self.config.block_bytes)

    def fits(self, size_bytes: int) -> bool:
        """True if a function of this size can reside in the cache at all."""
        return self.blocks_for(size_bytes) <= self.config.num_blocks

    def contains(self, name: str) -> bool:
        return name in self._index

    def resident_functions(self) -> list[str]:
        return [entry.name for entry in self._entries]

    def used_blocks(self) -> int:
        return sum(entry.blocks for entry in self._entries)

    def fill_cycles(self, size_bytes: int) -> int:
        """Stall cycles to load a function of ``size_bytes`` from main memory."""
        words = -(-size_bytes // 4)
        return self.memory_config.transfer_cycles(words)

    # -- access --------------------------------------------------------------------

    def hit(self, name: str) -> bool:
        """Access function ``name`` if it is resident; ``False`` otherwise.

        The allocation-free hit path of :meth:`access`: a hit updates the
        replacement order and the statistics exactly as :meth:`access`
        would; a miss changes nothing (call :meth:`access` to fill).
        """
        entry = self._index.get(name)
        if entry is None:
            return False
        self._access_counter += 1
        if self._lru:
            entry.last_use = self._access_counter
            self._entries.remove(entry)
            self._entries.append(entry)
        stats = self.stats
        stats.accesses += 1
        stats.hits += 1
        return True

    def access(self, name: str, size_bytes: int) -> MethodCacheResult:
        """Access (call/return/brcf into) function ``name`` of ``size_bytes``.

        Returns whether the access hit and how long the pipeline stalls.
        """
        if self.hit(name):
            return MethodCacheResult(hit=True, stall_cycles=0)

        self._access_counter += 1
        fill_words = -(-size_bytes // 4)
        stall = self.fill_cycles(size_bytes)
        if not self.fits(size_bytes):
            # Oversized functions stream through the cache without being kept;
            # the compiler's function splitter is expected to avoid this case.
            self.stats.record(hit=False, fill_words=fill_words, stall_cycles=stall)
            return MethodCacheResult(hit=False, stall_cycles=stall,
                                     fill_words=fill_words, oversized=True)

        needed = self.blocks_for(size_bytes)
        evicted: list[str] = []
        while self.config.num_blocks - self.used_blocks() < needed:
            victim = self._entries.pop(0)
            del self._index[victim.name]
            evicted.append(victim.name)
            self.stats.evictions += 1
        entry = _Entry(name=name, size_bytes=size_bytes, blocks=needed,
                       last_use=self._access_counter)
        self._entries.append(entry)
        self._index[name] = entry
        self.stats.record(hit=False, fill_words=fill_words, stall_cycles=stall)
        return MethodCacheResult(hit=False, stall_cycles=stall,
                                 fill_words=fill_words, evicted=tuple(evicted))

    def flush(self) -> None:
        """Invalidate all cached functions."""
        self._entries.clear()
        self._index.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MethodCache(blocks={self.config.num_blocks}, "
                f"resident={self.resident_functions()})")

