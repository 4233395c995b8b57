"""Tests for the method cache, set-associative caches and the stack cache."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import (
    CacheHierarchy,
    HierarchyOptions,
    IdealCache,
    MethodCache,
    SetAssociativeCache,
    StackCache,
)
from repro.caches.stats import CacheStats
from repro.config import (
    MemoryConfig,
    MethodCacheConfig,
    PatmosConfig,
    SetAssocCacheConfig,
    StackCacheConfig,
)
from repro.errors import StackCacheError
from repro.isa import MemType

MEM = MemoryConfig(burst_words=4, setup_cycles=6, cycles_per_word=2)


class TestMethodCache:
    def _cache(self, replacement="fifo"):
        return MethodCache(MethodCacheConfig(size_bytes=1024, num_blocks=4,
                                             replacement=replacement), MEM)

    def test_first_access_misses_then_hits(self):
        cache = self._cache()
        first = cache.access("f", 200)
        assert not first.hit and first.stall_cycles > 0
        second = cache.access("f", 200)
        assert second.hit and second.stall_cycles == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_fill_cost_scales_with_function_size(self):
        cache = self._cache()
        small = cache.access("small", 16).stall_cycles
        large = cache.access("large", 512).stall_cycles
        assert large > small
        assert small == MEM.transfer_cycles(4)

    def test_blocks_for(self):
        cache = self._cache()
        assert cache.blocks_for(1) == 1
        assert cache.blocks_for(256) == 1
        assert cache.blocks_for(257) == 2

    def test_fifo_eviction_order(self):
        cache = self._cache()
        for name in ("a", "b", "c", "d"):
            cache.access(name, 256)  # each occupies one block
        result = cache.access("e", 256)
        assert "a" in result.evicted
        assert not cache.contains("a")
        assert cache.contains("b")

    def test_lru_eviction_order(self):
        cache = self._cache(replacement="lru")
        for name in ("a", "b", "c", "d"):
            cache.access(name, 256)
        cache.access("a", 256)          # touch a → b becomes LRU
        result = cache.access("e", 256)
        assert "b" in result.evicted
        assert cache.contains("a")

    def test_large_function_evicts_multiple(self):
        cache = self._cache()
        for name in ("a", "b", "c", "d"):
            cache.access(name, 256)
        result = cache.access("big", 512)
        assert len(result.evicted) == 2

    def test_oversized_function_streams(self):
        cache = self._cache()
        result = cache.access("huge", 4096)
        assert result.oversized and not result.hit
        assert not cache.contains("huge")
        # A later access misses again.
        assert not cache.access("huge", 4096).hit

    def test_flush(self):
        cache = self._cache()
        cache.access("f", 100)
        cache.flush()
        assert not cache.contains("f")


class _ListMethodCache:
    """Oracle: the method cache as a plain list scanned on every access."""

    def __init__(self, config: MethodCacheConfig, memory: MemoryConfig):
        self.config = config
        self.memory = memory
        self.stats = CacheStats()
        self.entries: list[list] = []  # [name, blocks], front = next victim

    def access(self, name: str, size_bytes: int) -> tuple:
        names = [entry[0] for entry in self.entries]
        if name in names:
            if self.config.replacement == "lru":
                self.entries.append(self.entries.pop(names.index(name)))
            self.stats.record(hit=True)
            return (True, 0, 0, (), False)
        words = -(-size_bytes // 4)
        stall = self.memory.transfer_cycles(words)
        blocks = max(1, -(-size_bytes // self.config.block_bytes))
        self.stats.record(hit=False, fill_words=words, stall_cycles=stall)
        if blocks > self.config.num_blocks:
            return (False, stall, words, (), True)
        evicted = []
        while self.config.num_blocks - sum(e[1] for e in self.entries) \
                < blocks:
            evicted.append(self.entries.pop(0)[0])
            self.stats.evictions += 1
        self.entries.append([name, blocks])
        return (False, stall, words, tuple(evicted), False)


class TestMethodCacheIndex:
    """The name index against the list-scanning oracle, access by access."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("replacement", ("fifo", "lru"))
    def test_matches_list_scanning_oracle(self, replacement, seed):
        rng = random.Random(seed)
        config = MethodCacheConfig(size_bytes=1024, num_blocks=8,
                                   replacement=replacement)
        cache = MethodCache(config, MEM)
        oracle = _ListMethodCache(config, MEM)
        # Sizes from one block up to several (multi-victim evictions) and
        # beyond the whole cache (oversized functions stream through).
        sizes = {f"f{i}": rng.choice((4, 100, 128, 129, 300, 520, 1024, 1500))
                 for i in range(14)}
        names = sorted(sizes)
        evicting = oversized = 0
        for step in range(600):
            name = rng.choice(names)
            if rng.random() < 0.5:
                # The simulator's path: the allocation-free hit first.
                if cache.hit(name):
                    got = (True, 0, 0, (), False)
                else:
                    result = cache.access(name, sizes[name])
                    assert not result.hit
                    got = (result.hit, result.stall_cycles, result.fill_words,
                           result.evicted, result.oversized)
            else:
                result = cache.access(name, sizes[name])
                got = (result.hit, result.stall_cycles, result.fill_words,
                       result.evicted, result.oversized)
            assert got == oracle.access(name, sizes[name]), step
            evicting += len(got[3]) > 1
            oversized += got[4]
            resident = [entry[0] for entry in oracle.entries]
            assert cache.resident_functions() == resident
            assert cache.used_blocks() == sum(e[1] for e in oracle.entries)
            assert all(cache.contains(n) == (n in resident) for n in names)
            assert vars(cache.stats) == vars(oracle.stats)
            if rng.random() < 0.01:
                cache.flush()
                oracle.entries.clear()
        assert evicting and oversized  # the sequence covered both cases


class TestSetAssociativeCache:
    def _cache(self, **kwargs):
        defaults = dict(size_bytes=256, line_bytes=16, associativity=2)
        defaults.update(kwargs)
        return SetAssociativeCache(SetAssocCacheConfig(**defaults), MEM)

    def test_miss_then_hit(self):
        cache = self._cache()
        assert not cache.read(0x100).hit
        assert cache.read(0x104).hit  # same line
        assert cache.stats.misses == 1

    def test_miss_cost_is_line_fill(self):
        cache = self._cache()
        assert cache.read(0).stall_cycles == MEM.transfer_cycles(4)

    def test_set_conflict_eviction(self):
        cache = self._cache()
        sets = cache.num_sets
        line = cache.config.line_bytes
        base = 0x1000
        addresses = [base + way * sets * line for way in range(3)]
        for addr in addresses:
            cache.read(addr)
        # Two ways: the first address was evicted by the third.
        assert not cache.read(addresses[0]).hit

    def test_lru_keeps_recently_used(self):
        cache = self._cache()
        sets = cache.num_sets
        line = cache.config.line_bytes
        a, b, c = (0x1000 + i * sets * line for i in range(3))
        cache.read(a)
        cache.read(b)
        cache.read(a)       # a most recently used
        cache.read(c)       # evicts b
        assert cache.read(a).hit
        assert not cache.read(b).hit

    def test_write_through_no_allocate(self):
        cache = self._cache()
        result = cache.write(0x200)
        assert not result.hit
        assert not cache.contains(0x200)

    def test_write_allocate(self):
        cache = self._cache(write_allocate=True)
        cache.write(0x200)
        assert cache.contains(0x200)

    def test_ideal_cache_always_hits(self):
        cache = IdealCache()
        assert cache.read(0x1234).hit
        assert cache.write(0x1234).hit
        assert cache.stats.misses == 0


class TestStackCache:
    def _cache(self, size=128, top=0x1000):
        return StackCache(StackCacheConfig(size_bytes=size), MEM, stack_top=top)

    def test_reserve_within_capacity_is_free(self):
        cache = self._cache()
        result = cache.reserve(16)
        assert result.spilled_words == 0 and result.stall_cycles == 0
        assert cache.occupancy_bytes == 64

    def test_reserve_beyond_capacity_spills(self):
        cache = self._cache(size=128)
        cache.reserve(24)
        result = cache.reserve(16)
        assert result.spilled_words == 8
        assert result.stall_cycles == MEM.transfer_cycles(8)
        assert cache.occupancy_bytes == 128

    def test_free_and_ensure(self):
        cache = self._cache(size=128)
        cache.reserve(24)
        cache.reserve(16)          # spills 8 words of the outer frame
        cache.free(16)
        result = cache.ensure(24)  # outer frame needs 8 words back
        assert result.filled_words == 8
        assert result.stall_cycles == MEM.transfer_cycles(8)

    def test_ensure_when_cached_is_free(self):
        cache = self._cache()
        cache.reserve(10)
        assert cache.ensure(10).filled_words == 0

    def test_free_more_than_reserved_clamps(self):
        cache = self._cache()
        cache.reserve(4)
        cache.free(8)
        assert cache.occupancy_bytes == 0
        assert cache.st == cache.ss

    def test_reserve_larger_than_cache_rejected(self):
        cache = self._cache(size=128)
        with pytest.raises(StackCacheError):
            cache.reserve(64)

    def test_negative_amounts_rejected(self):
        cache = self._cache()
        with pytest.raises(StackCacheError):
            cache.reserve(-1)
        with pytest.raises(StackCacheError):
            cache.ensure(-1)
        with pytest.raises(StackCacheError):
            cache.free(-1)

    def test_contains_window(self):
        cache = self._cache(top=0x1000)
        cache.reserve(4)
        assert cache.contains(0x1000 - 16, 4)
        assert cache.contains(0x1000 - 4, 4)
        assert not cache.contains(0x1000, 4)
        assert not cache.contains(0x1000 - 20, 4)

    @given(st.lists(st.tuples(st.sampled_from(["sres", "sens", "sfree"]),
                              st.integers(min_value=0, max_value=30)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_property_occupancy_invariant(self, ops):
        cache = self._cache(size=128)
        for kind, words in ops:
            try:
                if kind == "sres":
                    cache.reserve(words)
                elif kind == "sens":
                    cache.ensure(words)
                else:
                    cache.free(words)
            except StackCacheError:
                continue
            assert cache.st <= cache.ss
            assert 0 <= cache.occupancy_bytes <= cache.size_bytes


class TestCacheHierarchy:
    def test_split_hierarchy_routes_types(self):
        hierarchy = CacheHierarchy(PatmosConfig())
        assert hierarchy.uses_method_cache
        assert hierarchy.data_cache_for(MemType.STATIC) is hierarchy.static_cache
        assert hierarchy.data_cache_for(MemType.OBJECT) is hierarchy.object_cache
        assert hierarchy.data_cache_for(MemType.STACK) is hierarchy.stack_cache
        assert hierarchy.data_cache_for(MemType.MAIN) is None

    def test_stack_reads_are_free_in_split_hierarchy(self):
        hierarchy = CacheHierarchy(PatmosConfig())
        assert hierarchy.data_read(MemType.STACK, 0x1F0000) == 0

    def test_unified_hierarchy_shares_one_cache(self):
        hierarchy = CacheHierarchy(PatmosConfig(),
                                   HierarchyOptions(unified_data_cache=True))
        assert hierarchy.static_cache is hierarchy.object_cache
        # Stack accesses now go through the unified cache and can miss.
        assert hierarchy.data_read(MemType.STACK, 0x1F0000) > 0

    def test_conventional_icache_option(self):
        hierarchy = CacheHierarchy(PatmosConfig(),
                                   HierarchyOptions(conventional_icache=True))
        assert not hierarchy.uses_method_cache
        assert hierarchy.fetch_stall(0x10000) > 0
        assert hierarchy.fetch_stall(0x10000) == 0  # now cached

    def test_ideal_data_caches_option(self):
        hierarchy = CacheHierarchy(PatmosConfig(),
                                   HierarchyOptions(ideal_data_caches=True))
        assert hierarchy.data_read(MemType.STATIC, 0x40000) == 0
        assert hierarchy.data_read(MemType.OBJECT, 0x100000) == 0

    def test_stats_summary_keys(self):
        hierarchy = CacheHierarchy(PatmosConfig())
        summary = hierarchy.stats_summary()
        assert {"method_cache", "stack_cache", "static_cache",
                "object_cache"} <= set(summary)
