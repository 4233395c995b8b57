"""Tests for main memory, the memory controller, TDMA and the scratchpad."""

import hashlib
import os
import random
import resource
import sys

import pytest

from repro.config import MemoryConfig, ScratchpadConfig
from repro.errors import ConfigError, MemoryAccessError, SimulationError
from repro.memory import (
    ControllerStats,
    MainMemory,
    MemoryController,
    RoundRobinArbiter,
    Scratchpad,
    TdmaBusArbiter,
    TdmaSchedule,
)
from repro.memory.main_memory import PAGE_BYTES


class TestMainMemory:
    def test_word_round_trip(self):
        mem = MainMemory(1024)
        mem.write_word(16, 0xDEADBEEF)
        assert mem.read_word(16) == 0xDEADBEEF

    def test_little_endian_subword_access(self):
        mem = MainMemory(64)
        mem.write_word(0, 0x01020304)
        assert mem.read(0, 1) == 0x04
        assert mem.read(2, 2) == 0x0102

    def test_signed_reads(self):
        mem = MainMemory(64)
        mem.write(0, 0xFF, 1)
        assert mem.read(0, 1, signed=True) == -1
        assert mem.read(0, 1, signed=False) == 255

    def test_uninitialised_reads_zero(self):
        mem = MainMemory(64)
        assert mem.read_word(32) == 0

    def test_misaligned_access_rejected(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryAccessError):
            mem.read(2, 4)
        with pytest.raises(MemoryAccessError):
            mem.write(1, 0, 2)

    def test_out_of_range_rejected(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryAccessError):
            mem.read_word(64)
        with pytest.raises(MemoryAccessError):
            mem.read_word(-4)

    def test_load_words(self):
        mem = MainMemory(64)
        mem.load_words({0: 1, 4: 2, 8: 3})
        assert mem.read_words(0, 3) == [1, 2, 3]


class TestMainMemoryBacking:
    """The storage is a lazily zero-filled private mapping; everything built
    on it (views, copies, digests, bit flips, checks) behaves as before."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_writes_after_fork_stay_private(self):
        mem = MainMemory(4096)
        bank = MainMemory.view(mem, 1024, 1024)
        mem.write_word(0, 1)
        to_parent_r, to_parent_w = os.pipe()
        to_child_r, to_child_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: write, then report what it sees of the parent
            status = 1
            try:
                os.close(to_child_w)
                mem.write_word(0, 0xC0FFEE)
                bank.write_word(0, 0xC0FFEE)
                os.write(to_parent_w, b"w")
                os.read(to_child_r, 1)
                seen = (mem.read_word(4), mem.read_word(1028))
                status = 0 if seen == (0, 0) else 2
            finally:
                os._exit(status)
        # Only the child writes to_parent: a child that dies early reads as
        # EOF here instead of blocking.
        os.close(to_parent_w)
        try:
            assert os.read(to_parent_r, 1) == b"w"
            assert mem.read_word(0) == 1
            assert mem.read_word(1024) == bank.read_word(0) == 0
            mem.write_word(4, 0xBEEF)
            bank.write_word(4, 0xBEEF)
        finally:
            os.write(to_child_w, b"p")
            _, status = os.waitpid(pid, 0)
            for fd in (to_parent_r, to_child_r, to_child_w):
                os.close(fd)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_allocation_touches_no_pages(self):
        kib = 1024 if sys.platform == "darwin" else 1  # ru_maxrss unit
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // kib
        mem = MainMemory(1 << 30)
        mem.write_word((1 << 30) - 4, 7)
        assert mem.read_word(1 << 29) == 0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // kib
        assert after - before < 64 * 1024

    def test_copy_and_digest(self):
        mem = MainMemory(256)
        assert mem.image_digest() == hashlib.sha256(bytes(256)).hexdigest()[:16]
        mem.write_word(8, 0x12345678)
        clone = mem.copy()
        assert clone.read_word(8) == 0x12345678
        assert clone.image_digest() == mem.image_digest()
        clone.write_word(8, 0)
        assert mem.read_word(8) == 0x12345678
        assert clone.image_digest() != mem.image_digest()

    def test_bank_view_aliases_its_backing(self):
        backing = MainMemory(64)
        bank = MainMemory.view(backing, 32, 32)
        bank.write_word(4, 0xAABBCCDD)
        assert backing.read_word(36) == 0xAABBCCDD
        backing.write_word(40, 5)
        assert bank.read_word(8) == 5
        assert bank.inject_bit_flip(4, 0) == 0xDC
        assert backing.read(36, 1) == 0xDC
        assert bank.image_digest() == hashlib.sha256(
            bytes(backing._data)[32:]).hexdigest()[:16]
        with pytest.raises(MemoryAccessError):
            bank.read_word(32)

    def test_bit_flip(self):
        mem = MainMemory(64)
        assert mem.inject_bit_flip(3, 7) == 0x80
        assert mem.read_word(0) == 0x8000_0000
        assert mem.inject_bit_flip(3, 7) == 0
        with pytest.raises(MemoryAccessError, match="outside memory"):
            mem.inject_bit_flip(64, 0)
        with pytest.raises(MemoryAccessError, match="bit index"):
            mem.inject_bit_flip(0, 8)

    def test_word_fast_path_checks(self):
        mem = MainMemory(64)
        mem.write_u32(60, 0x1_2345_6789)  # truncated to 32 bits
        assert mem.read_u32(60) == 0x2345_6789
        with pytest.raises(MemoryAccessError, match="misaligned"):
            mem.read_u32(2)
        with pytest.raises(MemoryAccessError, match="outside memory"):
            mem.write_u32(64, 0)
        with pytest.raises(MemoryAccessError, match="outside memory"):
            mem.read_u32(-4)
        with pytest.raises(MemoryAccessError, match="positive"):
            MainMemory(0)


    def test_nonzero_regions_round_trip(self):
        page = PAGE_BYTES
        mem = MainMemory(8 * page)
        mem.write(page - 2, 0xAB, 1)         # runs into the next page
        mem.write_word(page + 8, 0x01020304)
        mem.write_word(5 * page + 4, 9)
        regions = mem.nonzero_regions(range(8))
        assert [addr for addr, _ in regions] == [page - 2, 5 * page + 4]
        assert regions[0][1] == b"\xab" + bytes(9) + bytes([4, 3, 2, 1])
        # Scanning only the written pages finds the same regions.
        assert mem.nonzero_regions({5, 1, 0, 7}) == regions
        assert mem.nonzero_regions({7}) == ()
        target = MainMemory(16 * page)
        target.load_regions(regions, base=8 * page)
        assert bytes(target._data[8 * page:]) == bytes(mem._data)
        assert not bytes(target._data[:8 * page]).strip(b"\0")


class TestScratchpad:
    def test_read_write_within_bounds(self):
        spm = Scratchpad(ScratchpadConfig(size_bytes=64))
        spm.write(8, 123, 4)
        assert spm.read(8, 4) == 123
        assert spm.accesses == 2

    def test_out_of_bounds_rejected(self):
        spm = Scratchpad(ScratchpadConfig(size_bytes=64))
        with pytest.raises(MemoryAccessError):
            spm.read(64, 4)


class TestMemoryController:
    def _controller(self, **kwargs):
        config = MemoryConfig(burst_words=4, setup_cycles=6, cycles_per_word=2)
        return MemoryController(MainMemory(4096), config, **kwargs)

    def test_read_block_latency(self):
        ctrl = self._controller()
        ctrl.memory.load_words({0: 10, 4: 20})
        values, latency = ctrl.read_block(0, 2, cycle=0)
        assert values == [10, 20]
        assert latency == 14

    def test_split_load_completes_after_latency(self):
        ctrl = self._controller()
        ctrl.memory.write_word(8, 77)
        ctrl.start_load(rd=3, addr=8, width=4, signed=False, cycle=0)
        assert ctrl.has_pending_load
        pending, stall = ctrl.wait_for_load(cycle=0)
        assert pending.value == 77
        assert stall == 14
        assert not ctrl.has_pending_load

    def test_split_load_wait_after_work_is_cheaper(self):
        ctrl = self._controller()
        ctrl.start_load(rd=1, addr=0, width=4, signed=False, cycle=0)
        _, stall = ctrl.wait_for_load(cycle=10)
        assert stall == 4

    def test_second_outstanding_load_rejected(self):
        ctrl = self._controller()
        ctrl.start_load(rd=1, addr=0, width=4, signed=False, cycle=0)
        with pytest.raises(SimulationError):
            ctrl.start_load(rd=2, addr=4, width=4, signed=False, cycle=1)

    def test_wait_without_pending_load(self):
        ctrl = self._controller()
        pending, stall = ctrl.wait_for_load(cycle=5)
        assert pending is None and stall == 0

    def test_store_buffer_absorbs_until_full(self):
        ctrl = self._controller(store_buffer_entries=2)
        assert ctrl.store(0, 1, 4, cycle=0) == 0
        assert ctrl.store(4, 2, 4, cycle=1) == 0
        # Buffer full: the third store stalls until the first drains.
        stall = ctrl.store(8, 3, 4, cycle=2)
        assert stall > 0
        assert ctrl.memory.read_word(8) == 3

    def test_zero_entry_buffer_always_stalls(self):
        ctrl = self._controller(store_buffer_entries=0)
        assert ctrl.store(0, 1, 4, cycle=0) == 14

    def test_drain_cycles(self):
        ctrl = self._controller(store_buffer_entries=4)
        ctrl.store(0, 1, 4, cycle=0)
        assert ctrl.drain_cycles(0) == 14
        assert ctrl.drain_cycles(100) == 0


class _ListStoreBuffer:
    """The store buffer as a list rebuilt on every store: the oracle of
    :meth:`MemoryController.buffer_store` and ``drain_cycles``."""

    def __init__(self, config, arbiter, entries):
        self.config = config
        self.arbiter = arbiter
        self.entries = entries
        self.drain = []
        self.stats = ControllerStats()

    def buffer_store(self, cycle):
        self.stats.writes += 1
        self.drain = [t for t in self.drain if t > cycle]
        write_cycles = self.config.transfer_cycles(1)
        stall = 0
        if self.entries == 0:
            wait = (0 if self.arbiter is None
                    else self.arbiter.arbitration_delay(cycle, write_cycles))
            self.stats.arbitration_cycles += wait
            stall = wait + write_cycles
        elif len(self.drain) >= self.entries:
            stall = max(0, min(self.drain) - cycle)
            self.drain = [t for t in self.drain if t > cycle + stall]
        start = max([cycle + stall] + self.drain)
        self.drain.append(start + write_cycles)
        self.stats.write_stall_cycles += stall
        self.stats.words_transferred += 1
        return stall

    def drain_cycles(self, cycle):
        if not self.drain:
            return 0
        return max(0, max(self.drain) - cycle)


class TestStoreBufferOracle:
    """The controller's store buffer matches the list-based oracle on
    seeded random streams of non-decreasing stamps."""

    CONFIG = MemoryConfig(burst_words=4, setup_cycles=6, cycles_per_word=2)

    @staticmethod
    def _port():
        """Core 0 of a fresh two-core round-robin bus."""
        return RoundRobinArbiter(num_cores=2, max_transfer_cycles=14)

    @pytest.mark.parametrize("entries", [0, 1, 2, 4])
    @pytest.mark.parametrize("arbitrated", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_list_oracle(self, entries, arbitrated, seed):
        rng = random.Random(seed * 31 + entries)
        buses = [self._port() if arbitrated else None for _ in range(2)]
        ports = [bus.port(0) if bus else None for bus in buses]
        controller = MemoryController(None, self.CONFIG, arbiter=ports[0],
                                      store_buffer_entries=entries)
        oracle = _ListStoreBuffer(self.CONFIG, ports[1], entries)
        cycle = 0
        stalls, oracle_stalls = [], []
        for _ in range(400):
            cycle += rng.choice((0, 0, 1, 2, 3, 7, 14, 30, 60))
            if arbitrated and rng.random() < 0.2:
                # Another core's transfer, the same on both buses.
                for bus in buses:
                    bus.port(1).arbitration_delay(cycle, 14)
            if rng.random() < 0.25:
                assert (controller.drain_cycles(cycle)
                        == oracle.drain_cycles(cycle))
                continue
            stalls.append(controller.buffer_store(cycle))
            oracle_stalls.append(oracle.buffer_store(cycle))
            if rng.random() < 0.5:
                cycle += oracle_stalls[-1]  # the core waited out its stall
        assert stalls == oracle_stalls
        assert any(stalls)
        assert controller.stats == oracle.stats
        assert controller.drain_cycles(cycle) == oracle.drain_cycles(cycle)


class TestTdma:
    def test_wait_cycles_bounded_by_period(self):
        schedule = TdmaSchedule(num_cores=4, slot_cycles=14)
        arbiter = TdmaBusArbiter(schedule)
        for cycle in range(0, 120, 7):
            for core in range(4):
                wait = arbiter.grant_cycle(core, cycle, 14) - cycle
                assert 0 <= wait <= schedule.worst_case_wait()

    def test_worst_case_wait(self):
        schedule = TdmaSchedule(num_cores=4, slot_cycles=14)
        assert schedule.worst_case_wait() == 55
        assert schedule.period == 56

    def test_transfer_must_fit_slot(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=10)
        with pytest.raises(ConfigError):
            TdmaBusArbiter(schedule).grant_cycle(0, 0, 11)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ConfigError):
            TdmaSchedule(num_cores=0, slot_cycles=10)
        with pytest.raises(ConfigError):
            TdmaSchedule(num_cores=2, slot_cycles=0)

    def test_arbiter_accumulates_stats(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=14)
        port = TdmaBusArbiter(schedule).port(1)
        wait = port.arbitration_delay(cycle=0, transfer_cycles=14)
        assert wait == 14
        assert port.requests == 1
        assert port.total_wait_cycles == 14
        assert port.worst_case_delay() == schedule.worst_case_wait()

    def test_round_robin_worst_case(self):
        arbiter = RoundRobinArbiter(num_cores=4, max_transfer_cycles=14)
        assert arbiter.worst_case_delay(0) == 42
        port = arbiter.port(0)
        # Idle bus: granted immediately (work conservation).
        assert port.arbitration_delay(0, 14) == 0
        # A competing transfer occupies the bus until cycle 28.
        arbiter.port(1).arbitration_delay(10, 14)
        assert port.arbitration_delay(15, 14) == 13
