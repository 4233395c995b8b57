"""Memory controller: burst-based transfers, split loads and a write buffer.

All traffic between a core and the shared main memory goes through the
memory controller:

* cache fills (method cache, static/constant cache, object cache) and stack
  cache spill/fill traffic, in units of bursts;
* uncached *split* loads, where the load instruction starts the transfer and
  ``wmem`` waits for its completion;
* stores, which are absorbed by a small write buffer and drained to memory in
  the background (the core only stalls when the buffer is full).

When an arbiter is attached, every *blocking* transfer — cache fills and
spills, split loads, and stores once the buffer forces a stall — is
registered with it before it may start.  The arbiter is an
:class:`~repro.memory.arbiter.ArbiterPort` of a shared
:class:`~repro.memory.arbiter.MemoryArbiter`: the transfer is recorded in
the *shared* bus state and the delay reflects the actual concurrent traffic
of the other cores (multicore co-simulation).

Known simplification: *background* drains of a non-empty write buffer are
not modelled on the shared bus, so co-simulated contention from buffered
store traffic is understated.  The WCET side is unaffected — the analysis
charges every main-memory store a full arbitrated transfer, so bounds stay
sound (conservative) with respect to the simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..config import MemoryConfig
from ..errors import SimulationError
from .main_memory import MainMemory


@dataclass
class PendingLoad:
    """An outstanding split (decoupled) main-memory load."""

    rd: int
    addr: int
    width: int
    signed: bool
    complete_cycle: int
    value: int


@dataclass
class ControllerStats:
    """Aggregate statistics of one memory controller."""

    reads: int = 0
    writes: int = 0
    read_cycles: int = 0
    write_stall_cycles: int = 0
    arbitration_cycles: int = 0
    words_transferred: int = 0


class MemoryController:
    """Burst-based controller connecting one core to main memory."""

    def __init__(self, memory: MainMemory, config: MemoryConfig,
                 arbiter=None, store_buffer_entries: int = 4):
        self.memory = memory
        self.config = config
        self.arbiter = arbiter
        self.store_buffer_entries = store_buffer_entries
        self.stats = ControllerStats()
        self._pending_load: Optional[PendingLoad] = None
        #: Cycles at which queued store-buffer entries finish draining,
        #: increasing: each entry starts once the one before it has drained.
        self._store_drain: deque[int] = deque()
        self._write_cycles = config.transfer_cycles(1)

    # -- latency helpers ------------------------------------------------------------

    def transfer_cycles(self, num_words: int) -> int:
        """Raw transfer time for ``num_words`` words (without arbitration)."""
        return self.config.transfer_cycles(num_words)

    def _arbitration(self, cycle: int, transfer_cycles: int) -> int:
        if self.arbiter is None:
            return 0
        wait = self.arbiter.arbitration_delay(cycle, transfer_cycles)
        self.stats.arbitration_cycles += wait
        return wait

    # -- blocking transfers (cache fills, spills) -------------------------------------

    def read_block(self, addr: int, num_words: int, cycle: int) -> tuple[list[int], int]:
        """Read ``num_words`` words; returns ``(values, latency_cycles)``."""
        transfer = self.transfer_cycles(num_words)
        latency = self._arbitration(cycle, min(transfer, self._slot_limit())) + transfer
        values = self.memory.read_words(addr, num_words)
        self.stats.reads += 1
        self.stats.read_cycles += latency
        self.stats.words_transferred += num_words
        return values, latency

    def fill_latency(self, num_words: int, cycle: int) -> int:
        """Latency of a cache fill of ``num_words`` words (data already in memory)."""
        transfer = self.transfer_cycles(num_words)
        return self._arbitration(cycle, min(transfer, self._slot_limit())) + transfer

    def write_block(self, addr: int, values: list[int], cycle: int) -> int:
        """Write a block of words; returns the latency in cycles."""
        transfer = self.transfer_cycles(len(values))
        latency = self._arbitration(cycle, min(transfer, self._slot_limit())) + transfer
        for index, value in enumerate(values):
            self.memory.write_word(addr + 4 * index, value)
        self.stats.writes += 1
        self.stats.words_transferred += len(values)
        return latency

    def _slot_limit(self) -> int:
        """Largest transfer allowed per arbitration round (one burst for TDMA)."""
        return self.config.burst_cycles()

    # -- split (decoupled) loads --------------------------------------------------------

    def start_load(self, rd: int, addr: int, width: int, signed: bool,
                   cycle: int) -> None:
        """Start a split main-memory load (the ``lwm`` half of the pair)."""
        if self._pending_load is not None:
            raise SimulationError(
                "a split load is already outstanding; issue wmem before the "
                "next main-memory load")
        transfer = self.transfer_cycles(1)
        wait = self._arbitration(cycle, min(transfer, self._slot_limit()))
        value = self.memory.read(addr, width, signed=signed)
        self._pending_load = PendingLoad(
            rd=rd, addr=addr, width=width, signed=signed,
            complete_cycle=cycle + wait + transfer, value=value)
        self.stats.reads += 1
        self.stats.read_cycles += wait + transfer
        self.stats.words_transferred += 1

    def wait_for_load(self, cycle: int) -> tuple[Optional[PendingLoad], int]:
        """Complete an outstanding split load (the ``wmem`` half of the pair).

        Returns the completed load (or ``None`` if none was outstanding) and
        the number of stall cycles.
        """
        pending = self._pending_load
        if pending is None:
            return None, 0
        self._pending_load = None
        stall = max(0, pending.complete_cycle - cycle)
        return pending, stall

    @property
    def has_pending_load(self) -> bool:
        return self._pending_load is not None

    # -- write buffer -------------------------------------------------------------------

    def store(self, addr: int, value: int, width: int, cycle: int) -> int:
        """Issue a store through the write buffer; returns stall cycles."""
        self.memory.write(addr, value, width)
        return self.buffer_store(cycle)

    def buffer_store(self, cycle: int) -> int:
        """Account for one store in the write buffer without touching memory.

        Used when the caller has already updated memory (the simulators keep
        data values in main memory directly) and only the write-buffer timing
        is needed.  Returns the stall cycles seen by the core.
        """
        self.stats.writes += 1
        drain = self._store_drain
        # Retire store-buffer entries that have drained by now.
        while drain and drain[0] <= cycle:
            drain.popleft()
        write_cycles = self._write_cycles
        stall = 0
        if self.store_buffer_entries == 0:
            stall = self._arbitration(cycle, write_cycles) + write_cycles
        elif len(drain) >= self.store_buffer_entries:
            # Buffer full: wait until the oldest entry drains.
            stall = drain.popleft() - cycle
        start = cycle + stall
        if drain and drain[-1] > start:
            start = drain[-1]
        drain.append(start + write_cycles)
        self.stats.write_stall_cycles += stall
        self.stats.words_transferred += 1
        return stall

    def drain_cycles(self, cycle: int) -> int:
        """Cycles until the write buffer is fully drained (for loads that must wait)."""
        drain = self._store_drain
        if not drain or drain[-1] <= cycle:
            return 0
        return drain[-1] - cycle
