"""Execute a fault plan against a running system, keeping the fault log.

The injector is deliberately *outside* the hot loops: when a system runs
with no plan (or an empty one), none of this module's objects exist and the
engines take their unmodified code paths — the zero-overhead-when-disabled
gate.  With a plan, the co-simulation scheduler consults
:meth:`FaultInjector.next_memory_fault_cycle` to clip each core's slice to
its next flip, calls :meth:`apply_due_memory_faults` when the core reaches
it, and wraps each core's arbiter port in a :class:`FaultyPort` when the
plan schedules bus errors.
"""

from __future__ import annotations

from typing import Optional

from ..errors import FaultInjectionError
from .plan import FaultLog, FaultPlan


class FaultInjector:
    """Threads one :class:`FaultPlan` through a multicore run.

    One injector serves one run: it tracks which memory flips have been
    applied per core and owns the :class:`FaultLog`.  Construct a fresh one
    per run (``MulticoreSystem`` does) so repeated runs of the same system
    stay independent.
    """

    def __init__(self, plan: FaultPlan, num_cores: int):
        self.plan = plan
        self.num_cores = num_cores
        self.log = FaultLog()
        #: Per-core memory faults, in cycle order, with an applied cursor.
        self._memory = [plan.memory_faults_for_core(core_id)
                        for core_id in range(num_cores)]
        self._cursor = [0] * num_cores

    # ------------------------------------------------------------------
    # Memory flips
    # ------------------------------------------------------------------

    def next_memory_fault_cycle(self, core_id: int) -> Optional[int]:
        """The next unapplied flip cycle of one core (``None`` = no more)."""
        faults = self._memory[core_id]
        cursor = self._cursor[core_id]
        if cursor >= len(faults):
            return None
        return faults[cursor].cycle

    def apply_due_memory_faults(self, core_id: int, cycle: int,
                                sim) -> int:
        """Apply every flip of ``core_id`` with ``fault.cycle <= cycle``.

        Returns the ECC correction latency charged to the core (0 without
        ECC).  Without ECC the bit actually flips in the core's bank (or
        its scratchpad); with ECC, main-memory flips are corrected — the
        data stays intact and only the latency is charged.  The caller adds
        the returned cycles to the core's clock, keeping the charge eager
        and local exactly like the RTOS overhead charges.
        """
        faults = self._memory[core_id]
        cursor = self._cursor[core_id]
        charged = 0
        while cursor < len(faults) and faults[cursor].cycle <= cycle:
            fault = faults[cursor]
            cursor += 1
            if fault.target == "main" and self.plan.ecc:
                charged += self.plan.ecc_latency_cycles
                self.log.append(
                    "memory", "corrected", fault.cycle, core_id,
                    addr=fault.addr, bit=fault.bit, target=fault.target,
                    latency=self.plan.ecc_latency_cycles)
                continue
            target = (sim.scratchpad if fault.target == "scratchpad"
                      else sim.memory)
            target.inject_bit_flip(fault.addr, fault.bit)
            self.log.append("memory", "flipped", fault.cycle, core_id,
                            addr=fault.addr, bit=fault.bit,
                            target=fault.target)
        self._cursor[core_id] = cursor
        return charged

    def pending_memory_faults(self) -> int:
        """Flips not yet applied (drained post-halt by the scheduler)."""
        return sum(len(faults) - cursor for faults, cursor
                   in zip(self._memory, self._cursor))

    # ------------------------------------------------------------------
    # Bus errors
    # ------------------------------------------------------------------

    def port(self, inner_port, core_id: int):
        """Wrap one core's arbiter port if the plan schedules bus errors.

        Cores without scheduled errors keep their bare port — the wrapper
        only exists where it can ever fire.
        """
        errors = self.plan.bus_errors_for_core(core_id)
        if not errors:
            return inner_port
        return FaultyPort(inner_port, errors, self.plan.bus_retry_limit,
                          self.log)


class FaultyPort:
    """An arbiter port whose scheduled transfers fail and retry.

    Wraps an :class:`~repro.memory.arbiter.ArbiterPort` transparently: the
    memory controller and the stepping engines only see the same
    ``arbitration_delay`` / ``worst_case_delay`` / ``events`` protocol.  A
    scheduled error on the ``n``-th transfer makes each failed attempt
    occupy its granted bus slot — the retry is a genuinely re-arbitrated
    transfer, so under TDMA it waits for the core's *next own slot* and
    under round-robin/priority it competes again — until the attempt
    succeeds or ``retry_limit`` retries are exhausted (a structured :class:`FaultInjectionError`).
    """

    __slots__ = ("inner", "core_id", "errors", "retry_limit", "log",
                 "transfers", "retries")

    def __init__(self, inner, errors: dict[int, int], retry_limit: int,
                 log: FaultLog):
        self.inner = inner
        self.core_id = getattr(inner, "core_id", 0)
        self.errors = errors
        self.retry_limit = retry_limit
        self.log = log
        #: Ordinal of the next logical transfer on this port.
        self.transfers = 0
        #: Total successful retries performed (campaign accounting).
        self.retries = 0

    def arbitration_delay(self, cycle: int, transfer_cycles: int) -> int:
        ordinal = self.transfers
        self.transfers += 1
        failures = self.errors.get(ordinal, 0)
        if not failures:
            return self.inner.arbitration_delay(cycle, transfer_cycles)
        if failures > self.retry_limit:
            self.log.append("bus", "unrecovered", cycle, self.core_id,
                            transfer=ordinal, errors=failures,
                            retry_limit=self.retry_limit)
            raise FaultInjectionError(
                f"core {self.core_id} transfer {ordinal}: {failures} "
                f"consecutive bus errors exceed the retry limit of "
                f"{self.retry_limit}", cycle=cycle, core_id=self.core_id)
        # Each failed attempt is arbitrated and occupies its slot in full;
        # the retry re-requests at the cycle the failed transfer ended.
        at = cycle
        for _ in range(failures):
            delay = self.inner.arbitration_delay(at, transfer_cycles)
            at += delay + transfer_cycles
            self.retries += 1
        delay = self.inner.arbitration_delay(at, transfer_cycles)
        start = at + delay
        self.log.append("bus", "retried", cycle, self.core_id,
                        transfer=ordinal, errors=failures,
                        total_delay=start - cycle)
        return start - cycle

    def worst_case_delay(self) -> Optional[int]:
        return self.inner.worst_case_delay()

    @property
    def events(self) -> int:
        # The stepping protocol counts *logical* transfers: retries happen
        # inside one arbitration_delay call and must not look like extra
        # scheduling events.
        return self.transfers

    @property
    def requests(self) -> int:
        return self.inner.requests

    @property
    def total_wait_cycles(self) -> int:
        return self.inner.total_wait_cycles
