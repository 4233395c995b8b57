"""Pluggable arbitration of the shared memory bus for multicore co-simulation.

A :class:`MemoryArbiter` owns the *shared* state of the memory bus — who was
granted the bus until when — and hands out one :class:`ArbiterPort` per core.
The port speaks the per-core protocol of the
:class:`~repro.memory.controller.MemoryController` and the
:class:`~repro.sim.cycle.CycleSimulator` (``arbitration_delay`` /
``worst_case_delay`` / ``events``), so a core runs the same whether it is
simulated alone on a port or interleaved with other cores.

Three policies are provided:

* :class:`TdmaBusArbiter` — grants follow the static
  :class:`~repro.memory.tdma.TdmaSchedule` alone; by construction a grant
  never depends on the other cores' actual traffic, which is the paper's
  decoupling property (the golden tests compare this against independent
  per-core simulation).
* :class:`RoundRobinArbiter` — work-conserving: a request on an idle bus is
  granted immediately, otherwise it waits for the in-flight transfer.  The
  average case beats TDMA when co-runners are idle, but the observed delay
  depends on the co-runners' behaviour — exactly what breaks per-core WCET
  analysis.  The worst case is bounded by ``(N - 1)`` maximal transfers.
* :class:`PriorityArbiter` — fixed priority; only the top-priority core has
  a bounded worst case (one blocking, non-preemptible transfer), every other
  core can starve.

The interleaved scheduler in :mod:`repro.cmp.system` steps cores in global
time order, so requests arrive here with non-decreasing cycle stamps (at
bundle granularity) and the busy-window bookkeeping below sees the actual
concurrent request stream rather than an analytical approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import MemoryConfig
from ..errors import ConfigError
from .tdma import TdmaSchedule

#: Arbitration policies accepted wherever an arbiter is named by string.
ARBITER_KINDS = ("tdma", "round_robin", "priority")


@dataclass
class ArbiterCoreStats:
    """Per-core arbitration statistics of one shared arbiter."""

    requests: int = 0
    wait_cycles: int = 0
    busy_cycles: int = 0  # transfer cycles granted to this core


class ArbiterPort:
    """One core's handle on a shared :class:`MemoryArbiter`.

    Implements the per-core arbiter protocol the memory controller and the
    cycle simulator already speak, translating it into registrations of the
    actual transfer with the shared arbiter state.
    """

    __slots__ = ("arbiter", "core_id", "events")

    def __init__(self, arbiter: "MemoryArbiter", core_id: int):
        self.arbiter = arbiter
        self.core_id = core_id
        #: Monotonic request counter observed by the stepping engine
        #: (run-until-memory-event yields control after each transfer).
        self.events = 0

    def arbitration_delay(self, cycle: int, transfer_cycles: int) -> int:
        """Extra cycles before a transfer issued at ``cycle`` may start."""
        start = self.arbiter.request(self.core_id, cycle, transfer_cycles)
        self.events += 1
        return start - cycle

    def worst_case_delay(self) -> Optional[int]:
        return self.arbiter.worst_case_delay(self.core_id)

    @property
    def requests(self) -> int:
        return self.arbiter.stats[self.core_id].requests

    @property
    def total_wait_cycles(self) -> int:
        return self.arbiter.stats[self.core_id].wait_cycles


class MemoryArbiter:
    """Shared arbitration state of the memory bus, one port per core."""

    #: Policy name used by configuration strings and result records.
    kind = "abstract"

    #: True iff :meth:`grant_cycle` is a pure function of its arguments —
    #: grants never depend on the other cores' traffic or on arbitration
    #: history.  This is the paper's temporal-decoupling property, and the
    #: event-driven co-simulation exploits it directly: under an
    #: order-independent arbiter every core can run to completion without
    #: synchronising with anyone and still observe exactly the delays of the
    #: fully interleaved simulation.
    order_independent = False

    def __init__(self, num_cores: int):
        if num_cores < 1:
            raise ConfigError("a memory arbiter needs at least one core")
        self.num_cores = num_cores
        self.stats: list[ArbiterCoreStats] = [
            ArbiterCoreStats() for _ in range(num_cores)]
        #: First cycle at which the bus is free again.
        self.busy_until = 0
        #: Core that received the most recent grant (round-robin pointer).
        self.last_granted = num_cores - 1

    # -- policy interface -----------------------------------------------------------

    def grant_cycle(self, core_id: int, cycle: int,
                    transfer_cycles: int) -> int:
        """First cycle >= ``cycle`` at which the transfer may start."""
        raise NotImplementedError

    def worst_case_delay(self, core_id: int) -> Optional[int]:
        """Static per-request delay bound, or ``None`` if unbounded."""
        raise NotImplementedError

    def preference_order(self, core_ids: Sequence[int]) -> list[int]:
        """Order in which simultaneous requesters should be served.

        The interleaved scheduler uses this to break ties between cores whose
        local clocks are equal, so simultaneous requests reach
        :meth:`request` in the order the hardware would serve them.
        """
        return sorted(core_ids)

    def preferred_core(self, core_ids: Sequence[int]) -> int:
        """First core of :meth:`preference_order`, without building the list.

        The co-simulation schedulers only ever need the *next* core to
        serve; computing just the minimum keeps tie-breaking allocation-free
        on the hot path.  Must always equal ``preference_order(core_ids)[0]``.
        """
        return min(core_ids)

    def tie_ranks(self) -> Optional[Sequence[int]]:
        """Static per-core tie-break ranks, or ``None`` if state-dependent.

        When the service order of simultaneous requests does not depend on
        arbitration history, the event-driven scheduler can key its ready
        queue on ``(cycle, rank, core_id)`` and never consult the arbiter
        for ties.  Round-robin returns ``None`` (its rotation follows the
        last grant) and is tie-resolved via :meth:`preferred_core` instead.
        """
        return range(self.num_cores)

    # -- shared bookkeeping -----------------------------------------------------------

    def request(self, core_id: int, cycle: int, transfer_cycles: int) -> int:
        """Register a transfer; returns the granted start cycle."""
        self._check_core(core_id)
        if transfer_cycles < 0:
            raise ConfigError("transfer length must be non-negative")
        start = self.grant_cycle(core_id, cycle, transfer_cycles)
        stats = self.stats[core_id]
        stats.requests += 1
        stats.wait_cycles += start - cycle
        stats.busy_cycles += transfer_cycles
        if start + transfer_cycles > self.busy_until:
            self.busy_until = start + transfer_cycles
        self.last_granted = core_id
        self._after_grant(core_id, cycle, start, transfer_cycles)
        return start

    def _after_grant(self, core_id: int, cycle: int, start: int,
                     transfer_cycles: int) -> None:
        """Policy hook for extra bookkeeping after a grant (default: none)."""

    def port(self, core_id: int) -> ArbiterPort:
        self._check_core(core_id)
        return ArbiterPort(self, core_id)

    def reset(self) -> None:
        """Forget all grants and statistics (fresh co-simulation run)."""
        self.stats = [ArbiterCoreStats() for _ in range(self.num_cores)]
        self.busy_until = 0
        self.last_granted = self.num_cores - 1

    def snapshot(self) -> tuple:
        """What a run leaves readable of the arbitration (statistics, bus
        window, last grant), for :meth:`restore`."""
        return ([(s.requests, s.wait_cycles, s.busy_cycles)
                 for s in self.stats], self.busy_until, self.last_granted)

    def restore(self, snapshot: tuple) -> None:
        """Return to the state of a :meth:`snapshot`."""
        stats, self.busy_until, self.last_granted = snapshot
        self.stats = [ArbiterCoreStats(*s) for s in stats]

    def describe(self) -> str:
        return f"{self.kind}({self.num_cores} cores)"

    def stats_summary(self) -> dict:
        """JSON-serializable aggregate view of the arbitration activity."""
        return {
            "kind": self.kind,
            "requests": [s.requests for s in self.stats],
            "wait_cycles": [s.wait_cycles for s in self.stats],
            "busy_cycles": [s.busy_cycles for s in self.stats],
        }

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ConfigError(
                f"core id {core_id} out of range for {self.num_cores} cores")


class TdmaBusArbiter(MemoryArbiter):
    """Shared-bus TDMA arbiter: grants follow the static schedule alone.

    ``grant_cycle`` deliberately ignores the busy window: a transfer is
    confined to the requesting core's own slot, so grants can never overlap
    and — crucially — never depend on what the other cores do.
    """

    kind = "tdma"

    #: The decoupling property itself: a TDMA grant depends only on the
    #: schedule and the requesting cycle, never on concurrent traffic.
    order_independent = True

    def __init__(self, schedule: TdmaSchedule):
        super().__init__(schedule.num_cores)
        self.schedule = schedule
        # Closed-form grant arithmetic: the schedule geometry is frozen, so
        # the per-core offsets/lengths and the period are read exactly once
        # and every grant is three integer operations plus the fit check —
        # no method dispatch into the schedule on the hot path.
        self._period = schedule.period
        self._offsets = tuple(schedule.slot_offset(core)
                              for core in range(schedule.num_cores))
        self._lengths = tuple(schedule.slot_length(core)
                              for core in range(schedule.num_cores))

    def grant_cycle(self, core_id: int, cycle: int,
                    transfer_cycles: int) -> int:
        length = self._lengths[core_id]
        if transfer_cycles > length:
            raise ConfigError(
                f"transfer of {transfer_cycles} cycles does not fit into a "
                f"TDMA slot of {length} cycles")
        period = self._period
        phase = (cycle - self._offsets[core_id]) % period
        if phase + transfer_cycles <= length:
            return cycle  # inside the own slot with enough room left
        return cycle + period - phase

    def worst_case_delay(self, core_id: int) -> int:
        return self.schedule.worst_case_wait()

    def describe(self) -> str:
        weights = self.schedule.weights
        detail = (f", weights {':'.join(map(str, weights))}"
                  if self.schedule.slot_weights else "")
        return (f"tdma({self.num_cores} cores, slot "
                f"{self.schedule.slot_cycles}{detail}, "
                f"period {self.schedule.period})")


class RoundRobinArbiter(MemoryArbiter):
    """Work-conserving round-robin arbitration of the shared bus.

    Requests are served in arrival order: an idle bus is granted
    immediately, a busy bus delays the request until the in-flight transfer
    completes.  Simultaneous requests are ordered round-robin starting after
    the last granted core (see :meth:`preference_order`).
    """

    kind = "round_robin"

    def __init__(self, num_cores: int,
                 max_transfer_cycles: Optional[int] = None):
        super().__init__(num_cores)
        #: Longest possible transfer, used only for the worst-case bound.
        self.max_transfer_cycles = max_transfer_cycles

    def grant_cycle(self, core_id: int, cycle: int,
                    transfer_cycles: int) -> int:
        return max(cycle, self.busy_until)

    def preference_order(self, core_ids: Sequence[int]) -> list[int]:
        start = (self.last_granted + 1) % self.num_cores
        return sorted(core_ids,
                      key=lambda cid: (cid - start) % self.num_cores)

    def preferred_core(self, core_ids: Sequence[int]) -> int:
        start = (self.last_granted + 1) % self.num_cores
        return min(core_ids, key=lambda cid: (cid - start) % self.num_cores)

    def tie_ranks(self) -> Optional[Sequence[int]]:
        return None  # service order rotates with every grant

    def worst_case_delay(self, core_id: int) -> Optional[int]:
        if self.max_transfer_cycles is None:
            return None
        return (self.num_cores - 1) * self.max_transfer_cycles

    def describe(self) -> str:
        return f"round_robin({self.num_cores} cores)"


class PriorityArbiter(MemoryArbiter):
    """Fixed-priority arbitration: lower priority value wins.

    Transfers are non-preemptible, so even the top-priority core can be
    blocked by one in-flight transfer — but never by the *queue* behind it:
    a top-priority request jumps ahead of waiting lower-priority requests
    and starts as soon as the transfer physically occupying the bus at its
    request cycle completes.  That is what makes its worst case exactly one
    maximal transfer.  Every lower-priority core is served first-come
    first-served behind the busy window and has no static bound at all
    (``worst_case_delay`` returns ``None``); their modelled delays are a
    lower bound, since a real bus would additionally push them back behind
    every top-priority transfer that overtakes them.
    """

    kind = "priority"

    def __init__(self, num_cores: int,
                 priorities: Optional[Sequence[int]] = None,
                 max_transfer_cycles: Optional[int] = None):
        super().__init__(num_cores)
        if priorities is None:
            priorities = range(num_cores)
        self.priorities = tuple(priorities)
        if len(self.priorities) != num_cores:
            raise ConfigError(
                f"priority arbiter has {len(self.priorities)} priorities "
                f"for {num_cores} cores")
        self.max_transfer_cycles = max_transfer_cycles
        #: The highest-priority core; ``priorities`` is frozen, so it is
        #: found once here rather than on every request.
        self._top = min(range(num_cores),
                        key=lambda cid: (self.priorities[cid], cid))
        #: Recently granted bus intervals ``(start, end)``, pruned as time
        #: advances; used to find the transfer in flight at a given cycle.
        self._grants: list[tuple[int, int]] = []

    def grant_cycle(self, core_id: int, cycle: int,
                    transfer_cycles: int) -> int:
        if core_id == self._top:
            # Wait only for the transfer occupying the bus right now, not
            # for the whole FCFS queue of lower-priority grants.
            for start, end in self._grants:
                if start <= cycle < end:
                    return end
            return cycle
        return max(cycle, self.busy_until)

    def _after_grant(self, core_id: int, cycle: int, start: int,
                     transfer_cycles: int) -> None:
        # Prune intervals that ended before this *request* cycle: requests
        # arrive in (bundle-granular) global time order, so they can no
        # longer contain any future request cycle.
        self._grants = [(s, e) for s, e in self._grants if e > cycle]
        self._grants.append((start, start + transfer_cycles))

    def reset(self) -> None:
        super().reset()
        self._grants = []

    def preference_order(self, core_ids: Sequence[int]) -> list[int]:
        return sorted(core_ids, key=lambda cid: (self.priorities[cid], cid))

    def preferred_core(self, core_ids: Sequence[int]) -> int:
        return min(core_ids, key=lambda cid: (self.priorities[cid], cid))

    def tie_ranks(self) -> Optional[Sequence[int]]:
        # (rank, core_id) ordering equals the (priority, core_id) key of
        # preference_order, so the priorities themselves are the ranks.
        return self.priorities

    def top_core(self) -> int:
        """The core with the highest priority (the only bounded one)."""
        return self._top

    def worst_case_delay(self, core_id: int) -> Optional[int]:
        if core_id != self._top or self.max_transfer_cycles is None:
            return None
        return self.max_transfer_cycles

    def describe(self) -> str:
        return (f"priority({self.num_cores} cores, priorities "
                f"{list(self.priorities)})")


def make_arbiter(kind: str, num_cores: int, memory: MemoryConfig,
                 schedule: Optional[TdmaSchedule] = None,
                 priorities: Optional[Sequence[int]] = None) -> MemoryArbiter:
    """Build a shared arbiter by policy name.

    ``memory`` supplies the burst timing: the maximal transfer on the bus is
    one burst, which parameterises the round-robin and priority worst-case
    bounds and the default TDMA slot length.
    """
    burst = memory.burst_cycles()
    if kind == "tdma":
        if schedule is None:
            schedule = TdmaSchedule(num_cores=num_cores, slot_cycles=burst)
        if schedule.num_cores < num_cores:
            raise ConfigError(
                f"TDMA schedule has {schedule.num_cores} slots for "
                f"{num_cores} cores")
        return TdmaBusArbiter(schedule)
    if kind == "round_robin":
        return RoundRobinArbiter(num_cores, max_transfer_cycles=burst)
    if kind == "priority":
        return PriorityArbiter(num_cores, priorities=priorities,
                               max_transfer_cycles=burst)
    raise ConfigError(
        f"unknown arbiter kind {kind!r}; choose from {ARBITER_KINDS}")
