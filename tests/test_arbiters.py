"""Conformance suite for the shared memory-bus arbiters.

Every arbiter policy must satisfy the basic bus invariants (grants never lie
in the past, grants are monotonic when requests arrive in time order); on
top of that each policy has its defining property: TDMA grants are a pure
function of the schedule (never of the co-runners), round-robin is
work-conserving, priority serves the highest priority first and bounds only
that core.
"""

import pytest

from repro.config import MemoryConfig
from repro.errors import ConfigError
from repro.memory import (
    ARBITER_KINDS,
    MemoryArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    TdmaBusArbiter,
    TdmaSchedule,
    make_arbiter,
)

MEMORY = MemoryConfig(burst_words=4, setup_cycles=6, cycles_per_word=2)
BURST = MEMORY.burst_cycles()  # 14 cycles


def tdma_wait(schedule, core, cycle, transfer):
    """Wait the simulator's TDMA grant rule imposes on one transfer."""
    return TdmaBusArbiter(schedule).grant_cycle(core, cycle, transfer) - cycle


def all_arbiters(num_cores=4):
    schedule = TdmaSchedule(num_cores=num_cores, slot_cycles=BURST)
    return [
        TdmaBusArbiter(schedule),
        RoundRobinArbiter(num_cores, max_transfer_cycles=BURST),
        PriorityArbiter(num_cores, max_transfer_cycles=BURST),
    ]


class TestBusInvariants:
    @pytest.mark.parametrize("arbiter", all_arbiters(),
                             ids=lambda a: a.kind)
    def test_grants_never_in_the_past(self, arbiter):
        for cycle in range(0, 3 * BURST, 3):
            core = cycle % arbiter.num_cores
            start = arbiter.request(core, cycle, BURST)
            assert start >= cycle

    @pytest.mark.parametrize("arbiter", all_arbiters(),
                             ids=lambda a: a.kind)
    def test_per_core_monotonic_grant_times(self, arbiter):
        """A core's grants never move backwards as its requests advance."""
        for core in range(arbiter.num_cores):
            grants = []
            cycle = core
            for _ in range(8):
                start = arbiter.request(core, cycle, BURST)
                grants.append(start)
                cycle = start + BURST + 3  # next request after completion
            assert grants == sorted(grants)

    def test_round_robin_grants_globally_monotonic(self):
        """The work-conserving FCFS arbiter serves time-ordered requests in
        order.

        (TDMA is deliberately exempt: its slots are fixed, so a later
        requester may catch an earlier slot of its own.  Priority is exempt
        too: a top-priority request overtakes the queue by design.)
        """
        arbiter = RoundRobinArbiter(4, max_transfer_cycles=BURST)
        grants = []
        cycle = 0
        for i in range(24):
            core = i % arbiter.num_cores
            grants.append(arbiter.request(core, cycle, BURST))
            cycle += 5  # requests arrive in global time order
        assert grants == sorted(grants)

    @pytest.mark.parametrize("arbiter", all_arbiters(),
                             ids=lambda a: a.kind)
    def test_stats_accounting(self, arbiter):
        port = arbiter.port(1)
        wait = port.arbitration_delay(3, BURST)
        assert port.requests == 1
        assert port.total_wait_cycles == wait
        assert port.events == 1
        summary = arbiter.stats_summary()
        assert summary["kind"] == arbiter.kind
        assert summary["requests"][1] == 1
        assert summary["busy_cycles"][1] == BURST

    @pytest.mark.parametrize("arbiter", all_arbiters(),
                             ids=lambda a: a.kind)
    def test_reset_forgets_grants(self, arbiter):
        arbiter.request(0, 0, BURST)
        arbiter.reset()
        assert arbiter.busy_until == 0
        assert all(s.requests == 0 for s in arbiter.stats)

    def test_invalid_core_rejected(self):
        arbiter = RoundRobinArbiter(2)
        with pytest.raises(ConfigError):
            arbiter.request(2, 0, BURST)
        with pytest.raises(ConfigError):
            arbiter.port(-1)

    def test_make_arbiter_kinds(self):
        for kind in ARBITER_KINDS:
            arbiter = make_arbiter(kind, 4, MEMORY)
            assert isinstance(arbiter, MemoryArbiter)
            assert arbiter.kind == kind
            assert arbiter.num_cores == 4
        with pytest.raises(ConfigError, match="unknown arbiter"):
            make_arbiter("fifo", 4, MEMORY)


class TestTdmaBusArbiter:
    def test_grants_independent_of_other_cores(self):
        """The decoupling property at the arbiter level: a core's grant for a
        given cycle never changes, whatever the other cores have done."""
        schedule = TdmaSchedule(num_cores=4, slot_cycles=BURST)
        quiet = TdmaBusArbiter(schedule)
        noisy = TdmaBusArbiter(schedule)
        for cycle in range(0, schedule.period):
            noisy.request((cycle + 1) % 4, cycle, BURST)  # co-runner traffic
        for cycle in range(0, 2 * schedule.period, 3):
            assert (quiet.grant_cycle(0, cycle, BURST)
                    == noisy.grant_cycle(0, cycle, BURST))

    def test_worst_case_wait_is_period_minus_slot(self):
        """Empirical worst case over a full period matches the closed form:
        ``period - slot`` for a minimal transfer (the arbiter lets transfers
        start mid-slot when they still fit)."""
        schedule = TdmaSchedule(num_cores=4, slot_cycles=BURST)
        waits = [tdma_wait(schedule, 0, cycle, 1)
                 for cycle in range(schedule.period)]
        assert max(waits) == schedule.period - schedule.slot_length(0)
        assert max(waits) == schedule.worst_case_wait(0, 1)
        # A full-slot transfer can only start at the slot start.
        full = [tdma_wait(schedule, 0, cycle, BURST)
                for cycle in range(schedule.period)]
        assert max(full) == schedule.period - 1
        assert max(full) == schedule.worst_case_wait(0, BURST)
        assert schedule.worst_case_wait() == schedule.period - 1

    def test_mid_slot_start_when_transfer_fits(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=20)
        # Cycle 5 is inside core 0's slot [0, 20); a 10-cycle transfer ends
        # at 15 <= 20, so it starts immediately.
        assert tdma_wait(schedule, 0, 5, 10) == 0
        # A 16-cycle transfer would overrun the slot: wait for the next one.
        assert tdma_wait(schedule, 0, 5, 16) == 35

    def test_weighted_slots(self):
        schedule = TdmaSchedule(num_cores=3, slot_cycles=10,
                                slot_weights=(1, 2, 1))
        assert schedule.period == 40
        assert schedule.slot_length(1) == 20
        assert [schedule.slot_offset(c) for c in range(3)] == [0, 10, 30]
        # Core 1's doubled slot admits a transfer core 0's cannot take.
        assert tdma_wait(schedule, 1, 10, 20) == 0
        with pytest.raises(ConfigError, match="does not fit"):
            tdma_wait(schedule, 0, 0, 20)
        # The weighted worst case still follows period - slot + T - 1.
        waits = [tdma_wait(schedule, 1, cycle, 10)
                 for cycle in range(schedule.period)]
        assert max(waits) == schedule.worst_case_wait(1, 10) == 40 - 20 + 9

    def test_refined_bound_pins_empirical_worst_case(self):
        """Regression for the core-aware WCET interference model: for every
        core and every transfer length that fits its slot, the refined
        closed form ``period - slot + transfer - 1`` equals the *observed*
        worst case over a full period and never exceeds the blanket
        ``period - 1`` the analyzer used to charge."""
        schedule = TdmaSchedule(num_cores=3, slot_cycles=BURST,
                                slot_weights=(1, 2, 1))
        for core in range(schedule.num_cores):
            slot = schedule.slot_length(core)
            for transfer in (1, BURST // 2, BURST, slot):
                observed = max(tdma_wait(schedule, core, cycle, transfer)
                               for cycle in range(schedule.period))
                refined = schedule.worst_case_wait(core, transfer)
                assert refined == observed, (core, transfer)
                assert refined <= schedule.worst_case_wait()

    def test_bottleneck_core_is_smallest_slot(self):
        weighted = TdmaSchedule(num_cores=3, slot_cycles=10,
                                slot_weights=(2, 1, 3))
        assert weighted.bottleneck_core() == 1
        # Its refined bound dominates every other core's for any transfer.
        for transfer in (1, 5, 10):
            worst = weighted.worst_case_wait(weighted.bottleneck_core(),
                                             transfer)
            assert worst == max(weighted.worst_case_wait(core, transfer)
                                for core in range(3))
        # Unweighted schedules tie; the first core is the canonical pick.
        assert TdmaSchedule(num_cores=4, slot_cycles=10).bottleneck_core() == 0

    def test_weight_validation(self):
        with pytest.raises(ConfigError, match="slot weights"):
            TdmaSchedule(num_cores=2, slot_cycles=10, slot_weights=(1,))
        with pytest.raises(ConfigError, match="at least 1"):
            TdmaSchedule(num_cores=2, slot_cycles=10, slot_weights=(1, 0))

    def test_lists_normalised_to_tuples(self):
        schedule = TdmaSchedule(num_cores=2, slot_cycles=10,
                                slot_weights=[1, 2])
        assert schedule.slot_weights == (1, 2)
        assert hash(schedule)  # stays usable as a cache key


class TestRoundRobinArbiter:
    def test_work_conservation(self):
        """An idle bus is granted immediately; queued transfers drain
        back-to-back with no idle gap in between."""
        arbiter = RoundRobinArbiter(4, max_transfer_cycles=BURST)
        assert arbiter.request(2, 7, BURST) == 7  # idle bus: no wait
        # Three more requests while the bus is busy: served seamlessly.
        starts = [arbiter.request(core, 8, BURST) for core in (0, 1, 3)]
        assert starts == [7 + BURST, 7 + 2 * BURST, 7 + 3 * BURST]
        # After the queue drains the bus is idle again.
        assert arbiter.request(2, 7 + 4 * BURST + 5, BURST) == 7 + 4 * BURST + 5

    def test_worst_case_is_n_minus_one_transfers(self):
        arbiter = RoundRobinArbiter(4, max_transfer_cycles=BURST)
        assert arbiter.worst_case_delay(0) == 3 * BURST
        assert RoundRobinArbiter(4).worst_case_delay(0) is None

    def test_preference_rotates_after_last_grant(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.request(1, 0, BURST)
        assert arbiter.preference_order([0, 2, 3]) == [2, 3, 0]
        arbiter.request(3, 20, BURST)
        assert arbiter.preference_order([0, 1, 2]) == [0, 1, 2]


class TestPriorityArbiter:
    def test_preference_follows_priorities(self):
        arbiter = PriorityArbiter(3, priorities=(2, 0, 1))
        assert arbiter.preference_order([0, 1, 2]) == [1, 2, 0]
        assert arbiter.top_core() == 1

    def test_only_top_core_is_bounded(self):
        arbiter = PriorityArbiter(3, max_transfer_cycles=BURST)
        assert arbiter.worst_case_delay(0) == BURST
        assert arbiter.worst_case_delay(1) is None
        assert arbiter.worst_case_delay(2) is None

    def test_top_core_jumps_the_queue(self):
        """The top core waits for the in-flight transfer only, never for
        the queue of lower-priority grants behind it — that is what makes
        its worst case exactly one maximal transfer."""
        arbiter = PriorityArbiter(3, max_transfer_cycles=BURST)
        assert arbiter.request(2, 0, BURST) == 0          # bus 0..BURST
        assert arbiter.request(1, 5, BURST) == BURST      # queued behind
        # Top core at cycle 6: granted when the *in-flight* transfer ends,
        # ahead of core 1's queued grant, within its advertised bound.
        start = arbiter.request(0, 6, BURST)
        assert start == BURST
        assert start - 6 <= arbiter.worst_case_delay(0)

    def test_top_core_wait_never_exceeds_bound(self):
        """Hammering: whatever the lower-priority queue looks like, the
        top core's wait stays within one maximal transfer."""
        arbiter = PriorityArbiter(4, max_transfer_cycles=BURST)
        port = arbiter.port(0)
        cycle = 0
        for i in range(60):
            low = 1 + i % 3
            arbiter.request(low, cycle, BURST - (i % 5))
            if i % 4 == 0:
                wait = port.arbitration_delay(cycle + 1, BURST)
                assert wait <= arbiter.worst_case_delay(0)
            cycle += 3 + i % 7

    def test_priority_count_validated(self):
        with pytest.raises(ConfigError, match="priorities"):
            PriorityArbiter(3, priorities=(0, 1))
