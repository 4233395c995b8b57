"""TDMA schedules for statically arbitrated access to the shared main memory.

The paper (Sections 1–3) proposes replicating the Patmos pipeline into a chip
multiprocessor with *statically scheduled* access to the shared main memory.
A time-division multiple access (TDMA) arbiter assigns each core a fixed slot
in a repeating schedule; a core's memory transfer may only use its own slot.
The worst-case extra waiting time is therefore independent of what the other
cores do — the property that makes the memory system WCET-analysable.

This module holds the schedule itself (generalised to per-core slot weights,
so asymmetric bandwidth guarantees can be expressed) and its closed-form
worst-case waits.  The grant rule the simulator runs is
:meth:`repro.memory.arbiter.TdmaBusArbiter.grant_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class TdmaSchedule:
    """A TDMA schedule: one slot per core in a repeating round.

    With the default (empty) ``slot_weights`` every core owns one slot of
    ``slot_cycles`` cycles and the period is ``num_cores * slot_cycles``.
    Weighted schedules give core ``i`` a slot of ``slot_weights[i] *
    slot_cycles`` cycles, so a core with weight 2 gets twice the guaranteed
    bandwidth while the schedule stays fully static and analysable.
    """

    num_cores: int
    slot_cycles: int
    #: Per-core slot weights; empty means weight 1 for every core.
    slot_weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("TDMA schedule needs at least one core")
        if self.slot_cycles < 1:
            raise ConfigError("TDMA slot length must be at least one cycle")
        if self.slot_weights:
            # Normalise lists (e.g. parsed CLI values) to a hashable tuple.
            object.__setattr__(self, "slot_weights",
                               tuple(int(w) for w in self.slot_weights))
            if len(self.slot_weights) != self.num_cores:
                raise ConfigError(
                    f"TDMA schedule has {len(self.slot_weights)} slot weights "
                    f"for {self.num_cores} cores")
            if any(weight < 1 for weight in self.slot_weights):
                raise ConfigError("TDMA slot weights must be at least 1")
        # Pre-computed slot geometry: the fields are frozen, so the per-core
        # offsets/lengths and the period are derived exactly once.
        weights = self.slot_weights or (1,) * self.num_cores
        offsets = []
        acc = 0
        for weight in weights:
            offsets.append(acc * self.slot_cycles)
            acc += weight
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_lengths",
                           tuple(w * self.slot_cycles for w in weights))
        object.__setattr__(self, "_period", acc * self.slot_cycles)

    @property
    def weights(self) -> tuple[int, ...]:
        """Effective per-core weights (all 1 when unweighted)."""
        return self._weights

    @property
    def period(self) -> int:
        """Length of one full TDMA round in cycles."""
        return self._period

    def slot_length(self, core_id: int) -> int:
        """Length of ``core_id``'s slot in cycles."""
        self._check_core(core_id)
        return self._lengths[core_id]

    def slot_offset(self, core_id: int) -> int:
        """Start of ``core_id``'s slot relative to the period start."""
        self._check_core(core_id)
        return self._offsets[core_id]

    def worst_case_wait(self, core_id: int | None = None,
                        transfer_cycles: int | None = None) -> int:
        """Upper bound on the waiting time before a transfer may start.

        Without arguments this is the schedule-wide bound ``period - 1``
        (a full-slot transfer arriving one cycle into its own slot).  Given a
        core and a transfer length the bound tightens to
        ``period - slot_length + transfer_cycles - 1``: the worst arrival is
        one cycle after the last in-slot start point.
        """
        if core_id is None or transfer_cycles is None:
            return self.period - 1
        length = self.slot_length(core_id)
        if transfer_cycles > length:
            raise ConfigError(
                f"transfer of {transfer_cycles} cycles does not fit into a "
                f"TDMA slot of {length} cycles")
        return self.period - length + transfer_cycles - 1

    def bottleneck_core(self) -> int:
        """The core with the smallest slot (first on ties).

        For any transfer length, :meth:`worst_case_wait` is largest for the
        core with the shortest slot, so this core's refined per-transfer
        bound dominates every other core's — the right core to analyse when
        one WCET bound must cover a whole homogeneous system (e.g. the
        makespan of an exploration design point).
        """
        weights = self.weights
        return min(range(self.num_cores), key=lambda core: weights[core])

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ConfigError(
                f"core id {core_id} out of range for {self.num_cores} cores")
