"""Simulation results and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class StallBreakdown:
    """Where stall cycles were spent."""

    method_cache: int = 0
    icache: int = 0
    data_cache: int = 0
    stack_cache: int = 0
    split_load_wait: int = 0
    store_buffer: int = 0
    arbitration: int = 0

    def total(self) -> int:
        return (self.method_cache + self.icache + self.data_cache +
                self.stack_cache + self.split_load_wait + self.store_buffer +
                self.arbitration)

    def to_dict(self) -> dict[str, int]:
        """Plain dict of the per-category stall cycles (JSON-serializable)."""
        return {
            "method_cache": self.method_cache,
            "icache": self.icache,
            "data_cache": self.data_cache,
            "stack_cache": self.stack_cache,
            "split_load_wait": self.split_load_wait,
            "store_buffer": self.store_buffer,
            "arbitration": self.arbitration,
        }


@dataclass(slots=True)
class TraceEntry:
    """One issued bundle in an execution trace.

    Allocated once per issued bundle when tracing is enabled, so it is kept
    slotted to keep long traces cheap.
    """

    cycle: int
    addr: int
    text: str


@dataclass
class SimResult:
    """Result of simulating one program on one core."""

    cycles: int
    bundles: int
    instructions: int
    nops: int
    output: list[int] = field(default_factory=list)
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    #: Execution count of every basic block, keyed by ``(function, label)``.
    block_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Call counts per callee function name.
    call_counts: dict[str, int] = field(default_factory=dict)
    cache_stats: dict[str, dict] = field(default_factory=dict)
    trace: Optional[list[TraceEntry]] = None
    halted: bool = True
    #: Issue slots offered per bundle cycle (2 for dual-issue, 1 otherwise).
    issue_width: int = 2
    #: Cycles the core spent with no work to run (task scheduler idle gaps,
    #: or the tail a halted-early core sits out while the rest of a co-sim
    #: finishes).  Distinct from stall cycles: a stalled core is *executing*
    #: a program that is waiting on memory; an idle core has nothing to run.
    idle_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle (including NOPs, which occupy issue slots)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def useful_ipc(self) -> float:
        """Instructions per cycle excluding NOPs."""
        if self.cycles == 0:
            return 0.0
        return (self.instructions - self.nops) / self.cycles

    @property
    def slot_utilisation(self) -> float:
        """Fraction of issue slots filled with useful (non-NOP) instructions.

        The machine offers ``issue_width`` slots per issued bundle cycle
        (two when dual-issue is configured, one otherwise); the utilisation
        measures how well the compiler fills them.  A single-issue run can
        therefore reach 1.0 instead of being capped at 0.5 by construction.
        """
        if self.bundles == 0:
            return 0.0
        return (self.instructions - self.nops) / (self.issue_width * self.bundles)

    def metrics(self) -> dict:
        """Flat, JSON-serializable metrics of this run.

        Used by batch tooling (``repro.explore``) to persist results without
        dragging the trace or the raw per-block counters along.  The nested
        dicts are copies, so a caller may mutate them without touching this
        result (which may be a recording shared by later runs).
        """
        controller = self.cache_stats.get("memory_controller", {})
        return {
            "cycles": self.cycles,
            "bundles": self.bundles,
            "instructions": self.instructions,
            "nops": self.nops,
            "stall_cycles": self.stalls.total(),
            "stalls": self.stalls.to_dict(),
            "issue_width": self.issue_width,
            "slot_utilisation": round(self.slot_utilisation, 6),
            "cache_stats": {name: dict(counters)
                            for name, counters in self.cache_stats.items()},
            # Interference figures of merit, surfaced flat so batch tooling
            # (explore/Pareto) can rank design points by memory contention:
            # arbitration waits are charged both by the simulator (cache
            # fills) and inside the controller (split loads, stores).
            "arbitration_cycles": (self.stalls.arbitration
                                   + controller.get("arbitration_cycles", 0)),
            "words_transferred": controller.get("words_transferred", 0),
            "write_stall_cycles": controller.get("write_stall_cycles", 0),
            "idle_cycles": self.idle_cycles,
            "halted": self.halted,
        }

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"cycles           : {self.cycles}",
            f"bundles issued   : {self.bundles}",
            f"instructions     : {self.instructions} ({self.nops} nops)",
            f"IPC (useful)     : {self.useful_ipc:.3f}",
            f"stall cycles     : {self.stalls.total()}",
            f"  method cache   : {self.stalls.method_cache}",
            f"  i-cache        : {self.stalls.icache}",
            f"  data caches    : {self.stalls.data_cache}",
            f"  stack cache    : {self.stalls.stack_cache}",
            f"  split-load wait: {self.stalls.split_load_wait}",
            f"  store buffer   : {self.stalls.store_buffer}",
        ]
        if self.idle_cycles:
            lines.append(f"idle cycles      : {self.idle_cycles}")
        return "\n".join(lines)
