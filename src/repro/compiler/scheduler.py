"""VLIW instruction scheduler: bundling and delay-slot filling.

Patmos is statically scheduled: the compiler must (a) pack independent
instructions into dual-issue bundles, (b) keep the required issue distance
between producers and consumers (the exposed delays of loads, multiplies and
compares), and (c) place control-transfer instructions so that exactly the
architectural number of delay-slot bundles follows them, padding with NOPs
only when no useful instruction can be moved into the slots.

The scheduler is a classic list scheduler with critical-path priority.  It
builds one dependence graph per block, over the body followed by the
terminator.  The body is scheduled first, without the edges into the
terminator (they count neither as waits nor towards priorities); the
terminator then reads its earliest cycle from its predecessors in the same
graph and is placed into the delay-slot window.

Each instruction counts its unscheduled predecessors and tracks its earliest
issue cycle; committing a bundle updates both for the successors of its
instructions.  A successor whose count drops to zero goes to one of two
heaps: the ready heap, ordered by ``(-priority, index)`` (highest priority
first, program order among ties), if it may issue next cycle, and otherwise
the delayed heap, ordered by earliest cycle, which feeds the ready heap as the
cycles pass.  Each cycle pops the ready heap until the bundle is full; an
instruction that does not fit the bundle (a second slot-0-only or
long-immediate instruction) is pushed back for the next cycle.  When nothing
is ready, NOPs fill the cycles until the next delay expires.  A cycle pops
only as far as it must to fill its bundle instead of sorting the whole ready
pool, so a block costs ``O((n + e) log n)`` for ``n`` instructions and ``e``
edges, plus ``O(log n)`` for each pushed-back instruction.  Around that
core, a block is scanned once for its terminator
(:meth:`~repro.program.basic_block.BasicBlock.split_terminator`) and its
slot lists once for the statistics.

The scheduler is deliberately local (per basic block); global code motion is
out of scope for this reproduction, as in the paper's early LLVM port
(Section 5).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..config import PatmosConfig
from ..errors import CompilerError
from ..isa.instruction import Bundle, Instruction, NOP
from ..isa.opcodes import Opcode, control_delay_slots, result_delay_table
from ..program.basic_block import BasicBlock
from ..program.function import Function
from ..program.program import Program
from .dependence import DependenceGraph, build_dependence_graph

_NOP = Opcode.NOP


@dataclass
class ScheduleStats:
    """Aggregate scheduling statistics (used by the dual-issue experiments)."""

    blocks: int = 0
    instructions: int = 0
    bundles: int = 0
    dual_issue_bundles: int = 0
    nops_inserted: int = 0

    @property
    def slot_utilisation(self) -> float:
        """Useful instructions per available issue slot."""
        if self.bundles == 0:
            return 0.0
        return self.instructions / (2 * self.bundles)


class BlockScheduler:
    """Schedules a single basic block into bundles."""

    def __init__(self, config: PatmosConfig, dual_issue: bool | None = None,
                 hide_split_loads: bool = True):
        self.config = config
        self.dual_issue = (config.pipeline.dual_issue
                           if dual_issue is None else dual_issue)
        # Aim to schedule the wmem of a split load one memory transfer after
        # the load itself, so independent instructions hide the latency.
        self.split_load_distance = (
            config.memory.transfer_cycles(1) if hide_split_loads else 1)

    # -- public API -----------------------------------------------------------------

    def schedule_block(self, block: BasicBlock, stats: ScheduleStats | None = None
                       ) -> list[Bundle]:
        """Schedule the block's instructions and return its bundles."""
        body, terminator = block.split_terminator()
        slots: list[list[Instruction]] = []
        if body or terminator is not None:
            graph = build_dependence_graph(
                body if terminator is None else body + [terminator],
                self.config.pipeline,
                split_load_distance=self.split_load_distance)
            slots, issue_slot = self._schedule_body(graph, len(body))
            if terminator is not None:
                slots = self._place_terminator(slots, issue_slot, graph)

        bundles = [Bundle(*slot) for slot in slots]
        if stats is not None:
            instructions = nops = dual = 0
            for slot in slots:
                instructions += len(slot)
                if len(slot) == 2:
                    dual += 1
                for instr in slot:
                    if instr.opcode is _NOP:
                        nops += 1
            stats.blocks += 1
            stats.bundles += len(slots)
            stats.instructions += instructions - nops
            stats.nops_inserted += nops
            stats.dual_issue_bundles += dual
        return bundles

    # -- body scheduling ----------------------------------------------------------------

    def _schedule_body(self, graph: DependenceGraph, count: int
                       ) -> tuple[list[list[Instruction]], list[int]]:
        """List-schedule the first ``count`` instructions of ``graph``.

        Any later node (the terminator) is never released, and its edges do
        not count towards the priorities.  Returns the slot lists and the
        issue cycle of each scheduled instruction.
        """
        instrs = graph.instructions
        priorities = graph.critical_path_lengths(count)
        waiting = graph.in_degrees()
        # A node beyond the body keeps one extra wait, so it never releases.
        for index in range(count, len(instrs)):
            waiting[index] += 1
        earliest = [0] * len(instrs)
        issue_slot = [0] * count
        ready = [(-priorities[index], index) for index in range(count)
                 if not waiting[index]]
        heapq.heapify(ready)
        delayed: list[tuple[int, int]] = []
        slots: list[list[Instruction]] = []
        cycle = 0

        # The graph is acyclic, so the heaps empty only once every
        # instruction is scheduled.
        while ready or delayed:
            while delayed and delayed[0][0] <= cycle:
                index = heapq.heappop(delayed)[1]
                heapq.heappush(ready, (-priorities[index], index))
            if not ready:
                # Nothing ready until the next delay expires: emit NOPs.
                while cycle < delayed[0][0]:
                    slots.append([NOP])
                    cycle += 1
                continue

            # Highest priority first, program order among ties; entries
            # that do not fit this bundle go back for the next cycle.
            bundle: list[Instruction] = []
            bundle_indices: list[int] = []
            skipped: list[tuple[int, int]] = []
            while ready:
                entry = heapq.heappop(ready)
                index = entry[1]
                if not self._fits(bundle, instrs[index]):
                    skipped.append(entry)
                    continue
                bundle.append(instrs[index])
                bundle_indices.append(index)
                if len(bundle) == 2 or instrs[index].info.long_imm \
                        or not self.dual_issue:
                    break
            for entry in skipped:
                heapq.heappush(ready, entry)
            # Keep the slot-0-only instruction first within the bundle, and
            # program order otherwise.
            if len(bundle) == 2 and (
                    (not bundle[1].info.slot0_only, bundle_indices[1])
                    < (not bundle[0].info.slot0_only, bundle_indices[0])):
                bundle.reverse()
            slots.append(bundle)
            next_cycle = cycle + 1
            for index in bundle_indices:
                issue_slot[index] = cycle
                for edge in graph.successors(index):
                    dst = edge.dst
                    if earliest[dst] < cycle + edge.distance:
                        earliest[dst] = cycle + edge.distance
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        if earliest[dst] <= next_cycle:
                            heapq.heappush(ready, (-priorities[dst], dst))
                        else:
                            heapq.heappush(delayed, (earliest[dst], dst))
            cycle = next_cycle

        # Exposed delays must not leak across the block boundary: a consumer
        # in a successor block may issue immediately after this block, so a
        # producer with a non-zero delay needs that many bundles after it
        # within the block (the scheduler is block-local and has no liveness
        # information, so it pads conservatively).
        delay_of = result_delay_table(self.config.pipeline)
        needed = 0
        for index, issue in enumerate(issue_slot):
            end = issue + 1 + delay_of[instrs[index].info.mnemonic]
            if end > needed:
                needed = end
        while len(slots) < needed:
            slots.append([NOP])
        return slots, issue_slot

    def _fits(self, bundle: list[Instruction], instr: Instruction) -> bool:
        if not bundle:
            return True
        if not self.dual_issue or len(bundle) >= 2:
            return False
        first = bundle[0]
        if first.info.long_imm or instr.info.long_imm:
            return False
        if first.info.slot0_only and instr.info.slot0_only:
            return False
        return True

    # -- terminator placement ---------------------------------------------------------------

    def _place_terminator(self, slots: list[list[Instruction]],
                          issue_slot: list[int], graph: DependenceGraph
                          ) -> list[list[Instruction]]:
        terminator = graph.instructions[-1]
        delay_slots = control_delay_slots(terminator.info, self.config.pipeline)

        # Earliest position allowed by dependences from body instructions on
        # the terminator (guard predicate, call address register, srb/sro).
        earliest = max((issue_slot[edge.src] + edge.distance
                        for edge in graph.predecessors(len(issue_slot))),
                       default=0)

        n = len(slots)
        desired = max(earliest, n - delay_slots, 0)

        placed_at = None
        for candidate in range(desired, n):
            slot = slots[candidate]
            if len(slot) == 1 and not slot[0].info.slot0_only \
                    and not slot[0].info.long_imm and self.dual_issue:
                slots[candidate] = [terminator, slot[0]]
                placed_at = candidate
                break
        if placed_at is None:
            # Insert the terminator as its own bundle at the desired position
            # (never before `earliest`, never leaving more than `delay_slots`
            # bundles after it).  If the terminator depends on a result that
            # is not ready yet, pad with NOPs first.
            while len(slots) < earliest:
                slots.append([NOP])
            n = len(slots)
            insert_at = max(earliest, n - delay_slots, 0)
            slots.insert(insert_at, [terminator])
            placed_at = insert_at
            n += 1

        following = n - 1 - placed_at
        if following > delay_slots:
            raise CompilerError(
                "internal scheduler error: too many bundles after a control "
                "transfer")
        for _ in range(delay_slots - following):
            slots.append([NOP])
        return slots


def schedule_function(function: Function, config: PatmosConfig,
                      dual_issue: bool | None = None,
                      stats: ScheduleStats | None = None,
                      hide_split_loads: bool = True) -> Function:
    """Schedule all blocks of a function in place and return it."""
    scheduler = BlockScheduler(config, dual_issue=dual_issue,
                               hide_split_loads=hide_split_loads)
    for block in function.blocks:
        block.bundles = scheduler.schedule_block(block, stats=stats)
    return function


def schedule_program(program: Program, config: PatmosConfig,
                     dual_issue: bool | None = None,
                     stats: ScheduleStats | None = None,
                     hide_split_loads: bool = True) -> Program:
    """Schedule every function of a program in place and return it."""
    for function in program.functions.values():
        schedule_function(function, config, dual_issue=dual_issue, stats=stats,
                          hide_split_loads=hide_split_loads)
    return program
