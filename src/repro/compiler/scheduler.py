"""VLIW instruction scheduler: bundling and delay-slot filling.

Patmos is statically scheduled: the compiler must (a) pack independent
instructions into dual-issue bundles, (b) keep the required issue distance
between producers and consumers (the exposed delays of loads, multiplies and
compares), and (c) place control-transfer instructions so that exactly the
architectural number of delay-slot bundles follows them, padding with NOPs
only when no useful instruction can be moved into the slots.

The scheduler is a classic list scheduler over the block-local dependence
graph with critical-path priority.  Each instruction counts its unscheduled
predecessors and tracks its earliest issue cycle; committing a bundle updates
both for the successors of its instructions and releases those whose count
drops to zero, and each cycle picks the ready instructions from the released
pool.  It is deliberately local (per basic block); global
code motion is out of scope for this reproduction, as in the paper's early
LLVM port (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PatmosConfig
from ..errors import CompilerError
from ..isa.instruction import Bundle, Instruction, NOP
from ..isa.opcodes import control_delay_slots, result_delay_slots
from ..program.basic_block import BasicBlock
from ..program.function import Function
from ..program.program import Program
from .dependence import build_dependence_graph


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
        terminator = block.terminator()
        body = block.body_instructions()
        slots, issue_slot = self._schedule_body(body)

        if terminator is not None:
            slots = self._place_terminator(slots, issue_slot, body, terminator)

        bundles = [Bundle(*slot) for slot in slots]
        if stats is not None:
            stats.blocks += 1
            stats.bundles += len(bundles)
            useful = sum(1 for b in bundles for i in b if not i.is_nop)
            stats.instructions += useful
            stats.nops_inserted += sum(1 for b in bundles for i in b if i.is_nop)
            stats.dual_issue_bundles += sum(1 for b in bundles if len(b) == 2)
        return bundles

    # -- body scheduling ----------------------------------------------------------------

    def _schedule_body(self, body: list[Instruction]
                       ) -> tuple[list[list[Instruction]], list[int]]:
        """List-schedule the block body.

        Returns the slot lists and the issue cycle of each body instruction.
        """
        if not body:
            return [], []
        graph = build_dependence_graph(
            body, self.config.pipeline,
            split_load_distance=self.split_load_distance)
        priorities = graph.critical_path_lengths()
        count = len(body)
        waiting = [len(graph.predecessors(index)) for index in range(count)]
        earliest = [0] * count
        issue_slot = [0] * count
        released = {index for index in range(count) if not waiting[index]}
        slots: list[list[Instruction]] = []
        cycle = 0

        # The graph is acyclic, so the released pool empties only once every
        # instruction is scheduled.
        while released:
            # Highest priority first; preserve program order among ties.
            ready = sorted((index for index in released
                            if earliest[index] <= cycle),
                           key=lambda i: (-priorities[i], i))

            bundle: list[Instruction] = []
            bundle_indices: list[int] = []
            for index in ready:
                if not self._fits(bundle, body[index]):
                    continue
                bundle.append(body[index])
                bundle_indices.append(index)
                if len(bundle) == 2 or body[index].info.long_imm \
                        or not self.dual_issue:
                    break
            if not bundle:
                # Nothing ready this cycle (waiting for a delay): emit a NOP.
                slots.append([NOP])
                cycle += 1
                continue
            # Keep the slot-0-only instruction first within the bundle.
            bundle_sorted = sorted(
                zip(bundle_indices, bundle),
                key=lambda pair: (not pair[1].info.slot0_only, pair[0]))
            slots.append([instr for _, instr in bundle_sorted])
            for index in bundle_indices:
                issue_slot[index] = cycle
                released.remove(index)
                for edge in graph.successors(index):
                    dst = edge.dst
                    earliest[dst] = max(earliest[dst], cycle + edge.distance)
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        released.add(dst)
            cycle += 1

        # Exposed delays must not leak across the block boundary: a consumer
        # in a successor block may issue immediately after this block, so a
        # producer with a non-zero delay needs that many bundles after it
        # within the block (the scheduler is block-local and has no liveness
        # information, so it pads conservatively).
        needed = 0
        for index, issue in enumerate(issue_slot):
            delay = result_delay_slots(body[index].info, self.config.pipeline)
            needed = max(needed, issue + 1 + delay)
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
                          issue_slot: list[int], body: list[Instruction],
                          terminator: Instruction) -> list[list[Instruction]]:
        delay_slots = control_delay_slots(terminator.info, self.config.pipeline)

        # Earliest position allowed by dependences from body instructions on
        # the terminator (guard predicate, call address register, srb/sro).
        deps = build_dependence_graph(
            body + [terminator], self.config.pipeline,
            split_load_distance=self.split_load_distance)
        earliest = max((issue_slot[edge.src] + edge.distance
                        for edge in deps.predecessors(len(body))), default=0)

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
