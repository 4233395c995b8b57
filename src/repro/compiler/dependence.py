"""Data-dependence analysis within a basic block.

The scheduler needs the minimum issue distance (in bundles) that must
separate dependent instructions.  Distances encode the exposed delays of the
Patmos pipeline: a consumer of a load result must issue at least
``1 + load_delay_slots`` bundles after the load, a consumer of an ALU result
at least one bundle later (full forwarding), and instructions in the same
bundle observe the *old* register values (VLIW semantics), so
anti-dependences allow a distance of zero.

The graph is built in one forward pass.  Each register (general-purpose,
predicate or special) keeps a table of its definitions since its last real
definition and of its readers since then; an instruction gets edges only from
those table entries.  An earlier access that has dropped out of a table is
still ordered through the chain of definitions that displaced it, whose
distances add up to at least the direct edge's, so the schedule constraints
and critical-path lengths equal those of a graph with an edge for every
dependent pair, at a cost linear in the block length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import PipelineConfig
from ..isa.instruction import Instruction
from ..isa.opcodes import Format, Opcode, result_delay_slots


@dataclass(frozen=True)
class Dependence:
    """A scheduling constraint: ``issue(dst) >= issue(src) + distance``."""

    src: int
    dst: int
    distance: int
    kind: str


@dataclass
class DependenceGraph:
    """Dependence edges between the instructions of one basic block."""

    instructions: list[Instruction]
    edges: list[Dependence] = field(default_factory=list)
    _preds: dict[int, list[Dependence]] = field(default_factory=dict, repr=False)
    _succs: dict[int, list[Dependence]] = field(default_factory=dict, repr=False)

    def add_edge(self, edge: Dependence) -> None:
        self.edges.append(edge)
        self._preds.setdefault(edge.dst, []).append(edge)
        self._succs.setdefault(edge.src, []).append(edge)

    def predecessors(self, index: int) -> list[Dependence]:
        return self._preds.get(index, [])

    def successors(self, index: int) -> list[Dependence]:
        return self._succs.get(index, [])

    def critical_path_lengths(self) -> list[int]:
        """Longest path (in required issue distance) from each node to any sink."""
        count = len(self.instructions)
        lengths = [0] * count
        for index in range(count - 1, -1, -1):
            best = 0
            for edge in self.successors(index):
                best = max(best, edge.distance + lengths[edge.dst])
            lengths[index] = best
        return lengths


def _is_ordered_side_effect(instr: Instruction) -> bool:
    """Instructions whose mutual order must be preserved.

    Memory accesses, stack-control, split-load waits, calls' special-register
    effects and debug output all keep their program order; this is
    conservative but simple and matches what a careful hardware scheduler
    would assume without alias analysis.
    """
    info = instr.info
    return (info.is_mem_access or info.is_stack_control
            or info.fmt in (Format.WAIT, Format.OUT, Format.MTS, Format.HALT))


def build_dependence_graph(instructions: list[Instruction],
                           pipeline: PipelineConfig,
                           split_load_distance: int = 1) -> DependenceGraph:
    """Build the dependence graph of a basic block body.

    ``split_load_distance`` is the issue distance the scheduler should aim for
    between a decoupled main-memory load and its ``wmem``: setting it to the
    expected memory latency lets the scheduler hide that latency behind
    independent work, which is exactly the deterministic latency hiding the
    split-load design enables (Section 3.3 of the paper).
    """
    graph = DependenceGraph(instructions=list(instructions))

    def add(src: int, dst: int, distance: int, kind: str) -> None:
        graph.add_edge(Dependence(src=src, dst=dst, distance=distance, kind=kind))

    # Per register: the instructions that defined it since its last real
    # definition (inclusive), and those that read it since then.  Predicates
    # are tagged to keep them apart from the general-purpose registers.
    defs: dict[object, list[int]] = {}
    readers: dict[object, list[int]] = {}
    delays = [result_delay_slots(instr.info, pipeline) for instr in instructions]
    pending_rd: int | None = None
    for later, instr in enumerate(instructions):
        uses = [*instr.gpr_uses(), *instr.special_uses()]
        pred_uses = [("p", p) for p in instr.pred_uses()]
        written = [*instr.gpr_defs(), *instr.special_defs(),
                   *(("p", p) for p in instr.pred_defs())]
        # True dependences (read after write): respect the exposed delay.
        for src in sorted({i for r in uses for i in defs.get(r, ())}):
            add(src, later, 1 + delays[src], "raw")
        for src in sorted({i for r in pred_uses for i in defs.get(r, ())}):
            add(src, later, 1, "raw-pred")
        # Output dependences (write after write): the later write must
        # commit after the earlier one.
        for src in sorted({i for r in written for i in defs.get(r, ())}):
            add(src, later, max(1, 1 + delays[src] - delays[later]), "waw")
        # Anti dependences (write after read): same bundle is fine because
        # all operands are read before any write commits.
        for src in sorted({i for r in written for i in readers.get(r, ())}):
            add(src, later, 0, "war")
        for resource in uses + pred_uses:
            readers.setdefault(resource, []).append(later)
        for resource in written:
            defs[resource] = [later]
            readers[resource] = []
        # A decoupled main-memory load only commits its destination register
        # when the matching wmem executes, so the wmem also acts as a source
        # definition of that register (it displaces no earlier access).
        if instr.info.is_decoupled_load and instr.rd is not None:
            pending_rd = instr.rd
        elif instr.opcode is Opcode.WMEM:
            if pending_rd is not None:
                defs.setdefault(pending_rd, []).append(later)
            pending_rd = None

    # Ordered side effects (memory accesses, stack control, waits, output)
    # keep program order; chaining consecutive ones is enough because the
    # constraint is transitive.
    previous_ordered: int | None = None
    for index, instr in enumerate(instructions):
        if not _is_ordered_side_effect(instr):
            continue
        if previous_ordered is not None:
            distance = 1
            # A split main-memory load and its wmem must stay ordered; aiming
            # for `split_load_distance` bundles lets independent work hide
            # the memory latency (Section 3.3).
            if instructions[previous_ordered].info.is_decoupled_load \
                    and instr.opcode is Opcode.WMEM:
                distance = max(1, split_load_distance)
            add(previous_ordered, index, distance, "order")
        previous_ordered = index

    return graph
