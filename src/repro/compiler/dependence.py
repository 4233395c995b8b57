"""Data-dependence analysis within a basic block.

The scheduler needs the minimum issue distance (in bundles) that must
separate dependent instructions.  Distances encode the exposed delays of the
Patmos pipeline: a consumer of a load result must issue at least
``1 + load_delay_slots`` bundles after the load, a consumer of an ALU result
at least one bundle later (full forwarding), and instructions in the same
bundle observe the *old* register values (VLIW semantics), so
anti-dependences allow a distance of zero.

The scheduler builds one graph per block, over the body followed by the
block's terminator, so the terminator's constraints (its guard predicate, a
``callr`` address register, the ``srb``/``sro`` of a ``ret``) come from the
same pass as the body's.

The graph is built in one forward pass that reads each instruction's
registers once (:meth:`Instruction.def_use`).  Each register (general-purpose,
predicate or special) keeps a table of its definitions since its last real
definition and of its readers since then; an instruction gets edges only from
those table entries.  An earlier access that has dropped out of a table is
still ordered through the chain of definitions that displaced it, whose
distances add up to at least the direct edge's, so the schedule constraints
and critical-path lengths equal those of a graph with an edge for every
dependent pair, at a cost linear in the block length.  The same pass chains
the ordered side effects (memory accesses, stack control, waits, output),
each to the previous one.

The pass is written for a small constant cost per instruction.  A
register's last real definition is a single index; only the ``wmem`` that
completes a split load adds further definitions, kept in a separate and
usually empty table.  Result delays come from a per-pipeline table
(:func:`~repro.isa.opcodes.result_delay_table`).  No per-instruction sets
are built: an edge from one earlier access reached through several
registers is made once, by remembering per edge kind the last instruction
each access got an edge to.  Edges are created as plain tuples of the
:class:`Dependence` type, and the predecessor and successor lists are
filled in one pass at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..config import PipelineConfig
from ..isa.instruction import Instruction
from ..isa.opcodes import Format, Opcode, OpInfo, result_delay_table


class Dependence(NamedTuple):
    """A scheduling constraint: ``issue(dst) >= issue(src) + distance``."""

    src: int
    dst: int
    distance: int
    kind: str


@dataclass
class DependenceGraph:
    """Dependence edges between the instructions of one basic block.

    Every edge runs forward (``src < dst``), so the first ``n``
    instructions and the edges among them form a graph of their own.
    """

    instructions: list[Instruction]
    edges: list[Dependence] = field(default_factory=list)
    _preds: list[list[Dependence]] = field(init=False, repr=False)
    _succs: list[list[Dependence]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._preds = preds = [[] for _ in self.instructions]
        self._succs = succs = [[] for _ in self.instructions]
        for edge in self.edges:
            preds[edge.dst].append(edge)
            succs[edge.src].append(edge)

    def add_edge(self, edge: Dependence) -> None:
        self.edges.append(edge)
        self._preds[edge.dst].append(edge)
        self._succs[edge.src].append(edge)

    def in_degrees(self) -> list[int]:
        """The number of incoming edges of each instruction."""
        return [len(preds) for preds in self._preds]

    def predecessors(self, index: int) -> list[Dependence]:
        return self._preds[index]

    def successors(self, index: int) -> list[Dependence]:
        return self._succs[index]

    def critical_path_lengths(self, count: int | None = None) -> list[int]:
        """Longest path (in required issue distance) from each node to any sink.

        With ``count``, only the first ``count`` instructions and the edges
        among them are considered.
        """
        if count is None:
            count = len(self.instructions)
        lengths = [0] * count
        succs = self._succs
        for index in range(count - 1, -1, -1):
            best = 0
            for edge in succs[index]:
                if edge.dst < count:
                    length = edge.distance + lengths[edge.dst]
                    if length > best:
                        best = length
            lengths[index] = best
        return lengths


def _orders(info: OpInfo) -> bool:
    """Whether instructions of this kind keep their mutual program order.

    Memory accesses, stack-control, split-load waits, calls' special-register
    effects and debug output all keep their program order; this is
    conservative but simple and matches what a careful hardware scheduler
    would assume without alias analysis.
    """
    return (info.is_mem_access or info.is_stack_control
            or info.fmt in (Format.WAIT, Format.OUT, Format.MTS, Format.HALT))


#: Opcodes of the ordered side effects, and their mnemonics (the builder's
#: key: a string hashes without a Python-level call, an enum member not).
_ORDERED = frozenset(op for op in Opcode if _orders(op.info))
_ORDERED_MNEMONICS = frozenset(op.value for op in _ORDERED)
_WMEM = Opcode.WMEM
#: Builds a :class:`Dependence` without the named tuple's Python-level
#: ``__new__``: ``_new_tuple(Dependence, (src, dst, distance, kind))``.
_new_tuple = tuple.__new__


def build_dependence_graph(instructions: list[Instruction],
                           pipeline: PipelineConfig,
                           split_load_distance: int = 1) -> DependenceGraph:
    """Build the dependence graph of a basic block.

    ``split_load_distance`` is the issue distance the scheduler should aim for
    between a decoupled main-memory load and its ``wmem``: setting it to the
    expected memory latency lets the scheduler hide that latency behind
    independent work, which is exactly the deterministic latency hiding the
    split-load design enables (Section 3.3 of the paper).
    """
    instrs = list(instructions)
    delay_of = result_delay_table(pipeline)
    edges: list[Dependence] = []
    edge = edges.append

    # Per register: its last real definition, the wmems that completed a
    # split load into it since then (rare, so kept apart and usually
    # empty), and the instructions that read it since then.  Predicates
    # have tables of their own, apart from the general-purpose and special
    # registers.
    defs: dict[object, int] = {}
    wmem_defs: dict[int, list[int]] = {}
    readers: dict[object, list[int]] = {}
    pred_defs: dict[int, int] = {}
    pred_readers: dict[int, list[int]] = {}
    # Per earlier instruction and edge kind, the last instruction that got
    # an edge of that kind from it: an instruction that meets one earlier
    # access through several registers gets a single edge from it.
    raw_to = [-1] * len(instrs)
    raw_pred_to = raw_to.copy()
    waw_to = raw_to.copy()
    war_to = raw_to.copy()
    delays: list[int] = []
    pending_rd: int | None = None
    previous_ordered: int | None = None
    for later, instr in enumerate(instrs):
        reads, pred_reads, writes, pred_writes = instr.def_use()
        info = instr.info
        delay = delay_of[info.mnemonic]
        delays.append(delay)
        # True dependences (read after write): respect the exposed delay.
        for r in reads:
            src = defs.get(r)
            if src is not None and raw_to[src] != later:
                raw_to[src] = later
                edge(_new_tuple(Dependence, (src, later, 1 + delays[src], "raw")))
        if wmem_defs:
            for r in reads:
                for src in wmem_defs.get(r, ()):
                    if raw_to[src] != later:
                        raw_to[src] = later
                        edge(_new_tuple(Dependence, (
                            src, later, 1 + delays[src], "raw")))
        for p in pred_reads:
            src = pred_defs.get(p)
            if src is not None and raw_pred_to[src] != later:
                raw_pred_to[src] = later
                edge(_new_tuple(Dependence, (src, later, 1, "raw-pred")))
        # Output dependences (write after write): the later write must
        # commit after the earlier one.  Anti dependences (write after
        # read): same bundle is fine because all operands are read before
        # any write commits.
        for r in writes:
            src = defs.get(r)
            if src is not None and waw_to[src] != later:
                waw_to[src] = later
                edge(_new_tuple(Dependence, (
                    src, later, max(1, 1 + delays[src] - delay), "waw")))
            if wmem_defs and r in wmem_defs:
                for src in wmem_defs.pop(r):
                    if waw_to[src] != later:
                        waw_to[src] = later
                        edge(_new_tuple(Dependence, (
                            src, later, max(1, 1 + delays[src] - delay),
                            "waw")))
            sources = readers.get(r)
            if sources:
                for src in sources:
                    if war_to[src] != later:
                        war_to[src] = later
                        edge(_new_tuple(Dependence, (src, later, 0, "war")))
        for p in pred_writes:
            src = pred_defs.get(p)
            if src is not None and waw_to[src] != later:
                waw_to[src] = later
                edge(_new_tuple(Dependence, (
                    src, later, max(1, 1 + delays[src] - delay), "waw")))
            sources = pred_readers.get(p)
            if sources:
                for src in sources:
                    if war_to[src] != later:
                        war_to[src] = later
                        edge(_new_tuple(Dependence, (src, later, 0, "war")))
        for r in reads:
            sources = readers.get(r)
            if sources is None:
                readers[r] = [later]
            else:
                sources.append(later)
        for p in pred_reads:
            sources = pred_readers.get(p)
            if sources is None:
                pred_readers[p] = [later]
            else:
                sources.append(later)
        for r in writes:
            defs[r] = later
            readers[r] = []
        for p in pred_writes:
            pred_defs[p] = later
            pred_readers[p] = []
        # Ordered side effects keep program order; chaining consecutive ones
        # is enough because the constraint is transitive.
        if info.mnemonic in _ORDERED_MNEMONICS:
            if previous_ordered is not None:
                distance = 1
                # A split main-memory load and its wmem must stay ordered;
                # aiming for `split_load_distance` bundles lets independent
                # work hide the memory latency (Section 3.3).
                if instr.opcode is _WMEM and instrs[
                        previous_ordered].info.is_decoupled_load:
                    distance = max(1, split_load_distance)
                edge(_new_tuple(Dependence, (
                    previous_ordered, later, distance, "order")))
            previous_ordered = later
            # A decoupled main-memory load (itself ordered, like the wmem)
            # only commits its destination register when the matching wmem
            # executes, so the wmem also acts as a source definition of that
            # register (it displaces no earlier access).
            if info.is_decoupled_load:
                pending_rd = instr.rd
            elif instr.opcode is _WMEM:
                if pending_rd is not None:
                    wmem_defs.setdefault(pending_rd, []).append(later)
                pending_rd = None

    return DependenceGraph(instrs, edges)
