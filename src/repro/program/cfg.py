"""Control-flow graph construction and loop analysis for a function.

The CFG is built from the unscheduled instruction view of a function's basic
blocks and is never mutated afterwards, so every analysis of it runs once, on
first use, and is cached on the graph:

* reachability and a DFS reverse postorder from the entry block;
* immediate dominators, by the iterative Cooper–Harvey–Kennedy algorithm
  ("A Simple, Fast Dominance Algorithm", 2001) over that postorder;
* back edges (edges whose head dominates their tail) and the natural loops
  they close, one per header; loop bounds attached to header blocks feed the
  IPET-based WCET analysis;
* the topological order of the reachable graph without its back edges, which
  exists exactly when the CFG is reducible.

Edges keep the order of the blocks and of each block's successors, with
duplicates removed, and so do the predecessor lists.

:func:`merged_cfg` builds the CFG of a top-level function merged with its
sub-functions once per program, so the value analysis and the WCET analysis
of one program share each graph and its dominators and loops.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..errors import WcetError
from .function import Function
from .program import Program


@dataclass(frozen=True)
class Loop:
    """A natural loop: header block plus the set of blocks in the loop body."""

    header: str
    body: frozenset[str]
    back_edges: frozenset[tuple[str, str]]
    bound: Optional[int] = None

    def contains(self, label: str) -> bool:
        return label in self.body


def kahn_order(successors: dict[str, list[str]]) -> Optional[list[str]]:
    """Topological order of a digraph, or ``None`` if it has a cycle.

    ``successors`` maps every node, in order, to its successors.  Nodes are
    emitted generation by generation (Kahn's algorithm): first the nodes
    without predecessors in that order, then the nodes each generation
    releases, in the order their last in-edge is removed.
    """
    indegree = dict.fromkeys(successors, 0)
    for succs in successors.values():
        for succ in succs:
            indegree[succ] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    order: list[str] = []
    while ready:
        order.extend(ready)
        released = []
        for node in ready:
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    released.append(succ)
        ready = released
    return order if len(order) == len(successors) else None


class ControlFlowGraph:
    """Control-flow graph of one function.

    ``successors`` maps every block label, in layout order, to its distinct
    successor labels; :meth:`build` derives it from the function's blocks.
    """

    def __init__(self, function: Function, successors: dict[str, list[str]],
                 entry: str, exits: list[str]):
        self.function = function
        self.entry = entry
        self.exits = exits
        self._succs = successors
        self._preds: dict[str, list[str]] = {label: [] for label in successors}
        for label, succs in successors.items():
            for succ in succs:
                self._preds[succ].append(label)

    @classmethod
    def build(cls, function: Function) -> "ControlFlowGraph":
        """Construct the CFG of ``function`` from its basic blocks."""
        labels = function.block_labels()
        successors: dict[str, list[str]] = {label: [] for label in labels}
        exits: list[str] = []
        for index, block in enumerate(function.blocks):
            fallthrough = labels[index + 1] if index + 1 < len(labels) else None
            succs = block.successors(fallthrough)
            out = successors[block.label]
            for succ in succs:
                if succ not in successors:
                    raise WcetError(
                        f"block {block.label} of {function.name} branches to "
                        f"unknown label {succ!r}")
                if succ not in out:
                    out.append(succ)
            if not succs:
                exits.append(block.label)
        if not exits and labels:
            # Function with no return/halt (e.g. an endless loop): treat the
            # last block as the structural exit for analysis purposes.
            exits.append(labels[-1])
        return cls(function, successors, labels[0] if labels else "", exits)

    # -- basic queries -----------------------------------------------------------

    def successors(self, label: str) -> list[str]:
        return list(self._succs[label])

    def predecessors(self, label: str) -> list[str]:
        return list(self._preds[label])

    def has_block(self, label: str) -> bool:
        return label in self._succs

    def edges(self) -> list[tuple[str, str]]:
        return [(src, dst) for src, succs in self._succs.items()
                for dst in succs]

    def reachable(self) -> set[str]:
        """Labels reachable from the entry block."""
        return set(self._postorder)

    def reverse_postorder(self) -> list[str]:
        """Reachable labels in DFS reverse postorder from the entry block."""
        return self._postorder[::-1]

    @cached_property
    def _postorder(self) -> list[str]:
        postorder: list[str] = []
        if not self.entry:
            return postorder
        seen = {self.entry}
        stack = [(self.entry, iter(self._succs[self.entry]))]
        while stack:
            node, pending = stack[-1]
            for succ in pending:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self._succs[succ])))
                    break
            else:
                stack.pop()
                postorder.append(node)
        return postorder

    # -- dominators and loops ------------------------------------------------------

    def dominators(self) -> dict[str, str]:
        """Immediate dominators of all reachable blocks except the entry."""
        return dict(self._idom)

    @cached_property
    def _idom(self) -> dict[str, str]:
        postorder = self._postorder
        number = {label: i for i, label in enumerate(postorder)}
        idom = {self.entry: self.entry} if postorder else {}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while number[a] < number[b]:
                    a = idom[a]
                while number[b] < number[a]:
                    b = idom[b]
            return a

        rpo = postorder[-2::-1]
        changed = True
        while changed:
            changed = False
            for label in rpo:
                new = None
                for pred in self._preds[label]:
                    if pred in idom:
                        new = pred if new is None else intersect(pred, new)
                if idom.get(label) != new:
                    idom[label] = new
                    changed = True
        idom.pop(self.entry, None)
        return idom

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        idom = self._idom
        node = b
        while node != a:
            node = idom.get(node)
            if node is None:
                return False
        return True

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges ``(tail, head)`` where ``head`` dominates ``tail``."""
        return list(self._back_edges)

    @cached_property
    def _back_edges(self) -> list[tuple[str, str]]:
        reachable = self.reachable()
        return [(tail, head) for tail, head in self.edges()
                if tail in reachable and head in reachable
                and self.dominates(head, tail)]

    def natural_loops(self) -> list[Loop]:
        """Natural loops of the function, one per loop header.

        Back edges sharing a header are merged into a single loop.  The loop
        bound annotation of the header block (if any) is attached.
        """
        return list(self._loops)

    @cached_property
    def _loops(self) -> list[Loop]:
        loops_by_header: dict[str, set[str]] = {}
        edges_by_header: dict[str, set[tuple[str, str]]] = {}
        for tail, head in self._back_edges:
            body = loops_by_header.setdefault(head, {head})
            edges_by_header.setdefault(head, set()).add((tail, head))
            # Collect all nodes that can reach `tail` without passing `head`.
            stack = [tail]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(p for p in self._preds[node] if p != head)
        return [Loop(header=header, body=frozenset(body),
                     back_edges=frozenset(edges_by_header[header]),
                     bound=self.function.block(header).loop_bound)
                for header, body in loops_by_header.items()]

    def loop_of(self, label: str) -> Optional[Loop]:
        """Return the innermost loop containing ``label`` (smallest body)."""
        candidates = [loop for loop in self.natural_loops() if loop.contains(label)]
        if not candidates:
            return None
        return min(candidates, key=lambda loop: len(loop.body))

    def loop_nest_depth(self, label: str) -> int:
        """Number of loops containing ``label``."""
        return sum(1 for loop in self.natural_loops() if loop.contains(label))

    @cached_property
    def _acyclic_order(self) -> Optional[list[str]]:
        reachable = self.reachable()
        back = set(self._back_edges)
        forward = {
            label: [succ for succ in succs
                    if succ in reachable and (label, succ) not in back]
            for label, succs in self._succs.items() if label in reachable}
        return kahn_order(forward)

    def is_reducible(self) -> bool:
        """True if every cycle of the CFG is part of a natural loop."""
        return self._acyclic_order is not None

    def topological_order(self) -> list[str]:
        """Topological order of the reachable CFG without its back edges.

        Raises :class:`WcetError` for an irreducible CFG, which has no such
        order; :meth:`reverse_postorder` is defined for every CFG.
        """
        order = self._acyclic_order
        if order is None:
            raise WcetError(
                f"control flow of {self.function.name} is irreducible")
        return list(order)


# Merged CFGs by program identity; the weak reference both guards against
# id() reuse and evicts the entry when the program is garbage collected.
# The CFGs hold the merged functions, never the program itself.
_MERGED_CFGS: dict[int, tuple] = {}


def merged_cfg(program: Program, function: Function) -> ControlFlowGraph:
    """CFG of ``function`` merged with its sub-functions
    (:meth:`~repro.program.Program.merged_function`), built once per
    program (programs are not mutated after link)."""
    key = id(program)
    entry = _MERGED_CFGS.get(key)
    if entry is None or entry[0]() is not program:
        ref = weakref.ref(program,
                          lambda _ref, key=key: _MERGED_CFGS.pop(key, None))
        entry = _MERGED_CFGS[key] = (ref, {})
    cfgs = entry[1]
    cfg = cfgs.get(function.name)
    if cfg is None:
        cfg = cfgs[function.name] = ControlFlowGraph.build(
            program.merged_function(function))
    return cfg
