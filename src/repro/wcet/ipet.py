"""Implicit path enumeration (IPET) over a function's control-flow graph.

The classic IPET formulation bounds the WCET of a function by maximising
``sum(cost_b * x_b)`` over all block execution-count vectors ``x`` that
satisfy flow conservation and loop-bound constraints.

:func:`solve_ipet` solves every instance structurally, with one
longest-path pass per loop and one over the function.  On a reducible CFG
whose loops are all bounded by at least 1, each loop is collapsed, innermost
first, into a node whose cost depends on the edge it is left by:
``(bound - 1)`` times its heaviest iteration (header to back edge) plus its
heaviest path from the header to that exit edge.  The WCET is then the
longest path from entry to exit, and expanding the chosen paths gives an
integer flow that attains it.  This is the ILP optimum: a loop's bound
constraint scales with its entry count, so an optimal flow gains nothing by
giving different entries different iterations.  The instances the collapse
cannot solve are errors: a loop bound below 1, a CFG with no reachable exit
and irreducible control flow each raise a :class:`WcetError` that says so.
The integer linear program itself lives in the tests (``tests/ilp_oracle.py``)
as the oracle the structural solver is checked against; a pure longest-path
solver for loop-free (DAG) control flow is a further cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WcetError
from ..program.cfg import ControlFlowGraph, Loop

#: Virtual source/sink node names used in the edge-based formulation.
SOURCE = "__source__"
SINK = "__sink__"


@dataclass
class IpetResult:
    """Solution of one IPET instance."""

    wcet: int
    block_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)


def _edges_with_virtuals(cfg: ControlFlowGraph) -> list[tuple[str, str]]:
    edges = [(SOURCE, cfg.entry)]
    reachable = cfg.reachable()
    for src, dst in cfg.edges():
        if src in reachable and dst in reachable:
            edges.append((src, dst))
    for label in cfg.exits:
        if label in reachable:
            edges.append((label, SINK))
    return edges


def _bounded_loops(cfg: ControlFlowGraph, loop_bounds: dict[str, int] | None
                   ) -> tuple[list[Loop], dict[str, int]]:
    """The CFG's loops and the bound of each, ``loop_bounds`` taking
    precedence over header annotations."""
    loop_bounds = dict(loop_bounds or {})
    loops = cfg.natural_loops()
    for loop in loops:
        if loop.header not in loop_bounds:
            if loop.bound is None:
                raise WcetError(
                    f"loop at {loop.header!r} in {cfg.function.name} has no "
                    "bound annotation; WCET is unbounded")
            loop_bounds[loop.header] = loop.bound
        if loop_bounds[loop.header] < 1:
            raise WcetError(
                f"loop bound for {loop.header!r} in {cfg.function.name} "
                "must be >= 1")
    return loops, loop_bounds


def solve_ipet(cfg: ControlFlowGraph, block_costs: dict[str, int],
               loop_bounds: dict[str, int] | None = None) -> IpetResult:
    """Solve the IPET problem for one function.

    ``block_costs`` maps block labels to their worst-case cost in cycles.
    ``loop_bounds`` maps loop-header labels to the maximum number of header
    executions per loop entry; loops found in the CFG without a bound (either
    here or as a block annotation) are an error, because the WCET would be
    unbounded.
    """
    loops, bounds = _bounded_loops(cfg, loop_bounds)
    edges = _edges_with_virtuals(cfg)
    if not any(dst == SINK for _src, dst in edges):
        raise WcetError(f"function {cfg.function.name} has no reachable exit")
    return _collapse_loops(cfg, block_costs, loops, bounds, edges)


@dataclass
class _Region:
    """Heaviest paths from the start of one loop body (or of the function).

    Inner loops appear as single nodes named by their header.  ``via`` maps
    every node but the start to the ``(node, edge)`` step of its heaviest
    path.  ``ends`` maps each edge that leaves the region, or closes an
    iteration, to the node it leaves and the heaviest cost up to and
    including that edge.
    """

    header: str | None
    via: dict[str, tuple[str, tuple[str, str]]]
    ends: dict[tuple[str, str], tuple[str, int]]
    #: Heaviest edge back to the loop header.
    back: tuple[str, str] | None = None
    #: Exit edge -> cost of one entry of the collapsed loop left by it.
    exits: dict[tuple[str, str], int] = field(default_factory=dict)


def _collapse_loops(cfg: ControlFlowGraph, block_costs: dict[str, int],
                    loops: list[Loop], bounds: dict[str, int],
                    edges: list[tuple[str, str]]) -> IpetResult:
    """Structural IPET solution of a CFG with a reachable exit (an
    irreducible CFG has no topological order and raises there)."""
    order = cfg.topological_order()
    position = {label: index for index, label in enumerate(order)}
    successors: dict[str, list[str]] = {label: [] for label in order}
    for src, dst in edges:
        if src != SOURCE:
            successors[src].append(dst)
    # owner[label]: header of the outermost loop collapsed so far that
    # contains ``label``, else ``label`` itself.  Only reachable labels have
    # an owner; a loop body can also hold dead blocks that branch into it.
    owner = {label: label for label in order}
    collapsed: dict[str, _Region] = {}

    def heaviest_paths(start: str, header: str | None, labels) -> _Region:
        """Longest paths from ``start`` through the region of ``labels``."""
        arrive = {start: 0}
        region = _Region(header=header, via={}, ends={})
        for node in sorted({owner[label] for label in labels},
                           key=position.__getitem__):
            base = arrive[node]
            if node != header and node in collapsed:
                leaving = [(edge, base + value)
                           for edge, value in collapsed[node].exits.items()]
            else:
                cost = base + block_costs.get(node, 0)
                leaving = [((node, dst), cost) for dst in successors[node]]
            for edge, value in leaving:
                dst = edge[1]
                if dst == header or dst not in labels:
                    region.ends[edge] = (node, value)
                    continue
                target = owner[dst]
                if target not in arrive or value > arrive[target]:
                    arrive[target] = value
                    region.via[target] = (node, edge)
        return region

    innermost_first = sorted(loops, key=lambda loop: len(loop.body))
    for loop in innermost_first:
        header = loop.header
        body = loop.body.intersection(position)
        region = heaviest_paths(header, header, body)
        region.back = max((edge for edge in region.ends if edge[1] == header),
                          key=lambda edge: region.ends[edge][1])
        iterations = (bounds[header] - 1) * region.ends[region.back][1]
        region.exits = {edge: iterations + value
                        for edge, (_node, value) in region.ends.items()
                        if edge[1] != header}
        collapsed[header] = region
        for label in body:
            owner[label] = header

    top = heaviest_paths(cfg.entry, None, position)
    exit_edge, (_node, wcet) = max(top.ends.items(), key=lambda item: item[1][1])

    # Expand the chosen paths into edge counts, outer loops first so that
    # each loop knows how often it is left by each exit edge.
    counts = {(SOURCE, cfg.entry): 1}
    demand: dict[str, dict[tuple[str, str], int]] = {}

    def walk(region: _Region, edge: tuple[str, str], times: int) -> None:
        node = region.ends[edge][0]
        while True:
            if node != region.header and node in collapsed:
                exits = demand.setdefault(node, {})
                exits[edge] = exits.get(edge, 0) + times
            else:
                counts[edge] = counts.get(edge, 0) + times
            if node not in region.via:
                return
            node, edge = region.via[node]

    walk(top, exit_edge, 1)
    for loop in reversed(innermost_first):
        region = collapsed[loop.header]
        exits = demand.get(loop.header, {})
        for edge, times in exits.items():
            walk(region, edge, times)
        if exits:
            walk(region, region.back,
                 (bounds[loop.header] - 1) * sum(exits.values()))
    return _flow_result(cfg, edges, {edge: counts.get(edge, 0) for edge in edges},
                        wcet)


def _flow_result(cfg: ControlFlowGraph, edges: list[tuple[str, str]],
                 edge_counts: dict[tuple[str, str], int], wcet: int
                 ) -> IpetResult:
    reachable = cfg.reachable()
    block_counts: dict[str, int] = {}
    for (_src, dst), count in edge_counts.items():
        if dst in reachable:
            block_counts[dst] = block_counts.get(dst, 0) + count
    return IpetResult(wcet=wcet, block_counts=block_counts,
                      edge_counts=edge_counts)


def longest_path_dag(cfg: ControlFlowGraph, block_costs: dict[str, int]) -> int:
    """Longest-path WCET for loop-free control flow (cross-check for IPET)."""
    if cfg.back_edges():
        raise WcetError("longest_path_dag requires loop-free control flow")
    order = cfg.topological_order()
    best: dict[str, int] = {}
    for label in order:
        preds = [p for p in cfg.predecessors(label) if p in best]
        incoming = max((best[p] for p in preds), default=0)
        best[label] = incoming + block_costs.get(label, 0)
    exits = [label for label in cfg.exits if label in best]
    if not exits:
        raise WcetError(f"function {cfg.function.name} has no reachable exit")
    return max(best[label] for label in exits)
