"""The IPET integer linear program: the oracle of the structural solver.

:func:`repro.wcet.ipet.solve_ipet` solves IPET instances by collapsing
loops.  :func:`_milp` states the same instance as the classic integer
linear program -- maximise ``sum(cost_b * x_b)`` over edge counts subject to
flow conservation, one unit of flow from entry to exit and every loop
bound -- and solves it with :func:`scipy.optimize.milp`.  The differential
tests in ``test_wcet.py`` check that both give the same WCET.  numpy and
scipy are test dependencies only.
"""

from __future__ import annotations

from repro.errors import WcetError
from repro.program.cfg import ControlFlowGraph
from repro.wcet.ipet import (
    SINK,
    SOURCE,
    IpetResult,
    _bounded_loops,
    _edges_with_virtuals,
    _flow_result,
)


def _milp(cfg: ControlFlowGraph, block_costs: dict[str, int],
          loop_bounds: dict[str, int] | None = None) -> IpetResult:
    """Solve the IPET integer linear program (same arguments as
    :func:`~repro.wcet.ipet.solve_ipet`)."""
    import numpy as np
    from scipy import optimize, sparse

    loops, loop_bounds = _bounded_loops(cfg, loop_bounds)
    edges = _edges_with_virtuals(cfg)
    edge_index = {edge: i for i, edge in enumerate(edges)}
    num_edges = len(edges)
    reachable = cfg.reachable()

    # Objective: maximise sum over blocks of cost * (sum of incoming edges).
    objective = np.zeros(num_edges)
    for (src, dst), index in edge_index.items():
        if dst in block_costs:
            objective[index] += block_costs[dst]

    rows: list[np.ndarray] = []
    lower: list[float] = []
    upper: list[float] = []

    def add_constraint(coeffs: dict[int, float], lo: float, hi: float) -> None:
        row = np.zeros(num_edges)
        for index, value in coeffs.items():
            row[index] = value
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    # Source emits exactly one execution; sink absorbs exactly one.
    add_constraint({edge_index[(SOURCE, cfg.entry)]: 1.0}, 1.0, 1.0)
    sink_edges = {edge_index[e]: 1.0 for e in edges if e[1] == SINK}
    if not sink_edges:
        raise WcetError(f"function {cfg.function.name} has no exit block")
    add_constraint(sink_edges, 1.0, 1.0)

    # Flow conservation per block: sum(in) - sum(out) == 0.
    for label in reachable:
        coeffs: dict[int, float] = {}
        for edge, index in edge_index.items():
            if edge[1] == label:
                coeffs[index] = coeffs.get(index, 0.0) + 1.0
            if edge[0] == label:
                coeffs[index] = coeffs.get(index, 0.0) - 1.0
        add_constraint(coeffs, 0.0, 0.0)

    # Loop bounds: header executions <= bound * entries from outside the loop.
    for loop in loops:
        bound = loop_bounds[loop.header]
        coeffs: dict[int, float] = {}
        for edge, index in edge_index.items():
            src, dst = edge
            if dst == loop.header and (src, dst) in loop.back_edges:
                coeffs[index] = coeffs.get(index, 0.0) + 1.0
            elif dst == loop.header:
                coeffs[index] = coeffs.get(index, 0.0) - float(bound - 1)
        add_constraint(coeffs, -np.inf, 0.0)

    constraints = optimize.LinearConstraint(
        sparse.csr_matrix(np.vstack(rows)), np.array(lower), np.array(upper))
    bounds = optimize.Bounds(lb=np.zeros(num_edges), ub=np.full(num_edges, np.inf))
    result = optimize.milp(
        c=-objective, constraints=constraints, bounds=bounds,
        integrality=np.ones(num_edges))
    if not result.success:
        raise WcetError(
            f"IPET ILP for {cfg.function.name} failed: {result.message}")

    edge_counts = {
        edge: int(round(result.x[index])) for edge, index in edge_index.items()
    }
    return _flow_result(cfg, edges, edge_counts, int(round(-result.fun)))
