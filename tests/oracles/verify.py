"""Optimality and feasibility certificates for flow solutions.

Used by the test suite to certify solver correctness independently of
any reference implementation:

* flow conservation and capacity feasibility,
* reduced-cost optimality (``cost + π(u) - π(v) >= 0`` on residual arcs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FlowError
from repro.flow.network import FlowSolution

__all__ = ["check_flow_feasible", "check_flow_optimal", "residual_arcs"]


def check_flow_feasible(solution: FlowSolution, tol: float = 1e-6) -> None:
    """Raise unless the flow satisfies capacities and conservation."""
    problem = solution.problem
    assert problem.supply is not None
    scale = 1.0 + problem.total_positive_supply
    balance = -problem.supply.astype(float).copy()
    for k, arc in enumerate(problem.arcs):
        f = solution.flow[k]
        if f < -tol * scale:
            raise FlowError(f"negative flow {f:.3g} on arc {k}")
        if arc.capacity is not None and f > arc.capacity + tol * scale:
            raise FlowError(
                f"arc {k} over capacity: {f:.6g} > {arc.capacity:.6g}"
            )
        balance[arc.src] += f
        balance[arc.dst] -= f
    worst = float(np.abs(balance).max()) if len(balance) else 0.0
    if worst > tol * scale:
        node = int(np.abs(balance).argmax())
        raise FlowError(
            f"conservation violated at node {node} by {balance[node]:.6g}"
        )


def check_flow_optimal(solution: FlowSolution, tol: float = 1e-6) -> None:
    """Raise unless reduced costs certify optimality of the flow."""
    check_flow_feasible(solution, tol)
    potentials = solution.potentials
    costs = [abs(arc.cost) for arc in solution.problem.arcs]
    scale = 1.0 + (max(costs) if costs else 0.0)
    for src, dst, _capacity, cost in residual_arcs(solution):
        reduced = cost + potentials[src] - potentials[dst]
        if reduced < -tol * scale:
            raise FlowError(
                f"residual arc {src}->{dst} has reduced cost "
                f"{reduced:.6g} < 0; flow is not optimal"
            )


def residual_arcs(solution: FlowSolution):
    """Yield (src, dst, reduced capacity, cost) of the residual graph."""
    for k, arc in enumerate(solution.problem.arcs):
        f = solution.flow[k]
        remaining = None if arc.capacity is None else arc.capacity - f
        if remaining is None or remaining > 1e-12:
            yield arc.src, arc.dst, remaining, arc.cost
        if f > 1e-12:
            yield arc.dst, arc.src, f, -arc.cost
