"""Heapq successive-shortest-path solver (the ``ssp-legacy`` oracle).

This was the library's original native D-phase solver: Python
lists-of-lists for the residual graph and a per-arc ``heapq`` Dijkstra
per augmentation.  It keeps the classic invariant that reduced costs
``c + π(u) - π(v)`` are non-negative on all residual arcs, so on
termination the potentials π are an optimal dual solution — exactly the
quantity the D-phase needs to recover the displacement ``r``
(``r(v) = π(ground) - π(v)``).

It has been superseded by the array-based primal-dual engine in
:mod:`repro.flow.arrayssp` and never runs on a D-phase.  It is an
independent exact-integer oracle: the parity tests compare both
D-phase engines against it, and ``benchmarks/run_flow_bench.py``
measures the array engine's speedup over it.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import FlowError, InfeasibleFlowError, UnboundedFlowError
from repro.flow.duality import LpSolution, ground_flow, recover_r
from repro.flow.network import FlowProblem, FlowSolution

__all__ = ["solve_ssp_reference", "solve_lp_ssp_reference"]

_INF = float("inf")


class _Residual:
    """Paired forward/backward residual arc arrays."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cost: list[float] = []

    def add(self, u: int, v: int, cap: float, cost: float) -> int:
        arc_id = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[u].append(arc_id)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-cost)
        self.head[v].append(arc_id + 1)
        return arc_id


def solve_ssp_reference(
    problem: FlowProblem, allow_negative: bool = False
) -> FlowSolution:
    """Solve a min-cost flow instance by successive shortest paths."""
    problem.check_balanced()
    n = problem.n_nodes
    source, sink = n, n + 1
    residual = _Residual(n + 2)

    big = 0.0
    assert problem.supply is not None
    for value in problem.supply:
        big += abs(value)
    arc_ids: list[int] = []
    has_negative = False
    for arc in problem.arcs:
        cap = big if arc.capacity is None else float(arc.capacity)
        if arc.cost < 0:
            has_negative = True
        arc_ids.append(residual.add(arc.src, arc.dst, cap, arc.cost))
    if has_negative and not allow_negative:
        raise FlowError(
            "negative arc costs require allow_negative=True "
            "(adds a Bellman-Ford initialization)"
        )

    needed = 0.0
    for node, value in enumerate(problem.supply):
        if value > 0:
            residual.add(source, node, float(value), 0.0)
            needed += float(value)
        elif value < 0:
            residual.add(node, sink, float(-value), 0.0)

    potential = np.zeros(n + 2)
    if has_negative:
        potential = _bellman_ford_potentials(residual, source)

    shipped = 0.0
    to = residual.to
    cap = residual.cap
    cost = residual.cost
    head = residual.head
    while shipped + 1e-12 < needed:
        dist = np.full(n + 2, _INF)
        parent_arc = np.full(n + 2, -1, dtype=np.int64)
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + 1e-12:
                continue
            for arc_id in head[u]:
                if cap[arc_id] <= 1e-12:
                    continue
                v = to[arc_id]
                nd = d + cost[arc_id] + potential[u] - potential[v]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent_arc[v] = arc_id
                    heapq.heappush(heap, (nd, v))
        if not np.isfinite(dist[sink]):
            raise InfeasibleFlowError(
                f"cannot route {needed - shipped:.6g} remaining units"
            )
        finite = np.isfinite(dist)
        potential[finite] += dist[finite]
        potential[~finite] += dist[sink]

        # Find the bottleneck along the augmenting path, then push.
        bottleneck = _INF
        v = sink
        while v != source:
            arc_id = int(parent_arc[v])
            bottleneck = min(bottleneck, cap[arc_id])
            v = to[arc_id ^ 1]
        v = sink
        while v != source:
            arc_id = int(parent_arc[v])
            cap[arc_id] -= bottleneck
            cap[arc_id ^ 1] += bottleneck
            v = to[arc_id ^ 1]
        shipped += bottleneck

    flow = np.zeros(len(problem.arcs))
    total_cost = 0.0
    for k, arc in enumerate(problem.arcs):
        pushed = cap[arc_ids[k] ^ 1]  # reverse capacity == flow sent
        flow[k] = pushed
        total_cost += pushed * arc.cost
    return FlowSolution(
        problem=problem,
        flow=flow,
        potentials=potential[:n].copy(),
        total_cost=total_cost,
        backend="ssp-legacy",
    )


def solve_lp_ssp_reference(lp) -> "object":
    """Solve a difference LP with the reference solver (test oracle)."""
    grounded = ground_flow(lp)
    flow = solve_ssp_reference(grounded.problem, allow_negative=True)
    r = recover_r(grounded, flow.potentials, lp.n_nodes)
    return LpSolution(
        r=r, objective=lp.objective(r), backend="ssp-legacy"
    )


def _bellman_ford_potentials(residual: _Residual, source: int) -> np.ndarray:
    """Initial potentials for instances with negative arc costs."""
    n = residual.n
    dist = np.zeros(n)  # all nodes as virtual sources handles disconnection
    for iteration in range(n):
        changed = False
        for u in range(n):
            for arc_id in residual.head[u]:
                if residual.cap[arc_id] <= 1e-12:
                    continue
                v = residual.to[arc_id]
                candidate = dist[u] + residual.cost[arc_id]
                if candidate < dist[v] - 1e-12:
                    dist[v] = candidate
                    changed = True
        if not changed:
            return dist
    raise UnboundedFlowError("negative-cost cycle detected")
