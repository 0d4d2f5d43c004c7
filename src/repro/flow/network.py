"""Minimum-cost network flow instance representation.

The D-phase of MINFLOTRANSIT is the LP dual of a min-cost flow problem
(paper section 2.3.1, step (5)); this module holds the flow instance
itself, independent of the solver used (:mod:`repro.flow.arrayssp`,
the LP route in :mod:`repro.flow.scipy_backend`, or the heapq oracle
in ``tests/oracles/ssp.py``).

Conventions: arc costs may be any finite number, capacities default to
"uncapacitated" (``None``); ``supply[v] > 0`` means the node injects
flow, ``supply[v] < 0`` means it absorbs flow.  Conservation is
``outflow(v) - inflow(v) = supply(v)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FlowError

__all__ = ["Arc", "FlowProblem", "FlowSolution"]


@dataclass(frozen=True)
class Arc:
    """One directed arc: endpoints, unit cost, optional capacity."""

    src: int
    dst: int
    cost: float
    capacity: float | None = None  # None = uncapacitated

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise FlowError(f"negative capacity on arc {self.src}->{self.dst}")


@dataclass
class FlowProblem:
    """A min-cost flow instance on nodes ``0 .. n_nodes-1``."""

    n_nodes: int
    arcs: list[Arc] = field(default_factory=list)
    supply: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.supply is None:
            self.supply = np.zeros(self.n_nodes)
        self.supply = np.asarray(self.supply, dtype=float)
        if self.supply.shape != (self.n_nodes,):
            raise FlowError(
                f"supply shape {self.supply.shape} != ({self.n_nodes},)"
            )

    def add_arc(
        self, src: int, dst: int, cost: float, capacity: float | None = None
    ) -> int:
        """Append an arc; returns its index."""
        for node in (src, dst):
            if not 0 <= node < self.n_nodes:
                raise FlowError(f"arc endpoint {node} out of range")
        self.arcs.append(Arc(src, dst, cost, capacity))
        return len(self.arcs) - 1

    def add_supply(self, node: int, amount: float) -> None:
        """Add ``amount`` to a node's supply (negative = demand)."""
        assert self.supply is not None
        self.supply[node] += amount

    @property
    def total_positive_supply(self) -> float:
        """Sum of all positive supplies (the flow a solver must route)."""
        assert self.supply is not None
        return float(self.supply[self.supply > 0].sum())

    def check_balanced(self, tol: float = 1e-9) -> None:
        """Raise :class:`FlowError` unless supplies sum to ~zero."""
        assert self.supply is not None
        imbalance = float(self.supply.sum())
        if abs(imbalance) > tol * max(1.0, self.total_positive_supply):
            raise FlowError(f"supplies do not balance (sum = {imbalance:.6g})")


@dataclass
class FlowSolution:
    """Result of a min-cost flow solve.

    ``flow`` aligns with ``problem.arcs``; ``potentials`` are node
    potentials π satisfying reduced-cost optimality
    (``cost + π(u) - π(v) >= 0`` on every residual arc).
    """

    problem: FlowProblem
    flow: np.ndarray
    potentials: np.ndarray
    total_cost: float
    backend: str
    #: Solver counters (populated by the native engines; see
    #: :class:`repro.flow.registry.SolveStats`).
    stats: object | None = None
