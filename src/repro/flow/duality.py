"""Difference-constraint LPs and their min-cost-flow duals.

The D-phase optimization (paper equation (10)) has the form

    maximize    sum_v w_v * r(v)
    subject to  r(u) - r(v) <= c_uv          for every constraint arc
                r(v) = 0                     for pinned v (PIs, sink O)

Its LP dual is a min-cost network flow: each constraint becomes an arc
``u -> v`` with cost ``c_uv``; conservation requires
``outflow(v) - inflow(v) = w_v``, i.e. a supply of ``w_v`` at ``v``.
Pinned nodes have no conservation constraint — they merge into one
*ground* node that absorbs the residual imbalance.  Optimal node
potentials of the flow are (up to sign and the ground offset) an
optimal primal ``r``:  ``r(v) = π(ground) - π(v)``.

:func:`solve_difference_lp` solves every D-phase LP with one of two
engines, picked by a fixed size rule:

* LPs with at most :data:`SSP_MAX_CONSTRAINTS` constraints go to the
  array-based primal-dual engine (:mod:`repro.flow.arrayssp`,
  ``"ssp"``), which is exact on the integerized data and reuses the
  previous iteration's warm basis;
* larger LPs go to HiGHS on the primal LP
  (:mod:`repro.flow.scipy_backend`, ``"scipy"``).

The heapq successive-shortest-path solver in ``tests/oracles/ssp.py``
never runs here: it is the exact-integer oracle the test suite and
the flow benchmark compare both engines against.

This module is also the single home of the **integerization policy**:
every rounding decision of the D-phase scaling step goes through
:func:`integerize_values` (nearest / conservative-floor rounding), so
the rounding rules cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FlowError, InfeasibleFlowError
from repro.flow.arrayssp import solve_lp_ssp
from repro.flow.network import FlowProblem
from repro.flow.registry import timed_solve

__all__ = [
    "SSP_MAX_CONSTRAINTS",
    "DifferenceConstraintLP",
    "GroundedFlow",
    "LpSolution",
    "ground_flow",
    "integerize_values",
    "solve_difference_lp",
]

#: Largest LP (in constraints) solved by the native array SSP engine;
#: anything bigger goes to HiGHS.  On c17's D-phase LPs the two are
#: about even per solve in :func:`~repro.flow.registry.timed_solve`
#: (122 solves, c17 gate and transistor at specs 0.5–0.9, 2-core Xeon):
#: the engine's mean is ≈4.1–4.7 ms against HiGHS's ≈4.8–5.5 ms, i.e.
#: ≈0.7–0.9 ms against ≈3.6–5.1 ms on the ~20-constraint gate-mode LPs
#: and ≈5.3–6.2 ms against ≈4.9–5.7 ms on the 78-constraint
#: transistor-mode ones.  What the rule buys is a process that only
#: sizes small circuits never importing ``scipy.optimize``: that import
#: adds ≈26 MB of peak RSS (57 → 83 MB over three c17 jobs) and takes
#: the first c17 job from ≈0.03 s to ≈0.47 s.  ``tests/test_dphase_lps.py``
#: pins that c17 never loads it.
SSP_MAX_CONSTRAINTS = 128


def integerize_values(
    values: np.ndarray | float, mode: str = "nearest"
) -> np.ndarray:
    """Round already-scaled data to exact integers (as float64).

    ``mode="nearest"`` is the default defensive rounding for data that
    is integral up to float noise (costs, weights); ``mode="floor"`` is
    the conservative choice for slack-like quantities where rounding
    *down* keeps the integerized feasible set inside the true one
    (paper section 2.3.1).  Every rounding decision in the flow layer
    and the D-phase goes through here.
    """
    array = np.asarray(values, dtype=float)
    if mode == "nearest":
        return np.rint(array)
    if mode == "floor":
        return np.floor(array)
    raise FlowError(f"unknown rounding mode {mode!r}")


@dataclass
class DifferenceConstraintLP:
    """``max w^T r`` subject to difference constraints and pins."""

    n_nodes: int
    weights: np.ndarray
    pinned: frozenset[int]
    #: (u, v, c) meaning r(u) - r(v) <= c.
    constraints: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.n_nodes,):
            raise FlowError(
                f"weights shape {self.weights.shape} != ({self.n_nodes},)"
            )
        if not self.pinned:
            raise FlowError("difference LP needs at least one pinned node")

    def add(self, u: int, v: int, c: float) -> None:
        """Append the constraint ``r[u] - r[v] <= c``."""
        self.constraints.append((u, v, float(c)))

    def objective(self, r: np.ndarray) -> float:
        """The LP objective ``weights @ r`` for an assignment."""
        return float(self.weights @ r)

    def check_feasible(self, r: np.ndarray, tol: float = 1e-6) -> None:
        """Raise if ``r`` violates a constraint or a pin."""
        scale = 1.0 + max(
            (abs(c) for _, _, c in self.constraints), default=0.0
        )
        for node in self.pinned:
            if abs(r[node]) > tol * scale:
                raise FlowError(f"pinned node {node} has r = {r[node]:.3g}")
        for u, v, c in self.constraints:
            if r[u] - r[v] > c + tol * scale:
                raise FlowError(
                    f"constraint r({u}) - r({v}) <= {c:.6g} violated by "
                    f"{r[u] - r[v] - c:.3g}"
                )


@dataclass
class GroundedFlow:
    """The dual flow instance with pinned nodes merged into ``ground``."""

    problem: FlowProblem
    ground: int
    #: LP node -> flow node.
    node_map: np.ndarray


@dataclass
class LpSolution:
    """A solved difference LP: optimal assignment, objective, telemetry."""

    r: np.ndarray
    objective: float
    backend: str
    #: Solver counters (see :class:`repro.flow.registry.SolveStats`);
    #: filled in on every :func:`solve_difference_lp` call.
    stats: object | None = None
    #: Starting basis for the next solve of a structurally identical
    #: LP (see :class:`repro.flow.arrayssp.WarmStartBasis`); populated
    #: by the ``ssp`` engine, None from HiGHS.
    warm_basis: object | None = None


def ground_flow(lp: DifferenceConstraintLP) -> GroundedFlow:
    """Build the dual min-cost flow instance of a difference LP."""
    node_map = np.full(lp.n_nodes, -1, dtype=np.int64)
    free_nodes = [v for v in range(lp.n_nodes) if v not in lp.pinned]
    for new_id, node in enumerate(free_nodes):
        node_map[node] = new_id
    ground = len(free_nodes)
    for node in lp.pinned:
        node_map[node] = ground

    problem = FlowProblem(n_nodes=ground + 1)
    # Uncapacitated parallel arcs: only the cheapest can carry flow.
    cheapest: dict[tuple[int, int], float] = {}
    for u, v, c in lp.constraints:
        mu, mv = int(node_map[u]), int(node_map[v])
        if mu == mv:
            if c < -1e-12:
                raise InfeasibleFlowError(
                    f"constraint between pinned nodes violated: "
                    f"r({u}) - r({v}) <= {c:.6g}"
                )
            continue
        key = (mu, mv)
        if key not in cheapest or c < cheapest[key]:
            cheapest[key] = c
    for (mu, mv), c in sorted(cheapest.items()):
        problem.add_arc(mu, mv, cost=c)

    for node in free_nodes:
        problem.add_supply(int(node_map[node]), float(lp.weights[node]))
    assert problem.supply is not None
    problem.supply[ground] = -problem.supply[:ground].sum()
    return GroundedFlow(problem=problem, ground=ground, node_map=node_map)


def recover_r(
    grounded: GroundedFlow, potentials: np.ndarray, n_nodes: int
) -> np.ndarray:
    """``r(v) = π(ground) - π(v)`` mapped back to LP node ids."""
    r = np.zeros(n_nodes)
    ground_potential = potentials[grounded.ground]
    for node in range(n_nodes):
        r[node] = ground_potential - potentials[grounded.node_map[node]]
    return r


def solve_difference_lp(
    lp: DifferenceConstraintLP, warm_start: object | None = None
) -> LpSolution:
    """Solve the LP with the engine its size selects; verifies feasibility.

    At most :data:`SSP_MAX_CONSTRAINTS` constraints: the native ``ssp``
    engine, seeded with ``warm_start`` (the ``warm_basis`` of a previous
    solution of a structurally identical LP) when one is given.  Larger
    LPs: HiGHS, always cold.  A warm start reaches exactly the cold
    objective, but where the LP has several optimal vertices it may
    return a different optimal ``r``.  Wall time and solver counters are
    recorded on the returned solution (``stats``) and in every open
    :func:`repro.flow.registry.stats_scope`.
    """
    if len(lp.constraints) <= SSP_MAX_CONSTRAINTS:
        solution = timed_solve("ssp", solve_lp_ssp, lp, warm_start=warm_start)
    else:
        # Imported on first use: it loads scipy.optimize, which a
        # process that only sizes small circuits never needs (and it
        # imports this module).
        from repro.flow.scipy_backend import solve_lp_scipy

        solution = timed_solve("scipy", solve_lp_scipy, lp)
    lp.check_feasible(solution.r)
    return solution
