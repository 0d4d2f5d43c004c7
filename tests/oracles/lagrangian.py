"""Lagrangian-relaxation sizing (the paper's reference [8]).

Chen, Chu and Wong ("Fast and exact simultaneous gate and wire sizing
by Lagrangian relaxation", ICCAD 1998) is the competing exact method
the paper discusses; implementing it gives an independent optimizer to
cross-validate MINFLOTRANSIT's results — two different exact methods
should land on comparable areas.

Formulation: arrival-time variables are eliminated by restricting the
arc multipliers λ to *flow conservation* (inflow = outflow at every
vertex, primary-output arcs draining to a virtual sink), after which
the Lagrangian subproblem separates:

    minimize_x  sum_i [ w_i x_i + Λ_i d_i(x) ],   Λ_i = sum of λ leaving i

whose coordinate-wise optimum under the Elmore law has the closed form

    x_i* = sqrt( Λ_i L_i(x) / (w_i + sum_j Λ_j a_ji / x_j) )

(clamped to the bounds).  The outer loop is a projected subgradient
ascent on λ with step c/k, the classic schedule.

This module is a faithful but compact re-implementation: it maintains
primal feasibility reports through the shared timing engine, and
derives a final feasible solution by scaling the subproblem sizing's
delay profile to the target and re-running the W-phase on it.  It is a
baseline for tests and benchmarks, not part of the runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from oracles.recovery import greedy_downsize
from repro.dag.circuit_dag import SizingDag
from repro.errors import InfeasibleTimingError, SizingError
from repro.sizing.wphase import w_phase
from repro.timing.sta import GraphTimer

__all__ = ["LagrangianOptions", "LagrangianResult", "lagrangian_size"]


@dataclass(frozen=True)
class LagrangianOptions:
    """Knobs of the subgradient Lagrangian sizer."""

    max_iterations: int = 120
    subproblem_sweeps: int = 8
    initial_step: float = 2.0
    tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise SizingError("max_iterations must be positive")
        if self.initial_step <= 0:
            raise SizingError("initial_step must be positive")


@dataclass
class LagrangianResult:
    """Outcome of a Lagrangian sizing run."""

    x: np.ndarray
    area: float
    critical_path_delay: float
    target: float
    iterations: int
    runtime_seconds: float
    #: Area of the (possibly infeasible) final subproblem solution —
    #: a lower-bound indicator for diagnostics.
    relaxed_area: float

    @property
    def meets_target(self) -> bool:
        """True when the final delay satisfies the target (tolerant)."""
        return self.critical_path_delay <= self.target * (1 + 1e-9)


def lagrangian_size(
    dag: SizingDag,
    target: float,
    options: LagrangianOptions | None = None,
) -> LagrangianResult:
    """Size ``dag`` to ``target`` by Lagrangian relaxation."""
    options = options or LagrangianOptions()
    timer = GraphTimer(dag)
    start = time.perf_counter()

    model = dag.model
    indptr, indices, data = (
        model.a_matrix.indptr,
        model.a_matrix.indices,
        model.a_matrix.data,
    )
    transpose = model.a_matrix.T.tocsr()
    w = dag.area_weight
    lower, upper = dag.lower, dag.upper

    # Arc list: structural edges plus one virtual arc per PO leaf.
    arcs_src = np.concatenate(
        [dag.edge_src, np.array(dag.po_vertices, dtype=np.int64)]
    )
    arcs_dst = np.concatenate(
        [dag.edge_dst, np.full(len(dag.po_vertices), -1, dtype=np.int64)]
    )
    n_arcs = len(arcs_src)
    lam = np.ones(n_arcs)

    def project_conservation(lam: np.ndarray) -> np.ndarray:
        """Scale incoming multipliers so inflow(v) = outflow(v)."""
        out_sum = np.zeros(dag.n)
        np.add.at(out_sum, arcs_src, lam)
        in_sum = np.zeros(dag.n)
        interior = arcs_dst >= 0
        np.add.at(in_sum, arcs_dst[interior], lam[interior])
        scale = np.ones(dag.n)
        has_in = in_sum > 1e-15
        scale[has_in] = out_sum[has_in] / in_sum[has_in]
        adjusted = lam.copy()
        adjusted[interior] *= scale[arcs_dst[interior]]
        return adjusted

    def vertex_multipliers(lam: np.ndarray) -> np.ndarray:
        big_lambda = np.zeros(dag.n)
        np.add.at(big_lambda, arcs_src, lam)
        return big_lambda

    def solve_subproblem(big_lambda: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Coordinate minimization of sum w_i x_i + Λ_i d_i(x)."""
        x = x0.copy()
        for _sweep in range(options.subproblem_sweeps):
            for i in dag.topo_order[::-1]:
                lo, hi = indptr[i], indptr[i + 1]
                load = float(data[lo:hi] @ x[indices[lo:hi]]) + model.b[i]
                tlo, thi = transpose.indptr[i], transpose.indptr[i + 1]
                pull = w[i]
                for j, a_ji in zip(
                    transpose.indices[tlo:thi], transpose.data[tlo:thi]
                ):
                    pull += big_lambda[j] * a_ji / x[j]
                push = big_lambda[i] * load
                if push <= 0 or pull <= 0:
                    x[i] = lower[i]
                    continue
                x[i] = min(max(np.sqrt(push / pull), lower[i]), upper[i])
        return x

    # Longest path by intrinsic delay alone: the unavoidable floor used
    # by the feasibility repair's scaling argument.
    cp_intrinsic = timer.analyze(model.intrinsic).critical_path_delay
    if cp_intrinsic >= target:
        raise InfeasibleTimingError(
            f"target {target:.6g} is below the intrinsic-delay floor "
            f"{cp_intrinsic:.6g}"
        )

    # Projected subgradient ascent.
    x = dag.min_sizes() * 2.0
    best_feasible: np.ndarray | None = None
    best_area = np.inf
    iterations = 0
    for k in range(1, options.max_iterations + 1):
        iterations = k
        lam = project_conservation(lam)
        big_lambda = vertex_multipliers(lam)
        x = solve_subproblem(big_lambda, x)
        delays = model.delays(x)
        report = timer.analyze(delays, horizon=target)

        feasible_x = _repair_to_target(
            dag, x, delays, report, target, timer, cp_intrinsic
        )
        if feasible_x is not None:
            area = dag.area(feasible_x)
            if area < best_area:
                improvement = (best_area - area) / max(best_area, 1e-12)
                best_area = area
                best_feasible = feasible_x
                if improvement < options.tolerance and k > 10:
                    break

        # Subgradient: arc slack violations (positive when u's signal
        # arrives after v's arrival variable would allow).
        at = report.at
        finish = at[arcs_src] + delays[arcs_src]
        arrival_limit = np.where(arcs_dst >= 0, at[np.maximum(arcs_dst, 0)], target)
        violation = finish - arrival_limit
        step = options.initial_step / (k * float(np.abs(violation).max() or 1.0))
        lam = np.maximum(lam * (1.0 + step * violation), 1e-9)

    if best_feasible is None:
        raise InfeasibleTimingError(
            f"Lagrangian sizing found no feasible solution for "
            f"target {target:.6g}"
        )
    # Feasibility restoration is conservative (uniform load scaling), so
    # finish with a slack-recovery pass — standard practice in LRS
    # implementations, which alternate relaxed steps with greedy repair.
    recovered = greedy_downsize(dag, best_feasible, target, timer=timer)
    if recovered.area < best_area:
        best_feasible = recovered.x
        best_area = recovered.area
    final = timer.analyze(model.delays(best_feasible), horizon=target)
    return LagrangianResult(
        x=best_feasible,
        area=best_area,
        critical_path_delay=final.critical_path_delay,
        target=target,
        iterations=iterations,
        runtime_seconds=time.perf_counter() - start,
        relaxed_area=dag.area(x),
    )


def _repair_to_target(
    dag: SizingDag,
    x: np.ndarray,
    delays: np.ndarray,
    report,
    target: float,
    timer: GraphTimer,
    cp_intrinsic: float,
) -> np.ndarray | None:
    """Feasible sizing derived from the relaxed iterate.

    Scales the iterate's *loading* delay profile onto the target and
    asks the W-phase for minimal sizes meeting it; returns None when
    the scaled budgets are unreachable within the bounds.

    Soundness of the scale: with s = (T - cp_intr) / (cp - cp_intr),
    every path p satisfies  sum intr_p + s * sum load_p
    = s * total_p + (1-s) * sum intr_p <= s*cp + (1-s)*cp_intr = T.
    """
    cp = report.critical_path_delay
    if cp <= target:
        return x.copy()
    if cp <= cp_intrinsic:
        return None
    scale = (target - cp_intrinsic) / (cp - cp_intrinsic)
    budgets = dag.model.intrinsic + scale * (delays - dag.model.intrinsic)
    headroom = budgets - dag.model.intrinsic
    if np.any(headroom <= 0):
        return None
    try:
        result = w_phase(dag, budgets)
    except SizingError:
        return None
    if not result.feasible:
        return None
    verify = timer.analyze(dag.model.delays(result.x), horizon=target)
    if verify.critical_path_delay > target * (1 + 1e-9):
        return None
    return result.x
