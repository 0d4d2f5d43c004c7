"""Scalar W-phase oracle: the per-vertex Gauss-Seidel SMP relaxation.

:func:`solve_smp` is the reference loop the level-blocked kernel
(:func:`repro.sizing.kernels.solve_smp_blocked`) must reproduce: same
fixed point, same clamped set, same sweep count.  :func:`w_phase`
wraps it the way :func:`repro.sizing.wphase.w_phase` wraps the kernel,
so a test can patch it into :mod:`repro.sizing.minflo` and run a whole
D/W alternation on the oracle.
"""

from __future__ import annotations

import time

import numpy as np

from repro.delay.model import VertexDelayModel
from repro.errors import SizingError
from repro.sizing.smp import SmpResult, find_clamped, smp_headroom
from repro.sizing.wphase import WPhaseResult

__all__ = ["solve_smp", "w_phase"]


def solve_smp(
    model: VertexDelayModel,
    budgets: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    sweep_order: np.ndarray,
    max_sweeps: int = 200,
    tol: float = 1e-10,
    x0: np.ndarray | None = None,
) -> SmpResult:
    """Compute minimal sizes meeting per-vertex delay budgets.

    ``sweep_order`` should list vertices so that dependencies come late
    (reverse topological order): the relaxation then converges in one
    sweep for DAG-ordered dependencies and geometrically for
    intra-block coupling.

    ``x0`` optionally replaces ``lower`` as the starting point.  The
    relaxation only ever moves sizes up, so the least fixed point is
    reached unchanged exactly when ``lower <= x0 <= lfp`` elementwise.
    """
    solve_start = time.perf_counter()
    budgets = np.asarray(budgets, dtype=float)
    headroom, no_load = smp_headroom(model, budgets)

    indptr = model.a_matrix.indptr
    indices = model.a_matrix.indices
    data = model.a_matrix.data
    b = model.b
    law = model.law

    x = lower.astype(float).copy() if x0 is None else np.array(x0, dtype=float)
    scale = float(np.max(np.abs(upper))) or 1.0
    for sweep in range(1, max_sweeps + 1):
        largest_move = 0.0
        for i in sweep_order:
            if no_load[i]:
                continue
            start, end = indptr[i], indptr[i + 1]
            load = float(data[start:end] @ x[indices[start:end]]) + b[i]
            if load <= 0.0:
                continue
            required = law.g_inverse(headroom[i] / load)
            value = min(max(required, lower[i]), upper[i])
            move = value - x[i]
            if move > tol * scale:
                largest_move = max(largest_move, move)
                x[i] = value
            elif value > x[i]:
                x[i] = value
        if largest_move <= tol * scale:
            clamped = find_clamped(model, budgets, x, upper, tol)
            return SmpResult(
                x=x, clamped=clamped, sweeps=sweep,
                seconds=time.perf_counter() - solve_start,
            )
    raise SizingError(
        f"SMP relaxation did not converge in {max_sweeps} sweeps"
    )


def w_phase(dag, budgets: np.ndarray, max_sweeps: int = 200) -> WPhaseResult:
    """:func:`repro.sizing.wphase.w_phase` on the scalar loop (cold only)."""
    result = solve_smp(
        dag.model, budgets, dag.lower, dag.upper, dag.topo_order[::-1],
        max_sweeps=max_sweeps,
    )
    return WPhaseResult(
        x=result.x,
        delays=dag.model.delays(result.x),
        budgets=np.asarray(budgets, dtype=float),
        clamped=result.clamped,
        sweeps=result.sweeps,
        seconds=result.seconds,
    )
