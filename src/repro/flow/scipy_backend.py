"""HiGHS (scipy.optimize.linprog) engine for large D-phase LPs.

Solves the primal difference-constraint LP directly: variables are the
non-pinned node potentials, each constraint is one sparse row.  HiGHS
is compiled code, so this engine is the fastest for large circuits
(:func:`repro.flow.duality.solve_difference_lp` sends it every LP above
the native engine's size limit); it also returns the potentials
directly, with no dual recovery step.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import FlowError, InfeasibleFlowError, UnboundedFlowError
from repro.flow.duality import DifferenceConstraintLP, LpSolution

__all__ = ["solve_lp_scipy"]


def solve_lp_scipy(lp: DifferenceConstraintLP) -> LpSolution:
    """Solve a difference LP directly with HiGHS (``scipy.optimize.linprog``)."""
    free_nodes = [v for v in range(lp.n_nodes) if v not in lp.pinned]
    column = np.full(lp.n_nodes, -1, dtype=np.int64)
    for col, node in enumerate(free_nodes):
        column[node] = col
    n_free = len(free_nodes)
    for u, v, c in lp.constraints:
        if column[u] < 0 and column[v] < 0 and c < -1e-12:
            raise InfeasibleFlowError(
                f"pinned-pinned constraint violated (c = {c:.6g})"
            )
    if n_free == 0:
        r = np.zeros(lp.n_nodes)
        return LpSolution(r=r, objective=0.0, backend="scipy")

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []
    row_id = 0
    for u, v, c in lp.constraints:
        cu, cv = column[u], column[v]
        if cu < 0 and cv < 0:
            if c < -1e-12:
                raise InfeasibleFlowError(
                    f"pinned-pinned constraint violated (c = {c:.6g})"
                )
            continue
        if cu >= 0:
            rows.append(row_id)
            cols.append(int(cu))
            data.append(1.0)
        if cv >= 0:
            rows.append(row_id)
            cols.append(int(cv))
            data.append(-1.0)
        rhs.append(c)
        row_id += 1

    a_ub = sparse.coo_matrix(
        (data, (rows, cols)), shape=(row_id, n_free)
    ).tocsr()
    objective = -lp.weights[free_nodes]  # linprog minimizes

    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=np.array(rhs),
        bounds=[(None, None)] * n_free,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleFlowError(f"LP infeasible: {result.message}")
    if result.status == 3:
        raise UnboundedFlowError(f"LP unbounded: {result.message}")
    if not result.success:
        raise FlowError(f"HiGHS failed: {result.message}")

    r = np.zeros(lp.n_nodes)
    r[free_nodes] = result.x
    return LpSolution(r=r, objective=lp.objective(r), backend="scipy")
