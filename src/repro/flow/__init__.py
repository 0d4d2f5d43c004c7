"""Min-cost network flow substrate for the D-phase."""

from repro.flow.arrayssp import (
    ArraySspEngine,
    WarmStartBasis,
    basis_from_solution,
    solve_ssp_array,
)
from repro.flow.arrayssp import solve_ssp_array as solve_ssp
from repro.flow.duality import (
    SSP_MAX_CONSTRAINTS,
    DifferenceConstraintLP,
    GroundedFlow,
    LpSolution,
    ground_flow,
    integerize_values,
    solve_difference_lp,
)
from repro.flow.network import Arc, FlowProblem, FlowSolution
from repro.flow.registry import (
    SolveStats,
    reset_solver_statistics,
    solver_statistics,
)
from repro.flow.verify import check_flow_feasible, check_flow_optimal

__all__ = [
    "Arc",
    "ArraySspEngine",
    "DifferenceConstraintLP",
    "FlowProblem",
    "FlowSolution",
    "GroundedFlow",
    "LpSolution",
    "SSP_MAX_CONSTRAINTS",
    "SolveStats",
    "WarmStartBasis",
    "basis_from_solution",
    "check_flow_feasible",
    "check_flow_optimal",
    "ground_flow",
    "integerize_values",
    "reset_solver_statistics",
    "solve_difference_lp",
    "solve_ssp",
    "solve_ssp_array",
    "solver_statistics",
]
