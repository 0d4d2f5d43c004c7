"""Min-cost network flow substrate for the D-phase."""

from repro.flow.arrayssp import (
    ArraySspEngine,
    WarmStartBasis,
    basis_from_solution,
    solve_ssp_array,
)
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
from repro.flow.registry import SolveStats, stats_scope

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
    "ground_flow",
    "integerize_values",
    "solve_difference_lp",
    "solve_ssp_array",
    "stats_scope",
]
