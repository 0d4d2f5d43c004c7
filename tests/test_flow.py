"""Tests for the min-cost flow substrate and the LP duality layer."""

import numpy as np
import pytest
from oracles.ssp import solve_lp_ssp_reference, solve_ssp_reference
from oracles.verify import check_flow_feasible, check_flow_optimal

from repro.errors import FlowError, InfeasibleFlowError
from repro.flow import (
    SSP_MAX_CONSTRAINTS,
    DifferenceConstraintLP,
    FlowProblem,
    SolveStats,
    ground_flow,
    integerize_values,
    solve_difference_lp,
    stats_scope,
)
from repro.flow import solve_ssp_array as solve_ssp
from repro.flow.scipy_backend import solve_lp_scipy

ENGINES = ("ssp", "ssp-legacy", "scipy")


class TestSspSolver:
    def test_single_path(self):
        problem = FlowProblem(n_nodes=3)
        problem.add_arc(0, 1, cost=2.0)
        problem.add_arc(1, 2, cost=3.0)
        problem.add_supply(0, 4.0)
        problem.add_supply(2, -4.0)
        solution = solve_ssp(problem)
        assert solution.total_cost == pytest.approx(20.0)
        check_flow_optimal(solution)

    def test_chooses_cheaper_route(self):
        problem = FlowProblem(n_nodes=4)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_arc(1, 3, cost=1.0)
        problem.add_arc(0, 2, cost=5.0)
        problem.add_arc(2, 3, cost=5.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(3, -2.0)
        solution = solve_ssp(problem)
        assert solution.total_cost == pytest.approx(4.0)
        assert solution.flow[0] == pytest.approx(2.0)
        assert solution.flow[2] == pytest.approx(0.0)

    def test_capacity_forces_split(self):
        problem = FlowProblem(n_nodes=4)
        problem.add_arc(0, 1, cost=1.0, capacity=1.0)
        problem.add_arc(1, 3, cost=1.0)
        problem.add_arc(0, 2, cost=5.0)
        problem.add_arc(2, 3, cost=5.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(3, -2.0)
        solution = solve_ssp(problem)
        assert solution.total_cost == pytest.approx(2.0 + 10.0)
        check_flow_optimal(solution)

    def test_infeasible_raises(self):
        problem = FlowProblem(n_nodes=3)
        problem.add_arc(0, 1, cost=1.0)
        # No arc into node 2 but it demands flow.
        problem.add_supply(0, 1.0)
        problem.add_supply(2, -1.0)
        with pytest.raises(InfeasibleFlowError):
            solve_ssp(problem)

    def test_unbalanced_supplies_rejected(self):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(1, -1.0)
        with pytest.raises(FlowError, match="balance"):
            solve_ssp(problem)

    def test_negative_cost_requires_flag(self):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=-1.0)
        problem.add_supply(0, 1.0)
        problem.add_supply(1, -1.0)
        with pytest.raises(FlowError, match="negative"):
            solve_ssp(problem)
        solution = solve_ssp(problem, allow_negative=True)
        assert solution.total_cost == pytest.approx(-1.0)

    def test_potentials_certify_optimality(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            problem = _random_instance(rng, n=12, arcs=36)
            solution = solve_ssp(problem)
            check_flow_optimal(solution)

    def test_array_engine_matches_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            problem = _random_instance(rng, n=14, arcs=44)
            fast = solve_ssp(problem)
            slow = solve_ssp_reference(problem)
            assert fast.total_cost == pytest.approx(slow.total_cost)
            check_flow_optimal(fast)
            check_flow_optimal(slow)

    def test_many_parallel_arcs_need_many_rounds(self):
        # Regression: each round saturates one tight parallel arc, so
        # the round count scales with arcs, not nodes; the runaway
        # guard must not trip on legitimate arc-dense instances.
        problem = FlowProblem(n_nodes=2)
        for cost in range(100):
            problem.add_arc(0, 1, cost=float(cost), capacity=1.0)
        problem.add_supply(0, 100.0)
        problem.add_supply(1, -100.0)
        solution = solve_ssp(problem)
        assert solution.total_cost == pytest.approx(sum(range(100)))
        check_flow_optimal(solution)

    def test_array_engine_reports_stats(self):
        problem = FlowProblem(n_nodes=3)
        problem.add_arc(0, 1, cost=2.0)
        problem.add_arc(1, 2, cost=3.0)
        problem.add_supply(0, 4.0)
        problem.add_supply(2, -4.0)
        solution = solve_ssp(problem)
        assert solution.stats is not None
        assert solution.stats.augmentations >= 1
        assert solution.stats.sp_rounds >= 1

    def test_feasibility_checker_catches_bad_flow(self):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_supply(0, 1.0)
        problem.add_supply(1, -1.0)
        solution = solve_ssp(problem)
        solution.flow[0] = 5.0  # corrupt
        with pytest.raises(FlowError, match="conservation"):
            check_flow_feasible(solution)


def _random_instance(rng, n=10, arcs=30) -> FlowProblem:
    """Random feasible instance: supplies routed over a connected ring
    plus random chords, all with integer costs."""
    problem = FlowProblem(n_nodes=n)
    for i in range(n):
        problem.add_arc(i, (i + 1) % n, cost=float(rng.integers(1, 10)))
    for _ in range(arcs - n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            problem.add_arc(int(u), int(v), cost=float(rng.integers(0, 20)))
    amounts = rng.integers(1, 5, size=n // 2).astype(float)
    for k, amount in enumerate(amounts):
        problem.add_supply(k, float(amount))
        problem.add_supply(n - 1 - k, -float(amount))
    return problem


class TestDifferenceLP:
    def _small_lp(self) -> DifferenceConstraintLP:
        """max r1 - r2 s.t. r1 - r0 <= 2, r1 - r2 <= 3, r2 - r0 <= 0,
        r0 pinned."""
        lp = DifferenceConstraintLP(
            n_nodes=3,
            weights=np.array([0.0, 1.0, -1.0]),
            pinned=frozenset({0}),
        )
        lp.add(1, 0, 2.0)
        lp.add(1, 2, 3.0)
        lp.add(2, 0, 0.0)
        # r2 >= -1 comes from: r0 - r2 <= 1.
        lp.add(0, 2, 1.0)
        return lp

    @pytest.mark.parametrize("backend", ENGINES)
    def test_small_lp_optimum(self, backend, lp_engines):
        lp = self._small_lp()
        solution = lp_engines[backend](lp)
        # Optimum: r1 = 2, r2 = -1 -> objective 3.
        assert solution.objective == pytest.approx(3.0)
        assert solution.r[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_backends_agree_on_random_instances(self, backend, lp_engines):
        rng = np.random.default_rng(9)
        for trial in range(4):
            lp = _random_lp(rng, n=14)
            reference = solve_lp_scipy(lp)
            solution = lp_engines[backend](lp)
            assert solution.objective == pytest.approx(
                reference.objective, rel=1e-6
            )
            lp.check_feasible(solution.r)

    def test_pinned_pinned_violation(self):
        lp = DifferenceConstraintLP(
            n_nodes=2,
            weights=np.array([0.0, 0.0]),
            pinned=frozenset({0, 1}),
        )
        lp.add(0, 1, -5.0)  # 0 <= -5: impossible
        with pytest.raises(InfeasibleFlowError):
            solve_difference_lp(lp)
        with pytest.raises(InfeasibleFlowError):
            solve_lp_scipy(lp)

    def test_ground_flow_balances(self):
        lp = self._small_lp()
        grounded = ground_flow(lp)
        assert grounded.problem.supply.sum() == pytest.approx(0.0)
        # Constraints between two pinned nodes vanish; others survive.
        assert grounded.problem.n_nodes == 3  # r1, r2, ground


def _random_lp(rng, n=12) -> DifferenceConstraintLP:
    """Random bounded difference LP over a line graph plus chords.

    Bounds every variable against the pinned node 0 in both directions
    so no backend can be unbounded.
    """
    weights = rng.integers(-5, 6, size=n).astype(float)
    lp = DifferenceConstraintLP(
        n_nodes=n, weights=weights, pinned=frozenset({0})
    )
    for v in range(1, n):
        lp.add(v, 0, float(rng.integers(0, 10)))
        lp.add(0, v, float(rng.integers(0, 10)))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            lp.add(int(u), int(v), float(rng.integers(0, 12)))
    return lp


def _chain_lp(n_constraints: int) -> DifferenceConstraintLP:
    """A bounded difference LP with exactly ``n_constraints`` rows."""
    n = n_constraints // 2 + 1
    rng = np.random.default_rng(n_constraints)
    lp = DifferenceConstraintLP(
        n_nodes=n,
        weights=rng.integers(-5, 6, size=n).astype(float),
        pinned=frozenset({0}),
    )
    for v in range(1, n):
        lp.add(v, v - 1, float(rng.integers(0, 10)))
        lp.add(v - 1, v, float(rng.integers(0, 10)))
    if n_constraints % 2:
        lp.add(n - 1, 0, 100.0)
    assert len(lp.constraints) == n_constraints
    return lp


class TestBackendRegistry:
    """The fixed engine rule of ``solve_difference_lp`` and the solver
    statistics kept in :mod:`repro.flow.registry`."""

    def test_auto_selection_prefers_native_on_small_instances(self):
        assert SSP_MAX_CONSTRAINTS == 128
        solution = solve_difference_lp(_chain_lp(128))
        assert solution.backend == solution.stats.backend == "ssp"
        assert solution.warm_basis is not None

    def test_auto_selection_respects_size_caps(self):
        lp = _chain_lp(129)
        solution = solve_difference_lp(lp)
        assert solution.backend == solution.stats.backend == "scipy"
        assert solution.warm_basis is None
        reference = solve_lp_ssp_reference(lp)
        assert solution.objective == pytest.approx(reference.objective)

    def test_warm_basis_reaches_only_ssp(self, monkeypatch):
        small = _chain_lp(128)
        cold = solve_difference_lp(small)
        warm = solve_difference_lp(small, warm_start=cold.warm_basis)
        assert warm.stats.warm_solves == 1
        assert warm.objective == cold.objective

        calls = []

        def spy(lp, **kwargs):
            calls.append(kwargs)
            return solve_lp_scipy(lp)

        monkeypatch.setattr("repro.flow.scipy_backend.solve_lp_scipy", spy)
        big = _chain_lp(129)
        solution = solve_difference_lp(big, warm_start=cold.warm_basis)
        assert calls == [{}]
        assert solution.backend == "scipy"
        assert solution.stats.warm_solves == 0

    def test_stats_recorded_on_every_solve(self):
        lp = DifferenceConstraintLP(
            n_nodes=3,
            weights=np.array([0.0, 1.0, -1.0]),
            pinned=frozenset({0}),
        )
        lp.add(1, 0, 2.0)
        lp.add(0, 2, 1.0)
        lp.add(1, 2, 3.0)
        lp.add(2, 0, 0.0)
        with stats_scope() as scoped:
            solution = solve_difference_lp(lp)
        assert isinstance(solution.stats, SolveStats)
        assert solution.stats.backend == "ssp"
        assert solution.stats.n_arcs == 4
        assert solution.stats.wall_time_s >= 0.0
        assert scoped["ssp"].solves == 1


class TestIntegerizePolicy:
    def test_nearest_and_floor_modes(self):
        values = np.array([1.4, 1.5, -1.2, 2.0])
        assert integerize_values(values).tolist() == [1.0, 2.0, -1.0, 2.0]
        assert integerize_values(values, mode="floor").tolist() == [
            1.0, 1.0, -2.0, 2.0,
        ]

    def test_unknown_mode_rejected(self):
        with pytest.raises(FlowError, match="rounding"):
            integerize_values(np.array([1.0]), mode="ceil")
