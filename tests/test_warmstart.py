"""Warm-started flow solves: exactness, parity with cold, telemetry.

The warm-start contract is strict: a warm solve of any instance must
reach exactly the same optimum as a cold solve — the basis only changes
the work done.  These tests drive the ``ssp`` engine through drifting
LP sequences (random and real D-phase) and check objectives, duals
feasibility, and the fallback paths.
"""

import numpy as np
import pytest
from oracles.verify import check_flow_feasible, check_flow_optimal

from repro.balancing import balance
from repro.errors import FlowError
from repro.flow.arrayssp import (
    ArraySspEngine,
    WarmStartBasis,
    basis_from_solution,
)
from repro.flow.duality import DifferenceConstraintLP, solve_difference_lp
from repro.flow.network import FlowProblem
from repro.sizing import TilosOptions, tilos_size
from repro.sizing.dphase import d_phase
from repro.sizing.wphase import w_phase
from repro.timing import GraphTimer, analyze


def random_difference_lp(rng, n, arcs, costs, weights):
    lp = DifferenceConstraintLP(
        n_nodes=n, weights=weights.copy(), pinned=frozenset({0})
    )
    for (u, v), c in zip(arcs, costs):
        lp.add(u, v, float(c))
    return lp


class TestWarmStartParity:
    def test_drifting_lp_sequence_matches_cold(self):
        """Warm and cold objectives agree exactly along a drift chain."""
        rng = np.random.default_rng(7)
        n = 30
        arcs = sorted(set(
            (int(u), int(v))
            for u, v in rng.integers(0, n, size=(n * 3, 2))
            if u != v
        ))
        base_costs = rng.integers(0, 50, size=len(arcs)).astype(float)
        base_w = rng.integers(-20, 20, size=n).astype(float)
        warm = None
        warm_used = 0
        for _ in range(25):
            costs = np.maximum(
                base_costs + rng.integers(-3, 4, size=len(arcs)), -5
            )
            weights = base_w + rng.integers(-2, 3, size=n)
            try:
                cold = solve_difference_lp(
                    random_difference_lp(rng, n, arcs, costs, weights),
                )
            except FlowError:
                # The drift made this instance genuinely infeasible or
                # unbounded; it cannot anchor a warm/cold comparison.
                warm = None
                continue
            sol = solve_difference_lp(
                random_difference_lp(rng, n, arcs, costs, weights),
                warm_start=warm,
            )
            assert sol.backend == cold.backend == "ssp"
            assert sol.objective == cold.objective
            warm_used += sol.stats.warm_solves
            warm = sol.warm_basis
        assert warm_used > 0, "no warm start ever engaged"

    def test_dphase_sequence_matches_cold(self, adder8_dag, force_engine):
        """Real W/D replay: warm duals stay feasible, objectives equal,
        and warm solves route less supply than cold ones."""
        # adder8's LP is above the native engine's size limit; pin it
        # to ``ssp`` so the warm path is what gets exercised.
        force_engine("ssp")
        dag = adder8_dag
        timer = GraphTimer(dag)
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.55 * d_min
        seed = tilos_size(dag, target, TilosOptions())
        assert seed.feasible
        x = seed.x
        basis = None
        compared = 0
        for _ in range(4):
            delays = dag.model.delays(x)
            config = balance(dag, delays, horizon=target, timer=timer)
            load = delays - dag.model.intrinsic
            cold = d_phase(dag, x, config, -0.25 * load, 0.25 * load)
            if basis is not None:
                warm = d_phase(
                    dag, x, config, -0.25 * load, 0.25 * load,
                    warm_start=basis,
                )
                assert warm.predicted_gain == pytest.approx(
                    cold.predicted_gain, abs=1e-9 * (1 + cold.predicted_gain)
                )
                if warm.stats.warm_solves:
                    assert (
                        warm.stats.supply_routed <= cold.stats.supply_routed
                    )
                compared += 1
            basis = cold.warm_basis
            wres = w_phase(dag, delays + cold.delta_d)
            report = timer.analyze(dag.model.delays(wres.x), horizon=target)
            if report.critical_path_delay <= target * (1 + 1e-9):
                x = wres.x
        assert compared >= 3

    def test_warm_solution_certified_optimal(self):
        """The warm solve's flow passes the optimality certificate."""
        problem = FlowProblem(n_nodes=4)
        problem.add_arc(0, 1, cost=2.0)
        problem.add_arc(0, 2, cost=1.0)
        problem.add_arc(1, 3, cost=1.0)
        problem.add_arc(2, 3, cost=3.0)
        problem.add_supply(0, 5.0)
        problem.add_supply(3, -5.0)
        cold = ArraySspEngine(problem).solve()
        basis = basis_from_solution(cold)

        shifted = FlowProblem(n_nodes=4)
        shifted.add_arc(0, 1, cost=2.0)
        shifted.add_arc(0, 2, cost=2.0)   # drifted up
        shifted.add_arc(1, 3, cost=1.0)
        shifted.add_arc(2, 3, cost=2.0)   # drifted down
        shifted.add_supply(0, 7.0)        # supply drift
        shifted.add_supply(3, -7.0)
        warm = ArraySspEngine(shifted).solve(warm_start=basis)
        cold2 = ArraySspEngine(shifted).solve()
        check_flow_feasible(warm)
        check_flow_optimal(warm)
        assert warm.total_cost == pytest.approx(cold2.total_cost)


class TestWarmStartRobustness:
    def test_mismatched_basis_is_ignored(self):
        problem = FlowProblem(n_nodes=3)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_arc(1, 2, cost=1.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(2, -2.0)
        bogus = WarmStartBasis(
            potentials=np.zeros(7),
            flow=np.zeros(5),
            arc_costs=np.zeros(5),
        )
        solution = ArraySspEngine(problem).solve(warm_start=bogus)
        assert solution.stats.warm_solves == 0
        assert solution.total_cost == pytest.approx(4.0)

    def test_cold_solve_stats_unchanged_by_capability(self):
        """Cold solves must not report warm telemetry."""
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=3.0)
        problem.add_supply(0, 1.0)
        problem.add_supply(1, -1.0)
        solution = ArraySspEngine(problem).solve()
        assert solution.stats.warm_solves == 0
        assert solution.stats.warm_flow_reused == 0.0
        assert solution.stats.supply_routed == pytest.approx(1.0)

    def test_warm_start_not_forwarded_to_cold_backends(self):
        """A warm basis passed with an LP too big for the native engine
        is dropped, not passed to HiGHS (which would TypeError)."""
        rng = np.random.default_rng(7)
        n = 66  # 130 constraints: above the ``ssp`` limit
        weights = rng.integers(-5, 5, size=n).astype(float)
        lp = DifferenceConstraintLP(
            n_nodes=n, weights=weights, pinned=frozenset({0})
        )
        for u in range(n - 1):
            lp.add(u, u + 1, 3.0)
            lp.add(u + 1, u, 3.0)
        bogus = WarmStartBasis(
            potentials=np.zeros(1), flow=np.zeros(1), arc_costs=np.zeros(1)
        )
        cold = solve_difference_lp(lp)
        warm = solve_difference_lp(lp, warm_start=bogus)
        assert warm.backend == cold.backend == "scipy"
        assert warm.objective == cold.objective
