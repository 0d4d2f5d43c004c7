"""Tests for the SMP/W-phase, the D-phase and TILOS in isolation."""

import numpy as np
import pytest

from repro.balancing import balance
from repro.errors import SizingError
from repro.sizing import (
    TilosOptions,
    area_sensitivities,
    d_phase,
    require_feasible,
    tilos_size,
    w_phase,
)
from repro.sizing.dphase import build_dphase_lp
from repro.timing import GraphTimer, analyze


class TestWPhase:
    def test_budgets_met_exactly_when_binding(self, c17_gate_dag):
        dag = c17_gate_dag
        x_ref = dag.min_sizes() * 2.0
        budgets = dag.delays(x_ref)
        result = w_phase(dag, budgets)
        assert result.feasible
        assert np.all(result.delays <= budgets * (1 + 1e-9))

    def test_least_fixed_point_dominated_by_any_feasible(self, c17_gate_dag):
        """The W-phase x is componentwise <= any feasible sizing."""
        dag = c17_gate_dag
        rng = np.random.default_rng(10)
        x_ref = rng.uniform(2.0, 6.0, size=dag.n)
        budgets = dag.delays(x_ref)
        result = w_phase(dag, budgets)
        assert result.feasible
        assert np.all(result.x <= x_ref + 1e-9)

    def test_reproduces_reference_when_tight(self, adder8_dag):
        """Budgets from an interior sizing are reproduced exactly where
        the delay constraint binds above the lower bound."""
        dag = adder8_dag
        x_ref = np.full(dag.n, 3.0)
        budgets = dag.delays(x_ref)
        result = w_phase(dag, budgets)
        assert result.feasible
        # All x at 3.0 is feasible; the LFP can only be smaller.
        assert np.all(result.x <= 3.0 + 1e-9)
        # And its delays respect the budgets.
        assert np.all(result.delays <= budgets * (1 + 1e-9))

    def test_infeasible_budget_reports_clamped(self, c17_gate_dag):
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        # Ask one heavily-loaded vertex for nearly-intrinsic delay: the
        # required size blows past the upper bound.
        victim = int(np.argmax(dag.model.b))
        budgets[victim] = dag.model.intrinsic[victim] + 1e-3
        result = w_phase(dag, budgets)
        assert not result.feasible
        assert victim in result.clamped

    def test_budget_below_intrinsic_raises(self, c17_gate_dag):
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        budgets[0] = dag.model.intrinsic[0] * 0.5
        with pytest.raises(SizingError, match="intrinsic"):
            w_phase(dag, budgets)

    def test_transistor_mode_blocks_converge(self, c17_transistor_dag):
        dag = c17_transistor_dag
        x_ref = np.full(dag.n, 2.5)
        budgets = dag.delays(x_ref)
        result = w_phase(dag, budgets)
        assert result.feasible
        assert np.all(result.delays <= budgets * (1 + 1e-7))
        assert np.all(result.x <= 2.5 + 1e-6)


def _rca8_wphase(spec: float, mode: str = "gate"):
    """The ``rca:8`` W-phase instance a ``wphase`` job at ``spec``
    solves: ``(dag, budgets)`` built by the job executor's own helpers."""
    from repro.runner.executor import _wphase_budgets, _wphase_context
    from repro.runner.spec import Job

    _circuit, dag, load_delay = _wphase_context(
        Job("rca:8", spec, kind="wphase", mode=mode)
    )
    return dag, _wphase_budgets(dag, load_delay, spec)


def _seed(dag, x, budgets) -> dict:
    """A corpus-shaped W-phase donor record."""
    from repro.sizing.fingerprint import dag_digest

    return {"x": np.array(x), "budgets": np.array(budgets),
            "dag_sha": dag_digest(dag)}


class TestWPhaseWarmSeed:
    """``w_phase(..., warm=...)`` directly: the dominated-budget gate,
    the exactness monitor and every fallback return the cold bits."""

    def _assert_cold(self, warm, cold):
        assert np.array_equal(warm.x, cold.x)
        assert warm.sweeps == cold.sweeps
        assert warm.clamped == cold.clamped

    def test_dominated_donor_seeds_bitwise_cold(self):
        dag, donor_budgets = _rca8_wphase(0.95)
        _dag, budgets = _rca8_wphase(0.9)
        donor = w_phase(dag, donor_budgets)
        assert np.all(donor_budgets >= budgets)
        cold = w_phase(dag, budgets)
        warm = w_phase(dag, budgets, warm=_seed(dag, donor.x, donor_budgets))
        assert warm.warm == "seeded"
        assert cold.warm is None
        self._assert_cold(warm, cold)

    def test_non_dominating_donor_falls_back(self):
        dag, donor_budgets = _rca8_wphase(0.85)
        _dag, budgets = _rca8_wphase(0.9)
        donor = w_phase(dag, donor_budgets)
        cold = w_phase(dag, budgets)
        warm = w_phase(dag, budgets, warm=_seed(dag, donor.x, donor_budgets))
        assert warm.warm == "donor budgets do not dominate"
        self._assert_cold(warm, cold)

    def test_seed_above_fixed_point_falls_back(self):
        """A seed above the least fixed point passes the gate (its
        budgets dominate) but survives relaxation unchanged; the
        monitor must catch it."""
        dag, budgets = _rca8_wphase(0.9)
        cold = w_phase(dag, budgets)
        poisoned = np.minimum(cold.x * 1.5, dag.upper)
        assert np.any(poisoned > cold.x)
        warm = w_phase(dag, budgets, warm=_seed(dag, poisoned, budgets))
        assert warm.warm == "seeded iterate left the cold basin"
        self._assert_cold(warm, cold)

    def test_transistor_mode_falls_back(self):
        dag, donor_budgets = _rca8_wphase(0.95, mode="transistor")
        _dag, budgets = _rca8_wphase(0.9, mode="transistor")
        assert dag.mode == "transistor"
        donor = w_phase(dag, donor_budgets)
        cold = w_phase(dag, budgets)
        warm = w_phase(dag, budgets, warm=_seed(dag, donor.x, donor_budgets))
        assert warm.warm == "transistor blocks couple mutually"
        self._assert_cold(warm, cold)


class TestAreaSensitivities:
    def test_positive(self, c17_gate_dag):
        x = c17_gate_dag.min_sizes() * 2
        c = area_sensitivities(c17_gate_dag, x)
        assert (c > 0).all()

    def test_solves_transposed_system(self, c17_gate_dag):
        """(D - A)^T y = w  =>  C = x * y  (checked against dense)."""
        dag = c17_gate_dag
        rng = np.random.default_rng(11)
        x = rng.uniform(1.5, 6.0, size=dag.n)
        c = area_sensitivities(dag, x)
        dense = np.diag(dag.model.load_delays(x)) - dag.model.a_matrix.toarray()
        y = np.linalg.solve(dense.T, dag.area_weight)
        assert c == pytest.approx(x * y)

    def test_transistor_mode_blocks(self, c17_transistor_dag):
        dag = c17_transistor_dag
        x = np.full(dag.n, 2.0)
        c = area_sensitivities(dag, x)
        dense = np.diag(dag.model.load_delays(x)) - dag.model.a_matrix.toarray()
        y = np.linalg.solve(dense.T, dag.area_weight)
        assert c == pytest.approx(x * y)

    def test_taylor_prediction_direction(self, c17_gate_dag):
        """Shrinking total area when budgets grow on high-C vertices:
        first-order prediction sum(C*dD) has the right sign."""
        dag = c17_gate_dag
        x = dag.min_sizes() * 3.0
        delays = dag.delays(x)
        c = area_sensitivities(dag, x)
        # Grow every budget by 1%: predicted area drop = sum(C*dD) > 0.
        budgets = delays * 1.01
        predicted = float(c @ (budgets - delays))
        result = w_phase(dag, budgets)
        actual_drop = dag.area(x) - dag.area(result.x)
        assert predicted > 0
        assert actual_drop > 0
        # First-order model within a factor ~2 for a 1% move.
        assert actual_drop == pytest.approx(predicted, rel=1.0)


class TestDPhase:
    def _setup(self, dag, scale=3.0):
        x = dag.min_sizes() * scale
        delays = dag.delays(x)
        timer = GraphTimer(dag)
        cp = timer.analyze(delays).critical_path_delay
        config = balance(dag, delays, horizon=cp)
        load = delays - dag.model.intrinsic
        return x, delays, config, load

    @pytest.mark.parametrize("backend", ["ssp", "scipy"])
    def test_delta_within_trust_region(
        self, c17_gate_dag, backend, force_engine
    ):
        force_engine(backend)
        dag = c17_gate_dag
        x, delays, config, load = self._setup(dag)
        result = d_phase(dag, x, config, -0.2 * load, 0.2 * load)
        assert np.all(result.delta_d <= 0.2 * load + 1e-9)
        assert np.all(result.delta_d >= -0.2 * load - 1e-9)
        assert result.predicted_gain >= -1e-9

    @pytest.mark.parametrize("backend", ["ssp", "scipy"])
    def test_budgets_remain_timing_safe(
        self, adder8_dag, backend, force_engine
    ):
        """After the D-phase, budgets still meet the horizon."""
        force_engine(backend)
        dag = adder8_dag
        x, delays, config, load = self._setup(dag, scale=2.0)
        result = d_phase(dag, x, config, -0.25 * load, 0.25 * load)
        budgets = delays + result.delta_d
        report = GraphTimer(dag).analyze(budgets)
        assert report.critical_path_delay <= config.horizon * (1 + 1e-6)

    def test_backends_agree(self, c17_gate_dag, force_engine):
        dag = c17_gate_dag
        x, delays, config, load = self._setup(dag)
        gains = {}
        for backend in ("ssp", "ssp-legacy", "scipy"):
            force_engine(backend)
            result = d_phase(dag, x, config, -0.2 * load, 0.2 * load)
            gains[backend] = result.predicted_gain
        values = list(gains.values())
        assert values[0] == pytest.approx(values[1], rel=1e-6)
        assert values[0] == pytest.approx(values[2], rel=1e-6)

    def test_lp_structure(self, c17_gate_dag):
        dag = c17_gate_dag
        x, delays, config, load = self._setup(dag)
        sens = area_sensitivities(dag, x)
        lp = build_dphase_lp(
            dag, config, sens, -0.2 * load, 0.2 * load, 100.0, 1.0
        )
        # 2 constraints per vertex + 1 per wire edge + 1 per PO leaf.
        expected = 2 * dag.n + dag.n_edges + len(dag.po_vertices)
        assert len(lp.constraints) == expected
        # Weights antisymmetric: dummy +C, vertex -C.
        n = dag.n
        assert np.all(lp.weights[n : 2 * n] >= 0)
        assert np.all(lp.weights[:n] <= 0)

    def test_invalid_trust_region(self, c17_gate_dag):
        dag = c17_gate_dag
        x, delays, config, load = self._setup(dag)
        with pytest.raises(SizingError):
            d_phase(dag, x, config, 0.2 * load, -0.2 * load)


class TestTilos:
    def test_reaches_easy_target(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = require_feasible(tilos_size(dag, 0.8 * dmin))
        assert result.critical_path_delay <= 0.8 * dmin
        assert result.area >= dag.area(dag.min_sizes())

    def test_trivial_target_keeps_min_sizes(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = tilos_size(dag, dmin * 1.01)
        assert result.iterations == 0
        assert result.area == pytest.approx(dag.area(dag.min_sizes()))

    def test_area_monotone_in_target(self, adder8_dag):
        dag = adder8_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        areas = []
        for ratio in (0.9, 0.7, 0.5):
            result = require_feasible(tilos_size(dag, ratio * dmin))
            areas.append(result.area)
        assert areas[0] <= areas[1] <= areas[2]

    def test_impossible_target_returns_infeasible(self, c17_gate_dag):
        result = tilos_size(c17_gate_dag, 1.0)  # 1 ps: impossible
        assert not result.feasible
        with pytest.raises(Exception):
            require_feasible(result)

    def test_bump_validation(self):
        with pytest.raises(SizingError):
            TilosOptions(bump=0.9)
        with pytest.raises(SizingError):
            TilosOptions(batch=0)

    def test_batch_mode_converges(self, adder8_dag):
        dag = adder8_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        single = require_feasible(tilos_size(dag, 0.6 * dmin))
        batched = require_feasible(
            tilos_size(dag, 0.6 * dmin, TilosOptions(batch=4))
        )
        assert batched.iterations <= single.iterations

    def test_trace_records_cp(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = tilos_size(dag, 0.7 * dmin, keep_trace=True)
        assert len(result.trace) == result.iterations + 1
        assert result.trace[-1] <= 0.7 * dmin
