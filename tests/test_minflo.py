"""Integration tests for the full MINFLOTRANSIT iteration.

Includes the paper's Example 1 / figure 6 scenario: a fanout-heavy
driver that greedy TILOS under-sizes, which the global D-phase view
repairs.
"""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.dag import build_sizing_dag
from repro.errors import InfeasibleTimingError, SizingError
from repro.generators import build_circuit, ripple_carry_adder
from repro.sizing import MinfloOptions, minflotransit, tilos_size
from repro.timing import analyze


class TestMinflotransit:
    def test_c17_improves_on_tilos(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.5 * dmin
        seed = tilos_size(dag, target)
        result = minflotransit(dag, target, x0=seed.x)
        assert result.meets_target
        assert result.area <= seed.area * (1 + 1e-12)
        assert result.area_saving_vs_initial >= 0.0
        assert result.converged

    def test_never_violates_timing(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        for ratio in (0.45, 0.6, 0.8):
            result = minflotransit(dag, ratio * dmin)
            report = analyze(dag, result.x)
            assert report.critical_path_delay <= ratio * dmin * (1 + 1e-9)

    def test_sizes_within_bounds(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.5 * dmin)
        assert np.all(result.x >= dag.lower - 1e-12)
        assert np.all(result.x <= dag.upper + 1e-12)

    def test_infeasible_target_raises(self, c17_gate_dag):
        with pytest.raises(InfeasibleTimingError):
            minflotransit(c17_gate_dag, 1.0)

    def test_bad_start_raises(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        with pytest.raises(InfeasibleTimingError, match="start"):
            minflotransit(dag, 0.5 * dmin, x0=dag.min_sizes())

    def test_loose_target_converges_to_min_area(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 1.5 * dmin)
        assert result.area == pytest.approx(dag.area(dag.min_sizes()))

    def test_iteration_records(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.5 * dmin)
        assert result.n_iterations >= 1
        for record in result.iterations:
            assert record.predicted_gain >= -1e-9
            assert record.alpha > 0
        # Only a few tens of iterations (paper section 3).
        assert result.n_iterations <= 60

    def test_options_validation(self):
        with pytest.raises(SizingError):
            MinfloOptions(alpha=0.0)
        with pytest.raises(SizingError):
            MinfloOptions(max_iterations=0)

    @pytest.mark.parametrize("backend", ["ssp", "ssp-legacy", "scipy"])
    def test_backends_give_comparable_area(
        self, c17_gate_dag, backend, force_engine
    ):
        force_engine(backend)
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.5 * dmin, MinfloOptions())
        assert result.meets_target
        assert result.area_saving_vs_initial >= 0.0

    def test_balancing_variants(self, c17_gate_dag):
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        areas = {}
        for method in ("asap", "alap", "dfs"):
            result = minflotransit(
                dag, 0.5 * dmin, MinfloOptions(balancing=method)
            )
            assert result.meets_target
            areas[method] = result.area
        spread = max(areas.values()) / min(areas.values())
        assert spread < 1.05  # configs are displacements of each other

    def test_transistor_mode_end_to_end(self, c17_transistor_dag):
        dag = c17_transistor_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.55 * dmin)
        assert result.meets_target
        assert result.area_saving_vs_initial >= 0.0
        assert result.mode == "transistor"

    def test_adder_savings_marginal(self, adder8_dag):
        """Paper: ripple-carry adders gain little over TILOS (single
        dominant critical path)."""
        dag = adder8_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.55 * dmin)
        assert result.meets_target
        assert result.area_saving_vs_initial < 0.08


class TestExample1Figure6:
    """The paper's qualitative example: gate A drives both B and C.

    TILOS, ranking by per-gate sensitivity, pumps B and C alternately;
    the D-phase sees that slowing B and C while speeding A (one gate
    instead of two) is the better trade and recovers area.
    """

    @pytest.fixture()
    def fanout_dag(self, tech):
        builder = CircuitBuilder("figure6")
        nets = builder.inputs(["i0", "i1", "i2", "i3"])
        a = builder.gate("NAND2", [nets[0], nets[1]], out="a")
        b = builder.gate("NAND2", [a, nets[2]], out="b")
        c = builder.gate("NAND2", [a, nets[3]], out="c")
        builder.output(b)
        builder.output(c)
        return build_sizing_dag(builder.build(), tech, mode="gate")

    def test_both_paths_critical(self, fanout_dag):
        report = analyze(fanout_dag, fanout_dag.min_sizes())
        slack = report.slack
        ix = {v.label: v.index for v in fanout_dag.vertices}
        assert slack[ix["g0_nand2"]] == pytest.approx(0.0, abs=1e-9)

    def test_minflo_beats_tilos(self, fanout_dag):
        dag = fanout_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.55 * dmin
        greedy = tilos_size(dag, target)
        assert greedy.feasible
        result = minflotransit(dag, target, x0=greedy.x)
        assert result.area < greedy.area
        # The shared driver A ends up at least as large relative to its
        # fanouts than greedy left it.
        ix = {v.label: v.index for v in dag.vertices}
        a = ix["g0_nand2"]
        b = ix["g1_nand2"]
        ratio_greedy = greedy.x[a] / greedy.x[b]
        ratio_minflo = result.x[a] / result.x[b]
        assert ratio_minflo >= ratio_greedy * 0.99


class TestMediumCircuits:
    @pytest.mark.parametrize("name,spec", [("c432eq", 0.4), ("c499eq", 0.57)])
    def test_paper_specs_feasible_and_improved(self, tech, name, spec):
        circuit = build_circuit(name)
        dag = build_sizing_dag(circuit, tech, mode="gate")
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        target = spec * dmin
        seed = tilos_size(dag, target)
        assert seed.feasible
        result = minflotransit(dag, target, x0=seed.x)
        assert result.meets_target
        # The paper reports 2-16.5% savings on the ISCAS85 circuits.
        assert result.area_saving_vs_initial > 0.02

    def test_adder16_minimal_savings(self, tech):
        circuit = ripple_carry_adder(16)
        dag = build_sizing_dag(circuit, tech, mode="gate")
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(dag, 0.5 * dmin)
        assert result.meets_target
        assert result.area_saving_vs_initial < 0.05
