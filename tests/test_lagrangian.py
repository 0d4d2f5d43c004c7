"""Tests for the Lagrangian-relaxation baseline (paper reference [8])."""

import numpy as np
import pytest
from oracles.lagrangian import (
    LagrangianOptions,
    lagrangian_size,
)

from repro.errors import InfeasibleTimingError, SizingError
from repro.sizing import minflotransit
from repro.timing import analyze


class TestLagrangianSizer:
    def test_meets_timing(self, c17_gate_dag):
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        result = lagrangian_size(dag, 0.5 * d_min)
        assert result.meets_target
        assert np.all(result.x >= dag.lower - 1e-12)
        assert np.all(result.x <= dag.upper + 1e-12)

    def test_close_to_minflotransit(self, c17_gate_dag):
        """Two independent (near-)exact methods agree on the optimum."""
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.5 * d_min
        lr = lagrangian_size(dag, target)
        mf = minflotransit(dag, target)
        assert lr.area <= mf.area * 1.10
        assert mf.area <= lr.area * 1.10

    def test_adder_agreement(self, adder8_dag):
        dag = adder8_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.55 * d_min
        lr = lagrangian_size(dag, target)
        mf = minflotransit(dag, target)
        assert lr.meets_target
        assert lr.area == pytest.approx(mf.area, rel=0.10)

    def test_loose_target_stays_near_min_area(self, c17_gate_dag):
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        result = lagrangian_size(dag, 1.2 * d_min)
        assert result.area <= dag.area(dag.min_sizes()) * 1.05

    def test_intrinsic_floor_detected(self, c17_gate_dag):
        with pytest.raises(InfeasibleTimingError, match="floor"):
            lagrangian_size(c17_gate_dag, 1.0)

    def test_options_validation(self):
        with pytest.raises(SizingError):
            LagrangianOptions(max_iterations=0)
        with pytest.raises(SizingError):
            LagrangianOptions(initial_step=0.0)

    def test_relaxed_area_reported(self, c17_gate_dag):
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        result = lagrangian_size(dag, 0.6 * d_min)
        assert result.relaxed_area > 0
        assert result.iterations >= 1
