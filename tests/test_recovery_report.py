"""Tests for slack recovery and the timing report formatters."""

import numpy as np
import pytest
from oracles.recovery import greedy_downsize

from repro.errors import SizingError
from repro.sizing import minflotransit, tilos_size
from repro.timing import GraphTimer, analyze
from repro.timing.report import format_critical_path, format_slack_histogram


class TestRecovery:
    def test_recovers_area_from_oversized_start(self, c17_gate_dag):
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.6 * d_min
        # Deliberately oversized start: everything at 8x.
        x0 = dag.min_sizes() * 8
        start_cp = analyze(dag, x0).critical_path_delay
        assert start_cp <= target
        result = greedy_downsize(dag, x0, target)
        assert result.area < dag.area(x0)
        assert result.critical_path_delay <= target * (1 + 1e-9)
        assert result.moves > 0

    def test_keeps_timing(self, adder8_dag):
        dag = adder8_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.55 * d_min
        seed = tilos_size(dag, target)
        assert seed.feasible
        result = greedy_downsize(dag, seed.x, target)
        assert result.critical_path_delay <= target * (1 + 1e-9)
        assert result.area <= seed.area + 1e-9

    def test_minflo_beats_recovery(self, c17_gate_dag):
        """Recovery only harvests local slack; the D-phase moves budget
        globally, so MINFLOTRANSIT should do at least as well."""
        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.5 * d_min
        seed = tilos_size(dag, target)
        recovered = greedy_downsize(dag, seed.x, target)
        refined = minflotransit(dag, target, x0=seed.x)
        assert refined.area <= recovered.area * 1.01

    def test_infeasible_start_rejected(self, c17_gate_dag):
        dag = c17_gate_dag
        with pytest.raises(SizingError, match="feasible"):
            greedy_downsize(dag, dag.min_sizes(), 1.0)

    def test_shrink_validation(self, c17_gate_dag):
        dag = c17_gate_dag
        with pytest.raises(SizingError, match="shrink"):
            greedy_downsize(dag, dag.min_sizes() * 2, 1e12, shrink=0.9)


class TestTimingReports:
    def test_critical_path_table(self, c17_gate_dag):
        x = c17_gate_dag.min_sizes()
        report = analyze(c17_gate_dag, x)
        text = format_critical_path(report, x)
        assert "critical path of c17" in text
        assert "arrival ps" in text
        # Last arrival equals the critical path delay.
        last_arrival = text.strip().splitlines()[-1].split()
        assert float(last_arrival[-2]) == pytest.approx(
            report.critical_path_delay, abs=0.1
        )

    def test_histogram(self, adder8_dag):
        report = analyze(adder8_dag, adder8_dag.min_sizes())
        text = format_slack_histogram(report)
        assert "slack histogram" in text
        assert "#" in text

    def test_histogram_degenerate(self, c17_gate_dag):
        timer = GraphTimer(c17_gate_dag)
        delay = np.ones(c17_gate_dag.n)
        report = timer.analyze(delay)
        text = format_slack_histogram(report)
        assert "slack" in text
