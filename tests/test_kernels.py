"""Parity tests: the vectorized sizing kernels vs the scalar oracles.

The contract of :mod:`repro.sizing.kernels` is *exactness*: the
level-blocked SMP relaxation must reproduce the scalar Gauss-Seidel
sweep of :mod:`oracles.smp` (same fixed point, same clamped set, same
sweep count) and the array TILOS kernel must reproduce the bump
sequence of :mod:`oracles.tilos`'s per-candidate loop exactly.
Randomized instances over gate- and transistor-mode circuits keep both
claims honest.
"""

from dataclasses import fields

import numpy as np
import pytest
from oracles import smp as smp_oracle
from oracles import tilos as tilos_oracle

import repro.sizing
from repro.dag import build_sizing_dag
from repro.errors import SizingError
from repro.generators.random_logic import random_logic
from repro.sizing import (
    MinfloOptions,
    TilosOptions,
    minflotransit,
    tilos_size,
    w_phase,
)
from repro.sizing.kernels import (
    build_smp_plan,
    get_smp_plan,
    get_tilos_plan,
)
from repro.sizing.serialize import result_from_dict, result_to_dict
from repro.tech import default_technology
from repro.timing import analyze


@pytest.fixture(scope="module")
def wide_dag():
    """A shallow, wide random-logic DAG (many vertices per level)."""
    circuit = random_logic(
        300, n_inputs=24, n_outputs=12, seed=11, locality=96
    )
    return build_sizing_dag(circuit, default_technology(), mode="gate")


def _dags(request):
    return [
        request.getfixturevalue("c17_gate_dag"),
        request.getfixturevalue("c17_transistor_dag"),
        request.getfixturevalue("adder8_dag"),
        request.getfixturevalue("wide_dag"),
    ]


class TestSmpParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_budgets_match(self, request, seed):
        """Fixed point, clamped set and sweep count agree per instance."""
        for dag in _dags(request):
            rng = np.random.default_rng(seed)
            x_ref = rng.uniform(
                dag.lower, np.minimum(dag.upper, dag.lower * 8)
            )
            budgets = dag.delays(x_ref)
            scalar = smp_oracle.w_phase(dag, budgets)
            vectorized = w_phase(dag, budgets)
            scale = float(np.max(np.abs(scalar.x)))
            assert np.allclose(
                scalar.x, vectorized.x, rtol=0, atol=1e-10 * scale
            )
            assert scalar.clamped == vectorized.clamped
            assert scalar.sweeps == vectorized.sweeps

    def test_clamped_instance_matches(self, c17_gate_dag):
        """Infeasible budgets clamp the same vertices as the oracle."""
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        victim = int(np.argmax(dag.model.b))
        budgets[victim] = dag.model.intrinsic[victim] + 1e-3
        scalar = smp_oracle.w_phase(dag, budgets)
        vectorized = w_phase(dag, budgets)
        assert not vectorized.feasible
        assert scalar.clamped == vectorized.clamped
        assert scalar.sweeps == vectorized.sweeps

    def test_budget_below_intrinsic_raises_in_both(self, c17_gate_dag):
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        budgets[0] = dag.model.intrinsic[0] * 0.5
        for solve in (smp_oracle.w_phase, w_phase):
            with pytest.raises(SizingError, match="intrinsic"):
                solve(dag, budgets)

    def test_unknown_engine_rejected(self, c17_gate_dag):
        """``w_phase`` has no engine selector any more: the retired
        keyword is an error, not a silently ignored option."""
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes() * 2)
        for engine in ("scalar", "vectorized"):
            with pytest.raises(TypeError, match="engine"):
                w_phase(dag, budgets, engine=engine)
        assert not hasattr(repro.sizing, "solve_smp")


class TestSmpPlan:
    def test_plan_is_cached_per_dag(self, c17_gate_dag):
        assert get_smp_plan(c17_gate_dag) is get_smp_plan(c17_gate_dag)

    def test_levels_respect_read_order(self, request):
        """Every coupling read sees the value the scalar sweep sees.

        For ``a_ij != 0``: a dependency earlier in the sweep order must
        sit in a strictly earlier level (updated read); a later one
        must not sit in an earlier level (stale read).
        """
        for dag in _dags(request):
            plan = get_smp_plan(dag)
            order = dag.topo_order[::-1]
            rank = np.empty(dag.n, dtype=np.int64)
            rank[order] = np.arange(dag.n)
            coo = dag.model.a_matrix.tocoo()
            for i, j in zip(coo.row, coo.col):
                if rank[j] < rank[i]:
                    assert plan.level[i] > plan.level[j]
                else:
                    assert plan.level[i] <= plan.level[j]

    def test_blocks_cover_loaded_vertices_once(self, c17_transistor_dag):
        dag = c17_transistor_dag
        plan = get_smp_plan(dag)
        covered = np.concatenate([rows for rows, _ in plan.blocks])
        assert len(covered) == len(set(covered.tolist()))
        no_load = (dag.model.b == 0) & (
            np.diff(dag.model.a_matrix.indptr) == 0
        )
        assert set(covered.tolist()) == set(
            np.flatnonzero(~no_load).tolist()
        )

    def test_mismatched_sweep_order_rejected(self, c17_gate_dag):
        dag = c17_gate_dag
        with pytest.raises(SizingError, match="sweep order"):
            build_smp_plan(dag.model, dag.topo_order[:3])


class TestTilosParity:
    @pytest.mark.parametrize("ratio", [0.8, 0.6])
    def test_identical_bump_sequence(self, request, ratio):
        """The kernel bumps the oracle's vertices in the same order."""
        for dag in _dags(request):
            dmin = analyze(dag, dag.min_sizes()).critical_path_delay
            target = ratio * dmin
            scalar = tilos_oracle.tilos_size(dag, target, keep_trace=True)
            vectorized = tilos_size(dag, target, keep_trace=True)
            assert scalar.iterations == vectorized.iterations
            assert scalar.feasible == vectorized.feasible
            scale = float(np.max(np.abs(scalar.x)))
            assert np.allclose(
                scalar.x, vectorized.x, rtol=0, atol=1e-10 * scale
            )
            assert np.allclose(
                scalar.trace, vectorized.trace,
                rtol=1e-10, atol=1e-10 * max(dmin, 1.0),
            )

    def test_batch_mode_parity(self, adder8_dag):
        dag = adder8_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        options = TilosOptions(batch=4)
        runs = {
            "scalar": tilos_oracle.tilos_size(dag, 0.6 * dmin, options),
            "vectorized": tilos_size(dag, 0.6 * dmin, options),
        }
        assert runs["scalar"].iterations == runs["vectorized"].iterations
        assert np.allclose(
            runs["scalar"].x, runs["vectorized"].x, rtol=0, atol=1e-9
        )

    def test_kernel_recorded_in_timing_stats(self, c17_gate_dag):
        """The kernel's scan/refresh wall-time split is recorded."""
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = tilos_size(dag, 0.8 * dmin)
        assert result.timing_stats["scan_seconds"] >= 0.0
        assert result.timing_stats["refresh_seconds"] >= 0.0
        assert "kernel" not in result.timing_stats
        assert "engine" not in result.timing_stats

    def test_kernel_validation(self):
        """TILOS keeps exactly its algorithmic knobs; the retired
        kernel selector is rejected."""
        assert [f.name for f in fields(TilosOptions)] == [
            "bump", "max_iterations", "batch"
        ]
        for kernel in ("scalar", "vectorized"):
            with pytest.raises(TypeError, match="kernel"):
                TilosOptions(kernel=kernel)


class TestTilosPlan:
    def test_plan_is_cached_per_dag(self, c17_gate_dag):
        assert get_tilos_plan(c17_gate_dag) is get_tilos_plan(c17_gate_dag)

    def test_coupling_matches_matrix(self, request):
        for dag in _dags(request):
            plan = get_tilos_plan(dag)
            coo = dag.model.a_matrix.tocoo()
            assert plan.edge_keys.size == coo.nnz
            rows = coo.row.astype(np.int64)
            cols = coo.col.astype(np.int64)
            looked_up = plan.coupling_at(rows, cols)
            assert np.array_equal(looked_up, coo.data)

    def test_coupling_at_misses_are_zero(self, c17_gate_dag):
        plan = get_tilos_plan(c17_gate_dag)
        dense = c17_gate_dag.model.a_matrix.toarray()
        rng = np.random.default_rng(5)
        rows = rng.integers(0, c17_gate_dag.n, size=64)
        cols = rng.integers(0, c17_gate_dag.n, size=64)
        assert np.array_equal(
            plan.coupling_at(rows, cols), dense[rows, cols]
        )

    def test_dependents_match_transpose(self, c17_transistor_dag):
        dag = c17_transistor_dag
        plan = get_tilos_plan(dag)
        transpose = dag.model.a_matrix.T.tocsr()
        for v in range(dag.n):
            expected = transpose.indices[
                transpose.indptr[v]:transpose.indptr[v + 1]
            ]
            assert np.array_equal(plan.dependents(v), expected)


class TestMinfloKernel:
    def test_end_to_end_parity(self, c17_gate_dag, c17_transistor_dag,
                               monkeypatch):
        """The full W/D alternation matches a run with the W-phase
        oracle patched in, in gate and transistor mode."""
        for dag in (c17_gate_dag, c17_transistor_dag):
            dmin = analyze(dag, dag.min_sizes()).critical_path_delay
            target = 0.7 * dmin
            options = MinfloOptions(max_iterations=8)
            vectorized = minflotransit(dag, target, options)
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.sizing.minflo.w_phase", smp_oracle.w_phase
                )
                scalar = minflotransit(dag, target, options)
            assert scalar.area == pytest.approx(vectorized.area, rel=1e-9)
            assert np.allclose(scalar.x, vectorized.x, rtol=0, atol=1e-9)
            assert [rec.w_sweeps for rec in scalar.iterations] == [
                rec.w_sweeps for rec in vectorized.iterations
            ]
            assert all(rec.w_sweeps >= 1 for rec in vectorized.iterations)
            assert set(vectorized.phase_seconds) == {
                "timing", "balance", "d_phase", "w_phase"
            }
            assert vectorized.w_sweeps_total >= vectorized.n_iterations

    def test_kernel_option_validation(self):
        """The retired W-phase kernel selector is not a MINFLOTRANSIT
        option any more."""
        assert "kernel" not in {f.name for f in fields(MinfloOptions)}
        for kernel in ("scalar", "vectorized"):
            with pytest.raises(TypeError, match="kernel"):
                MinfloOptions(kernel=kernel)

    def test_kernel_counters_round_trip(self, c17_gate_dag):
        """serialize keeps the per-phase and per-iteration counters."""
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(
            dag, 0.8 * dmin, MinfloOptions(max_iterations=4)
        )
        payload = result_to_dict(result)
        assert "phase_seconds" in payload
        loaded = result_from_dict(payload)
        assert loaded.phase_seconds == result.phase_seconds
        assert [rec.w_sweeps for rec in loaded.iterations] == [
            rec.w_sweeps for rec in result.iterations
        ]
