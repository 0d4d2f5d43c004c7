"""Ablation benchmark: D-phase LP engines (E-ABL in DESIGN.md).

The paper solves the D-phase with a network simplex [9]; this library
solves it with the array SSP engine (small LPs) or HiGHS (large LPs),
and keeps the heapq SSP solver as an exact-integer oracle.  This
benchmark times one D-phase per engine on the same instance, with the
LP routed to that engine directly, and asserts they agree on the
objective — the evidence behind DESIGN.md's solver-substitution note.
The standalone harness that CI runs (and that emits BENCH_flow.json)
is run_flow_bench.py in this directory.
"""

from __future__ import annotations

import pytest
from oracles.ssp import solve_lp_ssp_reference

from benchmarks.conftest import get_context
from repro.balancing import balance
from repro.flow.arrayssp import solve_lp_ssp
from repro.flow.scipy_backend import solve_lp_scipy
from repro.sizing import d_phase

_ENGINES = {
    "ssp": solve_lp_ssp,
    "ssp-legacy": solve_lp_ssp_reference,
    "scipy": solve_lp_scipy,
}
_GAINS: dict[str, float] = {}


def _instance():
    context = get_context("c432eq", 0.4)
    seed = context.seed
    delays = context.dag.delays(seed.x)
    config = balance(
        context.dag, delays, horizon=context.target, timer=context.timer
    )
    load = delays - context.dag.model.intrinsic
    return context.dag, seed.x, config, -0.25 * load, 0.25 * load


@pytest.mark.parametrize("backend", _ENGINES)
def test_dphase_backend(benchmark, backend, monkeypatch):
    dag, x, config, min_dd, max_dd = _instance()
    engine = _ENGINES[backend]
    monkeypatch.setattr(
        "repro.sizing.dphase.solve_difference_lp",
        lambda lp, warm_start=None: engine(lp),
    )

    def solve():
        return d_phase(dag, x, config, min_dd, max_dd)

    result = benchmark(solve)
    _GAINS[backend] = result.predicted_gain
    benchmark.extra_info["predicted_gain"] = result.predicted_gain
    assert result.predicted_gain >= 0


def test_backends_agree(benchmark):
    def check():
        values = list(_GAINS.values())
        return max(values) - min(values)

    if len(_GAINS) == len(_ENGINES):
        spread = benchmark(check)
        scale = max(abs(v) for v in _GAINS.values()) or 1.0
        assert spread <= 1e-5 * scale
    else:  # ran standalone: nothing to compare
        benchmark(lambda: None)
