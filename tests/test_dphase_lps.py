"""The D-phase engines on the LPs real sizing jobs produce.

The random-LP parity tests in ``test_flow.py`` and ``test_properties.py``
cover the engines' whole input space.  These tests pin them on their
runtime domain instead: every D-phase LP that sizing c17 and 1- to 3-bit
ripple-carry adders solves, in gate and transistor mode, at four delay
specs.  They also pin what the engine size rule
(:data:`repro.flow.SSP_MAX_CONSTRAINTS`) is for, and what a warm basis
may and may not change.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles.ssp import solve_lp_ssp_reference

from repro.flow import SSP_MAX_CONSTRAINTS, solve_difference_lp
from repro.flow.arrayssp import solve_lp_ssp
from repro.flow.scipy_backend import solve_lp_scipy
from repro.runner import Job
from repro.runner.executor import execute_job

ROOT = Path(__file__).resolve().parent.parent

SWEEP = [
    Job(circuit=circuit, delay_spec=spec, mode=mode)
    for circuit in ("c17", "rca:1", "rca:2", "rca:3")
    for mode in ("gate", "transistor")
    for spec in (0.5, 0.6, 0.7, 0.9)
]


def _run(job: Job, *, cold: bool = False):
    """Execute ``job``; return its payload and every D-phase LP it solved.

    Each LP comes as ``(lp, warm, solution)``, ``warm`` telling whether
    the solve started from the previous iteration's basis.  ``cold=True``
    drops every warm basis, so the whole run solves cold.
    """
    solved = []

    def solve(lp, warm_start=None):
        if cold:
            warm_start = None
        solution = solve_difference_lp(lp, warm_start=warm_start)
        solved.append((lp, warm_start is not None, solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sizing.dphase.solve_difference_lp", solve)
        status, payload = execute_job(job)
    assert status == "ok", payload
    return payload, solved


@pytest.fixture(scope="module")
def sweep_lps():
    """Every LP of the sweep that the array SSP engine serves, as
    ``(lp, warm, cold)`` with ``cold`` the engine's cold solution."""
    lps = []
    for job in SWEEP:
        _payload, solved = _run(job)
        lps += [
            (lp, warm, solve_lp_ssp(lp)) for lp, warm, _solution in solved
            if len(lp.constraints) <= SSP_MAX_CONSTRAINTS
        ]
    return lps


class TestOracleParity:
    def test_sweep_covers_warm_and_cold_solves(self, sweep_lps):
        warm = [is_warm for _lp, is_warm, _cold in sweep_lps]
        assert any(warm) and not all(warm)

    def test_cold_r_matches_heapq_oracle_bitwise(self, sweep_lps):
        for lp, _warm, cold in sweep_lps:
            assert np.array_equal(cold.r, solve_lp_ssp_reference(lp).r)

    def test_objective_matches_highs(self, sweep_lps):
        for lp, _warm, cold in sweep_lps:
            # HiGHS works in floating point, so only its objective is
            # compared, and to 1e-12 rather than bit for bit.
            assert cold.objective == pytest.approx(
                solve_lp_scipy(lp).objective, rel=1e-12, abs=0.0
            )


#: Jobs where the warm basis lands on a different optimal ``r`` than a
#: cold solve, visibly enough to change an iteration's predicted gain.
WARM_VERTEX_JOBS = [
    Job(circuit="rca:2", delay_spec=0.8),
    Job(circuit="rca:2", delay_spec=0.9),
    Job(circuit="rca:3", delay_spec=0.5),
    Job(circuit="rca:3", delay_spec=0.9),
]


class TestWarmBasis:
    @pytest.mark.parametrize(
        "job", WARM_VERTEX_JOBS, ids=lambda job: f"{job.circuit}@{job.delay_spec}"
    )
    def test_warm_basis_keeps_objective_and_final_sizes(self, job):
        warm_payload, warm_solved = _run(job)
        cold_payload, _cold_solved = _run(job, cold=True)

        assert any(warm for _lp, warm, _solution in warm_solved)
        for lp, _warm, solution in warm_solved:
            assert solution.objective == solve_difference_lp(lp).objective

        def gains(payload):
            return [it["predicted_gain"] for it in payload["result"]["iterations"]]

        # A different optimal vertex is allowed (and happens here) ...
        assert gains(warm_payload) != gains(cold_payload)
        # ... but the sizes the run ends on are bitwise the same.
        assert warm_payload["result"]["x"] == cold_payload["result"]["x"]


def test_small_circuits_never_import_scipy_optimize():
    """The size rule keeps HiGHS, and with it ``scipy.optimize``, out of
    a process that only sizes c17; the array engine's own shortest
    paths are numpy sweeps, so ``scipy.sparse.csgraph`` stays out too."""
    script = (
        "import sys\n"
        "from repro.runner import Job\n"
        "from repro.runner.executor import execute_job\n"
        "for mode in ('gate', 'transistor'):\n"
        "    job = Job(circuit='c17', delay_spec=0.6, mode=mode)\n"
        "    assert execute_job(job)[0] == 'ok', mode\n"
        "print(sorted({'scipy.optimize', 'scipy.sparse.csgraph'}\n"
        "             & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
