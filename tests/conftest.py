"""Shared fixtures for the test suite.

Markers (registered in ``pyproject.toml``):

* ``slow`` — end-to-end smokes that spawn real subprocesses, drive
  multi-replica fleets, or run full campaign sweeps (example scripts,
  ``serve`` processes, parallel warm-corpus parity).  The default
  tier-1 invocation (``PYTHONPATH=src python -m pytest -x -q``) runs
  them; ``-m "not slow"`` is the fast feedback lane and what the CI
  bench-smoke lanes use while the heavyweight jobs cover the rest.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.ssp import solve_lp_ssp_reference

from repro.circuit import CircuitBuilder
from repro.dag import build_sizing_dag
from repro.flow.arrayssp import solve_lp_ssp
from repro.flow.scipy_backend import solve_lp_scipy
from repro.generators import build_circuit, ripple_carry_adder
from repro.tech import default_technology

#: Every difference-LP engine by name, each callable as
#: ``solve(lp, warm_start=None)``: the two engines
#: ``solve_difference_lp`` picks between by LP size, plus the
#: ``ssp-legacy`` exact-integer oracle.  Only ``ssp`` uses a warm basis.
LP_ENGINES = {
    "ssp": solve_lp_ssp,
    "ssp-legacy": lambda lp, warm_start=None: solve_lp_ssp_reference(lp),
    "scipy": lambda lp, warm_start=None: solve_lp_scipy(lp),
}


@pytest.fixture(scope="session")
def lp_engines():
    return LP_ENGINES


@pytest.fixture()
def force_engine(monkeypatch):
    """Route every D-phase LP to one named engine, whatever its size."""

    def force(name: str) -> None:
        engine = LP_ENGINES[name]

        def solve(lp, warm_start=None):
            solution = engine(lp, warm_start=warm_start)
            lp.check_feasible(solution.r)
            return solution

        monkeypatch.setattr("repro.sizing.dphase.solve_difference_lp", solve)

    return force


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def c17():
    return build_circuit("c17")


@pytest.fixture(scope="session")
def c17_gate_dag(c17, tech):
    return build_sizing_dag(c17, tech, mode="gate")


@pytest.fixture(scope="session")
def c17_transistor_dag(c17, tech):
    return build_sizing_dag(c17, tech, mode="transistor")


@pytest.fixture(scope="session")
def adder8(tech):
    return ripple_carry_adder(8, style="nand")


@pytest.fixture(scope="session")
def adder8_dag(adder8, tech):
    return build_sizing_dag(adder8, tech, mode="gate")


@pytest.fixture()
def fresh_builder():
    return CircuitBuilder("test")


def random_sizes(dag, rng: np.random.Generator) -> np.ndarray:
    """Random feasible size vector for a DAG."""
    return rng.uniform(dag.lower, np.minimum(dag.upper, dag.lower * 8))
