"""W-phase: minimum-area sizes for fixed delay budgets (paper eq. (11)).

Thin orchestration over the SMP relaxation: runs the level-blocked
kernel of :mod:`repro.sizing.kernels` in reverse topological order
(a single backward-substitution pass for gate sizing, per the paper's
section 2.3) and verifies the resulting delays against the budgets.
The kernel relaxes whole dependency levels with sliced CSR matvecs; its
level plan is cached on the DAG, so repeated W-phases (one per
MINFLOTRANSIT iteration) pay the analysis once.  The per-vertex
Gauss-Seidel loop it reproduces is the test oracle in
``tests/oracles/smp.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag.circuit_dag import SizingDag
from repro.errors import SizingError
from repro.sizing.fingerprint import dag_digest
from repro.sizing.kernels import get_smp_plan, solve_smp_blocked
from repro.sizing.smp import SmpResult, smp_headroom

__all__ = ["WPhaseResult", "w_phase"]

#: The SMP relaxation's default convergence threshold factor (see
#: ``solve_smp_blocked``): needed here to derive the cold-equivalent
#: sweep count of a seeded solve.
_SMP_TOL = 1e-10


@dataclass
class WPhaseResult:
    """Sizes meeting the budgets, plus violation diagnostics."""

    x: np.ndarray
    delays: np.ndarray
    budgets: np.ndarray
    clamped: list[int]
    sweeps: int
    #: Wall time of the relaxation itself (excludes the delay check).
    seconds: float = 0.0
    #: Warm-start status when a donor seed was offered ("seeded", or
    #: the fallback reason); None on cold calls.  Telemetry only —
    #: never part of job payloads.
    warm: str | None = None

    @property
    def feasible(self) -> bool:
        """True when every budget was met without clamping."""
        return not self.clamped

    @property
    def worst_violation(self) -> float:
        """Largest delay-over-budget excess (<= 0 when feasible)."""
        return float(np.max(self.delays - self.budgets))


def _solve(
    dag: SizingDag,
    budgets: np.ndarray,
    max_sweeps: int,
    x0: np.ndarray | None,
) -> SmpResult:
    return solve_smp_blocked(
        model=dag.model,
        budgets=budgets,
        lower=dag.lower,
        upper=dag.upper,
        plan=get_smp_plan(dag),
        max_sweeps=max_sweeps,
        x0=x0,
    )


def _warm_gate(dag: SizingDag, budgets: np.ndarray, warm: object) -> str | None:
    """Why a donor seed may NOT be used (None when it may).

    The exactness certificate: in gate mode the relaxation is backward
    substitution and only moves sizes up, so any seed with
    ``lower <= x0 <= lfp`` converges to the identical least fixed
    point.  A donor that solved the *same* instance under budgets that
    dominate (are everywhere >=) the new ones has ``lfp_donor <= lfp``
    by monotonicity, which is exactly that certificate.
    """
    if not isinstance(warm, dict):
        return "not a seed record"
    if dag.mode != "gate":
        return "transistor blocks couple mutually"
    try:
        x = np.asarray(warm.get("x"), dtype=float)
        donor = np.asarray(warm.get("budgets"), dtype=float)
    except (TypeError, ValueError):
        return "malformed seed arrays"
    if x.shape != (dag.n,) or donor.shape != (dag.n,):
        return "seed shape mismatch"
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(donor))):
        return "non-finite seed"
    if np.any(x < dag.lower) or np.any(x > dag.upper):
        return "seed outside size bounds"
    if not np.all(donor >= np.asarray(budgets, dtype=float)):
        return "donor budgets do not dominate"
    if warm.get("dag_sha") != dag_digest(dag):
        return "instance mismatch"
    return None


def _seed_exact(dag: SizingDag, budgets: np.ndarray, x: np.ndarray) -> bool:
    """Bitwise fixed-point check of a seeded solution (the monitor).

    In gate mode the least fixed point satisfies, exactly in floats:
    every live relaxed vertex equals the clipped requirement derived
    from its (final) downstream sizes, and every never-relaxed vertex
    sits at its lower bound.  A seed that started above the fixed point
    survives relaxation unchanged (updates only move up) and fails
    precisely this test, which forces the cold fallback.
    """
    model = dag.model
    headroom, _no_load = smp_headroom(model, budgets)
    law = model.law
    relaxed = np.zeros(dag.n, dtype=bool)
    for rows, matrix in get_smp_plan(dag).blocks:
        loads = matrix @ x + model.b[rows]
        live = loads > 0.0
        rows_live = rows[live]
        relaxed[rows_live] = True
        required = law.g_inverse_array(headroom[rows_live] / loads[live])
        value = np.minimum(
            np.maximum(required, dag.lower[rows_live]), dag.upper[rows_live]
        )
        if not np.array_equal(x[rows_live], value):
            return False
    return bool(np.array_equal(x[~relaxed], dag.lower[~relaxed]))


def w_phase(
    dag: SizingDag,
    budgets: np.ndarray,
    max_sweeps: int = 200,
    warm: dict | None = None,
) -> WPhaseResult:
    """Solve the W-phase SMP for ``dag`` under per-vertex ``budgets``.

    ``warm`` optionally carries a corpus seed — ``{"x", "budgets",
    "dag_sha"}`` from :mod:`repro.runner.corpus` — used as the
    relaxation's starting point when the dominated-budget gate admits
    it (same instance, donor budgets everywhere >= the new ones, gate
    mode).  A bitwise exactness monitor verifies the converged solution
    against the fixed-point equations and re-solves cold on any
    mismatch, so the returned sizes are identical to a cold solve in
    all cases; only the sweep count may shrink.
    """
    x0: np.ndarray | None = None
    warm_status: str | None = None
    if warm is not None:
        reason = _warm_gate(dag, budgets, warm)
        if reason is None:
            x0 = np.array(warm["x"], dtype=float)
            warm_status = "seeded"
        else:
            warm_status = reason
    result: SmpResult | None = None
    sweeps: int | None = None
    if x0 is not None:
        try:
            seeded = _solve(dag, budgets, max_sweeps, x0)
            if _seed_exact(dag, budgets, seeded.x):
                result = seeded
                # A seeded run can converge in fewer sweeps than a
                # cold one, but the sweep count is part of the cached
                # payload and must not depend on corpus state.  In
                # gate mode the cold figure is derivable exactly from
                # the (verified) fixed point: one sweep when no size
                # moved past the solvers' convergence threshold, two
                # otherwise — so report that, not the seeded count.
                scale = float(np.max(np.abs(dag.upper))) or 1.0
                moved = (
                    float(np.max(result.x - dag.lower)) if dag.n else 0.0
                )
                sweeps = 2 if moved > _SMP_TOL * scale else 1
            else:
                warm_status = "seeded iterate left the cold basin"
        except SizingError:
            warm_status = "seeded relaxation failed"
    if result is None:
        result = _solve(dag, budgets, max_sweeps, None)
        sweeps = result.sweeps
    delays = dag.model.delays(result.x)
    return WPhaseResult(
        x=result.x,
        delays=delays,
        budgets=np.asarray(budgets, dtype=float),
        clamped=result.clamped,
        sweeps=sweeps,
        seconds=result.seconds,
        warm=warm_status,
    )
