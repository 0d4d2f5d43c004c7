"""Reference TILOS: the per-candidate sensitivity scan.

The straightforward reading of the greedy sizer (references [1], [15]
of the paper): walk the critical path, score each vertex's bump one
candidate at a time, bump the best, refresh the disturbed delays vertex
by vertex and re-time.  :func:`repro.sizing.tilos.tilos_size` must pick
the identical bump sequence with its array kernel.

Timing is incremental (:class:`repro.timing.IncrementalTimer`) by
default; ``full_retime=True`` re-times the whole circuit with a fresh
:meth:`repro.timing.GraphTimer.analyze` after every bump instead — the
oracle for the incremental engine's part of the loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sizing.tilos import TilosOptions, TilosResult
from repro.timing.incremental import IncrementalTimer
from repro.timing.sta import GraphTimer

__all__ = ["tilos_size"]


class _FullRetime:
    """Re-time the whole circuit per bump (the IncrementalTimer API
    subset the greedy loop reads)."""

    def __init__(self, dag, delays: np.ndarray):
        self._timer = GraphTimer(dag)
        self._report = self._timer.analyze(delays)

    @property
    def critical_path_delay(self) -> float:
        return self._report.critical_path_delay

    def critical_path(self) -> list[int]:
        return self._report.critical_path()

    def update_delays(self, _changed, delays: np.ndarray) -> None:
        self._report = self._timer.analyze(delays)


def tilos_size(
    dag,
    target: float,
    options: TilosOptions | None = None,
    x0: np.ndarray | None = None,
    keep_trace: bool = False,
    full_retime: bool = False,
) -> TilosResult:
    """Size ``dag`` to meet ``target`` with the scalar greedy loop.

    Same contract as :func:`repro.sizing.tilos.tilos_size` without the
    warm-start replay; ``timing_stats`` carries only the scan/refresh
    wall-time split.
    """
    options = options or TilosOptions()
    model = dag.model
    law = model.law
    weight = dag.area_weight
    upper = dag.upper
    indptr = model.a_matrix.indptr
    indices = model.a_matrix.indices
    data = model.a_matrix.data
    transpose = model.a_matrix.T.tocsr()
    coo = model.a_matrix.tocoo()
    coupling = {
        (int(i), int(j)): float(value)
        for i, j, value in zip(coo.row, coo.col, coo.data)
    }

    x = dag.min_sizes() if x0 is None else np.array(x0, dtype=float)

    def vertex_load(i: int) -> float:
        lo, hi = indptr[i], indptr[i + 1]
        return float(data[lo:hi] @ x[indices[lo:hi]]) + model.b[i]

    def vertex_delay(i: int) -> float:
        return model.intrinsic[i] + law.g(x[i]) * vertex_load(i)

    def dependents(v: int) -> list[int]:
        return transpose.indices[
            transpose.indptr[v]:transpose.indptr[v + 1]
        ].tolist()

    def scan(path: list[int]) -> list[tuple[float, int]]:
        candidates: list[tuple[float, int]] = []
        for position, v in enumerate(path):
            if x[v] >= upper[v] * (1 - 1e-12):
                continue
            new_size = min(x[v] * options.bump, upper[v])
            dx = new_size - x[v]
            if dx <= 0:
                continue
            delta = (law.g(new_size) - law.g(x[v])) * vertex_load(v)
            if position > 0:
                pred = path[position - 1]
                delta += law.g(x[pred]) * coupling.get((pred, v), 0.0) * dx
            sensitivity = -delta / (weight[v] * dx)
            candidates.append((sensitivity, v))
        candidates.sort(reverse=True)
        return candidates

    start = time.perf_counter()
    delays = model.delays(x)
    timer = (_FullRetime if full_retime else IncrementalTimer)(dag, delays)
    trace: list[float] = []
    bumps: list[list[int]] = []
    iterations = 0
    stats = {"scan_seconds": 0.0, "refresh_seconds": 0.0}
    while True:
        cp = timer.critical_path_delay
        if keep_trace:
            trace.append(cp)
        feasible = cp <= target
        if feasible or iterations >= options.max_iterations:
            break
        tick = time.perf_counter()
        candidates = scan(timer.critical_path())
        stats["scan_seconds"] += time.perf_counter() - tick
        if not candidates or candidates[0][0] <= 0:
            break  # no critical-path resize helps: greedy is stuck

        tick = time.perf_counter()
        chosen = [int(v) for _sens, v in candidates[: options.batch]]
        touched: set[int] = set()
        for v in chosen:
            x[v] = min(x[v] * options.bump, upper[v])
            touched.add(v)
            touched.update(dependents(v))
        changed = sorted(touched)
        for u in changed:
            delays[u] = vertex_delay(u)
        if keep_trace:
            bumps.append(chosen)
        stats["refresh_seconds"] += time.perf_counter() - tick
        timer.update_delays(changed, delays)
        iterations += 1
    return TilosResult(
        x=x,
        area=dag.area(x),
        critical_path_delay=cp,
        target=target,
        iterations=iterations,
        feasible=feasible,
        runtime_seconds=time.perf_counter() - start,
        trace=trace,
        timing_stats=stats,
        bumps=bumps if keep_trace else None,
    )
