"""Flow-solver statistics: per-solve counters collected per scope.

Every solve routed through :func:`repro.flow.duality.solve_difference_lp`
is timed by :func:`timed_solve`, which records a :class:`SolveStats`
into every :func:`stats_scope` its thread has open.  A scope yields the
per-engine totals (augmentations, relaxation work, wall time) of
exactly the work it encloses; the CLI prints them under
``--flow-stats``, and the campaign executor ships them as the payload's
``flow_stats``, which the service exports as ``repro_flow_stat``.

The module imports nothing from the rest of the flow package, so every
engine module may import it without creating an import cycle.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

__all__ = ["SolveStats", "stats_scope", "timed_solve"]


@dataclass
class SolveStats:
    """Counters collected on every timed D-phase LP solve."""

    #: Engine that solved the LP: ``"ssp"`` or ``"scipy"``.
    backend: str
    n_nodes: int = 0
    n_arcs: int = 0
    #: Augmenting paths pushed (native engines only).
    augmentations: int = 0
    #: Potential updates / shortest-path rounds (native engines only).
    sp_rounds: int = 0
    #: Edge-parallel Bellman-Ford sweeps, shortest-path and repair
    #: alike (native engines only).
    relax_passes: int = 0
    #: Solves that started from a warm basis (native array engine only).
    warm_solves: int = 0
    #: Flow units retained from the warm basis instead of re-routed.
    warm_flow_reused: float = 0.0
    #: Supply the augmentation loop actually had to route; on a cold
    #: solve this is the full positive supply, on a warm solve only the
    #: divergence gap — the difference is the warm-start saving.
    supply_routed: float = 0.0
    wall_time_s: float = 0.0
    solves: int = 1

    def merge(self, other: "SolveStats") -> None:
        """Fold another solve's counters into this running total."""
        self.augmentations += other.augmentations
        self.sp_rounds += other.sp_rounds
        self.relax_passes += other.relax_passes
        self.warm_solves += other.warm_solves
        self.warm_flow_reused += other.warm_flow_reused
        self.supply_routed += other.supply_routed
        self.wall_time_s += other.wall_time_s
        self.solves += other.solves
        self.n_nodes = max(self.n_nodes, other.n_nodes)
        self.n_arcs = max(self.n_arcs, other.n_arcs)


class _OpenScopes(threading.local):
    """Per-engine totals of this thread's open scopes, innermost last."""

    def __init__(self) -> None:
        self.scopes: list[dict[str, SolveStats]] = []


_OPEN = _OpenScopes()


def record_stats(stats: SolveStats) -> None:
    """Fold one solve's counters into every open scope's engine total."""
    for scope in _OPEN.scopes:
        total = scope.get(stats.backend)
        if total is None:
            scope[stats.backend] = replace(stats)
        else:
            total.merge(stats)


@contextmanager
def stats_scope():
    """Collect solver statistics for exactly the enclosed work.

    The yielded dict maps engine name to the :class:`SolveStats` totals
    of every solve this thread records while the scope is open.  Scopes
    nest: a solve inside an inner scope counts in the outer one too.
    Outside every scope a solve still carries its own ``stats`` but is
    not totalled anywhere.

    Usage::

        with stats_scope() as scoped:
            minflotransit(...)
        print(scoped)   # only this run's solves
    """
    scoped: dict[str, SolveStats] = {}
    _OPEN.scopes.append(scoped)
    try:
        yield scoped
    finally:
        _OPEN.scopes = [s for s in _OPEN.scopes if s is not scoped]


def timed_solve(engine: str, solve: Callable, lp, **kwargs) -> "object":
    """Run ``solve(lp, **kwargs)`` with wall-time + stats accounting.

    Returns the engine's ``LpSolution`` with ``stats`` populated (an
    engine that produced its own counters keeps them; only the engine
    name, timing and instance-size fields are filled in here) and folds
    the counters into every open scope under ``engine``.
    """
    start = time.perf_counter()
    solution = solve(lp, **kwargs)
    wall = time.perf_counter() - start
    stats = getattr(solution, "stats", None)
    if stats is None:
        stats = SolveStats(backend=engine)
    stats.backend = engine
    stats.n_nodes = lp.n_nodes
    stats.n_arcs = len(lp.constraints)
    stats.wall_time_s = wall
    solution.stats = stats
    record_stats(stats)
    return solution
