"""Batched multi-circuit SMP kernels: one matvec per level, many jobs.

The PR 5 kernels vectorize *within* one circuit: a campaign of hundreds
of small W-phase jobs still pays one kernel invocation — plan lookup,
a handful of tiny-array numpy calls, result assembly — per circuit.
This module stacks N independent instances into a single block-diagonal
system so a whole batch relaxes together:

* :func:`build_batched_smp_plan` concatenates the per-circuit
  :class:`~repro.sizing.kernels.SmpPlan` level buckets *by level
  position*: the stacked level-``k`` block holds level ``k`` of every
  circuit that has one, as one CSR matrix over the stacked size vector
  (each circuit's rows read only its own column span — independent
  circuits share no coupling terms, so the stacked matrix is
  block-diagonal by construction).
* :func:`solve_smp_batched` then runs the level-blocked Gauss-Seidel
  relaxation of :func:`~repro.sizing.kernels.solve_smp_blocked` on the
  stacked system: one sliced matvec relaxes level ``k`` of *every*
  circuit at once, and one ``SizeLaw.g_inverse_array`` call serves the
  whole batch (the instances must share one size law for exactly this
  reason).

**Exactness.**  Every stacked row is a verbatim copy of the same CSR
row the single-circuit kernel would multiply — same data, same in-row
column order, columns shifted by the circuit's offset — so scipy's
row-wise matvec accumulates the identical float sequence and produces
bitwise-identical loads.  All remaining per-level arithmetic
(``g_inverse``, clip, move computation) is elementwise.  Convergence is
tracked *per circuit* (each against its own ``tol * max|upper|``
threshold, reduced with an order-insensitive maximum): a converged
circuit freezes — its rows are masked out of subsequent updates, which
is required for bit-identity because the scalar solver stops sweeping
it, and continued relaxation would keep applying sub-threshold
``value > x`` bumps.  Frozen circuits therefore keep their scalar sweep
count, and their clamped set is computed at freeze time with the same
:func:`~repro.sizing.smp.find_clamped` call the per-circuit kernel
makes.  ``tests/test_batch.py`` asserts all of this differentially
(``==`` on sizes, sweep counts and clamped sets, across generator
families, both sizing modes, ragged and mid-batch-infeasible batches);
``tests/test_properties.py`` adds grouping/permutation invariance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.delay.model import VertexDelayModel
from repro.errors import SizingError
from repro.sizing.kernels import SmpPlan
from repro.sizing.smp import SmpResult, find_clamped, smp_headroom

__all__ = [
    "BatchedSmpPlan",
    "build_batched_smp_plan",
    "solve_smp_batched",
]


@dataclass(frozen=True)
class BatchedSmpPlan:
    """Stacked level schedule for a batch of independent SMP instances.

    ``blocks`` holds one ``(rows, matrix, circuits)`` triple per stacked
    level: the *global* vertex ids relaxed by that level (per-circuit
    ids shifted by the circuit's offset), the block-diagonal row slice
    of the stacked coupling matrix, and the circuit index owning each
    row (for per-circuit convergence masks).  Circuits live in disjoint
    ``offsets[c]:offsets[c + 1]`` spans of the stacked size vector.
    """

    n_circuits: int
    #: Total stacked vertex count (``offsets[-1]``).
    n_total: int
    #: Per-circuit spans of the stacked vectors, ``n_circuits + 1`` long.
    offsets: np.ndarray
    #: ``(rows, matrix, circuits)`` per stacked level, in level order.
    blocks: list[tuple[np.ndarray, sparse.csr_matrix, np.ndarray]]
    #: Wall time spent stacking the per-circuit plans.
    build_seconds: float

    @property
    def n_levels(self) -> int:
        """Stacked levels per sweep (the deepest member circuit's count)."""
        return len(self.blocks)


def build_batched_smp_plan(
    models: list[VertexDelayModel], plans: list[SmpPlan]
) -> BatchedSmpPlan:
    """Stack per-circuit level plans into one block-diagonal schedule.

    Level buckets are aligned by position: the stacked level ``k`` holds
    the ``k``-th block of every plan deep enough to have one.  That
    preserves each circuit's own level order within a sweep (its level
    ``k`` always relaxes before its level ``k + 1``), which is the only
    ordering the read-order argument of
    :mod:`repro.sizing.kernels` needs — circuits are independent, so
    their relative interleaving is irrelevant.  Row data is copied
    verbatim from the per-circuit CSR slices (column indices shifted by
    the circuit offset), keeping the stacked matvec bitwise-faithful.
    """
    start = time.perf_counter()
    if len(models) != len(plans):
        raise SizingError(
            f"batched plan needs one model per plan "
            f"(got {len(models)} models, {len(plans)} plans)"
        )
    offsets = np.zeros(len(plans) + 1, dtype=np.int64)
    np.cumsum([plan.n for plan in plans], out=offsets[1:])
    n_total = int(offsets[-1])

    blocks: list[tuple[np.ndarray, sparse.csr_matrix, np.ndarray]] = []
    depth = max((plan.n_levels for plan in plans), default=0)
    for level in range(depth):
        rows_parts: list[np.ndarray] = []
        circ_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        for c, plan in enumerate(plans):
            if level >= plan.n_levels:
                continue
            rows, matrix = plan.blocks[level]
            rows_parts.append(rows + offsets[c])
            circ_parts.append(np.full(rows.size, c, dtype=np.int64))
            data_parts.append(matrix.data)
            index_parts.append(matrix.indices.astype(np.int64) + offsets[c])
            count_parts.append(np.diff(matrix.indptr))
        if not rows_parts:
            continue
        counts = np.concatenate(count_parts)
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        stacked = sparse.csr_matrix(
            (
                np.concatenate(data_parts),
                np.concatenate(index_parts),
                indptr,
            ),
            shape=(counts.size, n_total),
        )
        blocks.append((
            np.concatenate(rows_parts),
            stacked,
            np.concatenate(circ_parts),
        ))
    return BatchedSmpPlan(
        n_circuits=len(plans),
        n_total=n_total,
        offsets=offsets,
        blocks=blocks,
        build_seconds=time.perf_counter() - start,
    )


def solve_smp_batched(
    models: list[VertexDelayModel],
    budgets: list[np.ndarray],
    lowers: list[np.ndarray],
    uppers: list[np.ndarray],
    plan: BatchedSmpPlan,
    max_sweeps: int = 200,
    tol: float = 1e-10,
) -> list[SmpResult | None]:
    """Relax a whole batch of SMP instances in stacked level sweeps.

    The batched twin of
    :func:`~repro.sizing.kernels.solve_smp_blocked`: one entry per
    instance comes back as the *identical* :class:`SmpResult` the
    single-circuit kernel would produce — same sizes, sweep count and
    clamped set, because every instance converges against its own
    threshold and freezes the moment it would have stopped sweeping
    alone.  An instance that does not converge within ``max_sweeps``
    yields ``None`` (its slot only — the rest of the batch still
    solves); callers re-run such stragglers through the per-job path,
    which raises the same :class:`SizingError` a solo solve would.

    All instances must share one size law (checked), so the batched
    ``g_inverse_array`` is a single call over the stacked rows.
    Instance budgets must be individually valid — callers validate via
    :func:`~repro.sizing.smp.smp_headroom` per instance first, so one
    infeasible-budget job fails alone instead of poisoning the batch.
    """
    start = time.perf_counter()
    k = plan.n_circuits
    if k == 0:
        return []
    if not (len(models) == len(budgets) == len(lowers) == len(uppers) == k):
        raise SizingError(
            f"batched solve arity mismatch: plan has {k} circuits, got "
            f"{len(models)} models / {len(budgets)} budgets / "
            f"{len(lowers)} lowers / {len(uppers)} uppers"
        )
    law = models[0].law
    for model in models[1:]:
        if model.law != law:
            raise SizingError(
                "batched SMP relaxation needs one shared size law; "
                "got mixed laws across the batch"
            )

    offsets = plan.offsets
    headroom = np.empty(plan.n_total)
    b = np.empty(plan.n_total)
    budget_arrays: list[np.ndarray] = []
    for c, (model, budget) in enumerate(zip(models, budgets)):
        budget = np.asarray(budget, dtype=float)
        budget_arrays.append(budget)
        per_circuit, _no_load = smp_headroom(model, budget)
        headroom[offsets[c]:offsets[c + 1]] = per_circuit
        b[offsets[c]:offsets[c + 1]] = model.b
    lower = np.concatenate(
        [np.asarray(lo, dtype=float) for lo in lowers]
    )
    upper = np.concatenate(
        [np.asarray(up, dtype=float) for up in uppers]
    )
    # Per-circuit convergence thresholds: each instance converges
    # against its own tol * max|upper| scale, exactly as it would solo.
    thresholds = np.array([
        tol * (float(np.max(np.abs(np.asarray(up)))) or 1.0)
        for up in uppers
    ])

    x = lower.copy()
    active = np.ones(k, dtype=bool)
    results: list[SmpResult | None] = [None] * k
    for sweep in range(1, max_sweeps + 1):
        largest = np.zeros(k)
        for rows, matrix, circuits in plan.blocks:
            mask = active[circuits]
            if not mask.any():
                continue
            # Full stacked matvec: each row bitwise-equals the
            # single-circuit kernel's sliced matvec for that row.
            # Frozen circuits' rows are computed (their x no longer
            # changes, so the flops are harmless) and masked out of the
            # update below — freezing is what preserves per-circuit
            # sweep counts.
            loads = matrix @ x
            if not mask.all():
                rows = rows[mask]
                loads = loads[mask]
                circuits = circuits[mask]
            loads = loads + b[rows]
            live = loads > 0.0
            if not live.all():
                if not live.any():
                    continue
                rows = rows[live]
                loads = loads[live]
                circuits = circuits[live]
            required = law.g_inverse_array(headroom[rows] / loads)
            value = np.minimum(
                np.maximum(required, lower[rows]), upper[rows]
            )
            moves = value - x[rows]
            grew = moves > 0.0
            if grew.any():
                np.maximum.at(largest, circuits[grew], moves[grew])
                x[rows[grew]] = value[grew]
        converged = np.flatnonzero(active & (largest <= thresholds))
        for c in converged:
            sizes = x[offsets[c]:offsets[c + 1]].copy()
            results[c] = SmpResult(
                x=sizes,
                clamped=find_clamped(
                    models[c], budget_arrays[c], sizes, uppers[c], tol
                ),
                sweeps=sweep,
                seconds=time.perf_counter() - start,
            )
        active[converged] = False
        if not active.any():
            break
    return results
