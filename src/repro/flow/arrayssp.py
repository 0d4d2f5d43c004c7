"""Array-based successive-shortest-path min-cost flow engine.

This is the library's native D-phase solver, replacing the list-of-lists
``heapq`` implementation that survives as the test oracle
``tests/oracles/ssp.py``.  Three design decisions give it its speed on
the shallow, DAG-shaped instances the D-phase produces:

* **CSR-style arc arrays.**  The residual graph lives in flat numpy
  arrays (``arc_src``, ``arc_dst``, ``arc_cap``, ``arc_cost``) with the
  classic pairing trick — arc ``2k`` is the forward copy of problem arc
  ``k`` and ``2k ^ 1`` its reverse — so pushing flow is two scatter
  updates and no Python object is touched per arc.

* **Edge-parallel shortest paths.**  Distances are computed by
  vectorized Bellman-Ford-Moore sweeps (``np.minimum.at`` over every
  active arc at once).  The D-phase networks are shallow — a sweep count
  near the circuit depth — so a handful of full-edge numpy passes beats
  a binary heap whose every pop and push runs in the interpreter.  The
  sweeps also absorb negative arc costs with no separate initialization
  pass.

* **Multi-path (primal-dual) augmentation.**  After each potential
  update the solver pushes a full Dinic blocking flow through the
  zero-reduced-cost admissible subgraph instead of a single augmenting
  path, so one shortest-path computation funds many augmentations.
  Every admissible path telescopes to the current shortest-path length,
  which preserves the reduced-cost optimality invariant.

Scratch buffers are allocated once per :class:`ArraySspEngine` and
reused across rounds and across repeated ``solve()`` calls on the same
engine.  (The registry's LP entry point builds a fresh engine per
solve; callers that repeatedly solve one instance can hold the engine
to amortize construction.)

**Warm starts.**  The MINFLOTRANSIT W/D alternation solves a sequence
of flow instances with identical arc topology and slowly drifting
costs/supplies.  :meth:`ArraySspEngine.solve` accepts a
:class:`WarmStartBasis` (the previous solve's node potentials, arc
flows, and the costs they were optimal for) and starts from a *reduced*
problem instead of scratch:

1. previous flow is retained on every arc whose cost did not increase
   (on such arcs the reverse residual reduced cost stays non-negative),
2. a greedy *divergence-fitting* pass adjusts the retained arcs to
   cancel matched supply drift at their endpoints — without it, the
   small per-node supply drift between iterations would cost one
   augmenting path per node, as many as a cold solve,
3. a Bellman-Ford sweep repairs any negative reduced costs the cost
   drift introduced (a residual negative cycle — possible when another
   path got much cheaper — aborts the warm path and falls back to a
   cold solve),
4. successive shortest paths then route only the remaining *imbalance*
   between the fitted flow's divergence and the new supplies.

Starting from a reduced-cost-optimal pseudoflow keeps the SSP
invariant, so the warm result is exactly optimal: its objective equals
the cold solve's.  It need not be the same optimal vertex — when the LP
has several optimal ``r``, the warm potentials may pick another one.
What the warm start saves is flow left to push
(``SolveStats.supply_routed`` vs the cold total), which is where the
augmentation savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FlowError, InfeasibleFlowError, UnboundedFlowError
from repro.flow.network import FlowProblem, FlowSolution
from repro.flow.registry import SolveStats

__all__ = [
    "ArraySspEngine",
    "WarmStartBasis",
    "basis_from_solution",
    "solve_ssp_array",
]

_INF = float("inf")


@dataclass(frozen=True)
class WarmStartBasis:
    """Starting basis for a warm solve of a structurally equal instance.

    All arrays live in the coordinate system of the *problem* that
    produced them: ``potentials`` per node, ``flow`` and ``arc_costs``
    aligned with ``problem.arcs``.  A basis whose shapes do not match
    the instance being solved is silently ignored (the solve falls back
    to cold), so callers may pass a stale basis without risk.
    """

    potentials: np.ndarray
    flow: np.ndarray
    arc_costs: np.ndarray


def basis_from_solution(solution: FlowSolution) -> WarmStartBasis:
    """Extract a :class:`WarmStartBasis` from a completed solve."""
    return WarmStartBasis(
        potentials=np.array(solution.potentials, dtype=float),
        flow=np.array(solution.flow, dtype=float),
        arc_costs=np.array(
            [arc.cost for arc in solution.problem.arcs], dtype=float
        ),
    )


class ArraySspEngine:
    """Reusable min-cost-flow solver over flat residual-arc arrays."""

    def __init__(self, problem: FlowProblem):
        problem.check_balanced()
        self.problem = problem
        n = problem.n_nodes
        self.source = n
        self.sink = n + 1
        self.n_total = n + 2
        assert problem.supply is not None
        supply = problem.supply

        big = float(np.abs(supply).sum())
        self.needed = float(supply[supply > 0].sum())

        n_arcs = len(problem.arcs)
        src = np.empty(n_arcs, dtype=np.int64)
        dst = np.empty(n_arcs, dtype=np.int64)
        cap = np.empty(n_arcs, dtype=np.float64)
        cost = np.empty(n_arcs, dtype=np.float64)
        self._uncapacitated = np.zeros(n_arcs, dtype=bool)
        for k, arc in enumerate(problem.arcs):
            src[k] = arc.src
            dst[k] = arc.dst
            cap[k] = big if arc.capacity is None else float(arc.capacity)
            self._uncapacitated[k] = arc.capacity is None
            cost[k] = arc.cost
        self._big = big
        self.has_negative = bool(np.any(cost < 0))

        # Source and sink arcs exist for *every* node; capacity selects
        # the live ones (cold: the supplies; warm: the divergence the
        # retained flow leaves unserved).  Zero-capacity arcs are inert
        # — every kernel masks on residual capacity — so the cold solve
        # touches exactly the same active arcs as before.
        all_nodes = np.arange(n, dtype=np.int64)
        src = np.concatenate([
            src, np.full(n, self.source, dtype=np.int64), all_nodes,
        ])
        dst = np.concatenate([
            dst, all_nodes, np.full(n, self.sink, dtype=np.int64),
        ])
        cap = np.concatenate([
            cap, np.maximum(supply, 0.0), np.maximum(-supply, 0.0)
        ]).astype(np.float64)
        cost = np.concatenate([cost, np.zeros(2 * n)]).astype(np.float64)

        m = len(src)
        self.n_problem_arcs = n_arcs
        # Interleave forward (even) and reverse (odd) copies: 2k ^ 1 flips.
        self.arc_src = np.empty(2 * m, dtype=np.int64)
        self.arc_dst = np.empty(2 * m, dtype=np.int64)
        self.arc_cost = np.empty(2 * m, dtype=np.float64)
        self.arc_src[0::2] = src
        self.arc_src[1::2] = dst
        self.arc_dst[0::2] = dst
        self.arc_dst[1::2] = src
        self.arc_cost[0::2] = cost
        self.arc_cost[1::2] = -cost
        self._cap0 = np.zeros(2 * m, dtype=np.float64)
        self._cap0[0::2] = cap

        self._eps_cap = 1e-12 * max(1.0, big)
        self._eps_cost = 1e-9 * (
            1.0 + float(np.abs(cost).max(initial=0.0))
        )

        # Scratch buffers, reused across rounds and solves.
        self.arc_cap = np.empty_like(self._cap0)
        self._pot = np.zeros(self.n_total)
        self._dist = np.empty(self.n_total)
        self._clamped = np.empty(self.n_total)
        self._arc_mask = np.zeros(2 * m, dtype=bool)

    def solve(
        self,
        allow_negative: bool = False,
        warm_start: WarmStartBasis | None = None,
    ) -> FlowSolution:
        """Run successive shortest paths; returns a certified solution.

        The returned :class:`FlowSolution` carries a populated
        :class:`~repro.flow.registry.SolveStats` in ``stats``.

        ``warm_start`` seeds the solve with a previous solution of a
        structurally identical instance (same node count, same arc
        sequence).  Warm starts are strictly an accelerator: a basis
        with mismatched shapes is ignored, and a basis invalidated by
        the cost drift (residual negative cycle) triggers an automatic
        cold restart — the returned solution is exactly optimal either
        way.
        """
        if self.has_negative and not allow_negative:
            raise FlowError(
                "negative arc costs require allow_negative=True "
                "(absorbed by the first Bellman-Ford sweep)"
            )
        if warm_start is not None and self._warm_compatible(warm_start):
            try:
                return self._run(warm_start)
            except UnboundedFlowError:
                # The retained flow has a negative residual cycle under
                # the new costs; it is not optimal for its divergence.
                # Discard the basis rather than repair it.
                pass
            except InfeasibleFlowError:
                # The retained flow's divergence gap is unroutable in
                # the residual graph (possible when supplies shrank in
                # a weakly connected corner) even though the instance
                # itself is feasible — solve it cold instead.
                pass
        return self._run(None)

    def _warm_compatible(self, basis: WarmStartBasis) -> bool:
        return (
            len(basis.flow) == self.n_problem_arcs
            and len(basis.arc_costs) == self.n_problem_arcs
            and len(basis.potentials) == self.problem.n_nodes
        )

    def _run(self, basis: WarmStartBasis | None) -> FlowSolution:
        cap = self.arc_cap
        np.copyto(cap, self._cap0)
        pot = self._pot
        pot[:] = 0.0
        stats = SolveStats(backend="ssp", n_nodes=self.problem.n_nodes,
                           n_arcs=self.n_problem_arcs)
        if basis is None:
            needed = self.needed
            if self.has_negative:
                self._repair_potentials(cap, pot, stats)
        else:
            needed = self._load_warm_basis(basis, cap, pot, stats)
        stats.supply_routed = needed

        shipped = 0.0
        flow_eps = 1e-9 * max(1.0, self.needed)
        # Pure runaway backstop: the sink distance strictly increases
        # every round (each round pushes a max flow of the admissible
        # subgraph), so legitimate instances terminate on their own.
        # Rounds scale with saturations — i.e. arcs, not nodes.
        max_rounds = 32 * (self.n_total + len(self.arc_src)) + 64
        for _round in range(max_rounds):
            if needed - shipped <= flow_eps:
                break
            dist = self._shortest_paths(cap, pot, stats)
            if not np.isfinite(dist[self.sink]):
                raise InfeasibleFlowError(
                    f"cannot route {needed - shipped:.6g} "
                    "remaining units"
                )
            # pot += min(dist, dist[sink]): the clamped update keeps
            # every residual reduced cost non-negative (unreachable and
            # beyond-sink nodes saturate at the sink distance).
            np.minimum(dist, dist[self.sink], out=self._clamped)
            pot += self._clamped
            stats.sp_rounds += 1
            shipped += self._augment_admissible(cap, pot, dist, stats)
        else:
            raise FlowError(
                "successive-shortest-path rounds did not converge "
                f"within {max_rounds} potential updates"
            )

        n_arcs = self.n_problem_arcs
        flow = cap[1 : 2 * n_arcs : 2].copy()  # reverse cap == flow sent
        total_cost = float(flow @ self.arc_cost[0 : 2 * n_arcs : 2])
        solution = FlowSolution(
            problem=self.problem,
            flow=flow,
            potentials=pot[: self.problem.n_nodes].copy(),
            total_cost=total_cost,
            backend="ssp",
            stats=stats,
        )
        return solution

    def _load_warm_basis(
        self,
        basis: WarmStartBasis,
        cap: np.ndarray,
        pot: np.ndarray,
        stats: SolveStats,
    ) -> float:
        """Install a warm basis; returns the supply left to route.

        Flow is kept only on arcs whose cost did not increase: on those,
        the previous complementary slackness (``flow > 0`` implies zero
        reduced cost) guarantees the reverse residual arc stays
        non-negative under the old potentials, so the retained
        pseudoflow is optimal for its own divergence once
        :meth:`_repair_potentials` absorbs any forward arcs whose cost
        *decreased*.  The super source/sink arcs are re-capacitated to
        the divergence gap ``supply - div(retained)``, which is all the
        main loop still has to route.
        """
        n = self.problem.n_nodes
        k = self.n_problem_arcs
        new_cost = self.arc_cost[0 : 2 * k : 2]
        keep = (
            (basis.flow > self._eps_cap)
            & (new_cost <= basis.arc_costs + self._eps_cost)
        )
        flow = np.where(keep, basis.flow, 0.0)
        limit = np.where(
            self._uncapacitated, _INF, self._cap0[0 : 2 * k : 2]
        )
        np.minimum(flow, limit, out=flow)
        stats.warm_solves = 1

        div = np.zeros(n)
        psrc = self.arc_src[0 : 2 * k : 2]
        pdst = self.arc_dst[0 : 2 * k : 2]
        np.add.at(div, psrc, flow)
        np.subtract.at(div, pdst, flow)
        assert self.problem.supply is not None
        excess = self.problem.supply - div

        # Divergence fitting: supplies drift a little at *every* node
        # between W/D iterations, and routing each node's drift as its
        # own augmenting path would cost as many paths as a cold solve.
        # One greedy pass over the carrying arcs adjusts their flow to
        # cancel matched excess/deficit at the endpoints instead (the
        # delay-arc pairs of the D-phase dual cancel exactly this way).
        # Decreases only enlarge forward residuals that already exist;
        # increases only touch arcs that carried flow — zero reduced
        # cost under the basis potentials — so any violation the drift
        # introduces stays tiny and is absorbed by the repair sweep.
        self._fit_divergence(flow, excess, psrc, pdst)
        # ``big`` stand-in capacities are sized for *this* problem's
        # supplies; retained flow from a larger previous instance must
        # not eat that headroom, or uncapacitated arcs would saturate
        # and manufacture infeasibility a cold solve does not have.
        cap[0 : 2 * k : 2] = np.where(
            self._uncapacitated,
            flow + self._big,
            self._cap0[0 : 2 * k : 2] - flow,
        )
        cap[1 : 2 * k : 2] = self._cap0[1 : 2 * k : 2] + flow
        stats.warm_flow_reused = float(flow.sum())

        source_cap = np.maximum(excess, 0.0)
        sink_cap = np.maximum(-excess, 0.0)
        cap[2 * k : 2 * (k + n) : 2] = source_cap
        cap[2 * (k + n) : 2 * (k + 2 * n) : 2] = sink_cap

        pot[:n] = basis.potentials
        # Source/sink potentials that keep their zero-cost arcs
        # reduced-cost-feasible: at least / at most every live endpoint.
        live_out = source_cap > self._eps_cap
        live_in = sink_cap > self._eps_cap
        pot[self.source] = float(pot[:n][live_out].max(initial=0.0))
        pot[self.sink] = float(pot[:n][live_in].min(initial=0.0))
        self._repair_potentials(cap, pot, stats)
        return float(source_cap.sum())

    def _fit_divergence(
        self,
        flow: np.ndarray,
        excess: np.ndarray,
        psrc: np.ndarray,
        pdst: np.ndarray,
    ) -> None:
        """Adjust carrying arcs in place to cancel endpoint excesses.

        For an arc ``u -> v`` with flow: a surplus at ``u`` facing a
        deficit at ``v`` is absorbed by pushing more flow through the
        arc (uncapacitated instances always admit this; capacitated
        arcs are bounded by their remaining headroom); the mirrored
        case drains the arc instead, bounded by its current flow.
        ``flow`` and ``excess`` are updated consistently, so the caller
        can derive capacities and source/sink arcs from them directly.
        """
        carrying = np.flatnonzero(flow > self._eps_cap)
        if carrying.size == 0:
            return
        headroom = np.where(
            self._uncapacitated,
            _INF,
            self._cap0[0 : 2 * self.n_problem_arcs : 2],
        )
        eps = self._eps_cap
        for a in carrying.tolist():
            u = psrc[a]
            v = pdst[a]
            eu = excess[u]
            ev = excess[v]
            if eu > eps and ev < -eps:
                push = min(eu, -ev, headroom[a] - flow[a])
                if push > 0.0:
                    flow[a] += push
                    excess[u] = eu - push
                    excess[v] = ev + push
            elif eu < -eps and ev > eps:
                drain = min(-eu, ev, flow[a])
                if drain > 0.0:
                    flow[a] -= drain
                    excess[u] = eu + drain
                    excess[v] = ev - drain

    def _repair_potentials(
        self, cap: np.ndarray, pot: np.ndarray, stats: SolveStats
    ) -> None:
        """Bellman-Ford sweep restoring non-negative reduced costs.

        All-zeros distance initialization treats every node as a
        virtual source (handles disconnection); afterwards every
        residual reduced cost is non-negative, the invariant the main
        loop maintains.  With ``pot == 0`` this is the classic
        negative-cost absorption pass; with warm potentials it only has
        to absorb the cost *drift*, which typically converges in a pass
        or two.  A residual negative cycle raises
        :class:`UnboundedFlowError` (the warm path catches it and
        restarts cold).
        """
        active = np.flatnonzero(cap > self._eps_cap)
        asrc = self.arc_src[active]
        adst = self.arc_dst[active]
        rcost = self.arc_cost[active] + pot[asrc] - pot[adst]
        dist = self._dist
        dist.fill(0.0)
        for _pass in range(self.n_total + 1):
            candidate = dist[asrc] + rcost
            improves = candidate < dist[adst] - self._eps_cost
            if not improves.any():
                pot += dist
                return
            np.minimum.at(dist, adst[improves], candidate[improves])
            stats.relax_passes += 1
        raise UnboundedFlowError("negative-cost cycle detected")

    def _shortest_paths(
        self, cap: np.ndarray, pot: np.ndarray, stats: SolveStats
    ) -> np.ndarray:
        """Reduced-cost shortest distances from the super source.

        Edge-parallel Bellman-Ford-Moore: every pass relaxes all active
        residual arcs at once.  Reduced costs are non-negative by the
        potential invariant, so the labels settle in (shortest-path hop
        diameter) passes, a handful on these shallow networks — each a
        few whole-array numpy operations, with no graph to build.
        """
        dist = self._dist
        dist.fill(_INF)
        dist[self.source] = 0.0
        active = np.flatnonzero(cap > self._eps_cap)
        if active.size == 0:
            return dist
        asrc = self.arc_src[active]
        adst = self.arc_dst[active]
        rcost = self.arc_cost[active] + pot[asrc] - pot[adst]
        for _pass in range(self.n_total + 1):
            candidate = dist[asrc] + rcost
            improves = candidate < dist[adst] - self._eps_cost
            if not improves.any():
                return dist
            np.minimum.at(dist, adst[improves], candidate[improves])
            stats.relax_passes += 1
        raise UnboundedFlowError("negative-cost cycle detected")

    def _augment_admissible(
        self,
        cap: np.ndarray,
        pot: np.ndarray,
        dist: np.ndarray,
        stats: SolveStats,
    ) -> float:
        """Dinic blocking flows on the zero-reduced-cost subgraph.

        Admissible arcs are the distance-tight residual arcs (both
        endpoints on shortest paths no longer than the sink's), plus
        their reverses so flow pushed inside this round can be rerouted.
        Repeats level-BFS + blocking flow until the sink is unreachable,
        i.e. a maximum flow of the admissible subgraph — one shortest
        path computation funds many augmentations.
        """
        eps_cap, eps_cost = self._eps_cap, self._eps_cost
        horizon = dist[self.sink] + eps_cost
        active = np.flatnonzero(cap > eps_cap)
        asrc = self.arc_src[active]
        adst = self.arc_dst[active]
        # pot was just bumped by the clamped distances, so an arc is on
        # a shortest path iff its reduced cost is now zero; the horizon
        # filter drops tight arcs strictly beyond the sink's distance.
        rcost_now = self.arc_cost[active] + pot[asrc] - pot[adst]
        tight = (
            (dist[asrc] <= horizon)
            & (dist[adst] <= horizon)
            & (np.abs(rcost_now) <= eps_cost)
        )
        admissible = active[tight]
        if admissible.size == 0:
            return 0.0
        # Tight arcs plus their reverses (so flow pushed within this
        # round can be rerouted); the mask buffer dedupes arcs whose
        # opposite direction is tight as well.
        mask = self._arc_mask
        mask[admissible] = True
        mask[admissible ^ 1] = True
        arcs = np.flatnonzero(mask)
        mask[arcs] = False  # restore the all-False scratch state

        # Group by source node (CSR layout) with numpy, then drop to
        # plain Python lists for the Dinic phases: the admissible
        # subgraph is small and list indexing is far cheaper than
        # per-element numpy access.
        srcs_arr = self.arc_src[arcs]
        order = np.argsort(srcs_arr, kind="stable")
        arcs = arcs[order]
        srcs_arr = srcs_arr[order]
        adj_start = np.searchsorted(
            srcs_arr, np.arange(self.n_total + 1)
        ).tolist()
        id_order = np.argsort(arcs)
        rev = id_order[
            np.searchsorted(arcs[id_order], arcs ^ 1)
        ].tolist()
        srcs = srcs_arr.tolist()
        dsts = self.arc_dst[arcs].tolist()
        caps = cap[arcs].tolist()

        sink = self.sink
        pushed_total = 0.0
        while True:
            level = self._bfs_levels(adj_start, dsts, caps)
            if level[sink] < 0:
                break
            pushed = self._blocking_flow(
                adj_start, srcs, dsts, caps, rev, level, stats
            )
            if pushed <= 0.0:
                break
            pushed_total += pushed
        cap[arcs] = caps
        return pushed_total

    def _bfs_levels(
        self,
        adj_start: list[int],
        dsts: list[int],
        caps: list[float],
    ) -> list[int]:
        """Level assignment for one Dinic phase (stops at the sink)."""
        eps_cap = self._eps_cap
        sink = self.sink
        level = [-1] * self.n_total
        level[self.source] = 0
        queue = [self.source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if u == sink:
                break
            depth = level[u] + 1
            for k in range(adj_start[u], adj_start[u + 1]):
                if caps[k] > eps_cap:
                    v = dsts[k]
                    if level[v] < 0:
                        level[v] = depth
                        queue.append(v)
        return level

    def _blocking_flow(
        self,
        adj_start: list[int],
        srcs: list[int],
        dsts: list[int],
        caps: list[float],
        rev: list[int],
        level: list[int],
        stats: SolveStats,
    ) -> float:
        """Current-arc DFS over the level graph (classic Dinic step).

        Arc indices double as adjacency positions (the arrays are in
        CSR order), so the per-node cursor state is a flat list and the
        inner loop touches no dict and no numpy scalar.
        """
        eps_cap = self._eps_cap
        source, sink = self.source, self.sink
        ptr = adj_start[:-1].copy()
        path: list[int] = []  # arc indices == adjacency positions
        u = source
        pushed_total = 0.0
        while True:
            if u == sink:
                bottleneck = min(caps[k] for k in path)
                cut = len(path)
                for i, k in enumerate(path):
                    caps[k] -= bottleneck
                    caps[rev[k]] += bottleneck
                    if caps[k] <= eps_cap and i < cut:
                        cut = i
                stats.augmentations += 1
                pushed_total += bottleneck
                # Retreat to just before the first saturated arc.
                u = srcs[path[cut]]
                del path[cut:]
                continue
            position = ptr[u]
            end = adj_start[u + 1]
            advanced = False
            depth = level[u] + 1
            while position < end:
                v = dsts[position]
                if caps[position] > eps_cap and level[v] == depth:
                    path.append(position)
                    ptr[u] = position
                    u = v
                    advanced = True
                    break
                position += 1
            if not advanced:
                ptr[u] = position
                level[u] = -2  # dead end for this phase
                if u == source:
                    return pushed_total
                k = path.pop()
                u = srcs[k]
                ptr[u] += 1


def solve_ssp_array(
    problem: FlowProblem,
    allow_negative: bool = False,
    warm_start: WarmStartBasis | None = None,
) -> FlowSolution:
    """One-shot wrapper: build an :class:`ArraySspEngine` and solve.

    Callers that solve many structurally identical instances should
    hold on to the engine instead to reuse its scratch buffers.
    """
    return ArraySspEngine(problem).solve(
        allow_negative=allow_negative, warm_start=warm_start
    )


def solve_lp_ssp(lp, warm_start: WarmStartBasis | None = None) -> "object":
    """Solve a difference LP with the array engine (the ``ssp`` path).

    The returned solution carries a :class:`WarmStartBasis` in
    ``warm_basis``; feeding it into the next ``solve_lp_ssp`` call on a
    structurally identical LP (the W/D alternation produces exactly
    such a sequence) lets the engine route only the supply drift.
    """
    from repro.flow.duality import LpSolution, ground_flow, recover_r

    grounded = ground_flow(lp)
    flow = ArraySspEngine(grounded.problem).solve(
        allow_negative=True, warm_start=warm_start
    )
    r = recover_r(grounded, flow.potentials, lp.n_nodes)
    return LpSolution(
        r=r,
        objective=lp.objective(r),
        backend="ssp",
        stats=flow.stats,
        warm_basis=basis_from_solution(flow),
    )
