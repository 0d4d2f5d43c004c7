"""Iteration-engine benchmark: incremental timing + warm-started D-phase.

Measures the two cross-iteration accelerators this library applies to
the MINFLOTRANSIT alternation, on real smoke-tier instances:

* **Incremental timing cone.**  A TILOS run with the incremental engine
  reports how many vertices it actually re-propagated per bump, against
  the ``2 * n`` a from-scratch forward/backward STA would touch
  (acceptance target: < 50%).

* **Warm-started D-phase.**  The W/D alternation is replayed with every
  iteration's flow instance solved twice — cold, and warm-started from
  the *previous* iteration's basis — on identical inputs, so the
  comparison is paired and trajectory-independent (the replay always
  advances with the cold result).  Warm and cold objectives are
  asserted exactly equal; the saving shows up as fewer augmenting paths
  and less supply routed (acceptance target: strictly fewer total
  augmentations over the iterations where a basis existed).

Emits a machine-readable ``BENCH_iteration.json``; the committed copy
is the regression baseline the same way ``BENCH_flow.json`` is (see
``benchmarks/README.md``).

Usage::

    PYTHONPATH=src python benchmarks/run_iteration_bench.py \
        [--tier smoke|paper] [--out benchmarks/BENCH_iteration.json] \
        [--iterations 8] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.sizing.dphase as dphase  # noqa: E402
from repro.balancing import balance  # noqa: E402
from repro.dag import build_sizing_dag  # noqa: E402
from repro.flow.arrayssp import solve_lp_ssp  # noqa: E402
from repro.flow.registry import timed_solve  # noqa: E402
from repro.generators.iscas import SUITE, build_circuit  # noqa: E402
from repro.sizing import tilos_size  # noqa: E402
from repro.sizing.dphase import d_phase  # noqa: E402
from repro.sizing.wphase import w_phase  # noqa: E402
from repro.tech import default_technology  # noqa: E402
from repro.timing import GraphTimer  # noqa: E402

SCHEMA = "repro-bench-iteration/1"
TARGET_CONE_FRACTION = 0.5
ALPHA = 0.25


def _solve_ssp(lp, warm_start=None):
    """The array SSP engine, timed and checked like the default path."""
    solution = timed_solve("ssp", solve_lp_ssp, lp, warm_start=warm_start)
    lp.check_feasible(solution.r)
    return solution


def tier_circuits(tier: str) -> list[tuple[str, float]]:
    return [
        (spec.name, spec.delay_spec)
        for spec in SUITE
        if tier == "paper" or spec.tier == "smoke"
    ]


def bench_circuit(name: str, spec: float, iterations: int) -> dict:
    """TILOS cone telemetry + paired warm/cold D-phase replay."""
    circuit = build_circuit(name)
    dag = build_sizing_dag(circuit, default_technology(), mode="gate")
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    target = spec * d_min

    seed = tilos_size(dag, target)
    tstats = seed.timing_stats
    entry: dict = {
        "name": name,
        "delay_spec": spec,
        "n_vertices": dag.n,
        "tilos": {
            "feasible": seed.feasible,
            "bumps": seed.iterations,
            "repropagated_vertices": tstats["repropagated_vertices"],
            "full_pass_equivalent": tstats["full_pass_equivalent"],
            "cone_fraction": round(tstats["cone_fraction"], 4),
        },
        "iterations": [],
    }
    if not seed.feasible:
        return entry

    # Replay the W/D alternation: every iteration's LP is solved cold
    # (which also drives the trajectory, keeping the replay
    # deterministic) and warm from the previous cold basis.
    x = seed.x
    warm_basis = None
    for iteration in range(1, iterations + 1):
        delays = dag.model.delays(x)
        config = balance(dag, delays, horizon=target, timer=timer)
        load = delays - dag.model.intrinsic
        min_dd, max_dd = -ALPHA * load, ALPHA * load

        cold = d_phase(dag, x, config, min_dd, max_dd)
        row = {
            "iteration": iteration,
            "cold": _solve_row(cold),
            "warm": None,
        }
        if warm_basis is not None:
            warm = d_phase(
                dag, x, config, min_dd, max_dd, warm_start=warm_basis,
            )
            gap = abs(warm.predicted_gain - cold.predicted_gain)
            scale = 1.0 + abs(cold.predicted_gain)
            if gap > 1e-9 * scale:
                # Explicit (not assert): the exactness gate must hold
                # even under python -O.
                raise RuntimeError(
                    f"warm/cold objective mismatch on {name} "
                    f"iteration {iteration}: {gap:.3g}"
                )
            row["warm"] = _solve_row(warm)
        entry["iterations"].append(row)
        warm_basis = cold.warm_basis

        # Advance exactly like the inner loop: accept the W-phase sizes
        # when they still meet timing.
        wres = w_phase(dag, delays + cold.delta_d)
        report = timer.analyze(dag.model.delays(wres.x), horizon=target)
        if report.critical_path_delay <= target * (1 + 1e-9):
            x = wres.x

    paired = [r for r in entry["iterations"] if r["warm"] is not None]
    entry["paired_iterations"] = len(paired)
    entry["cold_augmentations"] = sum(
        r["cold"]["augmentations"] for r in paired
    )
    entry["warm_augmentations"] = sum(
        r["warm"]["augmentations"] for r in paired
    )
    entry["warm_applied"] = sum(
        1 for r in paired if r["warm"]["warm_solves"]
    )
    return entry


def _solve_row(dres) -> dict:
    stats = dres.stats
    return {
        "augmentations": int(stats.augmentations),
        "sp_rounds": int(stats.sp_rounds),
        "supply_routed": float(stats.supply_routed),
        "warm_solves": int(stats.warm_solves),
        "warm_flow_reused": float(stats.warm_flow_reused),
        "wall_s": round(float(stats.wall_time_s), 6),
    }


def run(tier: str, iterations: int) -> dict:
    # Every D-phase LP here goes to the array engine whatever its size:
    # the bench measures that engine's warm starts on the c432eq-size
    # LPs that ``solve_difference_lp`` would hand to HiGHS.
    dphase.solve_difference_lp = _solve_ssp
    results = []
    for name, spec in tier_circuits(tier):
        print(f"[bench] {name} (spec {spec}) ...", flush=True)
        entry = bench_circuit(name, spec, iterations)
        tilos = entry["tilos"]
        print(
            f"[bench]   tilos cone {100 * tilos['cone_fraction']:.1f}% "
            f"over {tilos['bumps']} bumps; warm/cold augmentations "
            f"{entry.get('warm_augmentations')}/"
            f"{entry.get('cold_augmentations')}",
            flush=True,
        )
        results.append(entry)

    feasible = [e for e in results if e["tilos"]["feasible"]]
    cold_total = sum(e.get("cold_augmentations", 0) for e in feasible)
    warm_total = sum(e.get("warm_augmentations", 0) for e in feasible)
    worst_cone = max(
        (e["tilos"]["cone_fraction"] for e in feasible), default=0.0
    )
    return {
        "schema": SCHEMA,
        "tier": tier,
        "replay_iterations": iterations,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "circuits": results,
        "summary": {
            "worst_tilos_cone_fraction": round(worst_cone, 4),
            "target_cone_fraction": TARGET_CONE_FRACTION,
            "cone_ok": bool(worst_cone < TARGET_CONE_FRACTION),
            "cold_augmentations_total": cold_total,
            "warm_augmentations_total": warm_total,
            "warm_saves_augmentations": bool(warm_total < cold_total),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default=None, choices=["smoke", "paper"],
                        help="circuit tier (default: $REPRO_BENCH_TIER "
                             "or 'smoke')")
    parser.add_argument("--out", default="BENCH_iteration.json")
    parser.add_argument("--iterations", type=int, default=8,
                        help="W/D iterations to replay per circuit")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the cone and warm-start "
                             "acceptance targets hold")
    args = parser.parse_args(argv)

    tier = args.tier or os.environ.get("REPRO_BENCH_TIER", "smoke")
    report = run(tier, args.iterations)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"[bench] wrote {args.out}")
    print(
        f"[bench] worst tilos cone "
        f"{summary['worst_tilos_cone_fraction']} (target < "
        f"{TARGET_CONE_FRACTION}); augmentations warm/cold "
        f"{summary['warm_augmentations_total']}/"
        f"{summary['cold_augmentations_total']}"
    )
    if args.check:
        if not summary["cone_ok"]:
            print("[bench] FAIL: incremental timing re-propagated "
                  ">= 50% of a full pass", file=sys.stderr)
            return 1
        if not summary["warm_saves_augmentations"]:
            print("[bench] FAIL: warm starts did not reduce "
                  "augmentations", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
