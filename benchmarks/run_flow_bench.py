"""Cross-engine parity + performance harness for the flow solvers.

Builds one real D-phase LP per benchmark circuit (TILOS seed, delay
balancing, sensitivity weights — the exact instance the sizing loop
solves every outer iteration), times every LP engine on it — the
array SSP engine (``ssp``), HiGHS (``scipy``) and the heapq reference
solver (``ssp-legacy``, the test oracle in ``tests/oracles/ssp.py``) —
checks that all of them agree on the objective, and emits a
machine-readable ``BENCH_flow.json``.

The JSON is the seed point of the perf trajectory: CI re-runs this
script on the smoke tier and ``check_regression.py`` compares the
*machine-independent* metrics (the ssp-vs-legacy speedup ratio and the
solver work counters) against the committed baseline, so a slow CI
runner cannot produce false alarms but an algorithmic regression fails
the build.

Usage::

    PYTHONPATH=src python benchmarks/run_flow_bench.py \
        [--tier smoke|paper] [--out benchmarks/BENCH_flow.json] \
        [--repeats 3] [--check]

``--check`` additionally enforces the acceptance target: the array
engine must be >= 3x faster than the legacy solver on the largest
smoke-tier circuit.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests"))

from oracles.ssp import solve_lp_ssp_reference  # noqa: E402

from repro.balancing import balance  # noqa: E402
from repro.dag import build_sizing_dag  # noqa: E402
from repro.flow.arrayssp import solve_lp_ssp  # noqa: E402
from repro.flow.duality import DifferenceConstraintLP  # noqa: E402
from repro.flow.registry import timed_solve  # noqa: E402
from repro.flow.scipy_backend import solve_lp_scipy  # noqa: E402
from repro.generators.iscas import build_circuit  # noqa: E402
from repro.sizing import tilos_size  # noqa: E402
from repro.sizing.dphase import (  # noqa: E402
    area_sensitivities,
    build_dphase_lp,
)
from repro.tech import default_technology  # noqa: E402
from repro.timing import GraphTimer  # noqa: E402

SCHEMA = "repro-bench-flow/1"
TARGET_SPEEDUP = 3.0

#: Every difference-LP engine, timed on the same instance.
ENGINES = {
    "ssp": solve_lp_ssp,
    "ssp-legacy": solve_lp_ssp_reference,
    "scipy": solve_lp_scipy,
}


def tier_circuits(tier: str) -> list[tuple[str, float]]:
    """(name, delay spec) rows of the suite for a tier."""
    from repro.generators.iscas import SUITE

    return [
        (spec.name, spec.delay_spec)
        for spec in SUITE
        if tier == "paper" or spec.tier == "smoke"
    ]


def build_dphase_instance(name: str, spec: float) -> DifferenceConstraintLP:
    """The D-phase LP of one sizing iteration on ``name`` at ``spec``."""
    circuit = build_circuit(name)
    dag = build_sizing_dag(circuit, default_technology(), mode="gate")
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    target = spec * d_min
    seed = tilos_size(dag, target)
    delays = dag.delays(seed.x)
    config = balance(dag, delays, horizon=target, timer=timer)
    load = delays - dag.model.intrinsic
    min_dd, max_dd = -0.25 * load, 0.25 * load
    sens = area_sensitivities(dag, seed.x)
    span = max(float(np.max(max_dd)), float(config.horizon), 1e-30)
    cost_scale = 10.0 ** (6 - int(np.floor(np.log10(span))))
    weight_scale = 10.0 ** (
        6 - int(np.floor(np.log10(max(float(sens.max()), 1e-30))))
    )
    return build_dphase_lp(
        dag, config, sens, min_dd, max_dd, cost_scale, weight_scale
    )


def bench_circuit(name: str, spec: float, repeats: int) -> dict:
    lp = build_dphase_instance(name, spec)
    entry: dict = {
        "name": name,
        "delay_spec": spec,
        "lp_nodes": lp.n_nodes,
        "lp_constraints": len(lp.constraints),
        "backends": {},
    }
    objectives: dict[str, float] = {}
    for name, engine in ENGINES.items():
        best = float("inf")
        solution = None
        for _ in range(repeats):
            start = time.perf_counter()
            solution = timed_solve(name, engine, lp)
            lp.check_feasible(solution.r)
            best = min(best, time.perf_counter() - start)
        assert solution is not None
        stats = solution.stats
        entry["backends"][name] = {
            "wall_s": round(best, 6),
            "objective": solution.objective,
            "augmentations": stats.augmentations,
            "sp_rounds": stats.sp_rounds,
            "relax_passes": stats.relax_passes,
        }
        objectives[name] = solution.objective

    scale = 1.0 + max(abs(v) for v in objectives.values())
    spread = max(objectives.values()) - min(objectives.values())
    entry["objective_spread_rel"] = spread / scale
    entry["parity_ok"] = bool(spread <= 1e-6 * scale)
    times = {k: v["wall_s"] for k, v in entry["backends"].items()}
    if "ssp" in times and "ssp-legacy" in times:
        entry["speedup_ssp_vs_legacy"] = round(
            times["ssp-legacy"] / times["ssp"], 3
        )
    return entry


def run(tier: str, repeats: int) -> dict:
    circuits = tier_circuits(tier)
    results = []
    for name, spec in circuits:
        print(f"[bench] {name} (spec {spec}) ...", flush=True)
        entry = bench_circuit(name, spec, repeats)
        backends = ", ".join(
            f"{k}={v['wall_s'] * 1000:.1f}ms"
            for k, v in entry["backends"].items()
        )
        print(f"[bench]   {backends}", flush=True)
        results.append(entry)

    largest = max(results, key=lambda e: e["lp_constraints"])
    report = {
        "schema": SCHEMA,
        "tier": tier,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "circuits": results,
        "summary": {
            "largest_circuit": largest["name"],
            "speedup_ssp_vs_legacy": largest.get("speedup_ssp_vs_legacy"),
            "target_speedup": TARGET_SPEEDUP,
            "meets_target": bool(
                largest.get("speedup_ssp_vs_legacy", 0.0) >= TARGET_SPEEDUP
            ),
            "parity_ok": all(e["parity_ok"] for e in results),
        },
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default=None, choices=["smoke", "paper"],
                        help="circuit tier (default: $REPRO_BENCH_TIER "
                             "or 'smoke')")
    parser.add_argument("--out", default="BENCH_flow.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--check", action="store_true",
                        help="fail unless parity holds and the array "
                             "engine meets the speedup target")
    args = parser.parse_args(argv)

    import os

    tier = args.tier or os.environ.get("REPRO_BENCH_TIER", "smoke")
    report = run(tier, args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"[bench] wrote {args.out}")
    print(f"[bench] largest={summary['largest_circuit']} "
          f"speedup={summary['speedup_ssp_vs_legacy']}x "
          f"parity={summary['parity_ok']}")
    if args.check:
        if not summary["parity_ok"]:
            print("[bench] FAIL: engines disagree on objective",
                  file=sys.stderr)
            return 1
        if not summary["meets_target"]:
            print(f"[bench] FAIL: speedup "
                  f"{summary['speedup_ssp_vs_legacy']} < "
                  f"{TARGET_SPEEDUP}x target", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
