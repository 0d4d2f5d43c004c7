"""Shared helpers: paths, statistics and the metric tables."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for service run/cache dirs and trace files; removed or
#: overwritten by each run, never read across runs.
WORK = ROOT / ".perfbench_work"


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json.

    Every workload reports every end-to-end metric (untraced runs) and
    every per-layer metric (traced runs); a layer a workload never
    enters, or cannot see, reads 0.  README.md says what each one means.
    """
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict:
    """Environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def import_program() -> None:
    """Make ``import repro`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct: int) -> float:
    """Inclusive-interpolated percentile (``pct`` in 1..99)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_calibration(passes: int = 300) -> float:
    """Seconds for a fixed count of full STA passes on c432eq (gate mode).

    Runs in the benchmark's own process beside the workload, so a change
    in this number is the machine, not the program under test.
    """
    import_program()
    import time

    from repro.dag import build_sizing_dag
    from repro.generators.iscas import build_circuit
    from repro.tech import default_technology
    from repro.timing.sta import GraphTimer

    dag = build_sizing_dag(build_circuit("c432eq"), default_technology(), mode="gate")
    delays = dag.delays(dag.min_sizes())
    timer = GraphTimer(dag)
    start = time.perf_counter()
    for _ in range(passes):
        timer.analyze(delays)
    return time.perf_counter() - start
