"""One ``python -m repro size`` job in a fresh process, checked and timed.

Usage (the benchmark spawns this; it is not meant to be run by hand)::

    python perfbench/worker.py '{"circuit": "c432eq", "mode": "gate",
                                 "spec": 0.41, "trace": false}'

The process imports exactly what ``python -m repro size`` imports, prints
``READY`` (the parent times spawn -> ready as set-up), then calls the CLI's
own ``main(["size", ...])``.  Thin hooks on the names ``repro.__main__``
looks up keep the DAG, the TILOS seed and the MINFLOTRANSIT result, so the
job can be checked afterwards: a fresh ``GraphTimer.analyze`` (independent
of the incremental engine the program times with) must meet the target,
and the final area must not exceed the TILOS area.  With ``trace`` on, span
wrappers (see ``spans.py``) also go around every layer's public calls.
The last stdout line is one JSON object describing the job.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import repro.__main__ as cli

print("READY", flush=True)

from repro.flow.registry import stats_scope  # noqa: E402  (already loaded by cli)
from repro.timing.sta import GraphTimer  # noqa: E402

from spans import Tracer, self_times, under  # noqa: E402

#: (owner, attribute, span name): every layer boundary the traced run
#: times.  Owners are the modules whose code makes the call.
_LAYERS = (
    ("repro.__main__", "_resolve_circuit", "circuit"),
    ("repro.__main__", "map_to_primitives", "circuit"),
    ("repro.__main__", "build_sizing_dag", "dag.build"),
    ("repro.__main__", "analyze", "timing"),
    ("repro.__main__", "tilos_size", "tilos"),
    ("repro.__main__", "minflotransit", "minflo"),
    ("repro.sizing.minflo", "balance", "balancing"),
    ("repro.sizing.minflo", "d_phase", "dphase"),
    ("repro.sizing.minflo", "w_phase", "wphase"),
    ("repro.sizing.dphase", "area_sensitivities", "dphase.sens"),
    ("repro.sizing.dphase", "build_dphase_lp", "dphase.lp_build"),
    ("repro.sizing.dphase", "solve_difference_lp", "flow.solve"),
)
#: Public timing-engine methods; a span named ``timing`` under ``tilos``
#: is TILOS's incremental-timing wave, anywhere else it is the W/D loop's.
_TIMER_METHODS = (
    ("repro.timing.incremental", "IncrementalTimer",
     ("__init__", "update_delays", "report", "critical_path",
      "critical_path_delay", "critical_vertex", "required_times", "slack")),
    ("repro.timing.sta", "GraphTimer", ("__init__", "analyze")),
)


def _capture(kept: dict, key: str, fn):
    def hook(*args, **kwargs):
        out = fn(*args, **kwargs)
        kept[key] = (args, out)
        return out

    return hook


def _install(tracer: Tracer) -> None:
    for module_name, attr, name in _LAYERS:
        tracer.patch(sys.modules[module_name], attr, name)
    for module_name, cls_name, methods in _TIMER_METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        for method in methods:
            tracer.patch(cls, method, "timing")


def _layers(spans: list, tilos_stats: dict, result, flow: dict) -> dict:
    selfs, inclusive = self_times(spans)
    tilos_timing = under(spans, "timing", "tilos")
    accepted = sum(1 for rec in result.iterations if rec.accepted)
    phase = result.phase_seconds
    # The program's own phase clocks against the outside wrappers; the
    # minflo ``timing`` phase also re-derives delays, so it reads higher.
    outside = {
        "timing": under(spans, "timing", "minflo"),
        "balance": inclusive.get("balancing", 0.0),
        "d_phase": inclusive.get("dphase", 0.0),
        "w_phase": inclusive.get("wphase", 0.0),
    }
    gap = max(
        abs(outside[key] - phase[key]) / phase[key]
        for key in outside if phase.get(key)
    )
    return {
        "job_self": selfs.get("job", 0.0),
        "dag.build_s": inclusive.get("dag.build", 0.0),
        "tilos.s": inclusive.get("tilos", 0.0),
        "tilos.timing_s": tilos_timing,
        "tilos.scan_s": tilos_stats.get("scan_seconds", 0.0),
        "tilos.refresh_s": tilos_stats.get("refresh_seconds", 0.0),
        "tilos.self_s": selfs.get("tilos", 0.0),
        "minflo.s": inclusive.get("minflo", 0.0),
        "minflo.self_s": selfs.get("minflo", 0.0),
        "minflo.iterations": len(result.iterations),
        "minflo.accepted": accepted,
        "timing.s": selfs.get("timing", 0.0) - tilos_timing,
        "balancing.s": selfs.get("balancing", 0.0),
        "dphase.s": inclusive.get("dphase", 0.0),
        "dphase.self_s": selfs.get("dphase", 0.0),
        "dphase.sens_s": selfs.get("dphase.sens", 0.0),
        "dphase.lp_build_s": selfs.get("dphase.lp_build", 0.0),
        "flow.solve_s": selfs.get("flow.solve", 0.0),
        "flow.solves": sum(s.solves for s in flow.values()),
        "flow.warm_solves": sum(s.warm_solves for s in flow.values()),
        "wphase.s": selfs.get("wphase", 0.0),
        "wphase.sweeps": result.w_sweeps_total,
        "phase_gap_frac": gap,
    }


def run(job: dict) -> dict:
    kept: dict = {}
    for attr in ("build_sizing_dag", "tilos_size", "minflotransit"):
        setattr(cli, attr, _capture(kept, attr, getattr(cli, attr)))
    tracer = Tracer()
    if job["trace"]:
        _install(tracer)
    argv = ["size", job["circuit"], "--spec", repr(job["spec"]),
            "--mode", job["mode"]]
    entry = tracer.wrap("job", cli.main) if job["trace"] else cli.main
    start = time.perf_counter()
    with stats_scope() as flow, contextlib.redirect_stdout(io.StringIO()):
        code = entry(argv)
    elapsed = time.perf_counter() - start
    tracer.restore()

    dag = kept["build_sizing_dag"][1]
    seed = kept["tilos_size"][1]
    (_dag, target, *_rest), result = kept["minflotransit"]
    # Independent check: a from-scratch static timing pass, not the
    # incremental engine the sizer itself relied on.
    retimed = GraphTimer(dag).analyze(dag.delays(result.x)).critical_path_delay
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if retimed > target * (1 + 1e-9):
        errors.append(f"re-timed delay {retimed:.6g} misses target {target:.6g}")
    if result.area > seed.area * (1 + 1e-12):
        errors.append(f"final area {result.area:.6g} above TILOS {seed.area:.6g}")
    out = {
        "ok": not errors,
        "errors": errors,
        "job_s": elapsed,
        "area": result.area,
        "tilos_area": seed.area,
        "target": target,
        "retimed": retimed,
        "tilos_bumps": seed.iterations,
        "tilos_repropagated": seed.timing_stats.get("repropagated_vertices", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        out["layers"] = _layers(tracer.spans, seed.timing_stats, result, flow)
        out["span_list"] = tracer.spans
    return out


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    if job is not None:  # None: a set-up sample only
        print(json.dumps(run(job)), flush=True)
