"""``size-gate`` / ``size-transistor``: ``python -m repro size`` to convergence.

One pass runs the workload's job list, each job in a fresh worker process
(``worker.py``), one after another.  Passes repeat until the run's time is
used up; with tracing on, untraced and traced passes alternate so the same
run gives the tracing overhead.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from common import HERE, ROOT, child_env, geomean, median, percentile

#: Workload -> (mode, circuits, specs per circuit).  ``size-gate`` is
#: dominated by the D-phase (cold HiGHS LP solves); ``size-transistor`` by
#: TILOS and its incremental-timing wave, then the D- and W-phases.
#: c2670eq (gate) and c432eq (transistor) are left out: each adds 9-12 s
#: per pass, which leaves one pass per run, and one-pass runs were not
#: steady on a host whose speed drifts by tens of percent.
JOB_LISTS = {
    "size-gate": ("gate", ("c432eq", "c880eq"), 2),
    "size-transistor": ("transistor", ("adder32",), 1),
}
#: Delay spec range as a fraction of Dmin: tight enough that the W/D loop
#: runs its full course, loose enough that TILOS never stalls.  Kept
#: narrow because the work grows fast as the spec tightens (across
#: 0.38-0.45 one job list's wall time moves by about 40%).  Within it the
#: W/D iteration count still jumps by +-15% from spec to spec, so gate
#: mode runs each circuit at two specs to average that out.
SPEC_RANGE = (0.41, 0.43)
#: Extra spawn -> ready samples per run, on top of one per job.
SETUP_SAMPLES = 3
JOB_TIMEOUT_S = 170.0


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list: each circuit at its own jittered specs."""
    mode, circuits, repeats = JOB_LISTS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [
        {"circuit": name, "mode": mode,
         "spec": round(rng.uniform(*SPEC_RANGE), 4)}
        for _ in range(repeats)
        for name in circuits
    ]


def _spawn(job: dict | None) -> tuple[float, dict | None, str]:
    """Run one worker; returns (set-up seconds, job record, error text)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 0.0, None, "worker timed out"
    if ready.strip() != "READY" or proc.returncode != 0:
        return setup, None, (err.strip().splitlines() or ["worker failed"])[-1]
    if job is None:
        return setup, None, ""
    return setup, json.loads(out.strip().splitlines()[-1]), ""


def _pass(jobs: list[dict], traced: bool, setups: list, errors: list,
          number: int) -> dict:
    """One pass of the job list; ``errors`` gets (operation, message) pairs."""
    records = []
    for job in jobs:
        op = f"pass{number}/{job['circuit']}@{job['spec']}"
        setup, record, error = _spawn(dict(job, trace=traced))
        if record is None:
            errors.append((op, error))
            continue
        setups.append(setup)
        errors.extend((op, e) for e in record["errors"])
        record["job"] = job
        records.append(record)
    return {"traced": traced, "records": records,
            "wall": sum(r["job_s"] for r in records)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        references: dict | None) -> dict:
    """Run passes for ``seconds``; returns the run's raw record."""
    jobs = make_jobs(workload, seed)
    setups: list[float] = []
    errors: list[tuple[str, str]] = []
    for number in range(SETUP_SAMPLES):
        setup, _record, error = _spawn(None)
        if error:
            errors.append((f"setup{number}", error))
        else:
            setups.append(setup)
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(_pass(jobs, traced, setups, errors, len(passes)))
        elapsed = time.perf_counter() - start
        typical = median(p["wall"] for p in passes)
        both_kinds = not trace or len(passes) >= 2
        # Start another pass only if at least half of it fits the budget.
        if both_kinds and elapsed + typical / 2 >= seconds:
            break
    attempted = len(jobs) * len(passes) + SETUP_SAMPLES
    areas = {_key(r["job"]): r["area"] for r in passes[0]["records"]}
    if references is not None:
        for key in (_key(job) for job in jobs):
            want, got = references.get(key), areas.get(key)
            if want is None or got is None or abs(got - want) > 1e-6 * want:
                errors.append((f"reference/{key}",
                               f"area {got!r} differs from reference {want!r}"))
    return {"workload": workload, "seed": seed, "jobs": jobs, "passes": passes,
            "setups": setups, "errors": errors, "attempted": attempted,
            "areas": areas}


def _key(job: dict) -> str:
    return f"{job['mode']}/{job['circuit']}@{job['spec']}"


def end_to_end(raw: dict) -> dict:
    plain = [p for p in raw["passes"] if not p["traced"]]
    records = [r for p in plain for r in p["records"]]
    latencies = [r["job_s"] * 1000.0 for r in records]
    wall = median(p["wall"] for p in plain)
    return {
        "setup_s": median(raw["setups"]),
        "wall_s": wall,
        "throughput_rps": len(raw["jobs"]) / wall,
        "first_reply_s": median(p["records"][0]["job_s"] for p in plain),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "area_vs_tilos": geomean(
            r["area"] / r["tilos_area"] for r in plain[0]["records"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }


_SUMMED = (
    "dag.build_s", "tilos.s", "tilos.timing_s", "tilos.scan_s",
    "tilos.refresh_s", "tilos.self_s", "minflo.s", "minflo.self_s",
    "minflo.iterations", "timing.s", "balancing.s", "dphase.s",
    "dphase.self_s", "dphase.sens_s", "dphase.lp_build_s", "flow.solve_s",
    "flow.solves", "flow.warm_solves", "wphase.s", "wphase.sweeps",
)


def per_layer(raw: dict) -> dict:
    """Layer totals per pass of the job list, averaged over traced passes."""
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = [p for p in raw["passes"] if not p["traced"]]
    records = [r for p in traced for r in p["records"]]
    n = len(traced)
    out = {key: sum(r["layers"][key] for r in records) / n for key in _SUMMED}
    out["tilos.bumps"] = sum(r["tilos_bumps"] for r in records) / n
    out["tilos.repropagated"] = sum(r["tilos_repropagated"] for r in records) / n
    accepted = sum(r["layers"]["minflo.accepted"] for r in records)
    out["minflo.accepted_frac"] = accepted / sum(
        r["layers"]["minflo.iterations"] for r in records)
    out["unattributed_frac"] = sum(r["layers"]["job_self"] for r in records) / sum(
        r["job_s"] for r in records)
    out["trace_overhead_frac"] = (
        median(p["wall"] for p in traced) / median(p["wall"] for p in plain) - 1.0)
    out["obs.phase_gap_frac"] = max(r["layers"]["phase_gap_frac"] for r in records)
    return out


def spans(raw: dict) -> list[dict]:
    """Every traced span, tagged with its pass and job, for the trace file."""
    out = []
    for number, p in enumerate(raw["passes"]):
        for record in p["records"]:
            job = record["job"]
            job_id = f"{job['circuit']}@{job['spec']}#{number}"
            for sid, parent, name, start, end in record.pop("span_list", ()):
                out.append({"job": job_id, "id": sid, "parent": parent,
                            "name": name, "start": start, "end": end})
    return out
