"""``service-mix``: a closed loop of cold and warm ``POST /v1/size`` calls.

One pass starts ``python -m repro serve`` with its defaults (one worker
thread, disk cache) on fresh cache and run directories, waits for the first
``/v1/healthz`` 200 (set-up), sends one cold request alone (first reply),
then lets two keep-alive ``ServiceClient`` callers work through their
seeded request lists, each waiting for every reply before the next call.
A cold request is a new ``c17`` job at a spec not used before; a warm one
repeats one of the caller's completed jobs and must come back ``cached``
with a payload byte-identical to the original.  Passes repeat until the
run's time is used up.
"""

from __future__ import annotations

import json
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import WORK, ROOT, child_env, geomean, import_program, median, percentile

CALLERS = 2
REQUESTS_PER_CALLER = 48
#: Cold requests are CPU-bound solves; the share is kept small so that the
#: pass time is not mostly solver time, which moves with the host's speed.
COLD_SHARE = 1 / 6
#: c17 delay specs as a fraction of Dmin; every spec here is feasible in
#: both modes.
SPEC_RANGE = (0.5, 0.7)
HEALTHZ_PROBES = 20
START_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def make_requests(seed: int) -> list[list[dict]]:
    """Per-caller request lists; a warm entry names an earlier cold one.

    The cold share and the gate/transistor split are exact and only their
    order is seeded, so every seed asks the server for the same work.
    Caller 0's list starts with the pass's first request, a gate job.
    """
    rng = random.Random(f"service-mix/{seed}")
    used: set[float] = set()
    n_cold = round(COLD_SHARE * REQUESTS_PER_CALLER)
    lists = []
    for caller in range(CALLERS):
        kinds = [True] * (n_cold - 1) + [False] * (REQUESTS_PER_CALLER - n_cold)
        rng.shuffle(kinds)
        rest = n_cold - (caller == 0)
        modes = ["gate"] * (rest // 2) + ["transistor"] * (rest - rest // 2)
        rng.shuffle(modes)
        if caller == 0:
            modes.insert(0, "gate")
        requests: list[dict] = []
        colds: list[int] = []
        for i, cold in enumerate([True] + kinds):
            if cold:
                spec = round(rng.uniform(*SPEC_RANGE), 6)
                while spec in used:
                    spec = round(rng.uniform(*SPEC_RANGE), 6)
                used.add(spec)
                colds.append(i)
                requests.append({"cold": True, "spec": spec, "mode": modes.pop(0)})
            else:
                requests.append({"cold": False, "of": rng.choice(colds)})
        lists.append(requests)
    return lists


class _Checker:
    """Verifies replies against a locally built c17 DAG."""

    def __init__(self):
        import_program()
        from repro.dag import build_sizing_dag
        from repro.generators.iscas import c17
        from repro.sizing.serialize import canonical_json
        from repro.tech import default_technology
        from repro.timing.sta import GraphTimer

        self.canonical = canonical_json
        self.dags = {}
        for mode in ("gate", "transistor"):
            circuit = c17()
            if mode == "transistor":
                from repro.circuit import map_to_primitives

                circuit = map_to_primitives(circuit, suffix="")
            dag = build_sizing_dag(circuit, default_technology(), mode=mode)
            timer = GraphTimer(dag)
            d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
            self.dags[mode] = (dag, timer, d_min)

    def cold(self, request: dict, reply: dict) -> list[str]:
        payload = reply.get("payload") or {}
        result = payload.get("result")
        if reply.get("status") != "ok" or not result:
            return [f"cold reply not ok: {reply.get('status')} {reply.get('error')}"]
        dag, timer, d_min = self.dags[request["mode"]]
        target = request["spec"] * d_min
        errors = []
        if abs(payload["target"] - target) > 1e-9 * target:
            errors.append(f"target {payload['target']} != {target}")
        retimed = timer.analyze(dag.delays(result["x"])).critical_path_delay
        if retimed > target * (1 + 1e-9):
            errors.append(f"re-timed delay {retimed:.6g} misses {target:.6g}")
        if result["area"] > payload["seed"]["area"] * (1 + 1e-12):
            errors.append("final area above TILOS area")
        return errors


def _metrics(client) -> dict:
    """Counter samples of ``/v1/metrics`` keyed by the full sample name."""
    out = {}
    for line in client.metrics().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM")


def _caller(client, requests, indices, checker, originals, samples, errors, tag):
    """Send ``requests[i]`` for each ``i`` in order, each after the last reply."""
    for i in indices:
        request = requests[i]
        op = f"{tag}/{i}"
        original = request if request["cold"] else requests[request["of"]]
        try:
            start = time.perf_counter()
            reply = client.size(circuit="c17", delay_spec=original["spec"],
                                mode=original["mode"])
            latency = time.perf_counter() - start
            if request["cold"]:
                problems = checker.cold(request, reply)
                originals[(tag, i)] = checker.canonical(reply.get("payload"))
            else:
                problems = []
                if reply.get("cached") is not True:
                    problems.append("warm reply not cached")
                if checker.canonical(reply.get("payload")) != originals.get(
                        (tag, request["of"])):
                    problems.append("warm payload differs from its cold original")
        except Exception as exc:  # noqa: BLE001 — any failure is counted
            problems, latency = [f"request failed: {exc!r}"], None
        errors.extend((op, p) for p in problems)
        if latency is not None:
            samples.append(("cold" if request["cold"] else "warm", latency, start, op))


def _pass(request_lists, checker, traced: bool, number: int, errors: list) -> dict:
    from repro.service import ServiceClient

    base = WORK / f"service-{number}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    log = open(base / "server.log", "w")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--run-dir", str(base / "run"), "--cache-dir", str(base / "cache")],
        cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=log,
    )
    clients = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
        match = _LISTENING.search(proc.stdout.readline()) if ready else None
        if match is None:
            raise RuntimeError("service did not report its address")
        url = f"http://{match.group(1)}:{match.group(2)}"
        clients = [ServiceClient(url, client_id=f"caller{k}") for k in range(CALLERS)]
        while True:
            try:
                clients[0].healthz()
                break
            except Exception:  # noqa: BLE001 — not up yet
                if time.perf_counter() - start > START_TIMEOUT_S:
                    raise
                time.sleep(0.01)
        setup = time.perf_counter() - start
        before = _metrics(clients[0])

        originals: dict = {}
        samples: list = []
        tags = [f"pass{number}/caller{k}" for k in range(CALLERS)]
        loop_start = time.perf_counter()
        _caller(clients[0], request_lists[0], range(1), checker, originals,
                samples, errors, tags[0])
        first_reply = time.perf_counter() - loop_start
        threads = [
            threading.Thread(target=_caller, args=(
                clients[k], request_lists[k], range(k == 0, len(request_lists[k])),
                checker, originals, samples, errors, tags[k]))
            for k in range(CALLERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - loop_start

        after = _metrics(clients[0])
        healthz = []
        if traced:
            for _ in range(HEALTHZ_PROBES):
                tick = time.perf_counter()
                clients[0].healthz()
                healthz.append(time.perf_counter() - tick)
        peak_rss = _peak_rss_mb(proc.pid)
        payload = _payload_sums(request_lists, originals, tags)
    finally:
        for client in clients:
            client.close()
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        log.close()
    shutil.rmtree(base, ignore_errors=True)
    return {"traced": traced, "setup": setup, "first_reply": first_reply,
            "wall": wall, "samples": samples, "healthz": healthz,
            "before": before, "after": after, "peak_rss_mb": peak_rss,
            "payload": payload}


def _payload_sums(request_lists, originals, tags) -> dict:
    """Per-pass sums over cold replies of what the payloads report."""
    sums = {"tilos": 0.0, "timing": 0.0, "balance": 0.0, "d_phase": 0.0,
            "w_phase": 0.0, "scan": 0.0, "refresh": 0.0, "bumps": 0,
            "repropagated": 0, "iterations": 0, "accepted": 0, "sweeps": 0,
            "areas": []}
    for tag, requests in zip(tags, request_lists):
        for i, request in enumerate(requests):
            text = originals.get((tag, i))
            if not request["cold"] or text is None:
                continue
            payload = json.loads(text)
            seed, result = payload["seed"], payload["result"]
            sums["tilos"] += seed["runtime_seconds"]
            sums["scan"] += seed["timing_stats"].get("scan_seconds", 0.0)
            sums["refresh"] += seed["timing_stats"].get("refresh_seconds", 0.0)
            sums["bumps"] += seed["iterations"]
            sums["repropagated"] += seed["timing_stats"].get("repropagated_vertices", 0)
            for key in ("timing", "balance", "d_phase", "w_phase"):
                sums[key] += result["phase_seconds"][key]
            sums["iterations"] += len(result["iterations"])
            sums["accepted"] += sum(1 for rec in result["iterations"] if rec["accepted"])
            sums["sweeps"] += sum(rec["w_sweeps"] for rec in result["iterations"])
            sums["areas"].append(result["area"] / seed["area"])
    return sums


def run(workload: str, seed: int, seconds: float, trace: bool,
        references: dict | None) -> dict:
    """Run passes for ``seconds``; returns the run's raw record."""
    del references  # c17 replies are checked against a local re-timing
    request_lists = make_requests(seed)
    checker = _Checker()
    passes = []
    errors: list[tuple[str, str]] = []
    lost = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            passes.append(_pass(request_lists, checker, traced, len(passes), errors))
        except Exception as exc:  # noqa: BLE001 — a lost pass is a failure
            errors.append((f"pass{len(passes)}", f"service pass failed: {exc!r}"))
            lost = 1
            break
        elapsed = time.perf_counter() - start
        typical = median(p["wall"] + p["setup"] for p in passes)
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and elapsed + typical / 2 >= seconds:
            break
    # A lost pass counts all of its requests as attempted.
    attempted = (len(passes) + lost) * sum(len(r) for r in request_lists)
    return {"workload": workload, "seed": seed, "passes": passes,
            "errors": errors, "attempted": attempted}


def _latencies(passes, kind: str) -> list[float]:
    return [lat * 1000.0 for p in passes for k, lat, *_ in p["samples"] if k == kind]


def end_to_end(raw: dict) -> dict:
    plain = [p for p in raw["passes"] if not p["traced"]]
    every = [lat * 1000.0 for p in plain for _k, lat, *_ in p["samples"]]
    wall = median(p["wall"] for p in plain)
    return {
        "setup_s": median(p["setup"] for p in raw["passes"]),
        "wall_s": wall,
        "throughput_rps": median(len(p["samples"]) / p["wall"] for p in plain),
        "first_reply_s": median(p["first_reply"] for p in plain),
        "p50_ms": percentile(every, 50),
        "p95_ms": percentile(every, 95),
        "area_vs_tilos": geomean(plain[0]["payload"]["areas"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in raw["passes"]),
    }


def service_split(raw: dict) -> dict:
    """Warm/cold latency percentiles and sample counts (printed, not gated)."""
    plain = [p for p in raw["passes"] if not p["traced"]]
    out = {}
    for kind in ("warm", "cold"):
        lat = _latencies(plain, kind)
        out[f"{kind}_p50_ms"] = percentile(lat, 50)
        out[f"{kind}_p95_ms"] = percentile(lat, 95)
        out[f"{kind}_n"] = len(lat)
    return out


def per_layer(raw: dict) -> dict:
    """Layer numbers per pass, averaged over traced passes."""
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = [p for p in raw["passes"] if not p["traced"]]
    n = len(traced)

    def delta(*parts: str) -> float:
        """Per-pass counter growth over every sample naming all ``parts``."""
        return sum(
            after - p["before"].get(name, 0.0)
            for p in traced
            for name, after in p["after"].items()
            if all(part in name for part in parts)
        ) / n

    def payload(key):
        return sum(p["payload"][key] for p in traced) / n

    def phase(name):
        return delta("repro_phase_seconds_total{", f'phase="{name}"')

    healthz = median(h * 1000.0 for p in traced for h in p["healthz"])
    executed = delta("repro_jobs_executed_total")
    execute_s = phase("job.execute")
    execute_ms = 1000.0 * execute_s / executed
    probes = delta("repro_cache_probe_total{")
    hits = delta("repro_cache_probe_total{", 'result="hit"')
    program_phase = {key: phase(f"minflo.{key}")
                     for key in ("timing", "balance", "d_phase", "w_phase")}
    requests = sum(len(p["samples"]) for p in traced) / n
    latency_s = sum(lat for p in traced for _k, lat, *_ in p["samples"]) / n
    # Per request, the healthz round trip is transport and the execute
    # span is solver work; whatever is left is not attributed to a layer.
    attributed_s = requests * healthz / 1000.0 + execute_s
    unseen = dict.fromkeys(
        ("dag.build_s", "tilos.timing_s", "tilos.self_s", "minflo.self_s",
         "dphase.self_s", "dphase.sens_s", "dphase.lp_build_s", "flow.solve_s"), 0.0)
    return {
        **unseen,
        "tilos.s": phase("tilos.seed"),
        "tilos.scan_s": payload("scan"),
        "tilos.refresh_s": payload("refresh"),
        "tilos.bumps": payload("bumps"),
        "tilos.repropagated": payload("repropagated"),
        "minflo.s": phase("minflo"),
        "minflo.iterations": payload("iterations"),
        "minflo.accepted_frac": payload("accepted") / payload("iterations"),
        "timing.s": program_phase["timing"],
        "balancing.s": program_phase["balance"],
        "dphase.s": program_phase["d_phase"],
        "flow.solves": delta("repro_flow_stat{", 'field="solves"'),
        "flow.warm_solves": delta("repro_flow_stat{", 'field="warm_solves"'),
        "wphase.s": program_phase["w_phase"],
        "wphase.sweeps": payload("sweeps"),
        "service.healthz_p50_ms": healthz,
        "service.warm_inproc_ms": median(_latencies(traced, "warm")) - healthz,
        "service.cold_overhead_ms": median(_latencies(traced, "cold")) - execute_ms - healthz,
        "runner.cache_probes": probes,
        "runner.cache_hit_frac": hits / probes,
        "runner.executed": executed,
        "runner.execute_ms": execute_ms,
        "unattributed_frac": max(0.0, latency_s - attributed_s) / latency_s,
        "trace_overhead_frac": (
            median(p["wall"] for p in traced) / median(p["wall"] for p in plain) - 1.0),
        # The payloads' own phase clocks against the exported counters.
        "obs.phase_gap_frac": max(
            abs(payload(key) - program_phase[key]) / program_phase[key]
            for key in program_phase),
    }


def spans(raw: dict) -> list[dict]:
    """One client-side span per request of the traced passes."""
    return [
        {"job": op, "id": 0, "parent": None, "name": f"service.{kind}",
         "start": start, "end": start + latency}
        for p in raw["passes"] if p["traced"]
        for kind, latency, start, op in p["samples"]
    ]
