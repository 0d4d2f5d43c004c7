"""Service-tier benchmark: latency, throughput, cache hits, admission.

Exercises the HTTP sizing service the way a fleet client does — over
real sockets, with concurrent clients — and records the signals the
regression gate (``check_regression.py``) can compare across CI
runners.  Absolute wall times are reported for humans but never gated;
the machine-independent signals are:

* **parity_ok** — warm (cached) replies are byte-identical to their
  cold originals, and a second replica on the same shared backend
  serves the same bytes.
* **cache_hit_rate** — the warm phase must replay entirely from the
  content-addressed cache (rate 1.0 by construction).
* **executed** — the cold phase executes exactly one sizing per unique
  job; growth means the dedup/caching path got structurally worse.
* **speedup_warm_vs_cold** — warm vs cold throughput measured in the
  same process on the same machine, so the ratio survives runner
  changes.
* **admission_ok** — flooding one client past its token-bucket burst
  yields exactly ``burst`` admissions and structured 429s (with
  ``Retry-After``) for the rest; every request is answered.

* **trace_overhead_ok** — warm p50 with span emission on stays within
  5% of the same workload with ``trace=False`` (absolute backstop
  0.5ms, since warm p50 is noisy on shared runners).

* **fault_overhead_ok** — warm p50 with the fault-injection harness
  armed (an injector installed, rules on an inert site, so every probe
  pays its lookup but nothing fires) stays within 5% of the same
  workload with faults off entirely (same 0.5ms backstop).

Each overhead phase runs both arms on one service, switching the
instrumentation on or off around every warm round and alternating
rounds between the arms (the lead swapping every round), pooling
128x``--unique`` warm samples per arm: with warm replies at a few
milliseconds, two services timed one after the other measured host
drift, and differences between the two services, as often as overhead.

Phases: **cold** (N unique jobs over C client threads), **warm** (the
same jobs twice more, all hits), **fleet** (two in-process replicas on
one shared sqlite queue + cache: jobs computed on replica A replay on
replica B), **flood** (quota-bounded burst of async submissions),
**trace_overhead** (warm p50 with spans on vs ``trace=False``),
**fault_overhead** (warm p50 with an armed injector vs none).

Usage::

    PYTHONPATH=src python benchmarks/run_service_bench.py \
        [--out benchmarks/BENCH_service.json] [--clients 4] \
        [--unique 12] [--check]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ServiceError  # noqa: E402
from repro.faults.injector import install as install_faults  # noqa: E402
from repro.faults.injector import uninstall as uninstall_faults  # noqa: E402
from repro.service import ServiceClient, SizingService, make_server  # noqa: E402
from repro.sizing.serialize import canonical_json  # noqa: E402

SCHEMA = "repro-bench-service/1"
FLOOD_BURST = 4
FLOOD_REQUESTS = 16
TARGET_WARM_SPEEDUP = 2.0
TRACE_OVERHEAD_CEILING = 1.05
TRACE_OVERHEAD_BACKSTOP_S = 0.0005
FAULT_OVERHEAD_CEILING = 1.05
FAULT_OVERHEAD_BACKSTOP_S = 0.0005
#: Warm rounds per arm in the overhead phases; each round replays every
#: unique job twice, so 64 rounds pool 128x``--unique`` samples per arm.
OVERHEAD_ROUNDS = 64
#: The armed arm's fault schedule: a rule on a site nothing probes.
INERT_FAULTS = "bench.inert:error@0.5"


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _latency_block(samples: list[float]) -> dict:
    return {
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1e3, 3),
    }


class _Box:
    """One in-process service + HTTP server, torn down cleanly."""

    def __init__(self, **service_kwargs):
        self.service = SizingService(**service_kwargs)
        self.server = make_server(self.service, quiet=True)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        threading.Thread(
            target=self.server.serve_forever, daemon=True
        ).start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def _run_phase(client, bodies, pool):
    """Issue ``bodies`` on ``pool``'s threads; returns (replies,
    latencies, wall).  Reusing one pool across phases reuses its
    threads' keep-alive connections too."""
    latencies = [0.0] * len(bodies)
    replies = [None] * len(bodies)

    def _one(index):
        start = time.perf_counter()
        replies[index] = client.size(**bodies[index])
        latencies[index] = time.perf_counter() - start

    start = time.perf_counter()
    list(pool.map(_one, range(len(bodies))))
    return replies, latencies, time.perf_counter() - start


def bench_cold_warm(scratch: Path, clients: int, unique: int) -> dict:
    """Cold then warm request rounds against one service instance."""
    box = _Box(jobs=1, cache=scratch / "cache", run_dir=scratch / "run")
    pool = ThreadPoolExecutor(max_workers=clients)
    try:
        client = ServiceClient(box.url, client_id="bench")
        bodies = [
            {"circuit": "c17", "delay_spec": 0.5 + i * (0.45 / unique)}
            for i in range(unique)
        ]
        cold_replies, cold_lat, cold_wall = _run_phase(client, bodies, pool)
        warm_replies, warm_lat, warm_wall = _run_phase(
            client, bodies * 2, pool
        )
        stats = client.stats()
        parity = all(
            canonical_json(warm_replies[i % unique]["payload"])
            == canonical_json(cold_replies[i % unique]["payload"])
            for i in range(len(warm_replies))
        )
        hit_rate = sum(r["cached"] for r in warm_replies) / len(warm_replies)
        return {
            "cold": {
                "requests": len(bodies),
                "wall_seconds": round(cold_wall, 6),
                "throughput_rps": round(len(bodies) / cold_wall, 2),
                "latency": _latency_block(cold_lat),
                "executed": stats["executed"],
            },
            "warm": {
                "requests": len(warm_replies),
                "wall_seconds": round(warm_wall, 6),
                "throughput_rps": round(len(warm_replies) / warm_wall, 2),
                "latency": _latency_block(warm_lat),
                "cache_hit_rate": hit_rate,
            },
            "parity_ok": parity,
            "speedup_warm_vs_cold": round(
                (len(warm_replies) / warm_wall) / (len(bodies) / cold_wall),
                3,
            ),
        }
    finally:
        pool.shutdown()
        box.stop()


def bench_fleet(scratch: Path, unique: int) -> dict:
    """Two replicas on one shared sqlite queue + cache: cross-replica
    replay must be byte-identical."""
    shared_cache = f"sqlite:{scratch / 'fleet-cache.db'}"
    boxes = [
        _Box(jobs=1, cache=shared_cache, run_dir=scratch / f"fleet-{name}",
             queue=scratch / "fleet-q.db")
        for name in ("a", "b")
    ]
    try:
        client_a = ServiceClient(boxes[0].url, client_id="bench-a")
        client_b = ServiceClient(boxes[1].url, client_id="bench-b")
        bodies = [
            {"circuit": "c17", "delay_spec": 0.5 + i * (0.45 / unique)}
            for i in range(min(unique, 6))
        ]
        computed = [client_a.size(**body) for body in bodies]
        replayed = [client_b.size(**body) for body in bodies]
        cross_hits = sum(r["cached"] for r in replayed)
        parity = all(
            canonical_json(r["payload"]) == canonical_json(c["payload"])
            for r, c in zip(replayed, computed)
        )
        visible = sum(
            client_b.job(c["id"])["status"] == c["status"] for c in computed
        )
        return {
            "jobs": len(bodies),
            "cross_replica_hits": cross_hits,
            "cross_replica_visible": visible,
            "parity_ok": parity and cross_hits == len(bodies),
        }
    finally:
        for box in boxes:
            box.stop()


def _interleaved_warm_p50(
    scratch: Path, clients: int, unique: int, service_kwargs: dict,
    instrument,
) -> dict[bool, tuple[float, int]]:
    """Warm p50 with and without one instrumentation, on one service.

    ``instrument(service, on)`` switches the instrumentation before
    each round.  Both arms share one service, cache, journal and set of
    client connections, warmed with one cold round, so the only
    difference between them is the switched setting; the arms then take
    :data:`OVERHEAD_ROUNDS` warm rounds each, the lead swapping every
    round, so host drift lands on both alike.  Returns ``{on: (p50
    seconds, samples pooled)}``.
    """
    bodies = [
        {"circuit": "c17", "delay_spec": 0.5 + i * (0.45 / unique)}
        for i in range(unique)
    ]
    box = _Box(
        jobs=1, cache=scratch / "cache", run_dir=scratch / "run",
        **service_kwargs,
    )
    pool = ThreadPoolExecutor(max_workers=clients)
    try:
        client = ServiceClient(box.url, client_id="bench")
        _run_phase(client, bodies, pool)  # cold: fill the cache
        samples: dict[bool, list[float]] = {True: [], False: []}
        for round_index in range(OVERHEAD_ROUNDS):
            for on in (True, False) if round_index % 2 == 0 else (False, True):
                instrument(box.service, on)
                samples[on] += _run_phase(client, bodies * 2, pool)[1]
        return {
            on: (_percentile(lat, 0.50), len(lat))
            for on, lat in samples.items()
        }
    finally:
        instrument(box.service, False)
        pool.shutdown()
        box.stop()


def bench_trace_overhead(scratch: Path, clients: int, unique: int) -> dict:
    """Warm-path p50 with span emission on vs off.

    One service built with tracing runs both arms: the bare arm's
    rounds switch ``service.trace`` off, which is what ``trace=False``
    sets.  Only the warm (cached) rounds are measured, where the
    instrumentation is proportionally largest.  The gate is a ratio
    with an absolute backstop — warm p50 is sub-millisecond-noisy on
    shared CI runners, so a 5% relative ceiling alone would flap.
    """

    def instrument(service, on: bool) -> None:
        service.trace = on

    p50 = _interleaved_warm_p50(
        scratch, clients, unique, {"trace": True}, instrument,
    )
    (traced, n_traced), (bare, n_bare) = p50[True], p50[False]
    ratio = traced / bare if bare > 0 else 1.0
    return {
        "warm_p50_traced_ms": round(traced * 1e3, 3),
        "warm_p50_untraced_ms": round(bare * 1e3, 3),
        "samples_per_arm": min(n_traced, n_bare),
        "overhead_ratio": round(ratio, 3),
        "overhead_ok": ratio <= TRACE_OVERHEAD_CEILING
        or (traced - bare) <= TRACE_OVERHEAD_BACKSTOP_S,
    }


def bench_fault_overhead(scratch: Path, clients: int, unique: int) -> dict:
    """Warm-path p50 with the fault harness armed vs fully off.

    The armed side installs a real injector whose only rule targets an
    inert site, so every wired-in probe (``cache.get``, ``queue.*``,
    ``http.response``, ...) pays the full lookup cost without ever
    firing — the worst honest case for a production service running
    with ``--faults`` unset or pointed elsewhere.  The injector is
    process-global, so it is installed for the armed rounds only.
    Same ratio + absolute backstop shape as the trace gate, for
    the same noisy-runner reason.
    """

    def instrument(_service, on: bool) -> None:
        if on:
            install_faults(INERT_FAULTS, state_dir=scratch / "fault-state")
        else:
            uninstall_faults()

    p50 = _interleaved_warm_p50(scratch, clients, unique, {}, instrument)
    (armed, n_armed), (bare, n_bare) = p50[True], p50[False]
    ratio = armed / bare if bare > 0 else 1.0
    return {
        "warm_p50_armed_ms": round(armed * 1e3, 3),
        "warm_p50_off_ms": round(bare * 1e3, 3),
        "samples_per_arm": min(n_bare, n_armed),
        "overhead_ratio": round(ratio, 3),
        "overhead_ok": ratio <= FAULT_OVERHEAD_CEILING
        or (armed - bare) <= FAULT_OVERHEAD_BACKSTOP_S,
    }


def bench_flood(scratch: Path) -> dict:
    """Flood one client past its admission burst; count the refusals."""
    box = _Box(
        jobs=1, cache=None, run_dir=scratch / "flood-run",
        quota_rate=1e-6, quota_burst=float(FLOOD_BURST),
    )
    try:
        client = ServiceClient(box.url, client_id="flooder", retries=0)
        admitted = rejected = 0
        retry_after_ok = True
        for i in range(FLOOD_REQUESTS):
            try:
                client.submit(circuit="c17", delay_spec=0.5 + i / 100)
                admitted += 1
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                rejected += 1
                retry_after_ok &= bool(
                    exc.retry_after and exc.retry_after > 0
                )
        return {
            "requests": FLOOD_REQUESTS,
            "burst": FLOOD_BURST,
            "admitted": admitted,
            "rejected": rejected,
            "admission_ok": (
                admitted == FLOOD_BURST
                and admitted + rejected == FLOOD_REQUESTS
                and retry_after_ok
            ),
        }
    finally:
        box.stop()


def run(clients: int, unique: int, scratch: Path) -> dict:
    """Run every phase; returns the benchmark document."""
    cold_warm = bench_cold_warm(scratch / "single", clients, unique)
    fleet = bench_fleet(scratch / "fleet", unique)
    flood = bench_flood(scratch / "flood")
    trace_overhead = bench_trace_overhead(scratch / "trace", clients, unique)
    fault_overhead = bench_fault_overhead(scratch / "faults", clients, unique)
    return {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {"clients": clients, "unique_jobs": unique},
        "phases": {
            "cold": cold_warm["cold"],
            "warm": cold_warm["warm"],
            "fleet": fleet,
            "flood": flood,
            "trace_overhead": trace_overhead,
            "fault_overhead": fault_overhead,
        },
        "summary": {
            "parity_ok": cold_warm["parity_ok"] and fleet["parity_ok"],
            "cache_hit_rate": cold_warm["warm"]["cache_hit_rate"],
            "speedup_warm_vs_cold": cold_warm["speedup_warm_vs_cold"],
            "executed_cold": cold_warm["cold"]["executed"],
            "admission_ok": flood["admission_ok"],
            "trace_overhead_ratio": trace_overhead["overhead_ratio"],
            "trace_overhead_ok": trace_overhead["overhead_ok"],
            "fault_overhead_ratio": fault_overhead["overhead_ratio"],
            "fault_overhead_ok": fault_overhead["overhead_ok"],
        },
    }


def check(report: dict) -> list[str]:
    """Acceptance gate for a fresh run (independent of any baseline)."""
    failures = []
    summary = report["summary"]
    if not summary["parity_ok"]:
        failures.append("parity broken: cached replies diverge")
    if summary["cache_hit_rate"] < 1.0:
        failures.append(
            f"warm phase missed the cache "
            f"(hit rate {summary['cache_hit_rate']:.2f})"
        )
    if summary["executed_cold"] != report["config"]["unique_jobs"]:
        failures.append(
            f"cold phase executed {summary['executed_cold']} sizings "
            f"for {report['config']['unique_jobs']} unique jobs"
        )
    if not summary["admission_ok"]:
        failures.append("admission control did not bound the flood")
    if not summary.get("trace_overhead_ok", True):
        failures.append(
            f"span instrumentation overhead "
            f"{summary['trace_overhead_ratio']:.3f}x on warm p50 exceeds "
            f"{TRACE_OVERHEAD_CEILING:.2f}x (backstop "
            f"{TRACE_OVERHEAD_BACKSTOP_S * 1e3:.1f}ms)"
        )
    if not summary.get("fault_overhead_ok", True):
        failures.append(
            f"fault-probe overhead "
            f"{summary['fault_overhead_ratio']:.3f}x on warm p50 exceeds "
            f"{FAULT_OVERHEAD_CEILING:.2f}x (backstop "
            f"{FAULT_OVERHEAD_BACKSTOP_S * 1e3:.1f}ms)"
        )
    if summary["speedup_warm_vs_cold"] < TARGET_WARM_SPEEDUP:
        failures.append(
            f"warm/cold speedup {summary['speedup_warm_vs_cold']:.2f}x "
            f"below target {TARGET_WARM_SPEEDUP:.1f}x"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the JSON document here")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--unique", type=int, default=12,
                        help="unique jobs in the cold phase (default 12)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the acceptance gates hold")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        report = run(args.clients, args.unique, Path(tmp))

    summary = report["summary"]
    print(f"[service-bench] cold p50 "
          f"{report['phases']['cold']['latency']['p50_ms']}ms "
          f"({report['phases']['cold']['throughput_rps']} req/s), "
          f"warm p50 {report['phases']['warm']['latency']['p50_ms']}ms "
          f"({report['phases']['warm']['throughput_rps']} req/s)")
    print(f"[service-bench] warm/cold speedup "
          f"{summary['speedup_warm_vs_cold']}x, hit rate "
          f"{summary['cache_hit_rate']:.2f}, fleet parity "
          f"{report['phases']['fleet']['parity_ok']}, flood "
          f"{report['phases']['flood']['rejected']}/"
          f"{report['phases']['flood']['requests']} rejected")
    trace_phase = report["phases"]["trace_overhead"]
    print(f"[service-bench] trace overhead "
          f"{trace_phase['overhead_ratio']}x on warm p50 "
          f"({trace_phase['warm_p50_traced_ms']}ms traced vs "
          f"{trace_phase['warm_p50_untraced_ms']}ms bare)")
    fault_phase = report["phases"]["fault_overhead"]
    print(f"[service-bench] fault-probe overhead "
          f"{fault_phase['overhead_ratio']}x on warm p50 "
          f"({fault_phase['warm_p50_armed_ms']}ms armed vs "
          f"{fault_phase['warm_p50_off_ms']}ms off)")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[service-bench] wrote {args.out}")
    if args.check:
        failures = check(report)
        for failure in failures:
            print(f"[service-bench] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("[service-bench] acceptance gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
