"""The repository's benchmark: the default sizing paths, end to end and by layer.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload size-gate --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable summary.  ``--out FILE``
appends the full record of the run (every metric, the service warm/cold
split, the layer table) as one JSON line, and

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

prints, per workload, every end-to-end metric of both sides (median and
quartiles over their runs), then the per-layer deltas sorted by size.
Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from common import HERE, SRC, WORK, host_calibration, median, metric_units

WORKLOADS = ("size-gate", "size-transistor", "service-mix")
END_TO_END, PER_LAYER = metric_units()
#: End-to-end numbers that are printed, kept in --out records and compared,
#: but not gated.  throughput_rps is the job count over wall_s, so gating
#: both would only double the exposure to host noise; the others rest on
#: one job, one class of jobs, or the border between two circuits' job
#: times, and across seeds their quartile spread reached 0.15-0.6.
REPORTED = {
    "throughput_rps": "1/s", "first_reply_s": "s", "p50_ms": "ms", "p95_ms": "ms",
    "warm_p50_ms": "ms", "warm_p95_ms": "ms", "warm_n": "count",
    "cold_p50_ms": "ms", "cold_p95_ms": "ms", "cold_n": "count",
}
UNITS = {**END_TO_END, **REPORTED}
#: Seed whose final areas are pinned in references.json.
DEFAULT_SEED = 0


def _module(workload: str):
    if workload == "service-mix":
        import service_mix

        return service_mix
    import size_workload

    return size_workload


def _references(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "references.json") as handle:
        return json.load(handle).get(workload)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the raw passes reduced to metrics, plus the failure count."""
    module = _module(workload)
    calib = [host_calibration()]
    raw = module.run(workload, seed, seconds, trace, _references(workload, seed))
    calib.append(host_calibration())
    failed = len({op for op, _msg in raw["errors"]})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": raw["attempted"], "failed": failed,
        "errors": [f"{op}: {msg}" for op, msg in raw["errors"]][:20],
        "passes": len(raw["passes"]),
        "pass_walls": [p["wall"] for p in raw["passes"]],
    }
    if "areas" in raw:
        record["areas"] = raw["areas"]
    record["end_to_end"] = module.end_to_end(raw)
    if workload == "service-mix":
        record["end_to_end"].update(module.service_split(raw))
    if trace:
        layers = module.per_layer(raw)
        layers["host.calib_s"] = median(calib)
        record["per_layer"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
        _write_trace(workload, seed, module.spans(raw))
    return record


def _write_trace(workload: str, seed: int, spans: list[dict]) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(WORK.parent)}")


def _print_summary(record: dict) -> None:
    print(f"{record['workload']} seed {record['seed']}: {record['passes']} passes, "
          f"{record['attempted']} attempted, {record['failed']} failed "
          f"(failed_frac {record['failed'] / record['attempted']:.4f})")
    for line in record["errors"]:
        print(f"  FAILED {line}")
    rows = [(name, value, UNITS[name], "" if name in END_TO_END else "(not gated)")
            for name, value in record["end_to_end"].items()]
    rows += [(name, value, PER_LAYER[name], "")
             for name, value in record.get("per_layer", {}).items()]
    for name, value, unit, note in rows:
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")


def _compare(base_path: str, new_path: str) -> int:
    def load(path):
        runs: dict[str, list[dict]] = {}
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    runs.setdefault(record["workload"], []).append(record)
        return runs

    def spread(values):
        if len(values) < 2:
            return values[0], values[0], values[0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q1, statistics.median(values), q3

    base, new = load(base_path), load(new_path)
    for workload in [w for w in WORKLOADS if w in base and w in new]:
        print(f"== {workload}: {len(base[workload])} base runs, "
              f"{len(new[workload])} new runs (median [q1, q3])")
        for name, unit in UNITS.items():
            cols = []
            for side in (base, new):
                values = [r["end_to_end"][name] for r in side[workload]
                          if name in r["end_to_end"] and not r["trace"]]
                if not values:
                    break
                q1, mid, q3 = spread(values)
                cols.append((mid, f"{mid:.6g} [{q1:.6g}, {q3:.6g}]"))
            if len(cols) == 2:
                change = cols[1][0] / cols[0][0] - 1.0 if cols[0][0] else 0.0
                print(f"  {name:18s} {unit:6s} {cols[0][1]:>34s} -> "
                      f"{cols[1][1]:>34s}  {100 * change:+7.2f}%")
        deltas = []
        for name, unit in PER_LAYER.items():
            sides = [[r["per_layer"][name] for r in side[workload] if "per_layer" in r]
                     for side in (base, new)]
            if sides[0] and sides[1]:
                a, b = statistics.median(sides[0]), statistics.median(sides[1])
                deltas.append((b - a, name, unit, a, b))
        if deltas:
            print("  per-layer deltas (median new - median base), largest first:")
        # Seconds and milliseconds first (by absolute size), then the rest.
        for delta, name, unit, a, b in sorted(
                deltas, key=lambda d: (d[2] not in ("s", "ms"),
                                       -abs(d[0]) * (1e-3 if d[2] == "ms" else 1.0))):
            print(f"    {name:28s} {unit:6s} {a:12.6g} -> {b:12.6g}  ({delta:+.6g})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files written by --out")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2

    started = time.perf_counter()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["run_s"] = time.perf_counter() - started
    _print_summary(record)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    table = record["per_layer"] if args.trace else record["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": table[name], "unit": units[name]} for name in units},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
