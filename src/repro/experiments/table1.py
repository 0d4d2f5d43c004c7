"""Table 1 harness: area savings of MINFLOTRANSIT over TILOS.

Reproduces the paper's Table 1 row by row: circuit, gate count, delay
specification (fraction of the minimum-sized circuit's delay), the area
saving of MINFLOTRANSIT over the TILOS seed, TILOS CPU time and the
extra time MINFLOTRANSIT needs on top (the paper reports both columns).

The rows are one campaign on :mod:`repro.runner`: ``--jobs N`` sizes
rows in parallel, and with ``--cache-dir`` each (circuit, spec) job
replays from the content-addressed store, so re-running the table
against a warm cache is free.

Run as a module::

    python -m repro.experiments.table1 [--tier smoke|paper] [--jobs N]
                                       [--cache-dir DIR]

or through the pytest-benchmark wrapper in ``benchmarks/``, or as
``python -m repro campaign run --tier smoke``.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.generators.iscas import SUITE, BenchmarkSpec
from repro.runner import CampaignSpec, Job, JobOutcome, run, tier_preset
from repro.runner.executor import execute_job

__all__ = [
    "Table1Row",
    "campaign_spec",
    "row_from_outcome",
    "run_row",
    "run_table1",
    "format_table1",
    "select_specs",
]

#: Environment variable choosing the benchmark tier.
TIER_ENV = "REPRO_BENCH_TIER"

_PAPER_ROWS = {spec.name: spec for spec in SUITE}


@dataclass(frozen=True)
class Table1Row:
    """One measured row next to the paper's reference numbers."""

    name: str
    n_gates: int
    paper_gates: int
    delay_spec: float
    feasible: bool
    area_saving_percent: float
    paper_saving_percent: float
    tilos_seconds: float
    minflo_extra_seconds: float
    minflo_iterations: int
    area_ratio_vs_min: float


def select_specs(tier: str | None = None) -> list[BenchmarkSpec]:
    """Suite subset for a tier ('smoke' default, 'paper' = all rows)."""
    tier = tier or os.environ.get(TIER_ENV, "smoke")
    if tier == "paper":
        return list(SUITE)
    if tier == "smoke":
        return [spec for spec in SUITE if spec.tier == "smoke"]
    raise ValueError(f"unknown tier {tier!r} (use 'smoke' or 'paper')")


def campaign_spec(tier: str | None = None) -> CampaignSpec:
    """The Table 1 sweep as a runner campaign (one job per row)."""
    return tier_preset(tier)


def row_from_outcome(outcome: JobOutcome) -> Table1Row:
    """Convert one sizing-job outcome into a table row."""
    if not outcome.completed:
        raise RuntimeError(
            f"job {outcome.job.label()} {outcome.status}: {outcome.error}"
        )
    payload = outcome.payload
    paper = _PAPER_ROWS.get(payload["name"])
    seed = payload["seed"]
    result = payload["result"]
    if result is None:
        return Table1Row(
            name=payload["name"],
            n_gates=payload["n_gates"],
            paper_gates=paper.paper_gates if paper else 0,
            delay_spec=payload["delay_spec"],
            feasible=False,
            area_saving_percent=float("nan"),
            paper_saving_percent=(
                paper.paper_area_saving_percent if paper else float("nan")
            ),
            tilos_seconds=seed["runtime_seconds"],
            minflo_extra_seconds=float("nan"),
            minflo_iterations=0,
            area_ratio_vs_min=float("nan"),
        )
    return Table1Row(
        name=payload["name"],
        n_gates=payload["n_gates"],
        paper_gates=paper.paper_gates if paper else 0,
        delay_spec=payload["delay_spec"],
        feasible=True,
        area_saving_percent=100.0 * (1.0 - result["area"] / seed["area"]),
        paper_saving_percent=(
            paper.paper_area_saving_percent if paper else float("nan")
        ),
        tilos_seconds=seed["runtime_seconds"],
        minflo_extra_seconds=result["runtime_seconds"],
        minflo_iterations=len(result["iterations"]),
        area_ratio_vs_min=result["area"] / payload["min_area"],
    )


def run_row(spec: BenchmarkSpec) -> Table1Row:
    """Build, seed with TILOS and refine with MINFLOTRANSIT (one row)."""
    job = Job(circuit=spec.name, delay_spec=spec.delay_spec)
    status, payload = execute_job(job)
    return row_from_outcome(JobOutcome(
        index=0,
        job=job,
        key=None,
        status=status,
        cached=False,
        wall_seconds=0.0,
        payload=payload,
    ))


def run_table1(
    tier: str | None = None,
    jobs: int = 1,
    cache=None,
) -> list[Table1Row]:
    """All rows of a tier, as one (cacheable, parallelizable) campaign."""
    result = run(campaign_spec(tier), jobs=jobs, cache=cache)
    return [row_from_outcome(outcome) for outcome in result.outcomes]


def format_table1(rows: list[Table1Row]) -> str:
    headers = [
        "Circuit",
        "Gates",
        "(paper)",
        "Spec",
        "Saving%",
        "(paper%)",
        "CPU TILOS",
        "CPU extra (OURS)",
        "Iters",
        "Area/min",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.name,
                str(row.n_gates),
                str(row.paper_gates),
                f"{row.delay_spec:.2f}·Dmin",
                "--" if not row.feasible else f"{row.area_saving_percent:.1f}",
                f"{row.paper_saving_percent:.1f}",
                f"{row.tilos_seconds:.2f}s",
                "--" if not row.feasible else f"{row.minflo_extra_seconds:.2f}s",
                str(row.minflo_iterations),
                "--" if not row.feasible else f"{row.area_ratio_vs_min:.2f}",
            ]
        )
    return format_table(
        headers,
        body,
        title="Table 1 — area savings of MINFLOTRANSIT over TILOS",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default=None, choices=["smoke", "paper"])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="replay/store rows in a campaign result cache")
    args = parser.parse_args()
    rows = run_table1(tier=args.tier, jobs=args.jobs, cache=args.cache_dir)
    print(format_table1(rows))


if __name__ == "__main__":
    main()
