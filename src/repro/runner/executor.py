"""Campaign execution: process pool, timeouts, failure isolation.

:func:`run_campaign` drives an expanded job list to completion:

* **Cache probe first.**  Jobs whose content-addressed key already has
  a stored payload never reach the pool — a repeated campaign is pure
  cache replay.
* **Process pool.**  Remaining jobs run on a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs=1`` runs
  inline in-process, which is what the tests and the benchmarks use
  for determinism-by-construction).  Sizing is deterministic, so
  parallel and serial campaigns produce identical payloads.
* **Per-job timeout.**  Enforced *inside* the worker via
  ``SIGALRM``/``setitimer``, so a hung solve cannot wedge a pool slot
  forever and the pool itself stays healthy.
* **Failure isolation.**  A job that raises (or times out) becomes a
  ``failed``/``timeout`` outcome carrying the traceback; the rest of
  the campaign is unaffected.
* **Deterministic ordering.**  Outcomes are returned in job-expansion
  order no matter which worker finished first; streaming consumers
  (the JSONL run log) observe completion order but every record
  carries its job index.
* **Batched kernel execution.**  ``run_campaign(..., batch=True)``
  fuses compatible queued jobs — same kind, mode and options;
  today the batchable kind is ``wphase`` — into one stacked kernel
  call (:mod:`repro.sizing.batch`) instead of N per-job invocations.
  Results are bit-identical to the per-job loop (the cache probe, the
  JSONL record and the stored payload stay per-job); jobs that fail
  setup, time out, or refuse to converge fall back to the isolated
  per-job path alone while the rest of the batch proceeds.

Per-job flow-solver telemetry is collected with
:func:`repro.flow.registry.stats_scope`, which sees only the solves of
the work it encloses.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from repro.errors import JobTimeoutError, ReproError
from repro.faults.injector import active as active_faults
from repro.faults.injector import install_from_args, observe_faults, probe
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    SpanSink,
    current_carrier,
    current_trace,
    new_span_id,
    new_trace_id,
    span,
    span_record,
    trace_scope,
)
from repro.runner.cache import ResultCache, job_key, netlist_digest
from repro.runner.corpus import WarmSession, record_warm_outcome
from repro.runner.spec import CampaignSpec, Job, resolve_circuit

__all__ = [
    "JobOutcome",
    "CampaignResult",
    "batch_entry",
    "batch_groups",
    "campaign_keys",
    "execute_job",
    "pool_entry",
    "pool_failure",
    "probe_cache",
    "run_campaign",
    "run_one",
    "settle",
    "store_outcome",
]

#: Outcome statuses that represent a finished computation (and are
#: therefore cacheable); ``failed``/``timeout`` are not.
COMPLETED_STATUSES = ("ok", "infeasible")

#: Job kinds whose payloads are deterministic functions of the job
#: fingerprint, hence content-addressable.  ``phases`` payloads are
#: wall-clock measurements and never cached.
CACHEABLE_KINDS = ("sizing", "wphase")

#: Job kinds the batched strategy can fuse into one stacked kernel
#: call.  ``sizing`` jobs are declined on purpose: their cost is
#: dominated by the D-phase LP/flow solves, whose stacked optima need
#: not match the per-job degenerate optima bit-for-bit — only the SMP
#: relaxation has an exact batching story (see
#: :mod:`repro.sizing.batch`).
BATCHABLE_KINDS = ("wphase",)

#: Fresh-pool attempts after worker deaths before the surviving jobs
#: are failed outright — bounds a crash-looping workload (and, under
#: fault injection, caps how long an uncapped ``worker:kill`` rule can
#: stall a campaign).
MAX_POOL_RESTARTS = 8


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate: status, payload, provenance.

    This is also the one record that crosses the process-pool boundary:
    a worker (:func:`pool_entry`, :func:`batch_entry`) fills status,
    payload, error, wall time and the batch fields, and the parent's
    :func:`settle` stamps ``index``, ``key`` and ``trace_id``.
    """

    job: Job
    status: str  # "ok" | "infeasible" | "failed" | "timeout"
    payload: dict | None = None
    error: str | None = None
    wall_seconds: float = 0.0
    #: Position in the campaign's job-expansion order (0 outside one).
    index: int = 0
    key: str | None = None
    cached: bool = False
    #: Jobs the stacked kernel call that produced this outcome actually
    #: fused (0 = per-job execution, cached replay, or fallback).
    batch_size: int = 0
    #: Wall time of the shared stacked solve for the whole batch (every
    #: member outcome reports the same figure; 0.0 outside a batch).
    batched_seconds: float = 0.0
    #: Monotonic execution duration in seconds (``perf_counter``-based,
    #: immune to wall-clock steps — never negative).  Defaults to
    #: ``wall_seconds``, which is already monotonic; surfaces that
    #: measure a longer lifecycle (the service job stores) override it.
    duration_s: float | None = None
    #: Trace id of the execution that produced this outcome (None when
    #: tracing is off); volatile telemetry, never part of the payload.
    trace_id: str | None = None
    #: Warm-start telemetry (all False when the corpus was off or the
    #: job replayed from cache): a corpus probe found a donor record
    #: (``warm_hit``), the donor actually seeded the solve
    #: (``warm_seeded``), or it was rejected / diverged and the job ran
    #: cold (``warm_fallback``).  Never part of the payload — seeded
    #: and cold runs cache identical entries.
    warm_hit: bool = False
    warm_seeded: bool = False
    warm_fallback: bool = False

    def __post_init__(self) -> None:
        if self.duration_s is None:
            object.__setattr__(self, "duration_s", self.wall_seconds)

    @property
    def completed(self) -> bool:
        """True when the job finished computing (even if infeasible)."""
        return self.status in COMPLETED_STATUSES

    def warm_summary(self) -> dict | None:
        """Compact warm-start flags for job records (None on cold runs)."""
        if not (self.warm_hit or self.warm_seeded or self.warm_fallback):
            return None
        return {
            "hit": self.warm_hit,
            "seeded": self.warm_seeded,
            "fallback": self.warm_fallback,
        }


@dataclass
class CampaignResult:
    """All outcomes of one campaign run, in job-expansion order."""

    name: str
    outcomes: list[JobOutcome] = field(default_factory=list)

    @property
    def n_cached(self) -> int:
        """Jobs replayed from the result cache instead of executed."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_failed(self) -> int:
        """Jobs that did not finish computing (failed or timed out)."""
        return sum(1 for o in self.outcomes if not o.completed)

    def counts(self) -> dict[str, int]:
        """Outcome tally by status (``{"ok": 3, "failed": 1, ...}``)."""
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out


# -- job execution (runs in the worker process) -----------------------


def _sizing_dag(job: Job) -> tuple:
    """Resolve a job's circuit and build its sizing DAG.

    Returns ``(circuit, dag)``.  Transistor mode maps macro cells
    (adders, multiplexers) to primitives first, so every job kind sizes
    the same graph for the same (circuit, mode).
    """
    from repro.circuit.mapping import is_primitive_circuit, map_to_primitives
    from repro.dag import build_sizing_dag
    from repro.tech import default_technology

    circuit = resolve_circuit(job.circuit)
    if job.mode == "transistor" and not is_primitive_circuit(circuit):
        circuit = map_to_primitives(circuit, suffix="")
    return circuit, build_sizing_dag(circuit, default_technology(), mode=job.mode)


def _execute_sizing(
    job: Job, warm: WarmSession | None = None
) -> tuple[str, dict]:
    """Full TILOS + MINFLOTRANSIT pipeline for one job.

    ``warm`` is this job's warm-start session (None when the corpus is
    off): the nearest prior trajectory seeds the TILOS solve — which
    owns the divergence-safe replay, so the payload is bitwise what a
    cold run produces — and the freshly computed trajectory is staged
    as this job's own corpus record.
    """
    from repro.flow.registry import stats_scope
    from repro.sizing import minflotransit, tilos_size
    from repro.sizing.serialize import result_to_dict
    from repro.sizing.tilos import TilosOptions
    from repro.tech import default_technology
    from repro.timing import GraphTimer

    circuit, dag = _sizing_dag(job)
    timer = GraphTimer(dag)
    x_min = dag.min_sizes()
    d_min = timer.analyze(dag.delays(x_min)).critical_path_delay
    target = job.delay_spec * d_min

    payload = {
        "kind": "sizing",
        "circuit": job.circuit,
        "name": circuit.name,
        "n_gates": circuit.n_gates,
        "n_vertices": dag.n,
        "delay_spec": job.delay_spec,
        "d_min": d_min,
        "target": target,
        "min_area": dag.area(x_min),
    }
    topts = TilosOptions()
    donor = None
    if warm is not None:
        with span("warmstart.probe", circuit=job.circuit) as probe_span:
            donor = warm.probe_sizing(
                dag=dag,
                tech=default_technology(),
                mode=job.mode,
                options=topts,
                delay_spec=job.delay_spec,
                target=target,
            )
            probe_span.set(hit=donor is not None)
    with stats_scope() as flow_stats:
        with span("tilos.seed", circuit=job.circuit) as seed_span:
            if warm is not None:
                with span("warmstart.seed", circuit=job.circuit) as ws:
                    seed = tilos_size(
                        dag, target, topts, keep_trace=True, warm=donor,
                    )
                    ws.set(
                        result=(seed.warm or {}).get("result") or "cold",
                        replayed=(seed.warm or {}).get("replayed", 0),
                    )
                warm.note_seed((seed.warm or {}).get("result"))
                warm.stage_sizing(seed, d_min)
            else:
                seed = tilos_size(dag, target)
            seed_span.set(iterations=seed.iterations, feasible=seed.feasible)
        payload["seed"] = {
            "feasible": seed.feasible,
            "area": seed.area,
            "critical_path_delay": seed.critical_path_delay,
            "runtime_seconds": seed.runtime_seconds,
            "iterations": seed.iterations,
            "timing_stats": seed.timing_stats,
        }
        if not seed.feasible:
            payload["result"] = None
        else:
            with span("minflo", circuit=job.circuit) as minflo_span:
                result = minflotransit(
                    dag, target, options=job.minflo_options(), x0=seed.x
                )
                minflo_span.set(iterations=len(result.iterations))
            payload["result"] = result_to_dict(result)
    payload["flow_stats"] = {
        name: asdict(stats) for name, stats in sorted(flow_stats.items())
    }
    return ("ok" if seed.feasible else "infeasible"), payload


def _execute_phases(job: Job) -> tuple[str, dict]:
    """Time one STA / balance / W-phase / D-phase pass (scaling study)."""
    from repro.balancing import balance
    from repro.sizing import d_phase, tilos_size, w_phase
    from repro.timing import GraphTimer

    def best_of(fn, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    circuit, dag = _sizing_dag(job)
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    target = job.delay_spec * d_min
    seed = tilos_size(dag, target)
    x = seed.x if seed.feasible else dag.min_sizes() * 2
    delays = dag.delays(x)
    horizon = max(target, timer.analyze(delays).critical_path_delay)
    config = balance(dag, delays, horizon=horizon, timer=timer)
    load = delays - dag.model.intrinsic
    budgets = delays * 1.01

    # Warm up the LP solver once so one-time solver setup does not
    # pollute the smallest instance's measurement.
    d_phase(dag, x, config, -0.2 * load, 0.2 * load)
    width = 0
    if job.circuit.startswith("rca:"):
        width = int(job.circuit.split(":", 1)[1])
    payload = {
        "kind": "phases",
        "circuit": job.circuit,
        "name": circuit.name,
        "width": width,
        "n_vertices": dag.n,
        "n_edges": dag.n_edges,
        "sta_seconds": best_of(lambda: timer.analyze(delays)),
        "balance_seconds": best_of(
            lambda: balance(dag, delays, horizon=horizon, timer=timer)
        ),
        "w_phase_seconds": best_of(lambda: w_phase(dag, budgets)),
        "d_phase_seconds": best_of(
            lambda: d_phase(dag, x, config, -0.2 * load, 0.2 * load),
            repeats=1,
        ),
    }
    return "ok", payload


def _wphase_context(job: Job) -> tuple:
    """Shared per-(circuit, mode) setup for W-phase jobs.

    Returns ``(circuit, dag, load_delay)`` where ``load_delay`` is the
    load-dependent part of the minimum-size delays.  Everything here is
    a deterministic function of the circuit token and mode alone, so
    the batched executor shares one context across every delay spec of
    the same circuit — the amortization the batch strategy exists for.
    """
    circuit, dag = _sizing_dag(job)
    load_delay = dag.delays(dag.min_sizes()) - dag.model.intrinsic
    return circuit, dag, load_delay


def _wphase_budgets(dag, load_delay, delay_spec: float):
    """Per-vertex delay budgets for a W-phase job.

    ``intrinsic + delay_spec * load_delay(x_min)``: a spec of 1.0 is
    met at minimum sizes, tighter specs force upsizing (and eventually
    clamping — the ``infeasible`` outcome), and the headroom of every
    loaded vertex stays positive for any positive spec.
    """
    return dag.model.intrinsic + delay_spec * load_delay


def _wphase_payload(job: Job, circuit, dag, budgets, smp) -> tuple[str, dict]:
    """Assemble the (status, payload) of a solved W-phase instance.

    Shared verbatim by the per-job and batched paths — given the same
    relaxation result both produce the same payload, which is what the
    differential tests compare byte-for-byte (modulo the volatile
    ``seconds`` field).
    """
    import numpy as np

    delays = dag.model.delays(smp.x)
    feasible = not smp.clamped
    payload = {
        "kind": "wphase",
        "circuit": job.circuit,
        "name": circuit.name,
        "n_vertices": dag.n,
        "delay_spec": job.delay_spec,
        "feasible": feasible,
        "sweeps": int(smp.sweeps),
        "clamped": [int(i) for i in smp.clamped],
        "area": float(dag.area(smp.x)),
        "worst_violation": float(np.max(delays - budgets)),
        "sizes": [float(v) for v in smp.x],
        "seconds": float(smp.seconds),
    }
    return ("ok" if feasible else "infeasible"), payload


def _execute_wphase(
    job: Job, warm: WarmSession | None = None
) -> tuple[str, dict]:
    """Solve one W-phase SMP instance (the batchable kernel workload).

    ``warm`` is this job's warm-start session (None when the corpus is
    off): the nearest dominated-budget solution seeds the relaxation —
    :func:`~repro.sizing.wphase.w_phase` owns the exactness monitor, so
    the final sizes are bitwise what a cold solve produces (only the
    sweep count may shrink) — and the fresh solution is staged as this
    job's own corpus record.
    """
    from repro.sizing import w_phase
    from repro.tech import default_technology

    with span("wphase.context", circuit=job.circuit):
        circuit, dag, load_delay = _wphase_context(job)
    budgets = _wphase_budgets(dag, load_delay, job.delay_spec)
    seed = None
    if warm is not None:
        with span("warmstart.probe", circuit=job.circuit) as probe_span:
            seed = warm.probe_wphase(
                dag=dag,
                tech=default_technology(),
                mode=job.mode,
                delay_spec=job.delay_spec,
                budgets=budgets,
            )
            probe_span.set(hit=seed is not None)
    with span("wphase.smp", circuit=job.circuit) as smp_span:
        if seed is not None:
            with span("warmstart.seed", circuit=job.circuit) as ws:
                result = w_phase(dag, budgets, warm=seed)
                ws.set(result=result.warm or "cold")
        else:
            result = w_phase(dag, budgets)
        smp_span.set(sweeps=int(result.sweeps))
    if warm is not None:
        warm.note_seed(result.warm)
        warm.stage_wphase(result, budgets)
    return _wphase_payload(job, circuit, dag, budgets, result)


_EXECUTORS = {
    "sizing": _execute_sizing,
    "wphase": _execute_wphase,
    "phases": _execute_phases,
}


def execute_job(job: Job, warm: WarmSession | None = None) -> tuple[str, dict]:
    """Run one job to completion in this process; returns (status, payload).

    ``warm`` (a :class:`~repro.runner.corpus.WarmSession`) reaches the
    cacheable executors only — phase-timing jobs are wall-clock
    measurements with nothing to seed.
    """
    probe("solver")  # injected solver-phase delays land here
    if warm is not None and job.kind in CACHEABLE_KINDS:
        return _EXECUTORS[job.kind](job, warm=warm)
    return _EXECUTORS[job.kind](job)


def _watchdog_timeout(fn, timeout: float):
    """Portable wall-time budget: run ``fn`` in a daemon thread.

    The fallback for platforms without ``SIGALRM`` and for calls off
    the main thread (queue-mode drain threads, embeddings).  On expiry
    the *caller* gets :class:`JobTimeoutError` immediately; the
    abandoned thread cannot be killed (CPython has no thread cancel)
    and is left to finish in the background — its result is discarded.
    That leak is bounded in practice: workers are pool processes that
    recycle, and a genuinely hung solve would otherwise wedge the slot
    forever, which is strictly worse.
    """
    outcome: list = []

    def _target() -> None:
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome.append((False, exc))

    worker = threading.Thread(
        target=_target, name="repro-job-watchdog", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise JobTimeoutError(
            f"job exceeded its {timeout:g}s budget (watchdog)"
        )
    ok, value = outcome[0]
    if ok:
        return value
    raise value


def _with_timeout(fn, timeout: float | None):
    """Run ``fn`` under a wall-time budget.

    On a POSIX main thread the budget is ``SIGALRM``/``setitimer`` —
    it interrupts even a wedged C call.  Everywhere else (non-unix
    platforms, queue-mode drain threads executing inline) the budget
    is a watchdog thread (:func:`_watchdog_timeout`), so a timeout is
    *always* enforced rather than silently skipped.
    """
    if not timeout:
        return fn()
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        def _alarm(signum, frame):
            raise JobTimeoutError(f"job exceeded its {timeout:g}s budget")

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return _watchdog_timeout(fn, timeout)


def _failure(exc: Exception) -> tuple[str, str]:
    """Worker-side ``(status, error)`` for a job that raised ``exc``.

    A blown wall-time budget is a ``timeout``; anything else is
    ``failed`` with its traceback.  Call from inside the ``except``.
    """
    if isinstance(exc, JobTimeoutError):
        return "timeout", str(exc)
    return "failed", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _worker_fault_events(injector) -> list[dict] | None:
    """Fault events for the parent's metrics, from worker processes only.

    In-process (thread-pool) execution already counted the fires in
    the shared registry; shipping them would double-count.
    """
    if injector is None or multiprocessing.parent_process() is None:
        return None
    return injector.drain_events()


def pool_failure(job: Job, exc: Exception) -> JobOutcome:
    """Parent-side outcome of a pool task that raised instead of
    returning (its worker died, or the pool broke under it)."""
    return JobOutcome(
        job=job, status="failed", error=f"{type(exc).__name__}: {exc}"
    )


def pool_entry(
    job: Job,
    timeout: float | None,
    trace: dict | None = None,
    warm: str | None = None,
    faults: tuple | None = None,
) -> tuple[JobOutcome, dict | None]:
    """Worker-side wrapper: isolate failures, enforce the timeout.

    Returns ``(outcome, obs)``: a picklable :class:`JobOutcome` carrying
    status, payload, error and wall time (the parent's :func:`settle`
    stamps index, key and trace id), plus the observability blob.  The
    campaign pool and the sizing service both submit this exact
    callable, which is what keeps their results identical.

    ``trace`` is an optional :func:`~repro.obs.trace.current_carrier`
    dict; when given, the job executes inside the propagated trace
    context, its spans (``job.execute`` plus every solver-phase span
    underneath) buffer in-process, and ``obs`` carries them back as
    ``{"spans": [...]}`` for the parent to merge — how span parentage
    survives the forkserver boundary.  With ``trace=None`` no context
    is created and no span cost is paid: tracing costs nothing when off.

    ``warm`` is an optional warm-corpus backend *spec string* (the
    corpus holds live connections, so workers resolve it locally and
    cache the index per process).  The session's telemetry — and the
    job's own staged corpus record — come back under ``obs["warm"]``;
    the parent folds the telemetry into metrics and stores the record
    with the cache entry.  ``obs`` is None only when tracing, the
    corpus and fault injection are all off.

    ``faults`` is an optional fault-injection config
    (:meth:`~repro.faults.injector.FaultInjector.config_args`); the
    worker (re-)installs it before the job runs — explicit hand-off,
    because a forkserver started before ``install`` would never see
    the parent's environment variables.  The ``worker`` probe fires
    inside the job's wall-time budget (a ``kill`` exits the process, a
    ``hang`` is bounded by the timeout), and fault events from worker
    *processes* ship home under ``obs["faults"]`` for the parent's
    metrics.
    """
    injector = install_from_args(faults)
    start = time.perf_counter()
    sink = SpanSink() if trace is not None else None
    scope = (
        trace_scope(
            sink=sink,
            trace_id=trace.get("trace_id"),
            parent_id=trace.get("parent_id"),
        )
        if sink is not None
        else nullcontext()
    )
    session = WarmSession.open(warm)
    payload: dict | None = None
    error: str | None = None
    try:
        with scope:
            with span(
                "job.execute",
                kind=job.kind,
                circuit=job.circuit,
                delay_spec=job.delay_spec,
            ):
                def _run():
                    probe("worker")  # kill/hang faults strike at entry
                    return execute_job(job, warm=session)

                status, payload = _with_timeout(_run, timeout)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        status, error = _failure(exc)
    obs: dict | None = None
    fault_events = _worker_fault_events(injector)
    if sink is not None or session is not None or fault_events:
        obs = {}
        if sink is not None:
            obs["spans"] = sink.drain()
        if session is not None:
            obs["warm"] = session.as_obs()
        if fault_events:
            obs["faults"] = fault_events
    outcome = JobOutcome(
        job=job,
        status=status,
        payload=payload,
        error=error,
        wall_seconds=time.perf_counter() - start,
    )
    return outcome, obs


# -- batched execution (stacked kernel call, runs in the worker) ------


def batch_groups(
    pending: list[tuple[int, Job, str | None]],
) -> tuple[list[list[tuple[int, Job, str | None]]], list[tuple[int, Job, str | None]]]:
    """Partition pending jobs into fusable batches plus leftovers.

    Jobs fuse when they share kind, mode and option overrides (one
    technology serves the whole campaign, so this is the "same
    technology/options" compatibility the stacked kernel needs);
    everything else — including every non-batchable kind —
    comes back in ``rest`` and runs through the ordinary per-job
    paths.  Group order and in-group job order follow expansion order.
    """
    groups: dict[tuple, list[tuple[int, Job, str | None]]] = {}
    rest: list[tuple[int, Job, str | None]] = []
    for item in pending:
        job = item[1]
        if job.kind in BATCHABLE_KINDS:
            signature = (job.kind, job.mode, job.options)
            groups.setdefault(signature, []).append(item)
        else:
            rest.append(item)
    return list(groups.values()), rest


def batch_entry(
    jobs: list[Job],
    timeout: float | None,
    traces: list[dict | None] | None = None,
    faults: tuple | None = None,
) -> list[tuple[JobOutcome, dict | None]]:
    """Run a compatible job group through one stacked kernel call.

    The batched twin of :func:`pool_entry`: returns one ``(outcome,
    obs)`` pair per job, in job order.  Outcomes served by the stacked
    solve report ``batch_size`` — the number of jobs it actually fused,
    which excludes jobs that failed setup — and ``batched_seconds``,
    the shared stacked-solve wall time; per-job fallbacks report 0 for
    both.  ``traces`` optionally carries one
    :func:`~repro.obs.trace.current_carrier` dict per job; each traced
    job's ``obs`` blob ships its spans back (``batch.setup`` under its
    own budget, plus a ``batch.solve_share`` span whose duration is
    the job's *amortized share* of the stacked solve, so a parent
    span's children never sum past the parent).

    Failure isolation works in three layers:

    * per-job setup (circuit resolution, DAG build, budget validation)
      runs under the job's own wall-time budget — a bad token or a hung
      build fails that job alone;
    * the stacked solve runs under the *sum* of the surviving jobs'
      budgets; if it raises or times out, every survivor re-runs
      through :func:`pool_entry` individually, each under its own
      budget — the batch degrades to the per-job loop instead of
      failing collectively;
    * a job whose instance does not converge in the stacked run (its
      result slot is None) replays through :func:`pool_entry` alone,
      which raises the same diagnostic a solo run would.
    """
    from repro.sizing.kernels import get_smp_plan
    from repro.sizing.smp import smp_headroom

    injector = install_from_args(faults)
    n = len(jobs)
    results: list[tuple[JobOutcome, dict | None] | None] = [None] * n
    setup_seconds = [0.0] * n
    contexts: dict[tuple[str, str], tuple] = {}
    prepared: dict[int, tuple] = {}
    traces = list(traces) if traces else [None] * n
    sinks: list[SpanSink | None] = [
        SpanSink() if carrier else None for carrier in traces
    ]

    def job_scope(pos: int):
        carrier = traces[pos]
        if carrier is None:
            return nullcontext()
        return trace_scope(
            sink=sinks[pos],
            trace_id=carrier.get("trace_id"),
            parent_id=carrier.get("parent_id"),
        )

    def job_obs(pos: int) -> dict | None:
        sink = sinks[pos]
        return {"spans": sink.drain()} if sink is not None else None

    for pos, job in enumerate(jobs):
        start = time.perf_counter()

        def setup(job: Job = job):
            context_key = (job.circuit, job.mode)
            if context_key not in contexts:
                # Successes are shared across the batch; failures are
                # not cached, so every job owning the token reports
                # the error itself (as it would per-job).
                contexts[context_key] = _wphase_context(job)
            circuit, dag, load_delay = contexts[context_key]
            budgets = _wphase_budgets(dag, load_delay, job.delay_spec)
            smp_headroom(dag.model, budgets)  # invalid budgets fail here
            return circuit, dag, budgets, get_smp_plan(dag)

        try:
            with job_scope(pos):
                with span("batch.setup", circuit=job.circuit):
                    prepared[pos] = _with_timeout(setup, timeout)
            setup_seconds[pos] = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            status, error = _failure(exc)
            results[pos] = (
                JobOutcome(
                    job=job,
                    status=status,
                    error=error,
                    wall_seconds=time.perf_counter() - start,
                ),
                job_obs(pos),
            )

    live = sorted(prepared)
    solved = None
    batched_seconds = 0.0
    solve_wall = time.time()
    if live:
        solve_start = time.perf_counter()

        def stacked():
            from repro.sizing.batch import (
                build_batched_smp_plan,
                solve_smp_batched,
            )

            models = [prepared[pos][1].model for pos in live]
            plan = build_batched_smp_plan(
                models, [prepared[pos][3] for pos in live]
            )
            return solve_smp_batched(
                models,
                [prepared[pos][2] for pos in live],
                [prepared[pos][1].lower for pos in live],
                [prepared[pos][1].upper for pos in live],
                plan,
            )

        try:
            budget = timeout * len(live) if timeout else None
            solved = _with_timeout(stacked, budget)
            batched_seconds = time.perf_counter() - solve_start
        except Exception:  # noqa: BLE001 — degrade to the per-job loop
            solved = None

    if solved is None:
        solved = [None] * len(live)
    share = batched_seconds / len(live) if live else 0.0
    for pos, smp in zip(live, solved):
        job = jobs[pos]
        if smp is None:
            # Stacked solve unavailable (failed, timed out) or this
            # instance did not converge: the isolated per-job path is
            # the authority, including its error text.
            outcome, fallback_obs = pool_entry(job, timeout, traces[pos])
            if fallback_obs and sinks[pos] is not None:
                sinks[pos].emit_many(fallback_obs.get("spans") or ())
            results[pos] = (outcome, job_obs(pos))
            continue
        carrier = traces[pos]
        if carrier is not None:
            # The stacked solve served every live job at once; each
            # traced job records its amortized share so per-parent
            # child durations stay <= the parent's.
            sinks[pos].emit(span_record(
                carrier.get("trace_id"),
                new_span_id(),
                carrier.get("parent_id"),
                "batch.solve_share",
                solve_wall,
                share,
                {"batch_size": len(live), "batched_seconds": batched_seconds},
            ))
        start = time.perf_counter()
        payload: dict | None = None
        error: str | None = None
        try:
            circuit, dag, budgets, _plan = prepared[pos]
            status, payload = _wphase_payload(job, circuit, dag, budgets, smp)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            status, error = _failure(exc)
        outcome = JobOutcome(
            job=job,
            status=status,
            payload=payload,
            error=error,
            wall_seconds=(
                setup_seconds[pos] + share + (time.perf_counter() - start)
            ),
            batch_size=len(live),
            batched_seconds=batched_seconds,
        )
        results[pos] = (outcome, job_obs(pos))
    events = _worker_fault_events(injector)
    if events and results:
        # Worker-process fault events ride home on the first job's obs
        # blob (batch-level faults have no single owning job anyway).
        outcome, obs = results[0]
        results[0] = (outcome, {**(obs or {}), "faults": events})
    return results


# -- the driver (parent process) --------------------------------------


def _payload_status(payload: dict) -> str:
    """Completed status a cached payload replays as (kind-aware)."""
    if payload.get("kind") == "wphase":
        return "ok" if payload.get("feasible") else "infeasible"
    return "ok" if payload.get("result") is not None else "infeasible"


def probe_cache(
    job: Job, key: str | None, cache: ResultCache | None
) -> JobOutcome | None:
    """Replay a job from the result cache, or None on a miss.

    Only :data:`CACHEABLE_KINDS` jobs are cacheable (phase-timing
    payloads are wall-clock measurements); a hit comes back as a
    completed :class:`JobOutcome` with ``cached=True`` and zero wall
    time.
    """
    if cache is None or key is None or job.kind not in CACHEABLE_KINDS:
        return None
    payload = cache.get(key)
    if payload is None:
        return None
    return JobOutcome(
        job=job,
        key=key,
        status=_payload_status(payload),
        cached=True,
        payload=payload,
    )


def store_outcome(
    outcome: JobOutcome,
    cache: ResultCache | None,
    warm: dict | None = None,
) -> None:
    """Store a freshly computed, cacheable outcome in the result cache.

    No-op for cache misses that failed or timed out, for replayed
    (already cached) outcomes, and for uncacheable job kinds.
    Batch telemetry lives on the :class:`JobOutcome` and the JSONL
    record, never in the stored payload — a batched and a per-job
    execution of the same fingerprint must cache identical entries.

    ``warm`` optionally attaches the job's own corpus record to the
    entry (see :meth:`~repro.runner.cache.ResultCache.put`); it rides
    next to the payload, never inside it.
    """
    if (
        outcome.completed
        and not outcome.cached
        and cache is not None
        and outcome.key is not None
        # Phase-timing payloads are wall-clock measurements — not
        # content-addressable, so never cached.
        and outcome.job.kind in CACHEABLE_KINDS
    ):
        cache.put(outcome.key, outcome.payload, warm=warm)


def settle(
    outcome: JobOutcome,
    obs: dict | None,
    cache: ResultCache | None,
    *,
    index: int = 0,
    key: str | None = None,
    trace_id: str | None = None,
    sink: SpanSink | None = None,
) -> JobOutcome:
    """The parent-side half of every execution path.

    Stamps what only the parent knows (``index``, ``key``,
    ``trace_id``), folds the worker's fault events into the
    process-global metrics, applies its warm-start telemetry, stores a
    freshly computed outcome (with the job's staged corpus record), and
    re-emits the worker's spans into ``sink``.  :func:`run_one`,
    :func:`run_campaign` and the sizing service all settle here; cache
    replays carry no ``obs`` and are only stamped.

    This is the single place ``repro_warmstart_total`` moves:
    worker-side increments would be lost across a process pool and
    double-counted in-thread, so the counter follows the obs dict home.
    """
    obs = obs or {}
    observe_faults(get_registry(), obs.get("faults"))
    warm = dict(obs.get("warm") or {})
    warm_blob = warm.pop("blob", None)
    record_warm_outcome(warm)
    outcome = replace(
        outcome,
        index=index,
        key=key,
        trace_id=trace_id,
        warm_hit=bool(warm.get("hit")),
        warm_seeded=bool(warm.get("seeded")),
        warm_fallback=bool(warm.get("fallback")),
    )
    store_outcome(outcome, cache, warm=warm_blob)
    if sink is not None:
        sink.emit_many(obs.get("spans") or ())
    return outcome


_UNRESOLVED = object()  # sentinel: run_one must compute the key itself


def run_one(
    job: Job,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    index: int = 0,
    key: str | None | object = _UNRESOLVED,
    warm: str | None = None,
) -> JobOutcome:
    """Run a single job in this process: probe, execute, settle.

    The one-job counterpart of :func:`run_campaign`: cache probe first,
    then :func:`pool_entry` (failure isolation + wall-time budget),
    then :func:`settle` (cache write, telemetry, spans into the active
    trace) — so a one-off run and a campaign job with the same
    fingerprint produce (and reuse) the identical cache entry.

    ``key`` may be passed in by callers that already computed it; by
    default it is derived here, and a job whose circuit token cannot
    resolve simply executes uncached and fails in isolation, exactly
    like a campaign job would.

    ``warm`` is an optional warm-corpus backend spec string (see
    :func:`pool_entry`); cache hits never probe the corpus.
    """
    if key is _UNRESOLVED:
        key = campaign_keys([job], cache)[0]
    ctx = current_trace()
    outcome, obs = probe_cache(job, key, cache), None
    if outcome is None:
        outcome, obs = pool_entry(job, timeout, current_carrier(), warm)
    return settle(
        outcome,
        obs,
        cache,
        index=index,
        key=key,
        trace_id=ctx.trace_id if ctx is not None else None,
        sink=ctx.sink if ctx is not None else None,
    )


def campaign_keys(
    job_list: list[Job], cache: ResultCache | None
) -> list[str | None]:
    """Cache keys for a job list (None entries when caching is off).

    Keying a job builds its circuit; a job whose token cannot resolve
    gets a None key here and fails in isolation when executed, instead
    of taking the whole campaign down before it starts.  Each distinct
    circuit token is resolved and serialized once per pass no matter
    how many jobs share it (a figure-7 panel is one circuit × many
    ratios).
    """
    keys: list[str | None] = []
    digests: dict[str, str | None] = {}
    for job in job_list:
        if cache is None:
            keys.append(None)
            continue
        if job.circuit not in digests:
            try:
                digests[job.circuit] = netlist_digest(job.circuit)
            except ReproError:
                digests[job.circuit] = None
        sha = digests[job.circuit]
        keys.append(None if sha is None else job_key(job, netlist_sha=sha))
    return keys


def run_campaign(
    spec: CampaignSpec | list[Job],
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    on_outcome=None,
    keys: list[str | None] | None = None,
    batch: bool = False,
    trace_sink: SpanSink | None = None,
    warm_corpus: str | None = None,
) -> CampaignResult:
    """Run a campaign; returns outcomes in job-expansion order.

    ``jobs`` is the worker-process count (1 = inline, no pool);
    ``cache`` short-circuits jobs whose key is already stored and
    receives every newly completed payload; ``timeout`` is the per-job
    wall-time budget in seconds; ``on_outcome`` is called once per
    outcome *in completion order* (the JSONL streamer hooks in here);
    ``keys`` are precomputed :func:`campaign_keys` (computing a key
    builds the circuit, so callers that already did — e.g. to write the
    run-log header — pass them in rather than paying twice).

    ``batch=True`` fuses compatible cache-missed jobs of
    :data:`BATCHABLE_KINDS` into stacked kernel calls
    (:func:`batch_entry`); fused groups run inline in the driver —
    avoiding N pool round-trips is the point — while incompatible
    leftovers take the ordinary per-job paths below.  Per-job results
    are bit-identical either way; only the :class:`JobOutcome` batch
    telemetry differs.

    ``trace_sink`` enables tracing: every job gets its own trace id
    and a root ``job`` span; worker-side spans ship back in each
    worker's ``obs`` blob and land in the sink (the run directory's
    ``trace.jsonl``) as children of that root.  Payloads, cache
    entries and the run digest are byte-identical with tracing on or
    off.

    ``warm_corpus`` is an optional corpus backend spec string: each
    cache-missed job probes it for the nearest prior solution and
    seeds its solver (payloads stay bitwise-identical to cold runs —
    the solver hooks own the fallback), and every completed job's own
    trajectory is stored with its cache entry for future probes, so a
    drifting sweep warms itself up as it goes.  Batched groups run
    cold: the stacked kernel has no per-job seeding story.
    """
    if isinstance(spec, CampaignSpec):
        name = spec.name
        job_list = spec.jobs()
    else:
        name = "adhoc"
        job_list = list(spec)
    if keys is None:
        keys = campaign_keys(job_list, cache)

    result = CampaignResult(name=name)
    slots: list[JobOutcome | None] = [None] * len(job_list)

    tracing = trace_sink is not None
    trace_ids: dict[int, tuple[str, str]] = (
        {i: (new_trace_id(), new_span_id()) for i in range(len(job_list))}
        if tracing
        else {}
    )

    def carrier_for(index: int) -> dict | None:
        if not tracing:
            return None
        trace_id, root_id = trace_ids[index]
        return {"trace_id": trace_id, "parent_id": root_id}

    def finish(
        index: int, key: str | None, outcome: JobOutcome, obs: dict | None = None
    ) -> None:
        trace_id, root_id = trace_ids.get(index, (None, None))
        outcome = settle(
            outcome, obs, cache,
            index=index, key=key, trace_id=trace_id, sink=trace_sink,
        )
        if tracing:
            trace_sink.emit(span_record(
                trace_id,
                root_id,
                None,
                "job",
                time.time() - outcome.wall_seconds,
                outcome.wall_seconds,
                {
                    "index": index,
                    "label": outcome.job.label(),
                    "status": outcome.status,
                    "cached": outcome.cached,
                },
            ))
        slots[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    pending: list[tuple[int, Job, str | None]] = []
    for index, job in enumerate(job_list):
        key = keys[index]
        hit = probe_cache(job, key, cache)
        if hit is not None:
            finish(index, key, hit)
        else:
            pending.append((index, job, key))

    fault_injector = active_faults()
    fault_args = (
        fault_injector.config_args() if fault_injector is not None else None
    )

    if batch and pending:
        groups, pending = batch_groups(pending)
        for group in groups:
            pairs = batch_entry(
                [job for _, job, _ in group],
                timeout,
                traces=[carrier_for(index) for index, _, _ in group],
                faults=fault_args,
            )
            for (index, _job, key), (outcome, obs) in zip(group, pairs):
                finish(index, key, outcome, obs)

    if pending and jobs <= 1:
        for index, job, key in pending:
            finish(index, key, *pool_entry(
                job, timeout, carrier_for(index), warm_corpus
            ))
    elif pending:
        queue_items = list(pending)
        restarts = 0
        while queue_items:
            broken: list[tuple[int, Job, str | None]] = []
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(
                        pool_entry, job, timeout, carrier_for(index),
                        warm_corpus, fault_args,
                    ): (index, job, key)
                    for index, job, key in queue_items
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index, job, key = futures[future]
                        obs = None
                        try:
                            outcome, obs = future.result()
                        except BrokenExecutor:
                            # A worker died (SIGKILL, OOM, injected
                            # kill): every in-flight job's future breaks
                            # at once.  Collect them for a fresh pool
                            # instead of failing the campaign.
                            broken.append((index, job, key))
                            continue
                        except Exception as exc:
                            outcome = pool_failure(job, exc)
                        finish(index, key, outcome, obs)
            if not broken:
                break
            # A worker killed between its cache put and returning may
            # already have stored its result — re-probe before re-running
            # so the crash-resume replays instead of recomputing.
            queue_items = []
            for index, job, key in sorted(broken):
                hit = probe_cache(job, key, cache)
                if hit is not None:
                    finish(index, key, hit)
                else:
                    queue_items.append((index, job, key))
            restarts += 1
            if queue_items and restarts >= MAX_POOL_RESTARTS:
                for index, job, key in queue_items:
                    finish(index, key, JobOutcome(
                        job=job,
                        status="failed",
                        error=(
                            f"worker process died repeatedly; gave up "
                            f"after {restarts} pool restarts"
                        ),
                    ))
                break

    result.outcomes = [slot for slot in slots if slot is not None]
    return result
