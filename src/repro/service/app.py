"""The sizing service core: request validation, job admission, execution.

:class:`SizingService` exposes the existing campaign pipeline as a
long-lived, concurrent request/response engine.  It owns no sizing
logic of its own — a request is validated into the same frozen
:class:`~repro.runner.spec.Job` a campaign would expand, keyed with the
same content-addressed fingerprint, probed against the same
:class:`~repro.runner.cache.ResultCache`, and executed through the same
:func:`~repro.runner.executor.pool_entry` wrapper (failure isolation +
per-job wall-time budget).  That single shared execution path is the
service's core guarantee: a ``POST /v1/size`` returns results
byte-identical to ``python -m repro size`` / ``campaign run`` for the
same (netlist, technology, options), and repeated requests are cache
hits.

Concurrency model: with ``jobs=1`` and no per-job timeout (the
default) requests execute on one dedicated worker *thread* —
serialized, deterministic, and cheap to start, which is what the
tests use.  With ``jobs>1`` — or whenever a ``timeout`` is configured
— they run on a ``ProcessPoolExecutor`` (``forkserver``/``spawn``
start method, so the threaded HTTP parent never fork-copies its own
locks), giving true parallel sizing bounded at ``jobs`` workers.  A
timeout wants a process because a pool process runs the job on its
main thread, where the ``SIGALRM`` budget can interrupt even a wedged
C call; on a thread only the watchdog budget is available, which
gives up waiting but cannot stop the computation.  In both cases the
HTTP layer may accept arbitrarily many concurrent requests; the pool
is the backpressure.

Fleet mode: given a ``queue`` database
(:class:`~repro.service.queue.WorkQueue`), this service becomes one
replica of many.  Submissions *enqueue* — into a durable, shared job
stream — and ``jobs`` drain threads lease work from that stream
(leasing + visibility timeout, so a crashed replica's jobs are
re-claimed), execute it on the local pool, and publish results through
the shared store and cache backend.  Any replica answers for any job.
Admission control (:class:`~repro.service.admission.AdmissionController`)
bounds the shared backlog and rate-limits individual clients in both
modes; cache hits bypass admission, because replaying a stored result
consumes no worker.

Observability (:mod:`repro.obs`): every service counter lives in a
locked :class:`~repro.obs.metrics.MetricsRegistry` — ``/v1/stats`` and
the Prometheus exposition at ``/v1/metrics`` are two views over the
same registry, so they can never disagree.  With tracing enabled
(default), each request runs in a trace context: submission spans
(``service.admit``, ``cache.probe``) land in the run directory's
``trace.jsonl``, worker-side solver spans ship back in the ``obs``
blob beside each worker's :class:`~repro.runner.executor.JobOutcome`,
and in queue mode the row carries ``trace_id-root_span_id``
so whichever replica drains the job parents its ``queue.wait`` and
execution spans under the submitter's root — one trace id end to end.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import socket
import tempfile
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator

from repro.circuit.bench_io import loads_bench
from repro.errors import ReproError, ServiceError
from repro.faults.injector import active as active_faults
from repro.faults.injector import install as install_faults
from repro.obs.metrics import MetricsRegistry, get_registry, observe_spans
from repro.obs.trace import (
    SpanSink,
    current_carrier,
    current_trace,
    format_trace_header,
    new_span_id,
    span,
    span_record,
    trace_scope,
)
from repro.runner import DEFAULT_CACHE_DIR
from repro.runner.cache import ResultCache, job_key, netlist_digest
from repro.runner.corpus import warmstart_counts
from repro.runner.executor import (
    JobOutcome,
    batch_entry,
    batch_groups,
    pool_entry,
    pool_failure,
    probe_cache,
    settle,
)
from repro.runner.spec import Job, normalize_options
from repro.service.admission import AdmissionController
from repro.service.jobs import JOB_STATUSES, JobRecord, JobStore
from repro.service.queue import MAX_ATTEMPTS, WorkQueue

__all__ = ["SizingService", "build_job"]

#: Request-body keys ``POST /v1/size`` understands.  Unknown keys are a
#: 400, not a silent default — a typo like ``"dela_spec"`` must never
#: quietly size at 0.5.
_REQUEST_FIELDS = frozenset((
    "circuit", "bench", "delay_spec", "kind", "mode", "options", "async",
))

#: Job kinds the service accepts.  ``phases`` is excluded on purpose:
#: its payloads are wall-clock measurements, meaningless on a shared
#: service host and never cacheable.
_SERVICE_KINDS = ("sizing", "wphase")


def _require(condition: bool, message: str) -> None:
    """Raise a 400-grade :class:`ServiceError` unless ``condition``."""
    if not condition:
        raise ServiceError(message, status=400)


def build_job(body: dict, netlist_dir: Path | None = None) -> Job:
    """Validate a ``/v1/size`` request body into a campaign :class:`Job`.

    Exactly one of ``circuit`` (a campaign circuit token: suite name,
    ``rca:N``, or a server-side ``.bench`` path) and ``bench`` (inline
    ``.bench`` netlist text) must be present.  Inline netlists are
    parsed up front (so malformed text is a 400, not a failed job) and
    spooled content-addressed into ``netlist_dir`` — identical bodies
    produce the identical token, hence the identical cache key.

    Every validation failure raises :class:`ServiceError` with
    ``status=400`` and a message naming the offending field.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    unknown = sorted(set(body) - _REQUEST_FIELDS)
    _require(
        not unknown,
        f"unknown request field(s) {unknown}; "
        f"valid: {sorted(_REQUEST_FIELDS)}",
    )

    circuit = body.get("circuit")
    bench = body.get("bench")
    _require(
        (circuit is None) != (bench is None),
        "exactly one of 'circuit' (a token) and 'bench' (inline netlist "
        "text) is required",
    )
    if bench is not None:
        _require(
            isinstance(bench, str) and bench.strip() != "",
            "'bench' must be non-empty .bench netlist text",
        )
        _require(
            netlist_dir is not None,
            "this service does not accept inline netlists",
        )
        try:
            loads_bench(bench)
        except ReproError as exc:
            raise ServiceError(f"invalid 'bench' netlist: {exc}") from exc
        sha = hashlib.sha256(bench.encode()).hexdigest()
        netlist_dir.mkdir(parents=True, exist_ok=True)
        path = netlist_dir / f"{sha[:16]}.bench"
        if not path.exists():
            path.write_text(bench)
        circuit = str(path)
    _require(
        isinstance(circuit, str) and circuit != "",
        "'circuit' must be a non-empty token string",
    )

    kind = body.get("kind", "sizing")
    _require(
        kind in _SERVICE_KINDS,
        f"'kind' must be one of {list(_SERVICE_KINDS)}, got {kind!r}",
    )
    delay_spec = body.get("delay_spec", 0.5)
    _require(
        isinstance(delay_spec, (int, float)) and not isinstance(
            delay_spec, bool
        ) and delay_spec > 0,
        f"'delay_spec' must be a positive fraction of Dmin, "
        f"got {delay_spec!r}",
    )
    mode = body.get("mode", "gate")
    _require(
        mode in ("gate", "transistor"),
        f"'mode' must be 'gate' or 'transistor', got {mode!r}",
    )
    options = body.get("options")
    _require(
        options is None or isinstance(options, dict),
        f"'options' must be an object of MinfloOptions overrides, "
        f"got {options!r}",
    )
    try:
        normalized = normalize_options(options)
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc
    return Job(
        circuit=circuit,
        delay_spec=float(delay_spec),
        kind=kind,
        mode=mode,
        options=normalized,
    )


class SizingService:
    """Long-lived sizing engine behind the HTTP API (and usable directly).

    Parameters mirror ``python -m repro serve``: ``jobs`` is the worker
    count (1 = one dedicated thread, >1 = a process pool), ``cache`` a
    :class:`ResultCache`, a backend spec string (``disk:`` /
    ``sqlite:`` / ``tiered:``), a path, or None; ``run_dir`` the
    directory that receives the restart-surviving ``service.jsonl``
    job log and spooled inline netlists; ``timeout`` the per-job
    wall-time budget in seconds.

    Fleet parameters: ``queue`` (a path) switches job dispatch onto a
    durable shared :class:`~repro.service.queue.WorkQueue` that other
    replicas may also drain; ``max_queue_depth`` bounds the admitted
    backlog; ``quota_rate``/``quota_burst`` configure per-client token
    buckets; ``visibility_timeout`` is the lease duration after which
    a dead replica's in-flight jobs are re-claimed; ``sync_wait`` caps
    how long a synchronous request blocks on the queue before
    degrading to an async 202 ticket.

    ``batch_drain`` (queue mode only) makes each drain worker lease up
    to that many records per round and fuse compatible batchable jobs
    (kind ``wphase``) into one stacked kernel call
    (:func:`~repro.runner.executor.batch_entry`); per-job results are
    bit-identical to the single-lease loop.

    ``trace=False`` disables span collection entirely (``--no-trace``;
    metrics stay on — they are nearly free).  With tracing on and a
    ``run_dir``, spans append to ``run_dir/trace.jsonl``.

    ``warm_corpus`` (a cache backend spec string) turns on corpus warm
    starts: cache misses probe prior solutions for a seed, with a
    divergence monitor guaranteeing results bitwise identical to a
    cold run (see :mod:`repro.runner.corpus`).  Batched drains run
    cold — stacked solves have no per-job seeding point.

    Failure handling: ``max_attempts`` bounds how many times the queue
    re-leases a job before poison-parking it in the dead-letter state;
    ``faults``/``fault_seed`` install a deterministic fault-injection
    schedule (``--faults``; see :mod:`repro.faults`) for chaos drills.
    A worker death (real or injected) never bricks the replica — the
    broken process pool is swapped for a fresh one and the job retried
    once (``repro_pool_rebuilds_total``).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | Path | None = DEFAULT_CACHE_DIR,
        run_dir: str | Path | None = None,
        timeout: float | None = None,
        queue: str | Path | None = None,
        max_queue_depth: int | None = None,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        visibility_timeout: float = 600.0,
        sync_wait: float = 300.0,
        batch_drain: int | None = None,
        trace: bool = True,
        warm_corpus: str | None = None,
        max_attempts: int = MAX_ATTEMPTS,
        faults: str | None = None,
        fault_seed: int = 0,
    ):
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}", status=500)
        if batch_drain is not None and batch_drain < 1:
            raise ServiceError(
                f"batch_drain must be >= 1, got {batch_drain}", status=500
            )
        self.batch_drain = batch_drain
        self.warm_corpus = warm_corpus
        self.fault_spec = faults or None
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.sync_wait = sync_wait
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if self.fault_spec is not None:
            # ``serve --faults``: the injector is process-global (and
            # exported through the environment + explicit pool-task
            # args, so forkserver/spawn workers inherit the identical
            # schedule).  The state dir makes ``*MAX`` fault caps hold
            # fleet-wide across worker restarts.
            install_faults(
                self.fault_spec,
                seed=fault_seed,
                state_dir=(
                    self.run_dir / "faults"
                    if self.run_dir is not None
                    else None
                ),
            )
        self.trace = bool(trace)
        self.trace_sink = (
            SpanSink(self.run_dir / "trace.jsonl")
            if (self.trace and self.run_dir is not None)
            else None
        )
        self.metrics = MetricsRegistry()
        self._m_cache_hits = self.metrics.counter(
            "repro_cache_hits_total",
            "Requests served by replaying a stored result (no worker used).",
        )
        self._m_executed = self.metrics.counter(
            "repro_jobs_executed_total",
            "Jobs executed to completion by this replica (cache misses).",
        )
        self._m_finished = self.metrics.counter(
            "repro_jobs_finished_total",
            "Executed jobs by terminal status.",
            ("status",),
        )
        self._m_batched = self.metrics.counter(
            "repro_batched_jobs_total",
            "Executed jobs served by a stacked batch solve.",
        )
        self._m_batch_size = self.metrics.histogram(
            "repro_batch_size",
            "Jobs fused per stacked batch solve.",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._m_job_seconds = self.metrics.histogram(
            "repro_job_seconds",
            "Monotonic execution seconds per job.",
            ("kind",),
        )
        self._m_flow = self.metrics.gauge(
            "repro_flow_stat",
            "Accumulated per-backend flow-solver statistics.",
            ("backend", "field"),
        )
        self._m_queue_depth = self.metrics.gauge(
            "repro_queue_depth",
            "Admitted-but-unfinished jobs (sampled at scrape time).",
        )
        self._m_http = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route and status code.",
            ("method", "route", "code"),
        )
        self._m_pool_rebuilds = self.metrics.counter(
            "repro_pool_rebuilds_total",
            "Fresh worker pools swapped in after a worker process died.",
        )
        self.queue_path = Path(queue) if queue is not None else None
        if self.queue_path is not None:
            self.store: JobStore | WorkQueue = WorkQueue(
                self.queue_path,
                visibility_timeout=visibility_timeout,
                metrics=self.metrics,
                max_attempts=max_attempts,
            )
        else:
            self.store = JobStore(self.run_dir)
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            quota_rate=quota_rate,
            quota_burst=quota_burst,
            metrics=self.metrics,
        )
        if self.run_dir is not None:
            self._netlist_dir = self.run_dir / "netlists"
        else:
            self._netlist_dir = Path(
                tempfile.mkdtemp(prefix="repro-service-netlists-")
            )
        self._pool = self._make_pool(jobs, timeout)
        self._lock = threading.Lock()
        self._digests: dict[str, str] = {}
        self._started_at = time.time()
        self._stop = threading.Event()
        self._drainers: list[threading.Thread] = []
        if self.queue_path is not None:
            self.worker_id = f"{socket.gethostname()}:{os.getpid()}"
            for index in range(jobs):
                thread = threading.Thread(
                    target=self._drain_loop,
                    name=f"repro-service-drain-{index}",
                    daemon=True,
                )
                thread.start()
                self._drainers.append(thread)

    @staticmethod
    def _make_pool(jobs: int, timeout: float | None):
        if jobs == 1 and timeout is None:
            # A timeout forces the process pool below: pool processes
            # run jobs on their main thread, where the SIGALRM budget
            # can interrupt a wedged C call.  On a worker *thread* only
            # the watchdog budget arms, and it cannot stop the call.
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-worker"
            )
        # Never fork the threaded HTTP parent: a fork taken while
        # another handler thread holds an internal lock can deadlock
        # the child.  forkserver (Linux) / spawn (everywhere) start
        # workers from a clean process instead.
        methods = multiprocessing.get_all_start_methods()
        method = "forkserver" if "forkserver" in methods else "spawn"
        return ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context(method)
        )

    def _rebuild_pool(self, broken) -> None:
        """Swap a broken executor for a fresh pool (idempotent).

        Many threads can observe the same death; only the first one to
        arrive swaps the pool, the rest see the already-fresh executor
        and simply resubmit.
        """
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = self._make_pool(self.jobs, self.timeout)
            self._m_pool_rebuilds.inc()
        broken.shutdown(wait=False)

    def _run_pooled(self, fn, *args):
        """Run one task on the worker pool, surviving a dead worker.

        A worker process killed mid-job (the OOM killer, a
        ``worker:kill`` fault) breaks the whole
        :class:`ProcessPoolExecutor` — without recovery every later
        request would fail for the rest of the process lifetime.  All
        execution paths funnel through here: one death costs one retry
        on a fresh pool.  Retrying is safe because workers are pure
        compute — results are stored parent-side in :meth:`_finish`,
        so a killed attempt left no partial state behind.
        """
        pool = self._pool
        try:
            return pool.submit(fn, *args).result()
        except BrokenExecutor:
            self._rebuild_pool(pool)
            pool = self._pool
            try:
                return pool.submit(fn, *args).result()
            except BrokenExecutor:
                # Leave a healthy pool behind even when giving up on
                # this job; the caller records the failure.
                self._rebuild_pool(pool)
                raise

    @staticmethod
    def _fault_args() -> tuple | None:
        """The active fault injector's config, for pool-task hand-off.

        Workers started by forkserver/spawn snapshot the environment
        when the *start method* initializes, which may predate a test's
        ``install()`` — so every pool task carries the injector config
        explicitly (see
        :func:`repro.faults.injector.install_from_args`).
        """
        injector = active_faults()
        return injector.config_args() if injector is not None else None

    # -- request handling ---------------------------------------------

    def _request_scope(self):
        """A trace context for one request.

        The HTTP layer normally establishes the scope (resuming the
        client's ``X-Repro-Trace``); this makes direct
        :meth:`size_sync`/:meth:`size_async` callers traced too, and
        is a no-op when a scope is already active or tracing is off.
        """
        if not self.trace or current_trace() is not None:
            return nullcontext()
        return trace_scope(sink=self.trace_sink)

    def _admit(
        self, body: dict, client: str | None = None,
    ) -> tuple[JobRecord, JobOutcome | None]:
        """Validate + admit a request; replay it from cache if possible.

        Unlike a campaign (where an unresolvable circuit token becomes
        a failed job in the sweep), the service rejects it up front as
        a 400 — the requester is still on the line to hear about it.
        The cache probe runs *before* admission control: a replayed
        result consumes no worker, so warm traffic is never bounced by
        a full queue or an exhausted quota.
        """
        with span("service.admit"):
            job = build_job(body, self._netlist_dir)
            sha = self._netlist_sha(job.circuit)
            key = (
                None if self.cache is None else job_key(job, netlist_sha=sha)
            )
            with span("cache.probe") as probe_span:
                hit = probe_cache(job, key, self.cache)
                probe_span.set(hit=hit is not None)
            if hit is None:
                self.admission.admit(client, self.store.depth())
        trace_ref = None
        ctx = current_trace()
        if ctx is not None:
            if self.queue_path is not None and hit is None:
                # Allocate the job's lifecycle root span *here*, in the
                # submitting replica; the row carries trace_id-root_id
                # so whichever replica drains it parents queue-wait and
                # execution spans under this root — one trace end to
                # end across the fleet.
                trace_ref = format_trace_header(ctx.trace_id, new_span_id())
            else:
                trace_ref = ctx.trace_id
        record = self.store.create(job, key, client, trace=trace_ref)
        if hit is not None:
            self._m_cache_hits.inc()
            self.store.finish(record.id, hit)
        return record, hit

    def _netlist_sha(self, token: str) -> str:
        """Digest of a circuit token's netlist, memoized when immutable.

        Repeat requests must not pay a full netlist resolve+serialize
        before the cache probe, so digests are remembered for tokens
        whose content cannot change underneath the service: suite
        names, ``rca:N`` generators, and our own content-addressed
        spool files.  An arbitrary on-disk ``.bench`` path is
        re-hashed every time — the file may have been edited.
        """
        mutable = token.endswith(".bench") and not token.startswith(
            str(self._netlist_dir)
        )
        if not mutable:
            with self._lock:
                cached = self._digests.get(token)
            if cached is not None:
                return cached
        try:
            sha = netlist_digest(token)
        except ReproError as exc:
            raise ServiceError(
                f"cannot resolve circuit {token!r}: {exc}"
            ) from exc
        if not mutable:
            with self._lock:
                if len(self._digests) >= 4096:  # runaway-token backstop
                    self._digests.clear()
                self._digests[token] = sha
        return sha

    def _finish(
        self,
        record: JobRecord,
        outcome: JobOutcome,
        obs: dict | None = None,
    ) -> JobRecord:
        """Settle, account and publish one freshly executed outcome.

        :func:`~repro.runner.executor.settle` stamps the record's key
        and trace id, folds fault and warm-corpus telemetry, stores the
        result and appends the worker's spans to this replica's
        ``trace.jsonl``.  The counters here all go through the metrics
        registry — ``/v1/stats`` and ``/v1/metrics`` read the identical
        cells — and the spans also fold into the phase-seconds metrics.
        """
        outcome = settle(
            outcome,
            obs,
            self.cache,
            key=record.key,
            trace_id=record.trace_id,
            sink=self.trace_sink,
        )
        if self.trace_sink is not None:
            # An executed job's spans reach trace.jsonl before its
            # result is visible, so a trace read after the reply finds
            # them; only warm hits leave theirs to the sink's writer.
            self.trace_sink.flush()
        observe_spans(self.metrics, (obs or {}).get("spans"))
        self.admission.observe_drain(outcome.wall_seconds)
        self._m_executed.inc()
        self._m_finished.inc(status=outcome.status)
        self._m_job_seconds.observe(outcome.duration_s, kind=outcome.job.kind)
        if outcome.batch_size:
            self._m_batched.inc()
        for name, stats in (
            (outcome.payload or {}).get("flow_stats") or {}
        ).items():
            for field_name, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    self._m_flow.add(value, backend=name, field=field_name)
        return self.store.finish(record.id, outcome)

    def _execute(self, record: JobRecord, carrier: dict | None) -> JobRecord:
        """Run one record through :func:`pool_entry` and finish it."""
        try:
            outcome, obs = self._run_pooled(
                pool_entry, record.job, self.timeout, carrier,
                self.warm_corpus, self._fault_args(),
            )
        except Exception as exc:  # pool broke twice under this job
            outcome, obs = pool_failure(record.job, exc), None
        return self._finish(record, outcome, obs)

    def size_sync(self, body: dict, client: str | None = None) -> JobRecord:
        """Handle a synchronous ``/v1/size``: block until the job is done.

        Local mode: the calling (HTTP handler) thread waits on the
        shared pool, so concurrent synchronous requests are naturally
        bounded at ``jobs`` in-flight sizings.  Queue mode: the job
        enters the shared stream like any other and this thread waits
        for *whichever replica* drains it, up to ``sync_wait`` seconds
        — after which the still-unfinished record is returned and the
        HTTP layer degrades the reply to an async 202 ticket.
        """
        with self._request_scope():
            record, hit = self._admit(body, client)
            if hit is not None:
                return self.store.get(record.id)
            if self.queue_path is not None:
                return self._await_queued(record)
            self.store.mark_running(record.id)
            return self._execute(record, self._carrier())

    def _await_queued(self, record: JobRecord) -> JobRecord:
        """Wait (bounded) for the shared queue to finish a job."""
        deadline = time.monotonic() + self.sync_wait
        while not record.done:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            record = self.store.wait(record.id, record.status, remaining)
        return record

    def size_async(self, body: dict, client: str | None = None) -> JobRecord:
        """Handle ``/v1/size`` with ``async=true``: queue and return."""
        with self._request_scope():
            record, hit = self._admit(body, client)
            if hit is not None:
                return self.store.get(record.id)
            if self.queue_path is not None:
                # Queue mode: the row is already in the shared stream; a
                # drain worker (here or in another replica) will claim
                # it.
                return self.store.get(record.id)
            pool = self._pool
            future = pool.submit(
                pool_entry, record.job, self.timeout, self._carrier(),
                self.warm_corpus, self._fault_args(),
            )
        self.store.mark_running(record.id)

        def _done(done_future: Future) -> None:
            obs = None
            try:
                outcome, obs = done_future.result()
            except Exception as exc:  # worker died / pool broke under it
                if isinstance(exc, BrokenExecutor):
                    self._rebuild_pool(pool)
                outcome = pool_failure(record.job, exc)
            self._finish(record, outcome, obs)

        future.add_done_callback(_done)
        # Re-read through the store: a consistent snapshot, whether the
        # callback already ran or the job is still queued.
        return self.store.get(record.id)

    # -- queue drain (fleet mode) --------------------------------------

    def _carrier(self) -> dict | None:
        """The current trace carrier to ship across the pool boundary."""
        return current_carrier() if self.trace else None

    def _resume_trace(self, record: JobRecord) -> dict | None:
        """Resume a leased job's trace: parse its ref, emit queue-wait.

        The row's ``trace_id-root_span_id`` ref was allocated by the
        *submitting* replica; this (draining) replica parents all its
        spans under that root.  Returns the carrier to execute the job
        under (None without a trace).  The queue-wait span spans
        enqueue to lease on the wall clock (clamped at zero — the two
        ends may be observed by different hosts).
        """
        ref = record.trace if self.trace else None
        tid, _, root = (ref or "").partition("-")
        if not tid or not root:
            return None
        wait = span_record(
            tid,
            new_span_id(),
            root,
            "queue.wait",
            record.created_at,
            max(0.0, time.time() - record.created_at),
            {"job": record.id, "worker": self.worker_id},
        )
        observe_spans(self.metrics, [wait])
        if self.trace_sink is not None:
            self.trace_sink.emit(wait)
        return {"trace_id": tid, "parent_id": root}

    def _emit_root(
        self, record: JobRecord, finished: JobRecord, carrier: dict | None
    ) -> None:
        """Emit a queue-mode job's lifecycle root span, post-finish.

        The root covers enqueue → finish on the wall clock, so the
        queue-wait and execution children always sum to at most its
        duration (both are clamped the same way).
        """
        if carrier is None or self.trace_sink is None:
            return
        finished_at = finished.finished_at or time.time()
        self.trace_sink.emit(span_record(
            carrier["trace_id"],
            carrier["parent_id"],
            None,
            "job",
            record.created_at,
            max(0.0, finished_at - record.created_at),
            {
                "job": record.id,
                "label": record.job.label(),
                "status": finished.status,
                "cached": finished.cached,
                "worker": self.worker_id,
            },
        ))
        self.trace_sink.flush()

    def _drain_loop(self) -> None:
        """One drain worker: lease → probe → execute → publish, forever."""
        while not self._stop.is_set():
            if not self._drain_round():
                self._stop.wait(0.05)

    def _drain_round(self) -> bool:
        """One drain round; True when any work was claimed.

        Leases one record — or up to ``batch_drain`` records, fusing
        the batchable ones (grouped by
        :func:`~repro.runner.executor.batch_groups`) into stacked
        kernel calls.  Each group is *one* pool task, so a fleet
        replica amortizes pool round-trips exactly like ``campaign run
        --batch`` amortizes kernel invocations.  Everything else runs
        through :func:`pool_entry` as usual.

        Every leased job is re-probed against the cache first — another
        replica may have finished an identical job between enqueue and
        lease, and the probe also settles the benign race where a
        cache-hit row is leased before its submitter finishes it.
        """
        records: list[JobRecord] = []
        while len(records) < (self.batch_drain or 1):
            try:
                record = self.store.lease(self.worker_id)
            except Exception:  # noqa: BLE001 — a busy/locked DB must not
                record = None  # kill the drain thread; retry shortly
            if record is None:
                break
            records.append(record)
        if not records:
            return False
        live: list[tuple[JobRecord, dict | None]] = []
        for record in records:
            carrier = self._resume_trace(record)
            scope = (
                nullcontext()
                if carrier is None
                else trace_scope(
                    sink=self.trace_sink,
                    trace_id=carrier["trace_id"],
                    parent_id=carrier["parent_id"],
                )
            )
            with scope:
                with span("cache.probe") as probe_span:
                    hit = probe_cache(record.job, record.key, self.cache)
                    probe_span.set(hit=hit is not None)
            if hit is None:
                live.append((record, carrier))
                continue
            self._m_cache_hits.inc()
            finished = self.store.finish(record.id, hit)
            self._emit_root(record, finished, carrier)
        items = [
            (pos, record.job, record.key)
            for pos, (record, _carrier) in enumerate(live)
        ]
        groups, rest = batch_groups(items) if self.batch_drain else ([], items)
        for group in groups:
            members = [live[pos] for pos, _job, _key in group]
            try:
                pairs = self._run_pooled(
                    batch_entry,
                    [record.job for record, _carrier in members],
                    self.timeout,
                    [carrier for _record, carrier in members],
                    self._fault_args(),
                )
            except Exception as exc:  # pool broke twice under this batch
                pairs = [
                    (pool_failure(record.job, exc), None)
                    for record, _carrier in members
                ]
            fused = max(outcome.batch_size for outcome, _obs in pairs)
            if fused:
                # One sample per stacked solve, not one per member.
                self._m_batch_size.observe(fused)
            for (record, carrier), (outcome, obs) in zip(members, pairs):
                finished = self._finish(record, outcome, obs)
                self._emit_root(record, finished, carrier)
        for pos, _job, _key in rest:
            record, carrier = live[pos]
            self._emit_root(record, self._execute(record, carrier), carrier)
        return True

    def get_job(self, job_id: str) -> tuple[JobRecord, dict | None]:
        """A job record plus its full payload when one is available.

        The payload comes from process memory for jobs finished in this
        service lifetime, or from the result cache after a restart.  A
        ``lost`` job (in flight when a previous service died) is
        upgraded to its completed outcome here if its worker reached
        the cache write before the crash.
        """
        record = self.store.get(job_id)
        payload = record.payload
        if payload is None and record.key is not None and (
            record.status in ("ok", "infeasible", "lost")
        ):
            hit = probe_cache(record.job, record.key, self.cache)
            if hit is not None:
                payload = hit.payload
                if record.status == "lost":
                    record = self.store.finish(record.id, hit)
        return record, payload

    def list_jobs(
        self,
        status: str | None = None,
        limit: int = 50,
        after: str | None = None,
    ) -> tuple[list[JobRecord], str | None]:
        """Page through admitted jobs (``GET /v1/jobs``).

        ``status`` filters to one job status, ``limit`` caps the page
        (1–500), ``after`` is the cursor returned by the previous page.
        Fleet-wide when the store is a shared queue.
        """
        if status is not None and status not in JOB_STATUSES:
            raise ServiceError(
                f"unknown status filter {status!r}; "
                f"valid: {list(JOB_STATUSES)}"
            )
        if not 1 <= limit <= 500:
            raise ServiceError(
                f"limit must be between 1 and 500, got {limit}"
            )
        return self.store.list(status=status, limit=limit, after=after)

    def job_events(
        self, job_id: str, timeout: float = 30.0,
    ) -> Iterator[JobRecord]:
        """Yield a job's status snapshots as they change (long-poll).

        The first snapshot is immediate; subsequent ones arrive on
        status transitions.  The stream ends after the terminal
        snapshot, or silently at ``timeout`` — callers reconnect with
        whatever status they last saw.  Backed by a condition variable
        on the in-memory store and a short poll on the shared queue.
        """
        deadline = time.monotonic() + timeout
        record = self.store.get(job_id)
        while True:
            yield record
            if record.done:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            latest = self.store.wait(job_id, record.status, remaining)
            if latest.status == record.status and not latest.done:
                return  # deadline expired without a transition
            record = latest

    # -- discovery + introspection ------------------------------------

    def _cache_breaker(self):
        """The shared-tier circuit breaker, when the cache has one.

        Only the tiered backend carries a breaker (its shared L2 is
        the one dependency that can fail independently); every other
        configuration returns None.
        """
        backend = getattr(self.cache, "backend", None)
        return getattr(backend, "breaker", None)

    def health(self) -> dict:
        """Liveness + degradation snapshot for ``GET /v1/healthz``.

        ``status`` is ``"ok"`` or ``"degraded"``: degraded while the
        shared-cache circuit breaker is not closed (the replica is
        serving from its local tier only) or while the work queue has
        poison-parked jobs awaiting operator attention (``python -m
        repro queue inspect``).  Degraded is still HTTP 200 — the
        replica answers correctly, just without its full redundancy;
        load balancers key on ``status``, operators read ``reasons``.
        """
        reasons: list[str] = []
        breaker = self._cache_breaker()
        if breaker is not None and breaker.state != "closed":
            reasons.append(
                f"shared cache tier breaker {breaker.name!r} is "
                f"{breaker.state}; serving from the local tier only"
            )
        if isinstance(self.store, WorkQueue):
            poisoned = self.store.poisoned_count()
            if poisoned:
                reasons.append(
                    f"{poisoned} job(s) poison-parked in the dead-letter "
                    "queue; inspect/requeue with 'python -m repro queue'"
                )
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "workers": self.jobs,
            "mode": "queue" if self.queue_path is not None else "local",
        }

    def stats(self) -> dict:
        """Service counters for ``/v1/stats`` — a view over the registry.

        Every number here reads the same locked
        :class:`~repro.obs.metrics.MetricsRegistry` cells that
        ``/v1/metrics`` exposes, so the two endpoints can never
        disagree.  ``flow`` sums the per-job
        :class:`~repro.flow.registry.SolveStats` that each sizing
        collects under its own
        :func:`~repro.flow.registry.stats_scope` — per-request scoping
        first, aggregation second, so concurrent jobs never interleave
        counters.
        """
        flow: dict[str, dict] = {}
        for labels, value in self._m_flow.items():
            cell = flow.setdefault(labels["backend"], {})
            # SolveStats fields are ints (counts) or floats (supply);
            # restore int-ness lost to the float-valued gauge.
            cell[labels["field"]] = (
                int(value) if float(value).is_integer() else value
            )
        cache_hits = int(self._m_cache_hits.total())
        executed = int(self._m_executed.total())
        batched_jobs = int(self._m_batched.total())
        breaker = self._cache_breaker()
        injector = active_faults()
        return {
            "uptime_seconds": time.time() - self._started_at,
            "jobs": self.store.counts(),
            "cache_hits": cache_hits,
            "executed": executed,
            "batched_jobs": batched_jobs,
            "executor": {
                "workers": self.jobs,
                "kind": (
                    "thread"
                    if isinstance(self._pool, ThreadPoolExecutor)
                    else "process"
                ),
                "timeout": self.timeout,
                "batch_drain": self.batch_drain,
                "warm_corpus": self.warm_corpus,
            },
            "cache_dir": (
                str(self.cache.root) if self.cache is not None else None
            ),
            "cache_backend": (
                self.cache.describe() if self.cache is not None else None
            ),
            "queue": (
                {
                    "mode": "queue",
                    "depth": self.store.depth(),
                    "worker_id": self.worker_id,
                    "poisoned": self.store.poisoned_count(),
                    **self.store.describe(),
                }
                if self.queue_path is not None
                else {"mode": "local", "depth": self.store.depth()}
            ),
            "admission": self.admission.counters(),
            "warmstart": warmstart_counts(),
            "flow": flow,
            "breaker": breaker.snapshot() if breaker is not None else None,
            "faults": (
                {"spec": injector.spec, "injected": injector.counts()}
                if injector is not None
                else None
            ),
            "pool_rebuilds": int(self._m_pool_rebuilds.total()),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /v1/metrics``.

        Concatenates this service's registry with the process-global
        one (cache-backend probe counters register there, because the
        cache layer predates and outlives any one service instance);
        the family names are disjoint by construction.  Sampled gauges
        (queue depth) are refreshed at scrape time.
        """
        self._m_queue_depth.set(float(self.store.depth()))
        return self.metrics.expose() + get_registry().expose()

    def close(self) -> None:
        """Stop drain workers, then the pool (in-flight jobs finish first)."""
        self._stop.set()
        for thread in self._drainers:
            thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        if self.trace_sink is not None:
            self.trace_sink.close()
        if self.run_dir is None:
            # The spool directory was a mkdtemp this instance owns;
            # with a run_dir it belongs to the operator and persists.
            shutil.rmtree(self._netlist_dir, ignore_errors=True)
