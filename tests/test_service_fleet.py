"""Tests for the fleet-shaped service tier: durable work queue,
admission control, the v2 wire envelope, and multi-replica serving."""

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.runner import Job, execute_job
from repro.runner.executor import _EXECUTORS, JobOutcome
from repro.service import ServiceClient, SizingService, make_server
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.queue import MAX_ATTEMPTS, WorkQueue
from repro.service.server import WIRE_SCHEMA
from repro.sizing.serialize import canonical_json

JOB = Job(circuit="c17", delay_spec=0.6)


def _outcome(job, status="ok", payload=None, error=None):
    return JobOutcome(
        index=0, job=job, key=None, status=status, cached=False,
        wall_seconds=0.01, payload=payload, error=error,
    )


class TestWorkQueue:
    def test_enqueue_lease_finish_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db")
        record = queue.create(JOB, key="k1", client="alice")
        assert record.status == "queued" and record.id == "j000001"
        assert queue.depth() == 1

        leased = queue.lease("worker-a")
        assert leased.id == record.id and leased.status == "running"
        assert queue.depth() == 1  # running still counts against depth

        done = queue.finish(record.id, _outcome(JOB, payload={"n": 1}))
        assert done.status == "ok" and done.payload == {"n": 1}
        assert queue.depth() == 0
        assert queue.counts() == {"ok": 1}
        # The payload is durable in the row: a fresh connection (another
        # replica) reads it back without any cache.
        other = WorkQueue(tmp_path / "q.db")
        assert other.get(record.id).payload == {"n": 1}

    def test_lease_is_exclusive_and_ordered(self, tmp_path):
        queue_a = WorkQueue(tmp_path / "q.db")
        queue_b = WorkQueue(tmp_path / "q.db")
        ids = [queue_a.create(JOB, key=None).id for _ in range(3)]
        claims = [
            queue_a.lease("a"), queue_b.lease("b"), queue_a.lease("a"),
        ]
        assert [c.id for c in claims] == ids  # oldest first, no repeats
        assert queue_b.lease("b") is None  # nothing left to claim

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", visibility_timeout=0.05)
        record = queue.create(JOB, key=None)
        first = queue.lease("dead-replica")
        assert first.id == record.id
        time.sleep(0.1)
        second = WorkQueue(
            tmp_path / "q.db", visibility_timeout=0.05
        ).lease("survivor")
        assert second.id == record.id
        assert second.status == "running"

    def test_poison_job_fails_permanently(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", visibility_timeout=0.01)
        record = queue.create(JOB, key=None)
        for _ in range(MAX_ATTEMPTS):
            assert queue.lease("crashy").id == record.id
            time.sleep(0.03)  # lease expires; worker "died"
        assert queue.lease("crashy") is None
        final = queue.get(record.id)
        assert final.status == "failed"
        assert "permanently" in final.error

    def test_wait_sees_cross_connection_finish(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db")
        record = queue.create(JOB, key=None)

        def _finish_later():
            time.sleep(0.1)
            WorkQueue(tmp_path / "q.db").finish(record.id, _outcome(JOB))

        threading.Thread(target=_finish_later, daemon=True).start()
        seen = queue.wait(record.id, "queued", timeout=5.0)
        assert seen.status == "ok"

    def test_list_paginates_with_cursor(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db")
        ids = [queue.create(JOB, key=None).id for _ in range(5)]
        queue.finish(ids[0], _outcome(JOB))

        page, cursor = queue.list(limit=2)
        assert [r.id for r in page] == ids[:2] and cursor == ids[1]
        rest, end = queue.list(limit=10, after=cursor)
        assert [r.id for r in rest] == ids[2:] and end is None
        only_ok, _ = queue.list(status="ok")
        assert [r.id for r in only_ok] == [ids[0]]
        with pytest.raises(ServiceError) as err:
            queue.list(after="j999999")
        assert err.value.status == 400


class TestAdmission:
    def test_token_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.consume() == 0.0
        assert bucket.consume() == 0.0
        wait = bucket.consume()
        assert wait == pytest.approx(1.0)
        now[0] += wait
        assert bucket.consume() == 0.0

    def test_depth_bound_rejects_with_drain_estimate(self):
        control = AdmissionController(max_queue_depth=3)
        control.observe_drain(4.0)
        control.admit("alice", depth=2)  # under the bound: fine
        with pytest.raises(ServiceError) as err:
            control.admit("alice", depth=3)
        assert err.value.status == 429
        assert err.value.retry_after == pytest.approx(4.0)
        assert control.counters()["rejected_depth"] == 1

    def test_quota_is_per_client(self):
        control = AdmissionController(quota_rate=0.001, quota_burst=1.0)
        control.admit("alice", depth=0)
        with pytest.raises(ServiceError) as err:
            control.admit("alice", depth=0)
        assert err.value.status == 429 and err.value.retry_after > 0
        control.admit("bob", depth=0)  # a different client is unaffected
        assert control.counters()["rejected_quota"] == 1


class TestWireEnvelope:
    @pytest.fixture()
    def live(self, tmp_path):
        service = SizingService(
            jobs=1, cache=tmp_path / "cache", run_dir=tmp_path / "run",
            quota_rate=0.001, quota_burst=2.0,
        )
        server = make_server(service, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.shutdown()
        server.server_close()
        service.close()

    def _raw(self, server, method, path, body=None):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            payload = json.dumps(body).encode() if body else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), json.loads(
                resp.read()
            )
        finally:
            conn.close()

    def test_success_envelope_has_no_v1_mirror(self, live):
        status, _, reply = self._raw(live, "GET", "/v1/healthz")
        assert status == 200
        assert reply["schema"] == WIRE_SCHEMA == "repro.service/3"
        assert reply["data"]["status"] == "ok"
        # /3 dropped the /1 shim that mirrored data fields at top level.
        assert set(reply) == {"schema", "data"}

    def test_every_v1_endpoint_wears_the_envelope(self, live):
        for path in ("/v1/healthz", "/v1/circuits", "/v1/stats",
                     "/v1/jobs"):
            status, _, reply = self._raw(live, "GET", path)
            assert status == 200, path
            assert reply["schema"] == WIRE_SCHEMA, path
            assert isinstance(reply["data"], dict), path
        status, _, reply = self._raw(
            live, "POST", "/v1/size",
            {"circuit": "c17", "delay_spec": 0.6},
        )
        assert status == 200
        assert reply["data"]["status"] == "ok"
        assert "status" not in reply  # no /1 mirror

    def test_error_envelope_is_structured(self, live):
        status, _, reply = self._raw(live, "GET", "/v1/jobs/j999999")
        assert status == 404
        assert reply["schema"] == WIRE_SCHEMA
        assert reply["error"]["status"] == 404
        assert "data" not in reply

    def test_429_carries_retry_after_and_depth_headers(self, live):
        body = {"circuit": "c17", "delay_spec": 0.61, "async": True}
        # Exhaust the 2-token burst (quota_rate is ~zero refill); every
        # request must still get a structured answer, never a hang.
        replies = [
            self._raw(live, "POST", "/v1/size",
                      dict(body, delay_spec=0.61 + i / 100))
            for i in range(4)
        ]
        rejected = [r for r in replies if r[0] == 429]
        assert rejected, "flood past the burst must produce 429s"
        for status, headers, reply in rejected:
            assert reply["error"]["status"] == 429
            assert reply["error"]["retry_after"] > 0
            assert int(headers["Retry-After"]) >= 1
            assert int(headers["X-Repro-Queue-Depth"]) >= 0

    def test_client_retries_429_honoring_retry_after(self, live):
        host, port = live.server_address[:2]
        # quota_rate≈0 means Retry-After is huge; retries=0 must surface
        # the 429 as-is for callers that do their own pacing.
        with ServiceClient(
            f"http://{host}:{port}", client_id="greedy", retries=0,
        ) as client:
            seen = []
            for i in range(4):
                try:
                    client.submit(circuit="c17", delay_spec=0.71 + i / 100)
                    seen.append("ok")
                except ServiceError as exc:
                    assert exc.status == 429
                    assert exc.retry_after and exc.retry_after > 0
                    seen.append("429")
            assert "429" in seen


class TestQueueModeService:
    """One in-process replica in queue mode (drain threads active)."""

    @pytest.fixture()
    def box(self, tmp_path):
        service = SizingService(
            jobs=1, cache=tmp_path / "cache", run_dir=tmp_path / "run",
            queue=tmp_path / "q.db",
        )
        server = make_server(service, quiet=True)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://{host}:{port}")
        yield service, client
        server.shutdown()
        server.server_close()
        service.close()

    def test_sync_request_round_trips_through_the_queue(self, box):
        service, client = box
        reply = client.size(circuit="c17", delay_spec=0.6)
        assert reply["status"] == "ok"
        _, payload = execute_job(JOB)
        assert reply["payload"]["result"]["x"] == payload["result"]["x"]
        stats = client.stats()
        assert stats["queue"]["mode"] == "queue"
        assert stats["queue"]["depth"] == 0

    def test_async_job_is_drained_by_the_worker(self, box):
        _, client = box
        ticket = client.submit(circuit="c17", delay_spec=0.8)
        done = client.wait(ticket["id"], timeout=60)
        assert done["status"] == "ok"
        assert done["payload"]["result"]["area"] > 0

    def test_events_stream_ends_on_terminal_snapshot(self, box):
        _, client = box
        ticket = client.submit(circuit="c17", delay_spec=0.9)
        statuses = [e["status"] for e in client.events(ticket["id"],
                                                       timeout=30)]
        assert statuses, "stream must yield at least one snapshot"
        assert statuses[-1] in ("ok", "infeasible", "failed", "timeout")
        with pytest.raises(ServiceError) as err:
            list(client.events("j999999"))
        assert err.value.status == 404

    def test_sync_wait_deadline_degrades_to_202(self, tmp_path,
                                                monkeypatch):
        release = threading.Event()
        original = _EXECUTORS["sizing"]

        def stall(job):
            release.wait(30)
            return original(job)

        monkeypatch.setitem(_EXECUTORS, "sizing", stall)
        service = SizingService(
            jobs=1, cache=None, run_dir=tmp_path / "run",
            queue=tmp_path / "q.db", sync_wait=0.2,
        )
        server = make_server(service, quiet=True)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                data, status = client._request(
                    "POST", "/v1/size",
                    {"circuit": "c17", "delay_spec": 0.6},
                )
                assert status == 202
                assert data["status"] in ("queued", "running")
                release.set()
                done = client.wait(data["id"], timeout=60)
                assert done["status"] == "ok"
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close()


class TestTwoReplicas:
    """Two in-process services sharing one queue + one sqlite cache."""

    @pytest.fixture()
    def fleet(self, tmp_path):
        boxes = []
        for name in ("a", "b"):
            service = SizingService(
                jobs=1,
                cache=f"sqlite:{tmp_path / 'cache.db'}",
                run_dir=tmp_path / f"run-{name}",
                queue=tmp_path / "q.db",
            )
            server = make_server(service, quiet=True)
            host, port = server.server_address[:2]
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            boxes.append(
                (service, server, ServiceClient(f"http://{host}:{port}"))
            )
        yield boxes
        for service, server, _ in boxes:
            server.shutdown()
            server.server_close()
            service.close()

    def test_any_replica_answers_for_any_job(self, fleet):
        (_, _, client_a), (_, _, client_b) = fleet
        reply = client_a.size(circuit="c17", delay_spec=0.6)
        assert reply["status"] == "ok"
        # The other replica serves the same job id from the shared row.
        seen_from_b = client_b.job(reply["id"])
        assert seen_from_b["status"] == "ok"
        assert seen_from_b["summary"] == reply["summary"]

    def test_cross_replica_cache_hit_is_byte_identical(self, fleet):
        (_, _, client_a), (_, _, client_b) = fleet
        first = client_a.size(circuit="c17", delay_spec=0.7)
        assert not first["cached"]
        second = client_b.size(circuit="c17", delay_spec=0.7)
        assert second["cached"]
        assert canonical_json(second["payload"]) == canonical_json(
            first["payload"]
        )


@pytest.mark.slow
class TestMultiProcessServe:
    """The acceptance scenario: two real ``python -m repro serve``
    processes on one shared backend + queue."""

    @pytest.fixture()
    def fleet(self, tmp_path):
        procs, clients = [], []
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            PYTHONUNBUFFERED="1",
        )
        try:
            for name in ("a", "b"):
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve",
                        "--port", "0", "--jobs", "1",
                        "--queue", str(tmp_path / "q.db"),
                        "--cache-backend",
                        f"sqlite:{tmp_path / 'cache.db'}",
                        "--run-dir", str(tmp_path / f"run-{name}"),
                        "--quota", "0.001", "--quota-burst", "3",
                    ],
                    env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                )
                procs.append(proc)
                deadline = time.monotonic() + 60
                while True:
                    line = proc.stdout.readline()
                    if "listening on http://" in line:
                        url = line.split("listening on ")[1].split()[0]
                        break
                    if time.monotonic() > deadline or not line:
                        raise AssertionError(
                            f"serve replica {name} never came up"
                        )
                clients.append(ServiceClient(url, client_id=f"tester-{name}",
                                             retries=0))
            yield clients
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)

    def test_fleet_parity_cross_hit_and_backpressure(self, fleet):
        client_a, client_b = fleet

        # 1. A result computed by replica A matches the single-process
        #    execution path on every deterministic field (timings in
        #    the payload are wall-clock noise by design).
        reply = client_a.size(circuit="c17", delay_spec=0.6)
        assert reply["status"] == "ok" and not reply["cached"]
        _, payload = execute_job(JOB)
        for field in ("x", "area", "critical_path_delay", "converged"):
            assert reply["payload"]["result"][field] == (
                payload["result"][field]
            ), field

        # 2. Replica B serves the identical request as a cache hit from
        #    the shared backend — byte-identical payload.
        again = client_b.size(circuit="c17", delay_spec=0.6)
        assert again["cached"]
        assert canonical_json(again["payload"]) == canonical_json(
            reply["payload"]
        )

        # 3. Replica B answers for the job replica A executed.
        assert client_b.job(reply["id"])["status"] == "ok"

        # 4. Flood one client past its admission burst: every request
        #    is answered — a ticket or a structured 429 — never a hang.
        outcomes = {"admitted": 0, "rejected": 0}
        for i in range(8):
            try:
                client_b.submit(circuit="c17", delay_spec=0.61 + i / 100)
                outcomes["admitted"] += 1
            except ServiceError as exc:
                assert exc.status == 429
                assert exc.retry_after and exc.retry_after > 0
                outcomes["rejected"] += 1
        assert outcomes["rejected"] >= 1
        assert outcomes["admitted"] + outcomes["rejected"] == 8


def _fleet_spans(tmp_path, trace_id=None, expect=frozenset(), timeout=5.0):
    """Every span record from both replicas' trace.jsonl files.

    The server writes its ``http.request`` span *after* the response
    bytes reach the client, so when ``expect`` names are given, poll
    briefly until they all appear under ``trace_id``.
    """
    deadline = time.monotonic() + timeout
    while True:
        spans = []
        for name in ("a", "b"):
            path = tmp_path / f"run-{name}" / "trace.jsonl"
            if path.is_file():
                spans.extend(
                    json.loads(line)
                    for line in path.read_text().splitlines() if line
                )
        if trace_id is not None:
            spans = [s for s in spans if s["trace"] == trace_id]
        if expect <= {s["name"] for s in spans}:
            return spans
        if time.monotonic() > deadline:
            return spans
        time.sleep(0.05)


_EXPOSITION_LINE = (
    r"[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9+.eE-]+(Inf)?$"                # value
)


def _parse_exposition(text):
    """Validate Prometheus text exposition; return ``{series: value}``."""
    import re

    series = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        assert re.fullmatch(_EXPOSITION_LINE, line), line
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


@pytest.mark.slow
class TestFleetObservability:
    """The tentpole acceptance path: one trace id across two replicas,
    and /v1/metrics as an exact view over the run."""

    @pytest.fixture()
    def fleet(self, tmp_path):
        boxes = []
        for name in ("a", "b"):
            service = SizingService(
                jobs=1,
                cache=f"sqlite:{tmp_path / 'cache.db'}",
                run_dir=tmp_path / f"run-{name}",
                queue=tmp_path / "q.db",
            )
            server = make_server(service, quiet=True)
            host, port = server.server_address[:2]
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            boxes.append(
                (service, server, ServiceClient(f"http://{host}:{port}"))
            )
        yield boxes
        for service, server, _ in boxes:
            server.shutdown()
            server.server_close()
            service.close()

    def test_one_trace_id_covers_the_whole_queue_lifecycle(
        self, fleet, tmp_path,
    ):
        (_, _, client_a), _ = fleet
        tid = "feedc0de00000001"
        client_a.trace_id = tid
        reply = client_a.size(circuit="c17", delay_spec=0.6)
        assert reply["status"] == "ok"
        assert reply["trace_id"] == tid

        # HTTP handling, admission, queue wait, cache probe, execution
        # and every solver phase — one trace id end to end.
        expected = {
            "http.request", "service.admit", "queue.wait", "cache.probe",
            "job", "job.execute", "minflo.d_phase", "minflo.w_phase",
        }
        spans = _fleet_spans(tmp_path, trace_id=tid, expect=expected)
        names = {s["name"] for s in spans}
        assert expected <= names, names

        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["name"] == "job"]
        assert len(roots) == 1
        root = roots[0]
        assert root["parent"] is None
        children = [s for s in spans if s["parent"] == root["id"]]
        child_names = {s["name"] for s in children}
        assert {"queue.wait", "job.execute"} <= child_names
        # Children never account for more time than their parent span
        # (small epsilon: the root mixes wall-clock ends observed on
        # one host with monotonic child durations).
        assert sum(s["duration_s"] for s in children) <= (
            root["duration_s"] + 0.05
        )
        # Solver-phase spans re-parent correctly through the pool
        # boundary: every span's parent exists in the same trace (or is
        # the root itself).
        for s in spans:
            if s["parent"] is not None and s["name"] != "http.request":
                assert s["parent"] in by_id, s

    def test_trace_cli_renders_the_fleet_trace(self, fleet, tmp_path):
        (_, _, client_a), _ = fleet
        tid = "feedc0de00000002"
        client_a.trace_id = tid
        assert client_a.size(circuit="c17", delay_spec=0.62)["status"] == "ok"
        files = [
            str(tmp_path / f"run-{n}" / "trace.jsonl") for n in ("a", "b")
            if (tmp_path / f"run-{n}" / "trace.jsonl").is_file()
        ]
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro", "trace", tid]
            + [arg for f in files for arg in ("--file", f)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert tid in out.stdout
        assert "job.execute" in out.stdout
        assert "critical path:" in out.stdout

    def test_metrics_exposition_matches_the_run_exactly(self, fleet):
        (service_a, _, client_a), (service_b, _, client_b) = fleet
        first = client_a.size(circuit="c17", delay_spec=0.64)
        assert first["status"] == "ok" and not first["cached"]
        second = client_b.size(circuit="c17", delay_spec=0.64)
        assert second["cached"]

        # Scrape both replicas; counters are per-replica, the run's
        # totals are their sum.
        text_a, text_b = client_a.metrics(), client_b.metrics()
        series_a = _parse_exposition(text_a)
        series_b = _parse_exposition(text_b)
        stats_a, stats_b = client_a.stats(), client_b.stats()

        for series, stats in (
            (series_a, stats_a), (series_b, stats_b),
        ):
            assert series.get("repro_cache_hits_total", 0.0) == (
                stats["cache_hits"]
            )
            assert series.get("repro_jobs_executed_total", 0.0) == (
                stats["executed"]
            )
            assert series["repro_queue_depth"] == stats["queue"]["depth"]
        # Exactly one execution and one replayed hit across the fleet.
        executed = sum(
            s.get("repro_jobs_executed_total", 0.0)
            for s in (series_a, series_b)
        )
        hits = sum(
            s.get("repro_cache_hits_total", 0.0)
            for s in (series_a, series_b)
        )
        assert executed == 1.0
        assert hits == 1.0
        # The drain-side phase counters account the worker's time.
        executor = service_a if series_a.get(
            "repro_jobs_executed_total", 0.0
        ) else service_b
        exec_text = executor.metrics_text()
        assert 'repro_phase_seconds_total{phase="minflo.d_phase"}' in (
            exec_text
        )
        # Cache-backend probes land in the process-global registry and
        # ride along in the same exposition.
        assert "repro_cache_probe_total" in exec_text

    def test_stats_stays_consistent_under_concurrent_drains(self, fleet):
        """Hammer /v1/stats and /v1/metrics while both replicas drain:
        no torn counters, and the final totals add up exactly."""
        (service_a, _, client_a), (service_b, _, client_b) = fleet
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                try:
                    for service in (service_a, service_b):
                        stats = service.stats()
                        assert stats["executed"] >= 0
                        _parse_exposition(service.metrics_text())
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        tickets = [
            client_a.submit(circuit="rca:4", delay_spec=1.2 + i / 50)
            for i in range(4)
        ]
        for ticket in tickets:
            client_b.wait(ticket["id"], timeout=120.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not failures, failures[0]
        executed = (
            service_a.stats()["executed"] + service_b.stats()["executed"]
        )
        hits = (
            service_a.stats()["cache_hits"]
            + service_b.stats()["cache_hits"]
        )
        assert executed + hits == len(tickets)
