"""Chaos suite: seeded fault schedules over real campaigns and fleets.

The recovery oracle is the paper's own determinism: a run that survives
injected faults must produce payloads *byte-identical* (via
``canonical_json(comparable_payload(...))``) to a fault-free run of the
same jobs.  Three schedules are pinned:

1. worker kills mid-campaign (pool restarts + cache re-probe),
2. shared-cache I/O errors (breaker trips, service degrades to the
   local tier, then recovers),
3. queue lease/publish contention plus truncated HTTP responses across
   a two-replica fleet (retry policies absorb everything).

Plus the torn-write matrix: a truncated ``campaign.jsonl`` tail, a
crash between cache put and log append, and a torn SQLite queue row —
none may duplicate work, drop work, or corrupt a payload.
"""

import sqlite3
import threading

import pytest

from repro.errors import ServiceError
from repro.faults import CircuitBreaker, RetryPolicy
from repro.faults.injector import active, install, uninstall
from repro.runner import Job, ResultCache, load_run, resume, run, run_campaign
from repro.runner.spec import CampaignSpec
from repro.service import ServiceClient, SizingService, make_server
from repro.service.queue import WorkQueue
from repro.sizing.serialize import canonical_json, comparable_payload

JOBS = [
    Job("rca:6", 0.95),
    Job("rca:6", 0.90),
    Job("c17", 0.60),
    Job("c17", 0.70),
]


def _comparable(outcome) -> str:
    assert outcome.status in ("ok", "infeasible"), outcome.error
    return canonical_json(comparable_payload(outcome.payload))


def _comparable_payload(payload: dict) -> str:
    return canonical_json(comparable_payload(payload))


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    uninstall()
    yield
    uninstall()


@pytest.mark.slow
class TestWorkerKillSchedule:
    """Schedule 1: SIGKILL-equivalent worker deaths mid-campaign."""

    def test_campaign_survives_kills_byte_identical(self, tmp_path):
        baseline_cache = ResultCache(tmp_path / "baseline")
        baseline = run_campaign(JOBS, jobs=2, cache=baseline_cache)
        assert all(o.status == "ok" for o in baseline.outcomes)

        state = tmp_path / "faults"
        state.mkdir()
        # Rate 1.0: every worker entry dies until the fleet-wide cap
        # (two marker files in the shared state dir) is exhausted —
        # without the shared cap, every restarted worker would redraw
        # the same RNG stream and die forever.
        install("worker:kill@1*2", seed=11, state_dir=state, propagate=False)
        chaos_cache = ResultCache(tmp_path / "chaos")
        chaos = run_campaign(JOBS, jobs=2, cache=chaos_cache)

        assert len(list(state.glob("cap-worker.kill.*"))) == 2  # both fired
        for fault_free, survived in zip(baseline.outcomes, chaos.outcomes):
            assert _comparable(fault_free) == _comparable(survived)
        # The caches converged on identical entries under identical keys.
        assert sorted(baseline_cache.scan()) == sorted(chaos_cache.scan())
        for key in baseline_cache.scan():
            assert _comparable_payload(baseline_cache.get(key)) \
                == _comparable_payload(chaos_cache.get(key))


class TestCacheBreakerSchedule:
    """Schedule 2: shared-tier I/O errors trip the breaker; the service
    degrades to the local tier, reports it, and recovers."""

    def _service(self, tmp_path, name: str) -> SizingService:
        return SizingService(
            jobs=1,
            cache=f"tiered:{tmp_path / name / 'l1'},"
                  f"sqlite:{tmp_path / name / 'l2.db'}",
            run_dir=tmp_path / name / "run",
        )

    def test_breaker_trips_degrades_and_recovers(self, tmp_path):
        fault_free = self._service(tmp_path, "clean")
        chaotic = self._service(tmp_path, "chaos")
        tiered = chaotic.cache.backend
        # A manual clock: the reset timer elapses only when the test
        # says so, never because a cold solve happened to be slow.
        now = [0.0]
        tiered.breaker = CircuitBreaker(
            "cache.shared", failure_threshold=2, reset_timeout=0.05,
            clock=lambda: now[0],
        )
        tiered.retry = RetryPolicy(
            attempts=2, base_delay=0.001, jitter=0.0,
            retryable=(OSError, sqlite3.Error),
        )
        body_a = {"circuit": JOBS[0].circuit, "delay_spec": JOBS[0].delay_spec}
        body_b = {"circuit": JOBS[1].circuit, "delay_spec": JOBS[1].delay_spec}
        try:
            baseline = fault_free.size_sync(body_a)
            assert baseline.status == "ok"
            assert chaotic.health()["status"] == "ok"

            install("cache.get:io_error@1", seed=5, propagate=False)
            first = chaotic.size_sync(body_a)
            assert first.status == "ok"  # computed despite the outage
            assert tiered.breaker.state == "open"

            health = chaotic.health()
            assert health["status"] == "degraded"
            assert any("breaker" in reason for reason in health["reasons"])
            stats = chaotic.stats()
            assert stats["breaker"]["state"] == "open"
            assert stats["faults"]["injected"].get("cache.get:io_error", 0) > 0

            # The dependency recovers: the half-open re-probe closes the
            # breaker on the next shared-tier call.
            uninstall()
            now[0] += 0.06
            second = chaotic.size_sync(body_b)
            assert second.status == "ok"
            assert tiered.breaker.state == "closed"
            assert chaotic.health()["status"] == "ok"

            # Determinism held through the whole episode.
            assert _comparable_payload(first.payload) \
                == _comparable_payload(baseline.payload)
            clean_second = fault_free.size_sync(body_b)
            assert _comparable_payload(second.payload) \
                == _comparable_payload(clean_second.payload)
        finally:
            fault_free.close()
            chaotic.close()


@pytest.mark.slow
class TestFleetContentionSchedule:
    """Schedule 3: queue busy-errors + truncated HTTP responses over a
    two-replica fleet; retry policies absorb both."""

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

    def test_fleet_completes_under_contention(self, fleet, tmp_path):
        (_, _, client_a), (_, _, client_b) = fleet
        baseline_cache = ResultCache(tmp_path / "baseline")
        baseline = run_campaign(JOBS[:2], cache=baseline_cache)

        # Capped rather than probabilistic: every fire is guaranteed to
        # happen (no vacuous pass) and every retry budget is guaranteed
        # to cover the worst-case burst (3 busy-errors < 4 attempts of
        # the queue policy; 2 truncations < 3 attempts of the client's).
        install(
            "queue.lease:busy@1*3;queue.publish:busy@1*2;"
            "http.response:truncate@1*2",
            seed=23,
            propagate=False,
        )
        replies = [
            client_a.size(circuit=JOBS[0].circuit, delay_spec=JOBS[0].delay_spec),
            client_b.size(circuit=JOBS[1].circuit, delay_spec=JOBS[1].delay_spec),
        ]
        injected = active().counts()
        uninstall()

        assert all(reply["status"] == "ok" for reply in replies)
        # The schedule genuinely fired (not a vacuous pass): both the
        # queue contention and the response truncation happened.
        assert injected["http.response:truncate"] == 2
        assert injected["queue.lease:busy"] + injected["queue.publish:busy"] > 0
        for reply, fault_free in zip(replies, baseline.outcomes):
            assert _comparable_payload(reply["payload"]) \
                == _comparable(fault_free)
        # Cross-replica read of a job answered under faults is intact.
        seen = client_b.job(replies[0]["id"])
        assert seen["status"] == "ok"


class TestExactReplay:
    """The same spec + seed replays the exact fire schedule — the
    property every other chaos test leans on."""

    def test_two_installs_fire_identically(self, tmp_path):
        counts = []
        for _ in range(2):
            install("solver:delay=0.0@0.5", seed=42, propagate=False)
            cache = ResultCache(tmp_path / f"run{len(counts)}")
            result = run_campaign(JOBS[:2], cache=cache)  # jobs=1: inline
            assert all(o.status == "ok" for o in result.outcomes)
            counts.append(active().counts())
            uninstall()
        assert counts[0] == counts[1]
        assert counts[0]["solver:delay"] > 0  # the schedule was live


class TestTornWrites:
    """Crash-consistency: torn artifacts are skipped or quarantined,
    never duplicated, dropped, or served as truth."""

    def _spec(self):
        return CampaignSpec(
            name="torn", circuits=("rca:6",), delay_specs=(0.95, 0.9)
        )

    def test_truncated_log_tail_resumes_from_cache(self, tmp_path):
        run_dir = tmp_path / "run"
        cache_dir = tmp_path / "cache"
        first = run(self._spec(), cache=cache_dir, run_dir=run_dir)
        assert all(o.status == "ok" for o in first.outcomes)

        log = run_dir / "campaign.jsonl"
        torn = log.read_bytes()[:-20]  # knife through the last record
        log.write_bytes(torn)
        state = load_run(run_dir)
        assert state.counts()["ok"] == 1  # the torn record is ignored

        second = resume(run_dir, cache=cache_dir)
        # Every job replays from the cache: the torn log costs a probe,
        # never a recompute, and payloads stay byte-identical.
        assert all(o.cached for o in second.outcomes)
        for a, b in zip(first.outcomes, second.outcomes):
            assert _comparable(a) == _comparable(b)

    def test_crash_between_cache_put_and_log_append(self, tmp_path):
        # Simulate a worker killed after the cache write landed but
        # before the run log recorded the outcome: drop the log's last
        # record entirely (the cache entry survives).
        run_dir = tmp_path / "run"
        cache_dir = tmp_path / "cache"
        first = run(self._spec(), cache=cache_dir, run_dir=run_dir)

        log = run_dir / "campaign.jsonl"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n")

        second = resume(run_dir, cache=cache_dir)
        assert all(o.cached for o in second.outcomes)
        for a, b in zip(first.outcomes, second.outcomes):
            assert _comparable(a) == _comparable(b)
        # The re-run appended exactly one fresh record for the lost job.
        assert load_run(run_dir).counts()["ok"] == 2

    def test_torn_queue_row_neither_duplicates_nor_drops(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db")
        before = queue.create(JOBS[0], key=None)
        torn = queue.create(JOBS[1], key=None)
        after = queue.create(JOBS[2], key=None)
        with queue._connect() as conn:  # tear the middle row's payload
            conn.execute(
                "UPDATE jobs SET job = ? WHERE id = ?",
                ('{"circuit": "rca:6", "delay_sp', torn.id),
            )

        leased = [queue.lease("w"), queue.lease("w")]
        assert [r.id for r in leased] == [before.id, after.id]
        assert queue.lease("w") is None  # torn row is not re-leased

        # Quarantined, visible, and refused — not silently gone.
        parked = queue.failed_jobs()
        assert [row["id"] for row in parked] == [torn.id]
        assert "torn" in parked[0]["error"]
        listed, _ = queue.list(limit=10)
        assert torn.id not in [r.id for r in listed]
        with pytest.raises(ServiceError) as err:
            queue.requeue(torn.id)
        assert err.value.status == 400
