"""Differential tests for the batched multi-circuit sizing kernels.

Every test here compares the batched execution path against the
single-instance authority it must reproduce *bit for bit*:

* :func:`repro.sizing.batch.solve_smp_batched` vs
  :func:`repro.sizing.kernels.solve_smp_blocked` — same sizes
  (``np.array_equal``, not approx), same sweep counts, same clamped
  sets, across every generator family (rca, multiplier, random logic,
  ISCAS), both sizing modes, ragged batches and batches with
  mid-batch infeasible (clamped) instances;
* ``run_campaign(batch=True)`` vs the per-job loop — same statuses and
  payloads (byte-identical after stripping wall-clock fields), with
  failure isolation: a bad circuit token, a poisoned stacked solve, or
  a per-job timeout fails (or degrades) alone while the rest of the
  batch completes;
* the JSONL run log and the result cache under batched execution —
  batch telemetry on the records, identical cached entries, and a
  replay that is pure cache hits;
* a queue-mode service replica draining with ``batch_drain``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuit.bench_io import save_bench
from repro.dag import build_sizing_dag
from repro.errors import SizingError
from repro.generators import build_circuit, ripple_carry_adder
from repro.generators.multipliers import array_multiplier
from repro.generators.random_logic import random_logic
from repro import runner
from repro.runner import RunLog, load_run, run_campaign
from repro.runner.spec import Job
from repro.sizing.batch import build_batched_smp_plan, solve_smp_batched
from repro.sizing.kernels import get_smp_plan, solve_smp_blocked
from repro.sizing.serialize import canonical_json, comparable_payload
from repro.tech import default_technology


def _instance(circuit, mode: str, spec: float):
    """(model, budgets, lower, upper, plan) for one W-phase instance."""
    from repro.circuit.mapping import is_primitive_circuit, map_to_primitives

    if mode == "transistor" and not is_primitive_circuit(circuit):
        circuit = map_to_primitives(circuit, suffix="")
    dag = build_sizing_dag(circuit, default_technology(), mode=mode)
    load = dag.delays(dag.min_sizes()) - dag.model.intrinsic
    budgets = dag.model.intrinsic + spec * load
    return dag.model, budgets, dag.lower, dag.upper, get_smp_plan(dag)


def _assert_bitwise_parity(instances):
    """Batched solve must equal each per-circuit blocked solve exactly."""
    models = [inst[0] for inst in instances]
    plan = build_batched_smp_plan(models, [inst[4] for inst in instances])
    batched = solve_smp_batched(
        models,
        [inst[1] for inst in instances],
        [inst[2] for inst in instances],
        [inst[3] for inst in instances],
        plan,
    )
    assert len(batched) == len(instances)
    for result, (model, budgets, lower, upper, single_plan) in zip(
        batched, instances
    ):
        solo = solve_smp_blocked(model, budgets, lower, upper, single_plan)
        assert result is not None
        assert np.array_equal(result.x, solo.x)  # bitwise, not approx
        assert result.sweeps == solo.sweeps
        assert result.clamped == solo.clamped


class TestBatchedKernel:
    """solve_smp_batched vs solve_smp_blocked, family by family."""

    @pytest.mark.parametrize("mode", ["gate", "transistor"])
    def test_all_families_bitwise_identical(self, mode):
        circuits = [
            build_circuit("c17"),
            ripple_carry_adder(6, style="nand"),
            array_multiplier(4),
            random_logic(120, n_inputs=12, n_outputs=6, seed=3),
        ]
        instances = [
            _instance(circuit, mode, spec)
            for circuit, spec in zip(circuits, (0.6, 0.7, 0.8, 0.9))
        ]
        _assert_bitwise_parity(instances)

    def test_ragged_batch(self):
        # Very different level depths: rca:64 has >100 levels, c17 a
        # handful — stacked levels must stay per-circuit aligned.
        instances = [
            _instance(ripple_carry_adder(64, style="nand"), "gate", 0.7),
            _instance(build_circuit("c17"), "gate", 0.8),
            _instance(ripple_carry_adder(2, style="nand"), "gate", 0.9),
        ]
        _assert_bitwise_parity(instances)

    def test_mid_batch_clamped_instance(self):
        # A very tight spec clamps (infeasible result); surrounding
        # feasible instances must be unaffected and the clamped one
        # must match its solo run exactly.
        instances = [
            _instance(build_circuit("c17"), "gate", 0.9),
            _instance(ripple_carry_adder(8, style="nand"), "gate", 0.05),
            _instance(ripple_carry_adder(4, style="nand"), "gate", 0.8),
        ]
        clamped_solo = solve_smp_blocked(*instances[1])
        assert clamped_solo.clamped, "spec 0.05 must clamp"
        _assert_bitwise_parity(instances)

    def test_same_circuit_many_specs(self):
        circuit = ripple_carry_adder(10, style="nand")
        instances = [
            _instance(circuit, "gate", spec)
            for spec in (0.55, 0.65, 0.75, 0.85, 0.95)
        ]
        _assert_bitwise_parity(instances)

    def test_bench_file_family(self, tmp_path):
        # Circuits round-tripped through on-disk .bench files (the
        # campaign's path-token family) batch like any other.
        paths = []
        for name, circuit in (
            ("mult", array_multiplier(3)),
            ("rand", random_logic(60, n_inputs=8, n_outputs=4, seed=11)),
        ):
            paths.append(save_bench(circuit, tmp_path / f"{name}.bench"))
        from repro.circuit import load_bench

        instances = [
            _instance(load_bench(path), "gate", spec)
            for path, spec in zip(paths, (0.7, 0.85))
        ]
        _assert_bitwise_parity(instances)

    def test_arity_mismatch_rejected(self):
        model, _, _, _, plan = _instance(build_circuit("c17"), "gate", 0.8)
        with pytest.raises(SizingError, match="one model per plan"):
            build_batched_smp_plan([model, model], [plan])

    def test_empty_batch(self):
        plan = build_batched_smp_plan([], [])
        assert solve_smp_batched([], [], [], [], plan) == []

    def test_nonconverged_slot_is_none_others_solve(self):
        # Transistor-mode relaxation is iterative (gate mode converges
        # in one backward pass), so sweep counts genuinely differ.
        fast = _instance(build_circuit("c17"), "transistor", 0.8)
        slow = _instance(
            ripple_carry_adder(8, style="nand"), "transistor", 0.6
        )
        fast_solo = solve_smp_blocked(*fast)
        slow_solo = solve_smp_blocked(*slow)
        assert fast_solo.sweeps < slow_solo.sweeps, "need separable sweeps"
        cap = slow_solo.sweeps - 1  # enough for c17, not for the adder
        models = [fast[0], slow[0]]
        plan = build_batched_smp_plan(models, [fast[4], slow[4]])
        results = solve_smp_batched(
            models,
            [fast[1], slow[1]],
            [fast[2], slow[2]],
            [fast[3], slow[3]],
            plan,
            max_sweeps=cap,
        )
        assert results[0] is not None
        assert results[0].sweeps == fast_solo.sweeps
        assert np.array_equal(results[0].x, fast_solo.x)
        assert results[1] is None


WPHASE_JOBS = [
    Job(circuit="c17", delay_spec=0.6, kind="wphase"),
    Job(circuit="c17", delay_spec=0.9, kind="wphase"),
    Job(circuit="rca:6", delay_spec=0.05, kind="wphase"),  # infeasible
    Job(circuit="rca:6", delay_spec=0.8, kind="wphase"),
    Job(circuit="rca:12", delay_spec=0.7, kind="wphase"),
]


def _payload_parity(a, b):
    assert a.status == b.status, (a.job, a.status, b.status)
    assert canonical_json(comparable_payload(a.payload)) == canonical_json(
        comparable_payload(b.payload)
    ), a.job
    if a.payload is not None:
        assert a.payload["sizes"] == b.payload["sizes"]
        assert a.payload["sweeps"] == b.payload["sweeps"]
        assert a.payload["clamped"] == b.payload["clamped"]


class TestCampaignBatch:
    """run_campaign(batch=True) vs the per-job loop."""

    def test_loop_and_batch_agree(self):
        loop = run_campaign(WPHASE_JOBS, cache=None)
        batched = run_campaign(WPHASE_JOBS, cache=None, batch=True)
        assert [o.status for o in loop.outcomes] == [
            "ok", "ok", "infeasible", "ok", "ok",
        ]
        for a, b in zip(loop.outcomes, batched.outcomes):
            _payload_parity(a, b)
            assert b.batch_size == len(WPHASE_JOBS)
            assert b.batched_seconds > 0.0
            assert a.batch_size == 0

    def test_sizing_jobs_are_never_batched(self):
        jobs = [Job(circuit="c17", delay_spec=0.5)]
        batched = run_campaign(jobs, cache=None, batch=True)
        assert batched.outcomes[0].status == "ok"
        assert batched.outcomes[0].batch_size == 0

    def test_mixed_kinds_split_into_group_and_rest(self):
        jobs = [
            Job(circuit="c17", delay_spec=0.8, kind="wphase"),
            Job(circuit="c17", delay_spec=0.5),
            Job(circuit="rca:4", delay_spec=0.8, kind="wphase"),
        ]
        batched = run_campaign(jobs, cache=None, batch=True)
        by_index = {o.index: o for o in batched.outcomes}
        assert by_index[0].batch_size == 2
        assert by_index[1].batch_size == 0
        assert by_index[2].batch_size == 2
        assert [by_index[i].status for i in range(3)] == ["ok", "ok", "ok"]

    def test_modes_group_separately(self):
        jobs = [
            Job(circuit="c17", delay_spec=0.8, kind="wphase", mode="gate"),
            Job(circuit="c17", delay_spec=0.8, kind="wphase",
                mode="transistor"),
        ]
        loop = run_campaign(jobs, cache=None)
        batched = run_campaign(jobs, cache=None, batch=True)
        for a, b in zip(loop.outcomes, batched.outcomes):
            _payload_parity(a, b)
            assert b.batch_size == 1


class TestFailureIsolation:
    """One bad job must not take its batch down."""

    def test_bad_token_fails_alone(self):
        jobs = [
            Job(circuit="c17", delay_spec=0.8, kind="wphase"),
            Job(circuit="no-such-circuit", delay_spec=0.8, kind="wphase"),
            Job(circuit="rca:4", delay_spec=0.8, kind="wphase"),
        ]
        loop = run_campaign(jobs, cache=None)
        batched = run_campaign(jobs, cache=None, batch=True)
        statuses = [o.status for o in batched.outcomes]
        assert statuses == ["ok", "failed", "ok"]
        by_index = {o.index: o for o in batched.outcomes}
        assert "no-such-circuit" in by_index[1].error
        assert by_index[1].batch_size == 0  # failed before the solve
        # The stacked solve fused the two survivors, not all three.
        assert by_index[0].batch_size == by_index[2].batch_size == 2
        for a, b in zip(loop.outcomes, batched.outcomes):
            _payload_parity(a, b)

    def test_poisoned_stacked_solve_degrades_to_per_job(self, monkeypatch):
        import repro.sizing.batch as batch_module

        def boom(*args, **kwargs):
            raise RuntimeError("stacked solve poisoned by test")

        monkeypatch.setattr(batch_module, "solve_smp_batched", boom)
        jobs = WPHASE_JOBS[:3]
        loop = run_campaign(jobs, cache=None)
        batched = run_campaign(jobs, cache=None, batch=True)
        for a, b in zip(loop.outcomes, batched.outcomes):
            _payload_parity(a, b)
            # Fallback outcomes are reported as unbatched.
            assert b.batch_size == 0
            assert b.batched_seconds == 0.0

    def test_timeout_hits_the_slow_job_alone(self, monkeypatch):
        import repro.runner.executor as executor

        real_context = executor._wphase_context

        def slow_for_rca12(job):
            if job.circuit == "rca:12":
                time.sleep(5.0)
            return real_context(job)

        monkeypatch.setattr(executor, "_wphase_context", slow_for_rca12)
        jobs = [
            Job(circuit="c17", delay_spec=0.8, kind="wphase"),
            Job(circuit="rca:12", delay_spec=0.8, kind="wphase"),
            Job(circuit="rca:4", delay_spec=0.8, kind="wphase"),
        ]
        batched = run_campaign(jobs, cache=None, batch=True, timeout=0.3)
        by_index = {o.index: o for o in batched.outcomes}
        assert by_index[1].status == "timeout"
        assert "budget" in by_index[1].error
        assert by_index[0].status == "ok"
        assert by_index[2].status == "ok"

    def test_nonconverged_instance_falls_back_alone(self, monkeypatch):
        # Force one slot to None: the batched solver reports the rest,
        # and the straggler replays through the per-job path (where it
        # raises the real non-convergence diagnostic).
        import repro.sizing.batch as batch_module

        real_solve = batch_module.solve_smp_batched

        def drop_last(models, budgets, lowers, uppers, plan, **kwargs):
            results = real_solve(
                models, budgets, lowers, uppers, plan, **kwargs
            )
            results[-1] = None
            return results

        monkeypatch.setattr(batch_module, "solve_smp_batched", drop_last)
        jobs = WPHASE_JOBS[:2] + [
            Job(circuit="rca:4", delay_spec=0.8, kind="wphase"),
        ]
        loop = run_campaign(jobs, cache=None)
        batched = run_campaign(jobs, cache=None, batch=True)
        for a, b in zip(loop.outcomes, batched.outcomes):
            _payload_parity(a, b)
        by_index = {o.index: o for o in batched.outcomes}
        assert by_index[0].batch_size == 3
        assert by_index[2].batch_size == 0  # served by the fallback


class TestBatchRunLogAndCache:
    """JSONL records and cache entries under batched execution."""

    def test_records_carry_batch_telemetry_and_replay_is_cached(
        self, tmp_path
    ):
        from repro.runner.cache import ResultCache
        from repro.runner.spec import CampaignSpec

        spec = CampaignSpec(
            name="batch-log",
            circuits=("c17", "rca:4"),
            delay_specs=(0.7, 0.9),
            kind="wphase",
        )
        cache = ResultCache(tmp_path / "cache")
        first = runner.run(
            spec, cache=cache, run_dir=tmp_path / "run", batch=True
        )
        assert all(o.status == "ok" for o in first.outcomes)
        assert all(o.batch_size == 4 for o in first.outcomes)

        state = load_run(tmp_path / "run")
        assert len(state.records) == 4
        for record in state.records.values():
            assert record["batch_size"] == 4
            assert record["batched_seconds"] > 0.0
            assert record["summary"]["feasible"] is True
            assert record["summary"]["sweeps"] >= 1

        # Replay: every job is a cache hit, reported unbatched, with
        # the byte-identical payload the batched run stored.
        second = runner.run(
            spec, cache=cache, run_dir=tmp_path / "run2", batch=True
        )
        for a, b in zip(first.outcomes, second.outcomes):
            assert b.cached and b.batch_size == 0
            assert canonical_json(a.payload) == canonical_json(b.payload)
        replay = load_run(tmp_path / "run2")
        for record in replay.records.values():
            assert record["cached"] is True
            assert "batch_size" not in record

    def test_batched_and_per_job_cache_entries_are_identical(self, tmp_path):
        from repro.runner.cache import ResultCache

        jobs = [Job(circuit="c17", delay_spec=0.8, kind="wphase"),
                Job(circuit="rca:4", delay_spec=0.8, kind="wphase")]
        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        run_campaign(jobs, cache=cache_a)
        run_campaign(jobs, cache=cache_b, batch=True)
        keys_a, keys_b = sorted(cache_a.scan()), sorted(cache_b.scan())
        assert keys_a == keys_b and len(keys_a) == 2
        for key in keys_a:
            assert canonical_json(
                comparable_payload(cache_a.get(key))
            ) == canonical_json(comparable_payload(cache_b.get(key)))

    def test_report_marks_batched_outcomes(self):
        from repro.runner import format_campaign
        from repro.runner.report import campaign_to_dict

        jobs = [Job(circuit="c17", delay_spec=0.8, kind="wphase"),
                Job(circuit="rca:4", delay_spec=0.8, kind="wphase")]
        result = run_campaign(jobs, cache=None, batch=True)
        text = format_campaign(result)
        assert "batch:2" in text
        digest = campaign_to_dict(result)
        assert [j["batch_size"] for j in digest["jobs"]] == [2, 2]

    def test_runlog_without_batch_omits_telemetry(self, tmp_path):
        log = RunLog(tmp_path)
        outcome = run_campaign(
            [Job(circuit="c17", delay_spec=0.8, kind="wphase")], cache=None
        ).outcomes[0]
        log.record(outcome)
        state_line = (tmp_path / "campaign.jsonl").read_text().strip()
        assert '"batch_size"' not in state_line


class TestServiceBatchDrain:
    """A queue-mode replica draining with batch_drain fuses wphase jobs."""

    def test_batched_drain_matches_direct_execution(self, tmp_path):
        from repro.runner.executor import execute_job
        from repro.service.app import SizingService

        service = SizingService(
            jobs=1,
            cache=tmp_path / "cache",
            run_dir=tmp_path / "run",
            queue=tmp_path / "q.db",
            batch_drain=8,
        )
        try:
            tickets = [
                service.size_async({
                    "circuit": "c17",
                    "delay_spec": spec,
                    "kind": "wphase",
                    "async": True,
                })
                for spec in (0.6, 0.8, 1.0)
            ]
            deadline = time.monotonic() + 60.0
            finished = []
            for ticket in tickets:
                record = ticket
                while not record.done and time.monotonic() < deadline:
                    record = service.store.wait(
                        record.id, record.status, 1.0
                    )
                finished.append(record)
            assert [r.status for r in finished] == ["ok", "ok", "ok"]
            for record in finished:
                _status, direct = execute_job(record.job)
                assert canonical_json(
                    comparable_payload(record.payload)
                ) == canonical_json(comparable_payload(direct))
            stats = service.stats()
            assert stats["executor"]["batch_drain"] == 8
            assert stats["batched_jobs"] >= 2
            # repro_batch_size takes one sample per stacked solve, so
            # its sum counts each batched job exactly once.
            sums = [
                float(line.rpartition(" ")[2])
                for line in service.metrics_text().splitlines()
                if line.startswith("repro_batch_size_sum")
            ]
            assert sums == [float(stats["batched_jobs"])]
        finally:
            service.close()

    def test_service_rejects_phases_kind(self, tmp_path):
        from repro.errors import ServiceError
        from repro.service.app import build_job

        with pytest.raises(ServiceError, match="'kind'"):
            build_job({"circuit": "c17", "kind": "phases"}, tmp_path)
        job = build_job({"circuit": "c17", "kind": "wphase"}, tmp_path)
        assert job.kind == "wphase"
