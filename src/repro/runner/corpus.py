"""Warm-start corpus: nearest-neighbor retrieval over the result cache.

The content-addressed cache only pays off on *exact* repeats; realistic
traffic is dominated by near-repeats — the same circuit re-sized at a
drifted delay target.  This module turns the existing cache (any
backend: ``disk:`` / ``sqlite:`` / ``tiered:``) into a retrieval
corpus: every executed sizing/W-phase job stores a small *warm record*
next to its payload (:meth:`repro.runner.cache.ResultCache.put`), and
on a cache miss the nearest prior record by
:func:`repro.sizing.fingerprint.fingerprint_distance` seeds the solve.

Exactness contract: the corpus only *suggests*; the solver-side hooks
(:func:`repro.sizing.tilos.tilos_size` trajectory replay,
:func:`repro.sizing.wphase.w_phase` dominated-budget seeding) each
carry their own divergence monitor and fall back to a cold start on
any mismatch, so final sizes are bitwise-identical to cold-start runs
whether or not a donor was found.  A record that fails validation
(version, checksum, shape) is quarantined the way PR 6 treats corrupt
cache entries — stripped from the entry so it cannot poison later
probes — while the payload it rode with stays intact.

Telemetry: every probed job reports ``warm_{hit,seeded,fallback}``
(JobOutcome / queue records), and :func:`record_warm_outcome` folds
the per-job outcome into the process-global
``repro_warmstart_total{result}`` counter on the parent side (worker
registries never ship back; the obs dict does).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import numpy as np

from repro.obs.metrics import get_registry
from repro.runner.cache import ResultCache
from repro.sizing.fingerprint import (
    FINGERPRINT_VERSION,
    dag_digest,
    dag_features,
    fingerprint_distance,
)
from repro.sizing.serialize import canonical_json

__all__ = [
    "WARM_RECORD_VERSION",
    "WarmCorpus",
    "WarmSession",
    "record_checksum",
    "record_warm_outcome",
    "tech_digest",
    "validate_record",
    "verify_record",
    "warmstart_counts",
]

#: Version of the warm-record layout; rows recorded under any other
#: version are quarantined rather than interpreted.
WARM_RECORD_VERSION = 1

#: Job kinds that record and consume warm records.
_WARM_KINDS = ("sizing", "wphase")

#: How many ranked candidates a probe will fetch-and-verify before
#: giving up (each failed verification quarantines that record).
_PROBE_ATTEMPTS = 4

#: Trajectories longer than this are not worth shipping through the
#: pool or storing per entry; such jobs simply stay cold.
_MAX_RECORDED_BUMPS = 100_000

#: Per-job warm-start outcomes, in the process-global registry (like
#: the cache-probe counter: the corpus outlives any one service
#: instance, and ``/v1/metrics`` concatenates this registry in).
_WARMSTART = get_registry().counter(
    "repro_warmstart_total",
    "Warm-start outcomes per executed job (plus quarantined records).",
    ("result",),
)

#: Per-process corpus instances keyed by backend spec, so pool workers
#: and service drain threads amortize the index across jobs.
_RESOLVED: dict[str, "WarmCorpus"] = {}


def tech_digest(tech) -> str:
    """Hex digest of a technology parameter set (identity in records)."""
    canonical = canonical_json(asdict(tech))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def record_checksum(record: dict) -> str:
    """Checksum of a warm record (over everything but the checksum)."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]


def validate_record(record: object) -> str | None:
    """Cheap structural validation (no checksum); None when OK.

    Runs once per record at index time — the full :func:`verify_record`
    pass (checksum + data shapes) is deferred to selection.
    """
    if not isinstance(record, dict):
        return "not a mapping"
    if record.get("version") != WARM_RECORD_VERSION:
        return f"unsupported version {record.get('version')!r}"
    if record.get("fingerprint") != FINGERPRINT_VERSION:
        return f"unsupported fingerprint {record.get('fingerprint')!r}"
    if record.get("kind") not in _WARM_KINDS:
        return f"unknown kind {record.get('kind')!r}"
    if not isinstance(record.get("dag_sha"), str):
        return "missing dag_sha"
    if not isinstance(record.get("features"), dict):
        return "missing features"
    if not isinstance(record.get("checksum"), str):
        return "missing checksum"
    return None


def _is_numbers(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    )


def verify_record(record: object) -> str | None:
    """Full validation of a fetched record; None when usable."""
    reason = validate_record(record)
    if reason is not None:
        return reason
    assert isinstance(record, dict)
    if record_checksum(record) != record.get("checksum"):
        return "checksum mismatch"
    data = record.get("data")
    if not isinstance(data, dict):
        return "missing data"
    if record["kind"] == "sizing":
        bumps, trace = data.get("bumps"), data.get("trace")
        if not isinstance(bumps, list) or not all(
            isinstance(step, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in step)
            for step in bumps
        ):
            return "malformed bump trajectory"
        if not _is_numbers(trace) or len(trace) != len(bumps) + 1:
            return "malformed delay trace"
    else:  # wphase
        x, budgets = data.get("x"), data.get("budgets")
        if not _is_numbers(x) or not _is_numbers(budgets):
            return "malformed sizes/budgets"
        if len(x) != len(budgets):
            return "sizes/budgets length mismatch"
    return None


def _light_view(record: dict) -> dict:
    """The in-memory index row: identity + features, no trajectory."""
    return {
        key: record.get(key)
        for key in (
            "kind", "mode", "tech", "options", "delay_spec", "target",
            "dag_sha", "netlist_sha256", "features",
        )
    }


class WarmCorpus:
    """Retrieval index over the warm records of one result cache.

    The index is incremental: each :meth:`probe` rescans the backend's
    key set (cheap — keys only) and reads entries just once, so a
    long-lived service replica picks up records written by its peers
    without rebuilding from scratch.  Ranking sorts by
    ``(distance, key)``, making retrieval deterministic regardless of
    the order records were written — property-tested.
    """

    def __init__(self, store: ResultCache, spec: str | None = None):
        self.store = store
        #: Backend spec this corpus was resolved from, if any — what a
        #: parent process hands to pool workers (the corpus itself holds
        #: live connections and must not cross a pickle boundary).
        self.spec = spec
        self._index: dict[str, dict] = {}
        self._seen: set[str] = set()
        self._pending_quarantined = 0

    @classmethod
    def resolve(cls, source) -> "WarmCorpus | None":
        """Coerce a corpus reference into a live :class:`WarmCorpus`.

        Accepts None (no corpus), an existing corpus, a
        :class:`ResultCache`, or a backend spec string / path (cached
        per process so repeated jobs share one index).
        """
        if source is None:
            return None
        if isinstance(source, WarmCorpus):
            return source
        if isinstance(source, ResultCache):
            return cls(source)
        spec = str(source)
        corpus = _RESOLVED.get(spec)
        if corpus is None:
            corpus = _RESOLVED[spec] = cls(ResultCache(spec), spec=spec)
        return corpus

    def __len__(self) -> int:
        return len(self._index)

    def refresh(self) -> None:
        """Fold newly stored warm records into the index."""
        keys = set(self.store.scan())
        for stale in set(self._index) - keys:
            del self._index[stale]
        self._seen &= keys
        for key in sorted(keys - self._seen):
            self._seen.add(key)
            record = self.store.get_warm(key)
            if record is None:
                continue
            if validate_record(record) is not None:
                self.store.strip_warm(key)
                self._pending_quarantined += 1
                continue
            self._index[key] = _light_view(record)

    def probe(self, query: dict) -> tuple[dict | None, dict]:
        """Nearest verified record for ``query``: ``(record, info)``.

        ``info`` always carries ``scanned`` / ``quarantined`` counts
        plus the winning ``donor`` key and ``distance`` on a hit.
        Candidates that fail :func:`verify_record` at fetch time are
        quarantined in place and the next-nearest is tried.
        """
        info: dict = {
            "scanned": 0,
            "quarantined": 0,
            "donor": None,
            "distance": None,
        }
        self.refresh()
        info["quarantined"] += self._pending_quarantined
        self._pending_quarantined = 0
        kind = query.get("kind")
        ranked = sorted(
            (
                (fingerprint_distance(query, light), key)
                for key, light in self._index.items()
                if light.get("kind") == kind
            ),
            key=lambda pair: (pair[0], pair[1]),
        )
        info["scanned"] = len(ranked)
        for distance, key in ranked[:_PROBE_ATTEMPTS]:
            record = self.store.get_warm(key)
            reason = "record vanished" if record is None else verify_record(record)
            if reason is None:
                info["donor"] = key
                info["distance"] = distance
                return record, info
            self.store.strip_warm(key)
            self._index.pop(key, None)
            info["quarantined"] += 1
        return None, info


class WarmSession:
    """One job's warm-start context: probe, seed telemetry, record.

    Created worker-side by ``pool_entry`` when a corpus spec rides
    along; the executors call ``probe_*`` before solving, ``note_seed``
    after, and ``stage_*`` to attach the freshly computed trajectory.
    :meth:`as_obs` is the plain-dict summary shipped back in the
    worker's ``obs`` blob — the parent folds it into metrics
    (:func:`record_warm_outcome`) and stores the staged record with
    the cache entry.
    """

    def __init__(self, corpus: WarmCorpus | None):
        self.corpus = corpus
        self.telemetry: dict = {"hit": False, "seeded": False, "fallback": False}
        self.record: dict | None = None
        self._query: dict | None = None

    @classmethod
    def open(cls, source) -> "WarmSession | None":
        """A session for ``source`` (spec/corpus), or None when off.

        An unreachable or malformed corpus degrades to a cold run with
        the error noted in telemetry — never a failed job.
        """
        if source is None:
            return None
        try:
            return cls(WarmCorpus.resolve(source))
        except Exception as exc:  # noqa: BLE001 — warm start is best-effort
            session = cls(None)
            session.telemetry["error"] = f"{type(exc).__name__}: {exc}"
            return session

    # -- query construction -------------------------------------------

    def _build_query(
        self, kind: str, *, dag, tech, mode: str, options: dict,
        delay_spec: float | None, target: float | None,
    ) -> dict:
        query = {
            "version": WARM_RECORD_VERSION,
            "fingerprint": FINGERPRINT_VERSION,
            "kind": kind,
            "mode": mode,
            "tech": tech_digest(tech),
            "options": options,
            "delay_spec": None if delay_spec is None else float(delay_spec),
            "target": None if target is None else float(target),
            "netlist_sha256": None,
            "dag_sha": dag_digest(dag),
            "features": dag_features(dag),
        }
        self._query = query
        return query

    def _probe(self, query: dict) -> dict | None:
        if self.corpus is None:
            return None
        try:
            record, info = self.corpus.probe(query)
        except Exception as exc:  # noqa: BLE001 — warm start is best-effort
            self.telemetry["error"] = f"{type(exc).__name__}: {exc}"
            return None
        self.telemetry.update(info)
        self.telemetry["hit"] = record is not None
        return record

    def probe_sizing(
        self, *, dag, tech, mode: str, options, delay_spec: float | None,
        target: float,
    ) -> dict | None:
        """Nearest sizing record for this instance (or None)."""
        query = self._build_query(
            "sizing", dag=dag, tech=tech, mode=mode,
            options=asdict(options), delay_spec=delay_spec, target=target,
        )
        return self._probe(query)

    def probe_wphase(
        self, *, dag, tech, mode: str, delay_spec: float, budgets,
    ) -> dict | None:
        """Donor seed for a W-phase instance: ``{"x", "budgets",
        "dag_sha"}`` arrays ready for :func:`repro.sizing.wphase.w_phase`,
        or None."""
        query = self._build_query(
            "wphase", dag=dag, tech=tech, mode=mode,
            options={}, delay_spec=delay_spec, target=None,
        )
        record = self._probe(query)
        if record is None:
            return None
        data = record["data"]
        return {
            "x": np.asarray(data["x"], dtype=float),
            "budgets": np.asarray(data["budgets"], dtype=float),
            "dag_sha": record["dag_sha"],
        }

    # -- post-solve bookkeeping ----------------------------------------

    def note_seed(self, status: str | None) -> None:
        """Record how the seeding attempt went (after a probe hit)."""
        if not self.telemetry.get("hit"):
            return
        if status == "seeded":
            self.telemetry["seeded"] = True
        else:
            self.telemetry["fallback"] = True
            if status:
                self.telemetry["fallback_reason"] = status

    def _stage(self, data: dict) -> None:
        if self._query is None:
            return
        record = dict(self._query)
        record["data"] = data
        record["checksum"] = record_checksum(record)
        self.record = record

    def stage_sizing(self, seed, d_min: float) -> None:
        """Attach the job's own TILOS trajectory as a corpus record."""
        if seed.bumps is None or len(seed.bumps) > _MAX_RECORDED_BUMPS:
            return
        self._stage({
            "d_min": float(d_min),
            "bumps": [[int(v) for v in step] for step in seed.bumps],
            "trace": [float(cp) for cp in seed.trace],
        })

    def stage_wphase(self, result, budgets) -> None:
        """Attach the job's own W-phase solution as a corpus record."""
        self._stage({
            "x": [float(v) for v in result.x],
            "budgets": [float(b) for b in budgets],
        })

    def as_obs(self) -> dict:
        """Plain-dict summary for the worker's ``obs`` blob."""
        out = dict(self.telemetry)
        if self.record is not None:
            out["blob"] = self.record
        return out


def record_warm_outcome(warm: dict | None) -> None:
    """Fold one job's warm telemetry into ``repro_warmstart_total``.

    Called on the *parent* side (campaign driver / service ``_finish``)
    with the ``obs["warm"]`` dict a worker shipped back — worker-side
    counter increments would be lost with process pools and
    double-counted with thread pools, so this is the single place the
    metric moves.
    """
    if not warm:
        return
    quarantined = int(warm.get("quarantined") or 0)
    if quarantined:
        _WARMSTART.inc(quarantined, result="quarantined")
    if warm.get("seeded"):
        _WARMSTART.inc(result="seeded")
    elif warm.get("hit"):
        _WARMSTART.inc(result="fallback")
    else:
        _WARMSTART.inc(result="miss")


def warmstart_counts() -> dict[str, int]:
    """Per-result totals of ``repro_warmstart_total`` (for ``/v1/stats``).

    Reads the identical registry cells the Prometheus exposition
    serializes, so the two views can never disagree.
    """
    return {
        labels["result"]: int(value)
        for labels, value in _WARMSTART.items()
    }
