"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns metric *families* (name + help + label
names); each family holds one sample per label-value combination.
Every mutation and read takes the family's lock, so drain threads,
HTTP handler threads and the stats endpoint can hammer the same
counters without torn updates — this registry is what ``/v1/stats``
and ``GET /v1/metrics`` are views over.

No dependencies beyond the stdlib: exposition is hand-rolled
`Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(``# HELP``/``# TYPE`` preambles, ``_total`` counter convention,
cumulative ``_bucket{le=...}`` histogram series ending in ``+Inf``).

Worker processes do not share this registry; their contribution flows
back as span lists in the ``obs`` blob beside each worker's
:class:`~repro.runner.executor.JobOutcome`, and is folded in by
:func:`observe_spans` on the parent side.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "observe_spans",
]

#: Default histogram buckets (seconds): microbenchmark latencies
#: through minute-scale solver jobs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


class _Family:
    """Shared machinery: label handling, locking, sample storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def items(self) -> list[tuple[dict, object]]:
        """Snapshot ``(labels_dict, value)`` pairs, sorted by labels."""
        with self._lock:
            pairs = sorted(self._samples.items())
        return [(dict(zip(self.labelnames, key)), value) for key, value in pairs]

    def _series(self, key: tuple[str, ...], suffix: str = "", extra: str = "") -> str:
        labels = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            labels.append(extra)
        body = "{" + ",".join(labels) + "}" if labels else ""
        return f"{self.name}{suffix}{body}"


class Counter(_Family):
    """Monotonically increasing sum (exposed with a ``_total`` suffix
    unless the name already carries one)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled sample (0.0 if never touched)."""
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return float(sum(self._samples.values()))

    def expose(self) -> list[str]:
        """Exposition lines (``# HELP``/``# TYPE`` + one per sample)."""
        suffix = "" if self.name.endswith("_total") else "_total"
        lines = [
            f"# HELP {self.name}{suffix} {self.help}",
            f"# TYPE {self.name}{suffix} counter",
        ]
        with self._lock:
            samples = sorted(self._samples.items())
        for key, value in samples:
            lines.append(f"{self._series(key, suffix)} {_format_value(value)}")
        return lines


class Gauge(_Family):
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Replace the labelled sample with ``value``."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        """Shift the labelled sample by ``amount`` (may be negative)."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled sample (0.0 if never set)."""
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def expose(self) -> list[str]:
        """Exposition lines (``# HELP``/``# TYPE`` + one per sample)."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        with self._lock:
            samples = sorted(self._samples.items())
        for key, value in samples:
            lines.append(f"{self._series(key)} {_format_value(value)}")
        return lines


class _HistSample:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket distribution (cumulative ``le`` series on expose)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled sample."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = self._samples[key] = _HistSample(len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    sample.counts[i] += 1
                    break
            sample.sum += value
            sample.count += 1

    def value(self, **labels: str) -> dict:
        """``{"count", "sum", "buckets": {le: cumulative}}`` snapshot."""
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            cumulative, out = 0, {}
            for bound, n in zip(self.buckets, sample.counts):
                cumulative += n
                out[_format_le(bound)] = cumulative
            return {"count": sample.count, "sum": sample.sum, "buckets": out}

    def expose(self) -> list[str]:
        """Exposition lines: cumulative ``_bucket`` series then
        ``_sum``/``_count`` per sample."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        with self._lock:
            samples = sorted(self._samples.items())
            snap = [
                (key, list(s.counts), s.sum, s.count) for key, s in samples
            ]
        for key, counts, total, count in snap:
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                extra = f'le="{_format_le(bound)}"'
                lines.append(f"{self._series(key, '_bucket', extra)} {cumulative}")
            lines.append(f"{self._series(key, '_sum')} {_format_value(total)}")
            lines.append(f"{self._series(key, '_count')} {count}")
        return lines


class MetricsRegistry:
    """A set of metric families with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the existing family when
    one with the same name is already registered (and raise if the
    kind or label names disagree), so call sites never need to
    coordinate creation order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def families(self) -> Iterator[_Family]:
        """Registered families, sorted by name."""
        with self._lock:
            snapshot = sorted(self._families.items())
        for _, family in snapshot:
            yield family

    def expose(self) -> str:
        """Render every family as Prometheus text exposition."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.expose())
        return "\n".join(lines) + "\n" if lines else ""


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (cache backends and other
    service-agnostic components record here)."""
    return _GLOBAL


def observe_spans(registry: MetricsRegistry, spans: Iterable[dict] | None) -> None:
    """Fold span durations into per-phase counters — this is how
    worker-process time shows up in the parent's ``/v1/metrics``."""
    if not spans:
        return
    seconds = registry.counter(
        "repro_phase_seconds_total",
        "Cumulative seconds spent in each instrumented span name.",
        ("phase",),
    )
    calls = registry.counter(
        "repro_phase_calls_total",
        "Number of completed spans per span name.",
        ("phase",),
    )
    for record in spans:
        name = str(record.get("name") or "?")
        seconds.inc(max(0.0, float(record.get("duration_s") or 0.0)), phase=name)
        calls.inc(1.0, phase=name)
