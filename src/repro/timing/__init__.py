"""Static timing analysis."""

from repro.timing.paths import (
    critical_vertices,
    enumerate_paths,
    k_worst_paths,
    path_delay,
)
from repro.timing.incremental import (
    IncrementalTimer,
    UpdateStats,
)
from repro.timing.sta import (
    GraphTimer,
    TimingReport,
    analyze,
    trace_critical_path,
)

__all__ = [
    "GraphTimer",
    "IncrementalTimer",
    "TimingReport",
    "UpdateStats",
    "analyze",
    "critical_vertices",
    "enumerate_paths",
    "k_worst_paths",
    "path_delay",
    "trace_critical_path",
]
