"""Trace contexts and spans: who spent the time, across processes.

A *trace* is one request/job's journey through the system; a *span* is
one named, timed phase inside it.  Spans nest: entering a
:class:`span` pushes its id as the current parent, so phases
instrumented deeper in the call stack attach to the right subtree
without any plumbing.

Propagation is explicit at every process boundary, because
:mod:`contextvars` does not cross threads or pickled pool calls:

* **HTTP** — clients send ``X-Repro-Trace: <trace_id>`` (optionally
  ``<trace_id>-<parent_span_id>``); the server resumes the context.
* **Work-queue rows** — the submitting replica allocates the job's
  lifecycle root span and stores ``trace_id-root_id`` in the row; the
  draining replica (possibly another process, days later) parents its
  ``queue.wait`` / execution spans under that root.
* **Process pools** — the parent passes a carrier dict (see
  :func:`current_carrier`) into ``pool_entry``; the worker buffers its
  spans in an in-memory :class:`SpanSink` and ships them back in the
  ``obs`` blob beside its :class:`~repro.runner.executor.JobOutcome`,
  where the parent's settle step re-emits them.

Finished spans are JSON objects appended to ``trace.jsonl``::

    {"type": "span", "trace": "…", "id": "…", "parent": "…"|null,
     "name": "minflo.d_phase", "ts": <wall start>,
     "duration_s": <monotonic>, "attrs": {…}}

Durations always come from ``time.perf_counter()`` (monotonic); the
``ts`` field is wall-clock and only used for ordering in reports.
Tracing is pay-as-you-go: with no active context, ``span(...)`` still
measures ``duration_s`` (callers like ``minflotransit`` reuse it for
``phase_seconds``) but allocates no ids and emits nothing.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "TRACE_HEADER",
    "SpanSink",
    "TraceContext",
    "current_carrier",
    "current_trace",
    "format_trace_header",
    "new_span_id",
    "new_trace_id",
    "parse_trace_header",
    "span",
    "span_record",
    "trace_scope",
]

#: HTTP header carrying ``trace_id`` or ``trace_id-parent_span_id``.
TRACE_HEADER = "X-Repro-Trace"

_MAX_ID_LEN = 64


# Ids come from a generator seeded once from the OS, not ``os.urandom``
# per id: a syscall that releases the GIL.  Forked children reseed.
_IDS = random.Random()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_IDS.seed)


def new_trace_id() -> str:
    """Return a fresh 16-hex-char trace id."""
    return f"{_IDS.getrandbits(64):016x}"


def new_span_id() -> str:
    """Return a fresh 8-hex-char span id."""
    return f"{_IDS.getrandbits(32):08x}"


def span_record(
    trace_id: str,
    span_id: str,
    parent: str | None,
    name: str,
    ts: float,
    duration_s: float,
    attrs: dict | None = None,
) -> dict:
    """One finished span as the JSON object ``trace.jsonl`` stores
    (``attrs`` is omitted when empty)."""
    record = {
        "type": "span",
        "trace": trace_id,
        "id": span_id,
        "parent": parent,
        "name": name,
        "ts": ts,
        "duration_s": duration_s,
    }
    if attrs:
        record["attrs"] = dict(attrs)
    return record


def format_trace_header(trace_id: str, span_id: str | None = None) -> str:
    """Encode a trace reference for the ``X-Repro-Trace`` header or a
    queue row: ``trace_id`` alone, or ``trace_id-span_id``."""
    if span_id:
        return f"{trace_id}-{span_id}"
    return trace_id


def parse_trace_header(value: str | None) -> tuple[str | None, str | None]:
    """Decode :func:`format_trace_header` output.

    Returns ``(trace_id, parent_span_id)``; malformed or oversized
    values yield ``(None, None)`` so a hostile header can never break
    request handling.
    """
    if not value:
        return None, None
    value = value.strip()
    if not value or len(value) > 2 * _MAX_ID_LEN + 1:
        return None, None
    trace_id, _, parent = value.partition("-")
    if not trace_id.isalnum():
        return None, None
    if parent and not parent.isalnum():
        return None, None
    return trace_id, parent or None


#: How often a file :class:`SpanSink` writes its queued records.
FLUSH_INTERVAL_S = 0.1

# One shared encoder: ``json.dumps(..., default=str)`` builds a fresh
# ``JSONEncoder`` per call, about a third of a span line's cost.
_encode = json.JSONEncoder(default=str).encode


class SpanSink:
    """Append-only destination for finished span records.

    With a ``path``, emitting only queues a record; a background thread
    encodes and appends the queue to the JSONL file every
    :data:`FLUSH_INTERVAL_S` seconds, in emit order, so a request pays
    no encode and no write for its spans.  :meth:`close` writes what is
    queued; after it, emits write straight through.  A process killed
    before :meth:`close` loses at most one interval of spans.  Without
    a path, records buffer in memory; :meth:`drain` hands them off,
    which is how worker processes ship spans back across the pool
    boundary.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._handle: Any = None
        self._buffer: list[dict] = []
        self._writer: threading.Thread | None = None
        self._closed = threading.Event()

    def emit(self, record: dict) -> None:
        """Append one span record."""
        self.emit_many((record,))

    def emit_many(self, records: Iterable[dict]) -> None:
        """Append several span records under one lock acquisition."""
        batch = [r for r in records if r]
        if not batch:
            return
        with self._lock:
            self._buffer.extend(batch)
            if self.path is None or self._writer is not None:
                return
            if not self._closed.is_set():
                self._writer = threading.Thread(
                    target=self._write_loop, name="span-sink", daemon=True,
                )
                self._writer.start()
                return
        self.flush()

    def _write_loop(self) -> None:
        while not self._closed.wait(FLUSH_INTERVAL_S):
            self.flush()

    def flush(self) -> None:
        """Write every queued record to the file now (file sinks)."""
        if self.path is None:
            return
        with self._write_lock:  # emitters only wait for the swap
            with self._lock:
                batch, self._buffer = self._buffer, []
            if not batch:
                return
            text = "".join(_encode(record) + "\n" for record in batch)
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(text)
            self._handle.flush()

    def drain(self) -> list[dict]:
        """Return and clear the in-memory buffer (file sinks: empty)."""
        if self.path is not None:
            return []
        with self._lock:
            out, self._buffer = self._buffer, []
            return out

    def close(self) -> None:
        """Write what is queued and close the file handle, if any."""
        self._closed.set()
        with self._lock:
            writer, self._writer = self._writer, None
        if writer is not None and writer is not threading.current_thread():
            writer.join()
        self.flush()
        with self._write_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


@dataclass
class TraceContext:
    """The active trace: id, current parent span, and output sink."""

    trace_id: str
    span_id: str | None = None
    sink: SpanSink | None = None


_CONTEXT: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)


def current_trace() -> TraceContext | None:
    """Return the active :class:`TraceContext`, or ``None``."""
    return _CONTEXT.get()


def current_carrier() -> dict | None:
    """Snapshot the active context as a pickleable carrier dict
    (``{"trace_id", "parent_id"}``) for handoff into a worker process,
    or ``None`` when no trace is active."""
    ctx = _CONTEXT.get()
    if ctx is None:
        return None
    return {"trace_id": ctx.trace_id, "parent_id": ctx.span_id}


@contextmanager
def trace_scope(
    sink: SpanSink | None = None,
    trace_id: str | None = None,
    parent_id: str | None = None,
) -> Iterator[TraceContext]:
    """Activate a trace context for the dynamic extent of the block.

    Omitting ``trace_id`` starts a new trace; passing one (plus an
    optional ``parent_id``) resumes a propagated trace so spans opened
    inside attach to the remote parent.
    """
    ctx = TraceContext(trace_id=trace_id or new_trace_id(), span_id=parent_id, sink=sink)
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)


class span:
    """Context manager timing one named phase.

    Always measures a monotonic ``duration_s`` (available after exit
    even with tracing disabled).  When a trace context is active it
    additionally allocates a span id, becomes the current parent for
    the duration of the block, and emits a span record on exit —
    including on exception, with an ``error`` attribute.

    ``sp.set(key=value)`` attaches structured attributes from inside
    the block.
    """

    __slots__ = ("name", "attrs", "duration_s", "_ctx", "_id", "_parent", "_ts", "_start")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.duration_s = 0.0

    def set(self, **attrs: Any) -> None:
        """Merge structured attributes into the span record."""
        self.attrs.update(attrs)

    def __enter__(self) -> "span":
        ctx = _CONTEXT.get()
        self._ctx = ctx
        if ctx is not None:
            self._id = new_span_id()
            self._parent = ctx.span_id
            ctx.span_id = self._id
            self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start
        ctx = self._ctx
        if ctx is not None:
            ctx.span_id = self._parent
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            if ctx.sink is not None:
                ctx.sink.emit(span_record(
                    ctx.trace_id, self._id, self._parent, self.name,
                    self._ts, self.duration_s, self.attrs,
                ))
        return False

