"""In-memory wrapper spans around calls into the program's public functions.

A span is ``[id, parent, name, start, end]`` with ``perf_counter`` times.
Wrappers go on the attribute the *caller* looks up (``repro.sizing.minflo.
d_phase``, not ``repro.sizing.dphase.d_phase``), so no file of the program
changes.  Spans stay in memory until the job ends and are written out by
the run that collected them.
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = ["Tracer", "self_times", "under"]


class Tracer:
    """Records one job's spans; single-threaded (a size worker)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, parent, name, start, end])

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function or property) by a span wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget))
        else:
            replacement = self.wrap(name, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> tuple[dict, dict]:
    """Per-name (self seconds, inclusive seconds).

    A span's self time is its duration minus its children's durations;
    children of one single-threaded parent never overlap, so their sum
    is the part of the parent's interval they cover.  Inclusive time
    counts only outermost spans of a name, so recursion through a name
    (``timing`` calling ``timing``) is not double counted.
    """
    by_id, child_time = _index(spans)
    selfs: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        selfs[name] += (end - start) - child_time[sid]
        if not _has_ancestor(by_id, parent, name):
            inclusive[name] += end - start
    return dict(selfs), dict(inclusive)


def under(spans: list[list], name: str, ancestor: str) -> float:
    """Self seconds of ``name`` spans that run inside an ``ancestor`` span."""
    by_id, child_time = _index(spans)
    return sum(
        (end - start) - child_time[sid]
        for sid, parent, n, start, end in spans
        if n == name and _has_ancestor(by_id, parent, ancestor)
    )


def _index(spans: list[list]) -> tuple[dict, dict]:
    """(span by id, summed child duration by parent id)."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {span[0]: span for span in spans}, child_time


def _has_ancestor(by_id: dict, parent, name: str) -> bool:
    while parent is not None:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False
