"""Traced mode: spans recorded around calls into the program's layers.

The benchmark does not time the program through the program's own
instruments (``repro.obs``): a harness that reads the thing it measures
cannot catch that thing drifting.  Instead :class:`SpanRecorder` patches the
public functions and methods the benchmark drives, in the benchmark's
process only, for the length of a traced run, and restores them afterwards.

Each span records its name, start, end, parent span and the run id; spans
stay in memory and are written as JSONL when the run ends.  A layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

#: Called after a wrapped call returns: (instance or class, args, kwargs, result).
Observer = Callable[[object, tuple, dict, object], None]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span tree plus the method patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            self._ids += 1
            span_id = self._ids
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching -------------------------------------------------------------------
    def _timed(self, name: str, fn, observe: Optional[Observer] = None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(owner, *args, **kwargs):
            with recorder.span(name):
                result = fn(owner, *args, **kwargs)
            if observe is not None:
                observe(owner, args, kwargs, result)
            return result

        return wrapper

    def wrap(
        self, cls: type, attr: str, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Time every call of ``cls.attr`` (a method, property or
        classmethod defined on ``cls``) as span ``name``."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            patched = property(self._timed(name, original.fget, observe))
        elif isinstance(original, classmethod):
            patched = classmethod(self._timed(name, original.__func__, observe))
        else:
            patched = self._timed(name, original, observe)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, patched)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------------
    def self_times(self, start: float = float("-inf"), end: float = float("inf")) -> dict[str, float]:
        """Raw self seconds per span name, over spans that start in the window."""
        chosen = [s for s in self.spans if start <= s.start <= end]
        child_time: dict[int, float] = defaultdict(float)
        for span in chosen:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        totals: dict[str, float] = defaultdict(float)
        for span in chosen:
            totals[span.name] += span.seconds - child_time.get(span.id, 0.0)
        return dict(totals)

    def total_times(self, start: float = float("-inf"), end: float = float("inf")) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if start <= span.start <= end:
                totals[span.name] += span.seconds
        return dict(totals)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op function."""

        def noop(owner) -> None:
            return None

        timed = self._timed("trace.calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop(None)
        bare = time.perf_counter() - start
        before = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            timed(None)
        wrapped = time.perf_counter() - start
        with self._lock:
            del self.spans[before:]
        return max(0.0, (wrapped - bare) / calls)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )
