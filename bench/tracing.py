"""In-memory spans for the benchmark's traced runs.

A span is the interval of one call the benchmark makes into a layer of
the package.  Spans are recorded from the benchmark's own files, around
its calls into the public functions of ``cli``, ``core``, ``rates``,
``fock``/``optics`` and ``sim``; no package code is instrumented.  Every
span belongs to one operation (its ``op`` id) and names the span that
contains it (its ``parent``).  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from time import perf_counter as clock

# Field order of a span tuple.
NAME, OP, ID, PARENT, START, END, CALLS = range(7)


class Tracer:
    """Collects spans; ``operation`` opens a root span with a fresh op id."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack: list[tuple[int, int]] = []  # (op id, span id) of open spans

    def begin(self, name: str, new_operation: bool = False) -> tuple:
        """Open a span that later spans nest under; close it with ``end``."""
        span_id = next(self._ids)
        if new_operation or not self._stack:
            op, parent = span_id, None
        else:
            op, parent = self._stack[-1]
        self._stack.append((op, span_id))
        return (name, op, span_id, parent, clock())

    def end(self, opened: tuple, calls: int = 1) -> float:
        """Close the innermost open span; returns its duration in seconds."""
        name, op, span_id, parent, start = opened
        if self._stack.pop()[1] != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        stop = clock()
        self.spans.append((name, op, span_id, parent, start, stop, calls))
        return stop - start

    def record(self, name: str, start: float, stop: float, calls: int = 1) -> None:
        """Add a finished leaf span under the innermost open span."""
        op, parent = self._stack[-1] if self._stack else (None, None)
        span_id = next(self._ids)
        self.spans.append((name, op if op is not None else span_id, span_id, parent, start, stop, calls))

    def durations(self, name: str) -> list[float]:
        """Seconds per call of every span called ``name``."""
        return [(s[END] - s[START]) / s[CALLS] for s in self.spans if s[NAME] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append((s[START], s[END]))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s[START]
            for lo, hi in sorted(children.get(s[ID], ())):
                lo, hi = max(lo, cursor, s[START]), min(hi, s[END])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s[ID]] = (s[END] - s[START]) - covered
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: span count, calls, total and self seconds."""
        self_time = self.self_times()
        rows: dict[str, dict] = {}
        for s in self.spans:
            row = rows.setdefault(s[NAME], {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["calls"] += s[CALLS]
            row["total_s"] += s[END] - s[START]
            row["self_s"] += self_time[s[ID]]
        return rows

    def write(self, path) -> None:
        """One JSON object per span, with its self time."""
        self_time = self.self_times()
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "op": s[OP], "id": s[ID], "parent": s[PARENT],
                    "start_s": s[START] - t0, "end_s": s[END] - t0, "calls": s[CALLS],
                    "self_s": self_time[s[ID]],
                }) + "\n")
