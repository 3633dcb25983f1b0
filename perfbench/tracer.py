"""In-memory spans and counters for the traced benchmark run.

A span records (name, operation id, parent span, start, end) around one
call into a layer's public function.  Spans and counters stay in memory
and are written out once, when the run ends.  A disabled tracer hands out
one shared no-op context, so the untraced run pays only a method call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.ops.append(t.op)
        t.parents.append(t._stack[-1] if t._stack else -1)
        t.ends.append(0.0)
        t._stack.append(self.index)
        t.starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.ends[self.index] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    """Spans plus per-operation counters; ``op`` tags everything recorded.

    Spans are kept as parallel lists of atoms rather than one object per
    span, so a long run does not feed the cyclic garbage collector.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.op: int | None = None
        self.names: list[str] = []
        self.ops: list[int | None] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[int | None, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[self.op][name] += value

    # -- reading back ----------------------------------------------------

    def span_times(self, prefix: str) -> dict[int, float]:
        """Seconds per operation in spans named ``prefix`` or ``prefix.<anything>``."""
        out: dict[int, float] = defaultdict(float)
        dotted = prefix + "."
        for name, op, start, end in zip(self.names, self.ops, self.starts, self.ends):
            if name == prefix or name.startswith(dotted):
                out[op] += end - start
        return out

    def median_span_time(self, ops, prefix: str) -> float:
        times = self.span_times(prefix)
        return statistics.median(times.get(op, 0.0) for op in ops)

    def median_count(self, ops, name: str) -> float:
        return statistics.median(self.counts[op].get(name, 0.0) for op in ops)

    def total_count(self, ops, name: str) -> float:
        return sum(self.counts[op].get(name, 0.0) for op in ops)

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = {
            "name": self.names,
            "op": self.ops,
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }
        doc["counts"] = {str(op): dict(c) for op, c in self.counts.items()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
