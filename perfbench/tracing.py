"""In-memory spans recorded around calls into dynreg's layers.

A span is (name, start, end, parent). Spans stay in memory while the
benchmark runs and are written once at the end. A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(i)
        self.starts.append(_clock())
        self.ends.append(0.0)
        return i

    def end(self, i: int) -> float:
        self.ends[i] = _clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")
        return self.ends[i] - self.starts[i]

    def summary(self) -> dict:
        """Per name: count, total, self total and median duration, in seconds."""
        child_time = defaultdict(float)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        per = defaultdict(list)
        selfs = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            per[name].append(dur)
            selfs[name] += dur - child_time[i]
        return {
            name: {
                "count": len(d),
                "total_s": sum(d),
                "self_s": selfs[name],
                "median_s": statistics.median(d),
            }
            for name, d in per.items()
        }

    def write(self, path, extra: dict) -> None:
        """Write extra and every span as one JSON document."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        t0 = self.starts[0] if self.starts else 0.0
        doc["spans"] = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
