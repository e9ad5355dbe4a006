"""In-memory spans for the traced benchmark run, written out as JSON lines.

A span records one call into a package layer: its name (`<module>.<function>`),
the id of the span that encloses it, the job it belongs to, its duration in
milliseconds and a dict of counters read from the call's inputs and outputs.
Self time is the duration minus the time covered by direct child spans; the
benchmark is single-threaded, so children never overlap.

`NullTracer` has the same interface and records nothing, so untraced runs pay
only for one attribute lookup and an empty context manager per call.
"""

import json
import time
from contextlib import contextmanager


class NullTracer:
    enabled = False

    @contextmanager
    def span(self, name, job=None, **counters):
        yield counters


class Tracer:
    enabled = True

    def __init__(self):
        self.records = []
        self._stack = []  # [record, child_ms] pairs of the open spans

    @contextmanager
    def span(self, name, job=None, **counters):
        parent = self._stack[-1][0] if self._stack else None
        rec = {
            "span": name,
            "id": len(self.records),
            "parent": None if parent is None else parent["id"],
            "job": job if job is not None or parent is None else parent["job"],
            "ms": 0.0,
            "self_ms": 0.0,
            "counters": counters,
        }
        self.records.append(rec)
        frame = [rec, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield counters
        finally:
            ms = (time.perf_counter() - t0) * 1e3
            self._stack.pop()
            rec["ms"] = ms
            rec["self_ms"] = ms - frame[1]
            if self._stack:
                self._stack[-1][1] += ms

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
