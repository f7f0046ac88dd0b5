"""In-memory spans recorded from the benchmark's own code.

A span is (name, start, end, parent, run id) plus an optional work count.
``Tracer.instrument`` wraps public engine calls of the benchmark process for
the duration of a ``with`` block, so each call opens a span under whatever
span is current; nothing inside the engine changes. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "count": count,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count_of):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                rec["count"] = count_of(args, out)
                return out

        return traced

    @contextlib.contextmanager
    def instrument(self, targets):
        """``targets``: (owner, attribute, span name, count_of(args, result))."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, count_of), (_, _, fn) in zip(targets, saved):
                setattr(owner, attr, self._wrap(fn, name, count_of))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summary(self, first: int = 0) -> dict[str, dict]:
        """Per span name, over spans recorded from index ``first`` on:
        calls, total and self seconds, summed work count."""
        spans = self.spans[first:]
        child_s: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        for s in spans:
            d = out[s["name"]]
            dur = s["end"] - s["start"]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child_s[s["id"]]
            d["count"] += s["count"] or 0
        return dict(out)

    def write(self, path: str, record: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, "record": record}) + "\n")
            for s in self.spans:
                f.write(json.dumps({"run_id": self.run_id, **s}) + "\n")
