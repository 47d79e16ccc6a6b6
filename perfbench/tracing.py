"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end times, the span that caused it, and the
operation it belongs to: spans of one benchmark operation (one build, one
compare, one search pass) share an ``op`` number. Counts measured at the same
boundary ride along as extra attributes. Nothing is written until ``write``.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def per_op(self, name: str, field: str | None = None) -> list[float]:
        """Per operation, the summed duration (or ``field``) of spans called ``name``.

        Spans without ``field`` (their call raised) are left out.
        """
        totals: dict[int, float] = {}
        for span in self.spans:
            if span["name"] == name and (field is None or field in span):
                value = span["end"] - span["start"] if field is None else span[field]
                totals[span["op"]] = totals.get(span["op"], 0.0) + value
        return list(totals.values())

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time: duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                duration = span["end"] - span["start"]
                row = dict(span, self_s=duration - child_time[span["id"]])
                fh.write(json.dumps(row) + "\n")
