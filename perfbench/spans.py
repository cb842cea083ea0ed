"""Spans recorded from outside the program, around the calls into each layer.

A Tracer replaces a module attribute (or a class method) with a wrapper that
records one span per call: name, start, end, parent span and group id. Spans
stay in memory until the run ends. Nothing inside the program changes; the
wrappers are removed again by ``restore``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    group: str
    info: float | None = None  # a count taken from the call, e.g. rows computed

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.marks: list[tuple[str, float, str]] = []
        self.group = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``info(args, result)`` may return a number stored with the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.group)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        self._patch(owner, attr, original, traced)

    def mark(self, owner, attr: str, name: str) -> None:
        """Before every call of ``owner.attr``, record an instant and open a new
        group, so that the spans up to the next mark share one id (an epoch,
        a dialogue)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def marked(*args, **kwargs):
            tracer.group = f"{name}{len(tracer.marks)}"
            tracer.marks.append((name, time.perf_counter(), tracer.group))
            return original(*args, **kwargs)

        self._patch(owner, attr, original, marked)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def child_time(self) -> list[float]:
        """Per span, the time covered by its direct children. Spans are
        recorded from one thread, so children never overlap."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return covered

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "group": s.group,
                            "info": s.info,
                        }
                    )
                    + "\n"
                )
            for name, t, group in self.marks:
                fh.write(json.dumps({"mark": name, "time": t, "group": group}) + "\n")
