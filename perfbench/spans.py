"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and op id.  Spans are
opened by the benchmark around its calls into linkdelay's public
functions, so nothing inside the package is instrumented.  The untraced
run uses NullTracer, whose spans cost one shared no-op context manager.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracer that records nothing; used for the end-to-end measurement."""

    op = None

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """Collects spans in memory; write() stores them when the run ends."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so
        their durations never overlap and can be summed.
        """
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                selfs[parent] -= end - start
        return selfs

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
