"""In-memory spans around the benchmark's calls into each library layer.

A span records its name, start, end, the index of its parent span and the
pass it belongs to.  Spans stay in memory during the run and are written as
JSON once, when the run ends.  ``NULL_TRACER`` is what end-to-end passes use:
its ``span`` returns one shared no-op context, so tracing costs nothing there.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, pass id]
        self.pass_id = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def pass_times(self, pass_id):
        """``(total, self)`` seconds per span name within one pass.

        A span's self time is its duration minus the time its direct children
        cover; spans of one name are summed.
        """
        total, own = defaultdict(float), defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid != pass_id:
                continue
            total[name] += end - start
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return total, own

    def dump(self, path, origin: float) -> None:
        """Write every span with times in seconds from *origin*."""
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


class _NullTracer:
    _noop = contextlib.nullcontext()

    def span(self, name: str):
        return self._noop


NULL_TRACER = _NullTracer()
