"""Harness-side spans, kept in memory and written as Chrome-trace JSON.

Spans are recorded around the benchmark's own calls into each layer —
nothing in ``src/`` is instrumented (that is ROADMAP item 1). A span has
a name, start, end, the span that caused it and an operation id shared
by the spans of one compile or one request.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import List, Optional


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (name, start_s, end_s, parent index or None, op id, args)
        self.spans: List[tuple] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **args):
        """Time the enclosed block; yields the span's index (or None)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op, args)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[str] = None,
        **args,
    ) -> Optional[int]:
        """Record a span whose interval was measured elsewhere (a pass
        from the compiler's own records, a request from its timestamps)."""
        if not self.enabled:
            return None
        self.spans.append((name, start, end, parent, op, args))
        return len(self.spans) - 1

    def write_chrome(self, path: str) -> None:
        """Write the spans as complete ("X") events; open the file at
        chrome://tracing or ui.perfetto.dev. One row (tid) per op id."""
        spans = self.spans
        if not spans:
            return
        origin = min(s[1] for s in spans)
        tids = {}
        events = []
        for index, (name, start, end, parent, op, args) in enumerate(spans):
            tid = tids.setdefault(op or "harness", len(tids))
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"span": index, "parent": parent, "op": op, **args},
                }
            )
        for op, tid in tids.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": op}}
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
