"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side, by wrapping the functions a
layer exposes where its callers look them up.  Each span keeps its name, an
optional key (claim id and n, say), start and end in ``perf_counter_ns``
nanoseconds and the index of the span that was open when it started.
"""

from __future__ import annotations

import functools
import time


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.keys: list[object] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, key=None):
        """Return fn wrapped so that every call records one span.

        ``key`` maps the call's arguments to the span's key.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.keys.append(key(*args, **kwargs) if key else None)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0)
            self._open.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._open.pop()

        return traced

    def patch(self, module, attr: str, name: str, key=None) -> None:
        """Replace ``module.attr`` by its traced wrapper; a missing attribute is an error."""
        if not hasattr(module, attr):
            raise RuntimeError(f"{module.__name__}.{attr} is gone; the span {name} cannot be recorded")
        setattr(module, attr, self.wrap(name, getattr(module, attr), key))

    def durations_ns(self, name: str, where=None) -> list[int]:
        """Durations of the spans called ``name`` whose key passes ``where``."""
        return [
            self.ends[i] - self.starts[i]
            for i, span in enumerate(self.names)
            if span == name and (where is None or where(self.keys[i]))
        ]

    def self_ns(self, name: str) -> int:
        """Total time of the spans called ``name`` not covered by their direct child spans."""
        total = 0
        for i, span in enumerate(self.names):
            if span == name:
                total += self.ends[i] - self.starts[i]
        for i, parent in enumerate(self.parents):
            if parent >= 0 and self.names[parent] == name:
                total -= self.ends[i] - self.starts[i]
        return total
