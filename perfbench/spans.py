"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer temporarily replaces a public name of the package (a module function
or a classmethod) with a wrapper that opens a span around the original call.
Nothing is installed unless a traced pass asks for it, so the untraced run
executes the package exactly as shipped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent index, scenario id], plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.scenario_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.scenario_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result, args, record[2] - record[1])
            return result

        return wrapper

    @contextmanager
    def installed(self, patches):
        """Install wrappers for (owner, attribute, span name, on_result)
        tuples and restore the originals on exit.

        on_result(counts, result, args, seconds) runs after each wrapped call
        and adds work counts taken from the call's public result.
        """
        saved = []
        try:
            for owner, attr, name, on_result in patches:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, name, on_result))
                else:
                    replacement = self._wrap(original, name, on_result)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
