"""In-memory span recorder for the traced pass.

A span is [op, id, parent, name, start, end, attrs].  Spans of one op
share the op index; a span's parent is the span that was open when it
started.  Nothing is written until the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result or
        None) may attach a small dict to the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[1])
            result = None
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[5] = clock()
                stack.pop()
                if attrs is not None:
                    rec[6] = attrs(args, kwargs, result)

        return traced

    @contextmanager
    def patched(self, targets):
        """Temporarily replace module attributes by traced wrappers.

        targets: (module, attribute, span name, attrs) tuples; attributes a
        module does not have are skipped.
        """
        saved = []
        try:
            for module, attr, name, attrs in targets:
                if hasattr(module, attr):
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn, attrs))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid] for _, sid, _, _, start, end, _ in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")
