"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a layer of the program, or one
sample of a path, which encloses such calls.  Spans are kept as tuples in a
list and written out once, when the run ends.  The recorder also counts the
calls of one method the program makes internally (``DecodeState.feed``) and
charges each to the innermost open span.
"""

import json
import time
from contextlib import contextmanager

# Fields of a recorded span, in tuple order.
FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "calls")


class Recorder:
    def __init__(self):
        self.spans = []
        self.request = 0
        self._open = [0]        # ids of open spans; 0 stands for the run
        self._calls = [0]       # counted calls charged to each open span
        self._next_id = 1

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        self._open.append(sid)
        self._calls.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append((sid, self._open[-1], self.request, name, start,
                               end, self._calls.pop()))

    def wrap(self, name, fn, name_of=None):
        """fn, recording a span around every call.  name_of, when given,
        names the span from the call's arguments."""
        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs) if name_of else name):
                return fn(*args, **kwargs)
        return traced

    def count_calls(self, cls, method):
        """Patch cls.method to count its calls; returns the undo function."""
        original = getattr(cls, method)
        calls = self._calls

        def counted(*args, **kwargs):
            calls[-1] += 1
            return original(*args, **kwargs)

        setattr(cls, method, counted)
        return lambda: setattr(cls, method, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": FIELDS, "spans": self.spans}, out)
