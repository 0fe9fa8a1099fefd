"""In-memory span recorder for the traced run.

A span has a name, a start, an end, its parent span and the op it belongs
to. Spans are kept in a list and written out once, when the run ends. A
layer's self time is its span's duration minus the time its child spans
cover; calls are synchronous, so children never overlap each other.
"""

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.errors = 0
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self) -> int:
        self._op += 1
        return self._op

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except ValueError:
            self.errors += 1
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op: int) -> dict[str, float]:
        """Summed self time per span name within one op."""
        child_time = defaultdict(float)
        for record in self.spans:
            if record["op"] == op and record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals = defaultdict(float)
        for index, record in enumerate(self.spans):
            if record["op"] == op:
                totals[record["name"]] += record["end"] - record["start"] - child_time[index]
        return dict(totals)

    def dump(self, path: Path, extra: dict) -> None:
        Path(path).write_text(json.dumps({**extra, "spans": self.spans}))


class NullTracer:
    """Same interface, records nothing: the untraced in-process baseline."""

    errors = 0

    def begin_op(self) -> int:
        return 0

    def span(self, name: str):
        return contextlib.nullcontext()
