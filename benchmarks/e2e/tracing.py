"""Spans recorded from outside the program, around its public seams.

A :class:`Tracer` keeps ``(name, start, end, parent, op_id)`` records in
memory; :meth:`Tracer.wrap` replaces one attribute of a live object (a
loader's ``batch_at``, an optimizer's ``step``, a gateway's ``submit``)
with a recording wrapper, so nothing under ``src/`` changes.  Self time is
a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1, op_id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        while self._stack and self._stack.pop() != index:
            pass

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr`` from now on."""
        fn = getattr(obj, attr)
        setattr(obj, attr,
                lambda *args, **kwargs: self.timed(name, fn, *args, **kwargs))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once inside a span; returns its result."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def totals(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds, over the
        spans recorded from index ``since`` on."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[since:]:
            if end is not None and parent >= since:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[since:],
                                                     since):
            if end is None:
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += (end - start) - child.get(i, 0.0)
        return out

    def dump(self, path: str, workload: str) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({
                    "workload": workload, "name": name, "start": start,
                    "end": end, "parent": parent, "op_id": op_id}) + "\n")
